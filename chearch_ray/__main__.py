"""CLI — the analogue of the reference's `chearch` / `chearch_srv`
binaries (chearch.chpl:main, chearch_srv.chpl:main).

    python -m chearch_ray build  --input DIR_OR_FILE --index DIR
                                 [--format parquet|json|csv|text]
                                 [--segments N] [--shards N] [--dedup exact]
    python -m chearch_ray search --index DIR --query "terms..."
                                 [--k 10] [--op or|and] [--boolean]
    python -m chearch_ray serve  --index DIR   (reads hex request lines
                                 on stdin, writes hex responses — the
                                 TCP byte contract without the socket)

Owns its Ray session (guarded init; the library never calls ray.init).
"""

from __future__ import annotations

import argparse
import sys


def _ensure_ray() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_build(args: argparse.Namespace) -> int:
    _ensure_ray()
    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.sources.corpus import read_corpus

    cfg = EngineConfig(
        num_segments=args.segments,
        num_term_shards=args.shards,
        doc_id_bits=args.doc_id_bits,
    )
    corpus = read_corpus(args.input, fmt=args.format, text_column=args.text_column)
    manifest = build_index(corpus, args.index, cfg, dedup=args.dedup)
    print(
        f"built {manifest.num_docs} docs, {len(manifest.postings_parts)} posting "
        f"partitions, avgdl={manifest.avgdl:.2f} -> {args.index}"
    )
    if args.docstore:
        from chearch_ray.state.docstore import build_docstore

        corpus = read_corpus(args.input, fmt=args.format,
                             text_column=args.text_column)
        r = build_docstore(corpus, args.index,
                           wide=(cfg.doc_id_bits == 128))
        print(f"docstore: {len(r['written'])} partitions written, "
              f"{len(r['skipped'])} resumed -> {args.index}/docstore")
    return 0


def cmd_delete(args: argparse.Namespace) -> int:
    from chearch_ray.pipelines.lifecycle import delete_docs

    ids = [int(x) for x in args.ids.split(",") if x]
    his = [int(x) for x in args.hi.split(",") if x] if args.hi else None
    path = delete_docs(args.index, ids, doc_ids_hi=his)
    print(f"tombstoned {len(ids)} docs -> {path}")
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    _ensure_ray()
    from chearch_ray.pipelines.lifecycle import compact_index

    manifest = compact_index(args.index, args.out)
    print(
        f"compacted -> {args.out}: {manifest.num_docs} docs, "
        f"{len(manifest.postings_parts)} posting partitions"
    )
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    _ensure_ray()
    from chearch_ray.pipelines.merge import merge_indexes
    from chearch_ray.state.docstore import has_docstore, merge_docstores

    manifest = merge_indexes(args.inputs, args.output)
    extra = ""
    if all(has_docstore(d) for d in args.inputs):
        r = merge_docstores(args.inputs, args.output)
        extra = f", docstore merged ({len(r['written'])} partitions)"
    elif any(has_docstore(d) for d in args.inputs):
        extra = ", docstore SKIPPED (mixed presence across inputs)"
        print("warning: some inputs carry a docstore and some do not; "
              "the merged index has none", file=sys.stderr)
    print(
        f"merged {len(args.inputs)} indexes -> {args.output}: "
        f"{manifest.num_docs} docs, {len(manifest.postings_parts)} posting "
        f"partitions{extra}"
    )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    modes = [name for name, on in [
        ("--snippets", args.snippets), ("--explain", args.explain),
        ("--msm", args.msm is not None),
        ("--collapse", args.collapse is not None),
        ("--facet-stats", args.facet_stats is not None),
        ("--boolean", args.boolean),
        ("--count", args.count),
    ] if on]
    if len(modes) > 1:
        # silent precedence between result modes would ignore a flag
        # the user typed (the --op lesson, ADVICE r4)
        print(f"error: {' and '.join(modes)} are mutually exclusive",
              file=sys.stderr)
        return 2
    _ensure_ray()
    from chearch_ray.state.engine import QueryEngine

    eng = QueryEngine(args.index, use_actors=not args.local)
    try:
        if args.snippets:
            try:
                out = eng.search_with_snippets(args.query, k=args.k,
                                               window=args.window,
                                               default_op=args.op)
            except FileNotFoundError as exc:
                # predictable operator mistake (index built without
                # --docstore): a clean message, not a traceback
                print(f"error: {exc}", file=sys.stderr)
                return 2
        elif args.explain:
            # grammar filters/boosts ride through parse_full like the
            # colon-routed search path
            if ":" in args.query or "^" in args.query:
                from chearch_ray.functions.queryparse import parse_full

                node, filters, boosts = parse_full(args.query, args.op)
                out = eng.explain(node, k=args.k, filter=filters,
                                  boosts=boosts)
            else:
                out = eng.explain(args.query, k=args.k, default_op=args.op)
        elif args.count:
            try:
                if ":" in args.query:
                    from chearch_ray.functions.queryparse import parse_full

                    node, filters, boosts = parse_full(args.query, args.op)
                    if boosts:
                        print("error: ^boosts do not apply to --count",
                              file=sys.stderr)
                        return 2
                    print(eng.count(node, filter=filters))
                else:
                    print(eng.count(args.query, default_op=args.op))
            except (ValueError, NotImplementedError) as exc:
                # malformed grammar / filter-only query / phrase+filter
                # — operator mistakes get one line, not a traceback
                print(f"error: {exc}", file=sys.stderr)
                return 2
            return 0
        elif args.msm is not None:
            try:
                if ":" in args.query:
                    from chearch_ray import ast as _ast
                    from chearch_ray.functions.queryparse import parse_full

                    from chearch_ray.functions.queryparse import (
                        contains_phrase,
                    )

                    node, filters, boosts = parse_full(args.query, "or")
                    if boosts:
                        print("error: ^boosts are not supported with "
                              "--msm", file=sys.stderr)
                        return 2
                    if contains_phrase(node):
                        print("error: phrases have no m-of-n reading "
                              "under --msm", file=sys.stderr)
                        return 2

                    def _has_neg(n):
                        if isinstance(n, _ast.AndNot):
                            return True
                        a, b = getattr(n, "a", None), getattr(n, "b", None)
                        return any(_has_neg(c) for c in (a, b)
                                   if c is not None)

                    if _has_neg(node):
                        # terms_of keeps only positives — silently
                        # dropping a typed negation would be the --op
                        # bug again
                        print("error: negation has no m-of-n reading "
                              "under --msm", file=sys.stderr)
                        return 2
                    # msm takes a flat term SET: the residual must be
                    # plain terms (terms_of raises on wildcard/fuzzy
                    # leaves, which have no m-of-n reading)
                    terms = [str(t) for t in _ast.terms_of(node)]
                    out = eng.search_msm(terms, args.msm, k=args.k,
                                         filter=filters)
                else:
                    # the plain path takes whitespace-split terms: an
                    # operator here would be counted as a term
                    ops = sorted({t for t in args.query.split()
                                  if t in ("AND", "OR", "NOT")})
                    if ops:
                        print(f"error: boolean operators have no m-of-n "
                              f"reading under --msm: {' '.join(ops)}",
                              file=sys.stderr)
                        return 2
                    out = eng.search_msm(args.query, args.msm, k=args.k)
            except (ValueError, NotImplementedError, TypeError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        elif args.facet_stats is not None:
            try:
                if ":" in args.query:
                    from chearch_ray.functions.queryparse import parse_full

                    node, filters, boosts = parse_full(args.query, args.op)
                    if boosts:
                        print("error: ^boosts do not apply to "
                              "--facet-stats", file=sys.stderr)
                        return 2
                    out = eng.facet_stats(node, by=args.facet_stats,
                                          filter=filters)
                else:
                    out = eng.facet_stats(args.query, by=args.facet_stats,
                                          default_op=args.op)
            except (ValueError, NotImplementedError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        elif args.collapse is not None:
            try:
                if ":" in args.query:
                    from chearch_ray.functions.queryparse import parse_full

                    node, filters, boosts = parse_full(args.query, args.op)
                    if boosts:
                        print("error: ^boosts are not supported with "
                              "--collapse", file=sys.stderr)
                        return 2
                    out = eng.search_collapse(node, field=args.collapse,
                                              k=args.k, filter=filters)
                else:
                    out = eng.search_collapse(args.query,
                                              field=args.collapse,
                                              k=args.k,
                                              default_op=args.op)
            except (ValueError, NotImplementedError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        elif args.boolean:
            out = eng.search_boolean(args.query, default_op=args.op)
        elif ":" in args.query:
            # Lucene field:value filters ride the grammar parser; a
            # colon can't appear in a flat/grammar term, so this
            # changes no previously-valid query's meaning.  --op still
            # applies: it sets the implicit operator joining the
            # residual (non-filter) juxtaposed terms
            out = eng.search_parsed(args.query, k=args.k, default_op=args.op)
        else:
            out = eng.search(args.query, k=args.k, default_op=args.op)
        for row in out.to_pylist():
            print(row)
    except ValueError as exc:
        # operator mistakes on every path (e.g. --k 0) get one line
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        eng.close()
    return 0


def cmd_suffix_dict(args: argparse.Namespace) -> int:
    """Build the reversed-term dictionary sidecar at <index>/suffix —
    leading-wildcard queries (`*ing`) then expand via a range
    predicate over the rterm-sorted parquet instead of a vocabulary
    scan (state/suffixdict.py)."""
    _ensure_ray()
    from chearch_ray.state.engine import QueryEngine

    eng = QueryEngine(args.index, use_actors=False)
    try:
        out = eng.build_suffix_dictionary()
        print(f"suffix dictionary built at {out}")
    finally:
        eng.close()
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Verify an index directory against its manifest: every postings
    and docmap part must exist with the recorded sha256 (the lineage
    contract merge/resume rely on), and the term-stats file must load.
    Exit 0 = consistent, 1 = corruption/missing parts (listed)."""
    import os

    from chearch_ray.state.segment import Manifest, file_sha256

    m = Manifest.load(args.index)
    bad: list[str] = []
    n_ok = 0
    for kind, parts in (("postings", m.postings_parts), ("docmap", m.docmap_parts)):
        for p in parts:
            full = os.path.join(args.index, p["path"])
            if not os.path.exists(full):
                bad.append(f"{kind} {p['path']}: MISSING")
            elif file_sha256(full) != p["sha"]:
                bad.append(f"{kind} {p['path']}: sha mismatch")
            else:
                n_ok += 1
    stats = os.path.join(args.index, m.term_stats_path)
    if not os.path.exists(stats):
        bad.append(f"stats {m.term_stats_path}: MISSING")
    else:
        n_ok += 1
    # docstore sidecar, when present: commit record, footers, sorted
    # ids, hash routing (the DocstoreReader point-fetch contract)
    from chearch_ray.state.docstore import fsck_docstore

    dsr = fsck_docstore(args.index)
    bad.extend(dsr["bad"])
    n_ok += dsr["partitions"]
    for note in dsr["notes"]:
        print(f"fsck note: {note}")
    for line in bad:
        print(f"FSCK FAIL {line}")
    ds_part = (f", docstore {dsr['partitions']} partitions/"
               f"{dsr['rows']} rows" if dsr["partitions"] else "")
    print(f"fsck: {n_ok} parts ok, {len(bad)} bad, "
          f"{m.num_docs} docs, manifest v{m.version}{ds_part}")
    return 1 if bad else 0


def _post_load_test(eng) -> None:
    """chearch_srv.chpl:16 `post_load_test` (intent): prove the loaded
    index answers before accepting traffic — query the highest-df term
    and require at least one hit."""
    probe = max(eng._df, key=eng._df.get) if eng._df else None
    if probe is None:
        return
    hits = eng.search(probe, k=1)
    print(f"post-load test: '{probe}' -> {len(hits)} hit(s) "
          f"(df={eng.df(probe)})", flush=True)
    if eng.df(probe) > 0 and len(hits) == 0:
        raise SystemExit(
            "post-load test FAILED: indexed term returned no hits")


def cmd_serve(args: argparse.Namespace) -> int:
    # the combo is nonsensical on EVERY path, and argument validation
    # must precede any index load (--post-load-test builds a full
    # engine; an arg error after minutes of load is hostile)
    if args.pipelined and getattr(args, "v1_wire", False):
        print("error: --pipelined and --v1-wire are mutually exclusive",
              file=sys.stderr)
        return 2
    if getattr(args, "procs", 0) and args.procs > 1:
        # reference fork model (tcp/tcp_server.c:24): N processes
        # share the listen port via SO_REUSEPORT; no Ray in children
        from chearch_ray.serve import serve_multiprocess

        if getattr(args, "post_load_test", False):
            # probe BEFORE spawning listeners, with the same actorless
            # engine the children will build — a broken index must
            # fail the command, not leave N children serving it
            from chearch_ray.state.engine import QueryEngine

            probe_eng = QueryEngine(args.index, use_actors=False)
            try:
                _post_load_test(probe_eng)
            finally:
                probe_eng.close()
        # --procs has ALWAYS served v2 pipelined by default (existing
        # pipelined clients depend on it); --v1-wire opts down.  The
        # single-process path below keeps its own v1 default, so the
        # two flags are path-specific, not a shared default.
        pipelined = not getattr(args, "v1_wire", False)
        procs, port = serve_multiprocess(
            args.index, host=args.host, port=args.port, procs=args.procs,
            pipelined=pipelined,
        )
        proto = "v2 pipelined" if pipelined else "v1 wire"
        print(f"serving {proto} protocol on {args.host}:{port} "
              f"across {len(procs)} processes", flush=True)
        try:
            for p in procs:
                p.join()
        except KeyboardInterrupt:
            for p in procs:
                p.terminate()
        return 0
    _ensure_ray()
    from chearch_ray.serve import TcpQueryServer, WireEngine
    from chearch_ray.state.engine import QueryEngine

    # the index always loads from partitioned parquet segments — the
    # realized form of the reference's (declared, never-consumed)
    # `load_from_partitions` knob (chearch_srv.chpl:17)
    eng = QueryEngine(args.index, use_actors=not args.local)
    if getattr(args, "post_load_test", False):
        try:
            _post_load_test(eng)
        except SystemExit:
            eng.close()
            raise
    wire = WireEngine(eng)
    if args.tcp:
        import asyncio

        server = TcpQueryServer(
            wire, host=args.host, port=args.port, pipelined=args.pipelined
        )
        proto = "v2 pipelined" if args.pipelined else "v1 wire"
        try:
            print(f"serving {proto} protocol on {args.host}:{args.port}", flush=True)
            asyncio.run(server.serve_forever())
        except KeyboardInterrupt:
            pass
        finally:
            eng.close()
        return 0
    try:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                print(wire.handle(bytes.fromhex(line)).hex(), flush=True)
            except ValueError as exc:
                print(f"ERR {exc}", file=sys.stderr, flush=True)
    finally:
        eng.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="chearch_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("--input", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--format", default="parquet", choices=["parquet", "json", "csv", "text"])
    b.add_argument("--text-column", default=None)
    b.add_argument("--segments", type=int, default=1)
    b.add_argument("--shards", type=int, default=4)
    b.add_argument("--dedup", default="none", choices=["none", "exact"])
    b.add_argument("--docstore", action="store_true",
                   help="also write the <index>/docstore text sidecar "
                        "(result snippets / fetch serving)")
    b.add_argument("--doc-id-bits", type=int, default=64, choices=[64, 128],
                   help="128 = two-column (hi, lo) external ids with "
                        "segment-local posting ordinals")
    b.set_defaults(fn=cmd_build)

    fs = sub.add_parser("fsck", help="verify index files against manifest shas")
    fs.add_argument("--index", required=True)
    fs.set_defaults(fn=cmd_fsck)

    sd = sub.add_parser("suffix-dict",
                        help="build the reversed-term dictionary sidecar "
                             "(leading-wildcard `*ing` queries at scale)")
    sd.add_argument("--index", required=True)
    sd.set_defaults(fn=cmd_suffix_dict)

    mg = sub.add_parser("merge")
    mg.add_argument("--inputs", nargs="+", required=True)
    mg.add_argument("--output", required=True)
    mg.set_defaults(fn=cmd_merge)

    dl = sub.add_parser("delete")
    dl.add_argument("--index", required=True)
    dl.add_argument("--ids", required=True, help="comma-separated doc ids")
    dl.add_argument("--hi", default=None, help="comma-separated hi words (doc_id_bits=128)")
    dl.set_defaults(fn=cmd_delete)

    cp = sub.add_parser("compact")
    cp.add_argument("--index", required=True)
    cp.add_argument("--out", required=True)
    cp.set_defaults(fn=cmd_compact)

    s = sub.add_parser("search")
    s.add_argument("--index", required=True)
    s.add_argument("--query", required=True)
    s.add_argument("--k", type=int, default=10)
    s.add_argument("--op", default="or", choices=["or", "and"])
    s.add_argument("--boolean", action="store_true")
    s.add_argument("--explain", action="store_true",
                   help="per-(doc, term) BM25 scoring evidence instead "
                        "of results (tf/dl/df/idf/contribution rows)")
    s.add_argument("--snippets", action="store_true",
                   help="BM25 + docstore snippets (needs build --docstore)")
    s.add_argument("--window", type=int, default=2,
                   help="snippet context tokens on each side")
    s.add_argument("--count", action="store_true",
                   help="print the exact match count (never windowed "
                        "by partition_limit) instead of results")
    s.add_argument("--msm", type=int, default=None, metavar="M",
                   help="minimum-should-match: docs with at least M of "
                        "the query's whitespace-separated terms")
    s.add_argument("--collapse", default=None, metavar="FIELD",
                   help="field collapsing: best doc per distinct FIELD "
                        "value (a docmap metadata column), top-k groups")
    s.add_argument("--facet-stats", default=None, metavar="FIELD",
                   help="per-FIELD doc_len statistics (n/sum/min/max/"
                        "mean) over the FULL match set")
    s.add_argument("--local", action="store_true", help="in-process searchers (no actors)")
    s.set_defaults(fn=cmd_search)

    v = sub.add_parser("serve")
    v.add_argument("--index", required=True)
    v.add_argument("--local", action="store_true")
    v.add_argument("--tcp", action="store_true", help="real socket server (reference port 3033)")
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument("--port", type=int, default=3033)  # chearch_srv.chpl:15
    v.add_argument("--pipelined", action="store_true",
                   help="v2 id-framed protocol (many in-flight requests per connection)")
    v.add_argument("--v1-wire", action="store_true",
                   help="with --procs >1: serve the v1 one-shot wire "
                        "protocol instead of the default v2 pipelined")
    v.add_argument("--procs", type=int, default=1,
                   help=">1: SO_REUSEPORT multi-process serving (the "
                        "reference's fork-per-listener model, tcp_server.c:24)")
    v.add_argument("--post-load-test", action="store_true",
                   help="prove the loaded index answers a known-term query "
                        "before serving (chearch_srv.chpl:16 intent)")
    v.set_defaults(fn=cmd_serve)

    args = ap.parse_args(argv)
    code = args.fn(args)
    import ray

    if ray.is_initialized():
        ray.shutdown()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
