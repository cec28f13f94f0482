"""Round-5 review fixes (ADVICE r4): default-op threading through the
grammar parser, exact overflow-proof moment accumulation, MediaResize
mixed-kind passthrough, broadcast_lookup_join zero-row type hints."""

import numpy as np
import pyarrow as pa
import pytest

from chearch_ray import ast
from chearch_ray.functions.queryparse import QueryParseError, parse, parse_full


def test_parse_default_op_or_juxtaposition():
    # juxtaposed terms join with the chosen default operator
    assert parse("merge sort", "or") == ast.Or(ast.Term("merge"),
                                               ast.Term("sort"))
    # the default default stays AND (grammar's documented behavior)
    assert parse("merge sort") == ast.And(ast.Term("merge"),
                                          ast.Term("sort"))
    # explicit AND binds tighter than the implicit OR joins
    assert parse("a b AND c", "or") == ast.Or(
        ast.Term("a"), ast.And(ast.Term("b"), ast.Term("c")))
    # parens inherit the default op
    assert parse("(a b) OR c", "or") == ast.Or(
        ast.Or(ast.Term("a"), ast.Term("b")), ast.Term("c"))


def test_parse_default_op_or_negation_anchors():
    # flat-parser parity: positives OR, negations anchor under AndNot
    assert parse("a -b c", "or") == ast.AndNot(
        ast.Or(ast.Term("a"), ast.Term("c")), ast.Term("b"))
    with pytest.raises(QueryParseError):
        parse("-a -b", "or")  # pure negation stays unbounded
    with pytest.raises(QueryParseError):
        parse("x", "xor")


def test_parse_full_threads_default_op():
    node, filters, boosts = parse_full("lang:py lang:go merge sort", "or")
    assert node == ast.Or(ast.Term("merge"), ast.Term("sort"))
    assert filters == {"lang": ["py", "go"]}
    assert boosts is None
    # default unchanged: residual terms AND together
    node, _, _ = parse_full("lang:py merge sort")
    assert node == ast.And(ast.Term("merge"), ast.Term("sort"))


def test_exact_sum_prod_no_int64_wrap():
    from chearch_ray.pipelines.analytics import _exact_sum_prod

    # price-scale cents squared over a large block wraps int64
    # ((1.1e7)^2 * 1e5 = 1.21e19 > 2^63) — the exact path must not
    a = np.full(100_000, 11_000_000, dtype=np.int64)
    assert _exact_sum_prod(a, a) == 100_000 * 11_000_000 ** 2
    assert _exact_sum_prod(a) == 100_000 * 11_000_000
    # single-product overflow falls back to the Python-int loop
    b = np.full(3, 4_000_000_000, dtype=np.int64)
    assert _exact_sum_prod(b, b) == 3 * 4_000_000_000 ** 2
    # mixed signs and empty
    c = np.array([5, -7, 11], dtype=np.int64)
    assert _exact_sum_prod(c, c) == 25 + 49 + 121
    assert _exact_sum_prod(np.array([], dtype=np.int64)) == 0


def test_media_resize_passes_non_images_through():
    from chearch_ray.stages.multimodal import MediaResize, synthesize_media_table

    imgs = synthesize_media_table(8, kind="image", seed=1)
    vids = synthesize_media_table(8, kind="video", seed=2)
    mixed = pa.concat_tables([imgs, vids])
    out = MediaResize(max_side=16)(mixed)
    assert len(out) == 16
    kinds = out["kind"].to_pylist()
    for i, kind in enumerate(kinds):
        if kind == "video":
            # sentinel dims and payload untouched — NOT clamped to 1x1/b''
            assert out["width"][i].as_py() == -1
            assert out["height"][i].as_py() == -1
            assert out["payload"][i].as_py() == mixed["payload"][i].as_py()
        else:
            assert max(out["width"][i].as_py(), out["height"][i].as_py()) <= 16
            assert len(out["payload"][i].as_py()) > 0


def test_broadcast_lookup_join_zero_row_type_hint(ray_session):
    import ray.data

    from chearch_ray.stages.joins import broadcast_lookup_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2], type=pa.int64()),
        "x": pa.array(["a", "b"])}))
    # a right side whose every block filters to zero rows: Ray may
    # lose the schema, so the hint must pin the payload types
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([9], type=pa.int64()),
        "name": pa.array(["z"])})).map_batches(
            lambda b: b.filter(pa.array([False] * len(b))),
            batch_format="pyarrow")
    out = broadcast_lookup_join(
        left, right, on="k", payload=["name"],
        payload_types={"name": pa.string()})
    assert out.count() == 0
    assert out.schema().base_schema.field("name").type == pa.string()
    # the hint wins even when Ray does report a declared schema —
    # proves the hint path is live, not shadowed by base_schema
    out2 = broadcast_lookup_join(left, right, on="k", payload=["name"],
                                 payload_types={"name": pa.large_string()})
    assert out2.schema().base_schema.field("name").type == pa.large_string()


def test_ivf_recall_on_clusterable_embeddings(ray_session):
    """VERDICT r4 #3: IVF recall on the driver's noise embeddings
    (0.66 @ nprobe=4) says nothing about the index — on data with real
    cluster structure the pruned probe must recover the true
    neighbors.  Mixture-of-Gaussians fixture, recall@10 >= 0.9."""
    import pyarrow.compute as pc
    import ray.data

    from chearch_ray.sources.corpus import clusterable_embeddings
    from chearch_ray.stages.similarity import (ivf_build, ivf_search,
                                               knn_brute_force)

    tbl = clusterable_embeddings(2048, dim=64, n_clusters=16, seed=123)
    qids = [5, 600, 1500, 2000]
    emb = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)
    qmat = emb[qids]
    ds = ray.data.from_arrow(tbl.select(["vec_id", "embedding"]))
    cent, asg = ivf_build(ds, n_centroids=16, sample_size=1024)
    asg = asg.materialize()
    appr = ivf_search(asg, cent, qmat, k=10, nprobe=4)
    hits = 0
    for qi in range(len(qids)):
        true = set(knn_brute_force(ds, qmat[qi:qi + 1],
                                   k=10)["vec_id"].to_pylist())
        got = set(appr.filter(pc.equal(appr["query_id"],
                                       qi))["vec_id"].to_pylist())
        hits += len(true & got)
    assert hits / (10 * len(qids)) >= 0.9


def test_ivfpq_recall_on_clusterable_embeddings(ray_session):
    """The 100-TB ANN configuration (IVFADC: residual PQ codes, m=8 x
    256 codes = 32x compression, nprobe=4/16, exact re-rank of a
    refine_k=100 shortlist) must recover the true neighbors on
    clusterable data.  Measured sweep (BASELINE.md round 5): 0.62
    recall without an adequate re-rank window (64 codes, refine_k=50)
    vs 0.96-1.0 at this config — the refine window is what makes PQ's
    lossy codes safe, so pin it."""
    import pyarrow.compute as pc
    import ray.data

    from chearch_ray.sources.corpus import clusterable_embeddings
    from chearch_ray.stages.similarity import (ivfpq_build,
                                               ivfpq_search_refined,
                                               knn_brute_force)

    tbl = clusterable_embeddings(2048, dim=64, n_clusters=16, seed=123)
    qids = [3, 257, 1111, 1500, 2000]
    emb = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)
    qmat = emb[qids]
    ds = ray.data.from_arrow(tbl.select(["vec_id", "embedding"]))
    cents, books, codes = ivfpq_build(
        ds, n_centroids=16, m=8, n_codes=256, sample_size=2048,
        residual=True)
    codes = codes.materialize()
    appr = ivfpq_search_refined(codes, cents, books, ds, qmat, k=10,
                                nprobe=4, refine_k=100, residual=True)
    hits = 0
    for qi in range(len(qids)):
        true = set(knn_brute_force(ds, qmat[qi:qi + 1],
                                   k=10)["vec_id"].to_pylist())
        got = set(appr.filter(pc.equal(appr["query_id"],
                                       qi))["vec_id"].to_pylist())
        hits += len(true & got)
    assert hits / (10 * len(qids)) >= 0.9


def test_wire_text_cache_hit_identical_and_bounded(ray_session, tmp_path):
    """The text-serving LRU must return byte-identical responses on
    hits, key on (k, query), and stay bounded by eviction."""
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.serve import WireEngine, build_text_request
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.state.engine import QueryEngine

    cfg = EngineConfig(num_segments=2, num_term_shards=2)
    corpus = synthetic_corpus(120, seed=42)
    build_index(ray.data.from_arrow(corpus), str(tmp_path / "tidx"), cfg)
    eng = QueryEngine(str(tmp_path / "tidx"), use_actors=False)
    wire = WireEngine(eng, text_cache_size=3)

    req = build_text_request("def return", k=5)
    cold = wire.handle(req)
    assert len(wire._text_cache) == 1
    assert wire.handle(req) == cold  # hit, byte-identical
    # a different k is a different cache entry (different result set)
    req3 = build_text_request("def return", k=3)
    assert len(wire.handle(req3)) < len(cold)
    # eviction keeps the cache bounded at its size
    for q in ("merge sort", "filter join", "hash scan"):
        wire.handle(build_text_request(q, k=5))
    assert len(wire._text_cache) == 3
    # evicted entries recompute to the same bytes
    assert wire.handle(req) == cold
    # malformed TEXT frames raise ValueError (the v2 loop answers
    # V2_MALFORMED for that id) and never poison the cache
    n_cached = len(wire._text_cache)
    for bad in (b"\xff", b"\xff\x00", b"\xff\x05\xff\xfe\xfd",
                b"\xff\x05"):
        with pytest.raises(ValueError):
            wire.handle(bad)
    assert len(wire._text_cache) == n_cached
    eng.close()


def test_serve_multiprocess_reuseport(ray_session, tmp_path):
    """SO_REUSEPORT fork-model serving (reference tcp_server.c:24):
    multiple processes share the port; text queries over several
    connections all answer, matching the in-process engine."""
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.serve import (WireEngine, build_text_request,
                                   decode_text_response, query_text_multi,
                                   serve_multiprocess)
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.state.engine import QueryEngine

    from chearch_ray.serve import query_snippets_pipelined
    from chearch_ray.state.docstore import build_docstore

    cfg = EngineConfig(num_segments=2, num_term_shards=2)
    corpus = synthetic_corpus(120, seed=42)
    build_index(ray.data.from_arrow(corpus), str(tmp_path / "mpidx"), cfg)
    build_docstore(ray.data.from_arrow(corpus), str(tmp_path / "mpidx"),
                   n_partitions=4)
    procs, port = serve_multiprocess(str(tmp_path / "mpidx"), procs=2,
                                     workers=1)
    try:
        queries = ["def return", "merge sort", "filter join", "hash scan"] * 4
        out = query_text_multi("127.0.0.1", port, queries, k=5, conns=4)
        assert all(r is not None for r in out)
        # parity with the in-process engine through the same codec
        eng = QueryEngine(str(tmp_path / "mpidx"), use_actors=False)
        want = decode_text_response(
            WireEngine(eng).handle(build_text_request("def return", k=5)))
        assert out[0] == want
        # 0xFE search-and-display frames work through the fork model
        # too: each child opens its own DocstoreReader over the sidecar
        snips = query_snippets_pipelined("127.0.0.1", port,
                                         ["merge sort"], k=5)[0]
        loc = eng.search_with_snippets("merge sort", k=5, default_op="and")
        assert snips is not None
        assert [h[0] for h in snips] == loc["doc_id"].to_pylist()
        assert [h[3] for h in snips] == loc["snippet"].to_pylist()
        eng.close()
    finally:
        for p in procs:
            p.terminate()


def test_media_pil_backend_real_decode():
    """When Pillow exists in the runtime the pil backend does a REAL
    decode -> thumbnail -> re-encode (skipped in the codec-less
    sandbox; VERDICT r4 #8)."""
    PIL = pytest.importorskip("PIL.Image")
    import io

    from chearch_ray.stages.multimodal import (MediaFeatureExtract,
                                               MediaResize)

    img = PIL.new("L", (64, 48), color=128)
    buf = io.BytesIO()
    img.save(buf, format="PNG")
    payload = buf.getvalue()
    media = pa.table({
        "media_id": pa.array([0], type=pa.int64()),
        "kind": pa.array(["image"]),
        "format": pa.array(["png"]),
        "width": pa.array([64], type=pa.int32()),
        "height": pa.array([48], type=pa.int32()),
        "duration_ms": pa.array([-1], type=pa.int32()),
        "payload": pa.array([payload], type=pa.binary()),
    })
    out = MediaResize(max_side=16, backend="pil")(media)
    assert max(out["width"][0].as_py(), out["height"][0].as_py()) <= 16
    resized = PIL.open(io.BytesIO(out["payload"][0].as_py()))
    assert (resized.width, resized.height) == (out["width"][0].as_py(),
                                               out["height"][0].as_py())
    feats = MediaFeatureExtract(backend="pil")(media)
    v = np.asarray(feats["features"][0].as_py())
    assert abs(v.sum() - 1.0) < 1e-5  # normalized pixel histogram


def test_parse_grammar_property_never_crashes():
    """Property: over a fuzz grammar of terms/operators/parens, parse
    either returns a well-formed AST (no parse-time wrapper leaks,
    terms lowercased) or raises QueryParseError — never anything else
    — under BOTH default operators; and for plain term juxtaposition
    the grammar agrees with the flat parser's shape."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from chearch_ray.state.engine import parse_query

    TOK = st.sampled_from(
        ["alpha", "Beta", "g0_x", "AND", "OR", "NOT", "(", ")",
         "-neg", '"two words"', "pre*", "fuz~1", "lang:py", "t^2"])

    def well_formed(n):
        if isinstance(n, (ast.Term,)):
            assert n.term == str(n.term).lower()
            return True
        for attr in ("a", "b"):
            if hasattr(n, attr):
                well_formed(getattr(n, attr))
        return True

    @settings(max_examples=300, deadline=None)
    @given(st.lists(TOK, min_size=1, max_size=7), st.sampled_from(["and", "or"]))
    def run(toks, op):
        q = " ".join(toks)
        try:
            node = parse(q, op)
        except QueryParseError:
            return
        well_formed(node)

    run()

    # plain juxtaposition: grammar with default_op == flat parser shape
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]),
                    min_size=1, max_size=5),
           st.sampled_from(["and", "or"]))
    def parity(terms, op):
        q = " ".join(terms)
        assert parse(q, op) == parse_query(q, op)

    parity()


def test_search_with_meta_false_identical_ids_and_scores(ray_session, tmp_path):
    """`with_meta=False` (the TCP text/snippet serving projection) must
    return exactly the (doc_id, score) columns of the full projection —
    same docs, same floats, same order — on both the local and the
    actor engine, filtered and unfiltered."""
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.state.engine import QueryEngine

    cfg = EngineConfig(num_segments=2, num_term_shards=2)
    corpus = synthetic_corpus(150, seed=7)
    build_index(ray.data.from_arrow(corpus), str(tmp_path / "midx"), cfg)
    queries = ["def return", "merge", "lang:py merge sort", "def OR merge"]
    for use_actors in (False, True):
        # a group per segment: the actor engine merges two groups' tables
        eng = QueryEngine(str(tmp_path / "midx"), use_actors=use_actors,
                          max_actors=cfg.num_segments)
        try:
            for q in queries:
                full = eng.search_parsed(q, k=6)
                slim = eng.search_parsed(q, k=6, with_meta=False)
                assert set(slim.column_names) == {"doc_id", "score"}
                assert slim["doc_id"].to_pylist() == full["doc_id"].to_pylist()
                assert slim["score"].to_pylist() == full["score"].to_pylist()
        finally:
            eng.close()


def test_cli_serve_procs_defaults_to_pipelined(ray_session, tmp_path):
    """`serve --procs N` has always served v2 pipelined; honoring the
    new --v1-wire opt-down must NOT flip that default (existing
    pipelined clients would get dropped connections).  Also pins the
    flag conflict to a clean exit 2."""
    import os
    import re
    import signal
    import subprocess
    import sys as _sys

    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.serve import query_text_pipelined
    from chearch_ray.sources.corpus import synthetic_corpus

    idx = str(tmp_path / "cliproc")
    build_index(ray.data.from_arrow(synthetic_corpus(60, seed=7)), idx,
                EngineConfig(num_segments=1, num_term_shards=2))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    r = subprocess.run(
        [_sys.executable, "-m", "chearch_ray", "serve", "--index", idx,
         "--procs", "2", "--pipelined", "--v1-wire", "--port", "0"],
        capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 2 and "mutually exclusive" in r.stderr
    # the conflict is nonsensical on EVERY path — the single-process
    # route must reject it too, and before any index load
    r1 = subprocess.run(
        [_sys.executable, "-m", "chearch_ray", "serve", "--index", idx,
         "--pipelined", "--v1-wire", "--port", "0"],
        capture_output=True, text=True, env=env, timeout=60)
    assert r1.returncode == 2 and "mutually exclusive" in r1.stderr
    p = subprocess.Popen(
        [_sys.executable, "-m", "chearch_ray", "serve", "--index", idx,
         "--procs", "2", "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        line = p.stdout.readline()
        m = re.search(r"serving v2 pipelined protocol on 127\.0\.0\.1:(\d+)",
                      line)
        assert m, f"unexpected banner: {line!r}"
        port = int(m.group(1))
        out = query_text_pipelined("127.0.0.1", port, ["def return"], k=3)
        assert out and out[0]  # v2 length-framed client answered
    finally:
        # SIGINT, not SIGTERM: the CLI parent blocks in p.join() and
        # only its KeyboardInterrupt handler terminates the spawned
        # listener children — a bare terminate() orphans both of them
        p.send_signal(signal.SIGINT)
        try:
            p.wait(timeout=30)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait(timeout=10)
