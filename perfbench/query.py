"""`query`: an in-process actorless QueryEngine answers a seeded stream
of distinct queries (no repeats) from three families:

* top-k     — `search_parsed`: single term, AND, OR, lang-filtered OR
* positional — `search_phrase`, `search_near`, `search_span_first`
* multi-term — `search_msm`, `search_dismax`, `search_collapse`

Terms are Zipf-drawn over the index vocabulary ranked by df, flat
enough that a run touches more distinct terms than the 4096 that each
segment's decode caches hold.  Segment evaluation, decode and projection
dominate; sampled answers must equal `chearch_ray.oracle.OracleIndex`."""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np
import pyarrow as pa

from common import (
    WORK,
    Outcome,
    Workload,
    build,
    content_bytes,
    ensure_corpus,
    index_bytes,
    pairs,
    read_corpus,
    summary,
)
from spans import per_request

K = 10
COLLAPSE_K = 4
#: Zipf exponent over df rank for query terms: far flatter than the
#: corpus's 1.3, so a 10 s run queries more distinct terms than the
#: 4096 each segment's decode caches hold
ZIPF_S = 0.5
#: (family, op, weight)
MIX = (
    ("topk", "single", 1), ("topk", "and", 1), ("topk", "or", 1), ("topk", "filtered", 1),
    ("positional", "phrase", 1), ("positional", "near", 1), ("positional", "span_first", 1),
    ("multiterm", "msm", 1), ("multiterm", "dismax", 1), ("multiterm", "collapse", 1),
)
FAMILIES = ("topk", "positional", "multiterm")
LANGS = ("py", "js", "java", "go", "c", "rs", "rb", "chpl")
#: at least this many ops per run, so the p99 has ten samples beyond it
MIN_OPS = 1100
#: every CHECK_EVERY-th query is checked against the oracle
CHECK_EVERY = 8
#: wall-clock cap on the post-run oracle checks
CHECK_BUDGET_S = 5.0


def ranked_vocab(index_dir) -> list[str]:
    """Index vocabulary by (df desc, term)."""
    import pyarrow.parquet as pq

    from chearch_ray.state.segment import Manifest

    m = Manifest.load(str(index_dir))
    stats = pq.read_table(str(index_dir / m.term_stats_path), columns=["term", "df"])
    order = sorted(zip(stats["df"].to_pylist(), stats["term"].to_pylist()),
                   key=lambda x: (-x[0], x[1]))
    return [t for _, t in order]


class ZipfTerms:
    """Seeded term sampler: P(rank r) proportional to r^-s."""

    def __init__(self, vocab: list[str], rng: np.random.Generator, s: float):
        self.vocab = vocab
        self.rng = rng
        w = np.arange(1, len(vocab) + 1, dtype=np.float64) ** -s
        self.cdf = np.cumsum(w) / w.sum()

    def draw(self, n: int) -> list[str]:
        """n distinct terms."""
        out: list[str] = []
        while len(out) < n:
            t = self.vocab[int(np.searchsorted(self.cdf, self.rng.random()))]
            if t not in out:
                out.append(t)
        return out


def query_stream(seed: int, vocab: list[str], lists):
    """Endless seeded stream of distinct queries (dicts).  `lists` is the
    tokenized corpus (pyarrow ListArray) that phrase/near pairs come
    from, so positional queries usually match."""
    rng = np.random.default_rng([seed, 2])
    terms = ZipfTerms(vocab, rng, ZIPF_S)
    offsets = np.asarray(lists.offsets)
    values = lists.values
    weights = np.array([w for _, _, w in MIX], dtype=np.float64)
    weights /= weights.sum()
    seen: set[str] = set()

    def adjacent(gap: int) -> list[str]:
        while True:
            d = int(rng.integers(len(offsets) - 1))
            lo, hi = int(offsets[d]), int(offsets[d + 1])
            if hi - lo > gap:
                o = lo + int(rng.integers(hi - lo - gap))
                a, b = values[o].as_py(), values[o + gap].as_py()
                if a != b:
                    return [a, b]

    while True:
        family, op, _ = MIX[int(rng.choice(len(MIX), p=weights))]
        q: dict = {"family": family, "op": op, "k": K}
        if op == "single":
            q["text"] = terms.draw(1)[0]
        elif op == "and":
            q["text"] = " ".join(terms.draw(2))
        elif op == "or":
            q["text"] = " OR ".join(terms.draw(2))
        elif op == "filtered":
            langs = sorted(rng.choice(LANGS, size=2, replace=False).tolist())
            q["text"] = " ".join(f"lang:{x}" for x in langs) + " " + " OR ".join(terms.draw(2))
        elif op == "phrase":
            q["terms"] = adjacent(1)
        elif op == "near":
            gap = int(rng.integers(2, 5))
            q["terms"] = adjacent(gap)
            q["slop"] = gap
        elif op == "span_first":
            q["term"] = terms.draw(1)[0]
            q["limit"] = int(rng.integers(5, 60))
        elif op == "msm":
            q["terms"] = terms.draw(int(rng.integers(3, 5)))
            q["m"] = 2
        elif op == "dismax":
            q["terms"] = terms.draw(int(rng.integers(2, 4)))
            q["tie"] = float(rng.choice([0.0, 0.3, 0.7]))
        else:  # collapse
            q["text"] = " OR ".join(terms.draw(2))
            q["k"] = COLLAPSE_K
        key = json.dumps(q, sort_keys=True)
        if key not in seen:
            seen.add(key)
            yield q


def run_query(eng, q: dict):
    """One engine call for a stream entry -> result table."""
    op, k = q["op"], q["k"]
    if q["family"] == "topk":
        return eng.search_parsed(q["text"], k=k)
    if op == "phrase":
        return eng.search_phrase(q["terms"], k=k)
    if op == "near":
        return eng.search_near(q["terms"][0], q["terms"][1], slop=q["slop"], k=k)
    if op == "span_first":
        return eng.search_span_first(q["term"], q["limit"], k=k)
    if op == "msm":
        return eng.search_msm(q["terms"], q["m"], k=k)
    if op == "dismax":
        return eng.search_dismax(q["terms"], tie=q["tie"], k=k)
    return eng.search_collapse(q["text"], field="lang", k=k)


def _rank(scores: dict[int, float], k: int) -> list[tuple[int, float]]:
    return sorted(scores.items(), key=lambda it: (-it[1], it[0]))[:k]


def expected(oracle, lang_of: dict[int, str], q: dict) -> list[tuple[int, float]]:
    """The oracle's answer for a stream entry."""
    from chearch_ray import ast
    from chearch_ray.functions.queryparse import parse_full

    op, k = q["op"], q["k"]
    if q["family"] == "topk":
        node, flt, _ = parse_full(q["text"], "and")
        if flt is None:
            return oracle.bm25_search(node, k)
        allowed = set(flt["lang"])
        return _rank({d: s for d, s in oracle.bm25_scores(node).items()
                      if lang_of[d] in allowed}, k)
    if op == "phrase":
        return oracle.phrase_search(q["terms"], k)
    if op == "near":
        return oracle.near_search(q["terms"][0], q["terms"][1], q["slop"], False, k)
    if op == "span_first":
        t = q["term"]
        first = oracle.positions.get(t, {})
        return _rank({d: s for d, s in oracle.bm25_scores(ast.Term(t)).items()
                      if min(first[d]) < q["limit"]}, k)
    if op == "msm":
        counts: dict[int, int] = {}
        for t in q["terms"]:
            for d in oracle.boolean_search(ast.Term(t)):
                counts[d] = counts.get(d, 0) + 1
        scores = oracle.bm25_scores(_or_chain(q["terms"]))
        return _rank({d: s for d, s in scores.items() if counts[d] >= q["m"]}, k)
    if op == "dismax":
        per = [oracle.bm25_scores(ast.Term(t)) for t in q["terms"]]
        out = {}
        for d in set().union(*per):
            total = best = 0.0
            for contrib in per:
                if d in contrib:
                    total += contrib[d]
                    best = max(best, contrib[d])
            out[d] = best + q["tie"] * (total - best)
        return _rank(out, k)
    # collapse: best doc per lang, top-k groups
    node, _, _ = parse_full(q["text"], "or")
    best: dict[str, tuple[int, float]] = {}
    for d, s in _rank(oracle.bm25_scores(node), len(lang_of)):
        best.setdefault(lang_of[d], (d, s))
    return _rank(dict(best.values()), k)


def _or_chain(terms: list[str]):
    from chearch_ray import ast

    node = ast.Term(terms[0])
    for t in terms[1:]:
        node = ast.Or(node, ast.Term(t))
    return node


class Query(Workload):
    name = "query"

    def setup(self) -> None:
        from chearch_ray.state.engine import QueryEngine

        self.paths, _ = ensure_corpus(self.seed, self.docs)
        self.index = self.dir / "index"
        build(self.paths, self.index, self.cfg)
        self.eng = QueryEngine(str(self.index), use_actors=False)
        # warm-up: one call per family loads the lazily-imported paths
        self.eng.search_parsed("def return", k=K)
        self.eng.search_phrase("return if", k=K)
        self.eng.search_msm(["def", "return", "if"], 2, k=K)

    def _inputs(self):
        from chearch_ray.functions.tokenizer import tokenize

        self.corpus = read_corpus(self.paths)
        cfg = self.cfg
        lists = tokenize(self.corpus["content"], lowercase=cfg.lowercase,
                         split_subtokens=cfg.split_subtokens, split_regex=cfg.token_split_regex)
        return query_stream(self.seed, ranked_vocab(self.index), lists)

    def measure(self, seconds: float) -> Outcome:
        from chearch_ray.functions.hashing import doc_id_from_keys
        from chearch_ray.oracle import OracleIndex

        stream = self._inputs()
        out = Outcome()
        lat: dict[str, list[float]] = {f: [] for f in FAMILIES}
        sampled, ran = [], []
        t_start = time.perf_counter()
        for i, q in enumerate(stream):
            if time.perf_counter() - t_start >= seconds and out.attempted >= MIN_OPS:
                break
            out.attempted += 1
            ran.append(q)
            t0 = time.perf_counter()
            try:
                res = run_query(self.eng, q)
            except Exception as exc:  # a failed op is counted, the run goes on
                print(f"query op failed: {q} {exc!r}", file=sys.stderr)
                out.failed += 1
                continue
            lat[q["family"]].append(time.perf_counter() - t0)
            if i % CHECK_EVERY == 0:
                sampled.append((q, pairs(res)))
        wall = time.perf_counter() - t_start

        oracle = OracleIndex(self.corpus, self.cfg)
        ids = doc_id_from_keys(self.corpus["repo"].to_pylist(), self.corpus["path"].to_pylist(),
                               self.corpus["commit"].to_pylist())
        lang_of = dict(zip((int(i) for i in ids), self.corpus["lang"].to_pylist()))
        t_check = time.perf_counter()
        for q, got in sampled:
            if time.perf_counter() - t_check > CHECK_BUDGET_S:
                break
            if not self.checker.same(got, expected(oracle, lang_of, q)):
                print(f"query mismatch: {q}", file=sys.stderr)
                out.failed += 1

        every = [x * 1e3 for f in FAMILIES for x in lat[f]]
        n = len(every)
        self.stream_path = WORK / "runs" / f"query-seed{self.seed}-stream.jsonl"
        self.stream_path.parent.mkdir(parents=True, exist_ok=True)
        self.stream_path.write_text("".join(json.dumps(q) + "\n" for q in ran))
        ratio = sum(index_bytes(self.index).values()) / content_bytes(self.corpus)
        out.metrics = {
            "throughput_per_s": (n / wall, "1/s", n),
            "latency_p50_ms": (statistics.median(every), "ms", n),
            "index_bytes_per_corpus_byte": (ratio, "ratio", 1),
        }
        out.detail = {"query_ms": summary(every, "ms"),
                      **{f"{f}_ms": summary([x * 1e3 for x in lat[f]], "ms") for f in FAMILIES},
                      "oracle_checked": self.checker.checked, "oracle_sampled": len(sampled),
                      "distinct_terms": len(_terms_of(ran)),
                      "stream": str(self.stream_path.relative_to(WORK.parent))}
        return out

    # ------------------------------------------------------------ traced
    def layers(self, tracer, seconds: float, min_ops: int = MIN_OPS) -> tuple[dict, dict]:
        """Replays the engine's orchestration per query on the
        benchmark's own SegmentSearcher instances, with a span around
        each layer call; the replayed answer must equal the engine's."""
        from chearch_ray.state.searcher import SegmentSearcher

        stream = self._inputs()
        searchers = [SegmentSearcher(str(self.index), seg, self.cfg) for seg in self.eng.segments]
        counts = {"blocks_decoded": 0, "blocks_total": 0, "rows": [], "bytes": [], "per_k": []}
        untraced = traced = 0.0
        ops = failed = 0
        t_start = time.perf_counter()
        for q in stream:
            t0 = time.perf_counter()
            want = pairs(run_query(self.eng, q))
            t1 = time.perf_counter()
            tracer.new_request()
            with tracer.span("engine.call"):
                got = self._replay(q, searchers, tracer, counts)
            traced += time.perf_counter() - t1
            untraced += t1 - t0
            ops += 1
            failed += not self.checker.same(got, want)
            if time.perf_counter() - t_start >= seconds and ops >= min_ops:
                break
        by_req = per_request(tracer.spans)
        self_by_req = per_request(tracer.spans, self_time=True)

        def med(name: str) -> float:
            vals = [r[name] * 1e3 for r in by_req.values() if name in r]
            return statistics.median(vals) if vals else 0.0

        metrics = {
            "queryparse.parse_ms": (med("queryparse.parse"), "ms"),
            "engine.idf_ms": (med("engine.idf"), "ms"),
            "engine.merge_ms": (med("engine.merge"), "ms"),
            "engine.self_ms": (statistics.median(
                r["engine.call"] * 1e3 for r in self_by_req.values()), "ms"),
            **{f"searcher.eval_ms.{f}": (med(f"searcher.{f}"), "ms") for f in FAMILIES},
            "searcher.blocks_decoded": (counts["blocks_decoded"] / ops, "count"),
            "searcher.blocks_total": (counts["blocks_total"] / ops, "count"),
            "searcher.decode_ratio": (
                counts["blocks_decoded"] / max(counts["blocks_total"], 1), "ratio"),
            "searcher.rows_returned": (statistics.mean(counts["rows"]), "count"),
            "searcher.bytes_returned": (statistics.mean(counts["bytes"]), "bytes"),
            "searcher.rows_per_k": (statistics.mean(counts["per_k"]), "ratio"),
        }
        return metrics, {"root": "engine.call", "ops": ops, "traced_s": traced,
                         "untraced_s": untraced, "failed": failed}

    def _replay(self, q: dict, searchers, tracer, counts) -> list[tuple[int, float]]:
        from chearch_ray import ast
        from chearch_ray.functions.queryparse import parse_full
        from chearch_ray.state.engine import parse_query
        from chearch_ray.state.searcher import bm25_idf

        eng, op, k = self.eng, q["op"], q["k"]
        avgdl = eng.avgdl
        if q["family"] == "topk":
            with tracer.span("queryparse.parse"):
                node, flt, boosts = parse_full(q["text"], "and")
            with tracer.span("engine.idf"):
                idfs = eng.idfs_for(node, boosts)
            if flt is None:
                def call(s):
                    return s.search_bm25(node, k, idfs, avgdl)
            else:
                def call(s):
                    return s.search_bm25_filtered(node, k, idfs, avgdl, flt)
        elif op in ("phrase", "near"):
            terms = q["terms"]
            with tracer.span("engine.idf"):
                idfs = {t: bm25_idf(eng.n_docs, eng.df(t)) for t in dict.fromkeys(terms)}
            if op == "phrase":
                def call(s):
                    return s.search_phrase(terms, k, idfs, avgdl)
            else:
                def call(s):
                    return s.search_near(terms[0], terms[1], q["slop"], False, k, idfs, avgdl)
        elif op == "span_first":
            with tracer.span("engine.idf"):
                idfs = eng.idfs_for(ast.Term(q["term"]))

            def call(s):
                return s.search_span_first(q["term"], q["limit"], k, idfs, avgdl)
        elif op in ("msm", "dismax"):
            with tracer.span("engine.idf"):
                idfs = eng.idfs_for(_or_chain(q["terms"]))
            if op == "msm":
                def call(s):
                    return s.search_msm(q["terms"], q["m"], k, idfs, avgdl)
            else:
                def call(s):
                    return s.search_dismax(q["terms"], q["tie"], k, idfs, avgdl)
        else:
            with tracer.span("queryparse.parse"):
                node = parse_query(q["text"], "or")
            with tracer.span("engine.idf"):
                idfs = eng.idfs_for(node)

            def call(s):
                return s.search_collapse(node, "lang", k, idfs, avgdl)
        tables = []
        before = [dict(s.decode_stats) for s in searchers]
        for s in searchers:
            with tracer.span(f"searcher.{q['family']}"):
                tables.append(call(s))
        for s, b in zip(searchers, before):
            counts["blocks_decoded"] += s.decode_stats["blocks_decoded"] - b["blocks_decoded"]
            counts["blocks_total"] += s.decode_stats["blocks_total"] - b["blocks_total"]
        rows = sum(len(t) for t in tables)
        counts["rows"].append(rows)
        counts["bytes"].append(sum(t.nbytes for t in tables))
        counts["per_k"].append(rows / k)
        with tracer.span("engine.merge"):
            return _merge(tables, k, collapse=op == "collapse")



def _merge(tables: list, k: int, collapse: bool) -> list[tuple[int, float]]:
    """The engine's driver-side merge: concat, global (score desc,
    doc_id asc) top-k; collapse keeps the best doc per lang first."""
    from chearch_ray.state.searcher import topk_order

    merged = pa.concat_tables(tables)
    if len(merged) == 0:
        return []
    scores = merged["score"].to_numpy()
    docs = merged["doc_id"].to_numpy()
    if not collapse:
        return pairs(merged.take(pa.array(topk_order(scores, docs, k), type=pa.int64())))
    order = topk_order(scores, docs, len(merged))
    langs = merged["lang"].to_pylist()
    seen, keep = set(), []
    for i in order.tolist():
        if langs[i] not in seen:
            seen.add(langs[i])
            keep.append(i)
            if len(keep) == k:
                break
    return pairs(merged.take(pa.array(keep, type=pa.int64())))


def _terms_of(queries: list[dict]) -> set[str]:
    out: set[str] = set()
    for q in queries:
        if "text" in q:
            out.update(w for w in q["text"].split() if w != "OR" and ":" not in w)
        out.update(q.get("terms", ()))
        if "term" in q:
            out.add(q["term"])
    return out
