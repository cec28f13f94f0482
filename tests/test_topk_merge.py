"""Late-materialized top-k: segments hand numpy hits to their
SearcherGroup, which merges them and projects docmap metadata once for
the final winners.

The reference here is the per-segment projection merge: every
segment's public Arrow result (`with_meta=True`, the default), concat,
global (score desc, doc key asc) top-k, and for collapse the first row
per field value.  Every top-k operator must return a table EQUAL to it
(schema, every column, order) on the local engine, on an actor engine
whose single group holds every segment, and on the default actor
engine — in 64-bit and in wide (doc_id_bits=128) id mode, including
documents that share their low 64 bits.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

from chearch_ray import ast
from chearch_ray.config import EngineConfig
from chearch_ray.functions.hashing import key16
from chearch_ray.functions.queryparse import parse_full
from chearch_ray.pipelines.build import build_index
from chearch_ray.sources.corpus import synthetic_corpus
from chearch_ray.state.engine import QueryEngine
from chearch_ray.state.searcher import (SegmentSearcher, _string_view, bm25_idf,
                                        topk_order)
from chearch_ray.state.segment import DocmapReader
from tests.test_wide_ids import _collision_corpus as wide_ids_collision_corpus

CFG64 = EngineConfig(num_segments=3, num_term_shards=3, block_size=16,
                     tokenize_batch_size=64)
CFG128 = dataclasses.replace(CFG64, doc_id_bits=128)
#: the one-segment colliding-lo64 index of tests/test_wide_ids.py
WIDE_IDS_CFG = EngineConfig(num_segments=1, num_term_shards=2, doc_id_bits=128,
                            input_columns=("content",))
K = 7
MISSING = "zzneverpresentzz"


def _collision_corpus() -> pa.Table:
    """wide ids: twelve identical short docs tie on every score; low
    words 6, 7 and 8 (one per segment) are each shared by four docs
    (hi 0..3), so the cross-member merge must break ties on the full
    (hi, lo) key — the low word alone orders them differently.  Longer
    docs around them."""
    rows = [{"doc_id": lo, "doc_id_hi": h, "content": "alpha beta gamma"}
            for lo in (6, 7, 8) for h in range(4)]
    rows += [{"doc_id": 100 + i, "doc_id_hi": i % 3,
              "content": f"alpha filler{i} beta gamma delta alpha beta"}
             for i in range(30)]
    t = pa.Table.from_pylist(rows)
    n = len(t)
    t = t.append_column("repo", pa.array(["r"] * n))
    t = t.append_column("path", pa.array([f"f{i}.py" for i in range(n)]))
    t = t.append_column("commit", pa.array(["c"] * n))
    t = t.append_column("lang", pa.array([("py", "go", "rs", "c")[i % 4] for i in range(n)]))
    for c in ("doc_id", "doc_id_hi"):
        t = t.set_column(t.schema.get_field_index(c), c, t[c].cast(pa.uint64()))
    return t


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    import ray.data

    corpus = synthetic_corpus(240, seed=7)
    corpus = corpus.append_column(
        "doc_id", pa.array(np.arange(5000, 5000 + len(corpus), dtype=np.uint64)))
    base = tmp_path_factory.mktemp("topk")
    out = {}
    for name, cfg, data in (("64", CFG64, corpus), ("128", CFG128, corpus),
                            ("collide", CFG128, _collision_corpus()),
                            ("wide_ids_fixture", WIDE_IDS_CFG, wide_ids_collision_corpus())):
        out[name] = str(base / name)
        build_index(ray.data.from_arrow(data), out[name], cfg)
    return out


def _terms(eng: QueryEngine) -> tuple[list[str], list[str]]:
    """the three highest-df terms, and three distinct adjacent tokens
    of one document (so phrase / near queries match)."""
    import pyarrow.parquet as pq

    from chearch_ray.functions.tokenizer import tokenize

    stats = pq.read_table(os.path.join(eng.index_dir, eng.manifest.term_stats_path))
    order = np.argsort(-stats["df"].to_numpy(), kind="stable")
    hot = [stats["term"][int(i)].as_py() for i in order[:3]]
    if eng.df("alpha"):
        return hot, ["alpha", "beta", "gamma"]
    cfg = eng.cfg
    docs = tokenize(synthetic_corpus(240, seed=7)["content"], lowercase=cfg.lowercase,
                    split_subtokens=cfg.split_subtokens,
                    split_regex=cfg.token_split_regex).to_pylist()
    for doc in docs:
        for i in range(len(doc) - 2):
            if len(set(doc[i:i + 3])) == 3:
                return hot, doc[i:i + 3]
    raise AssertionError("no three distinct adjacent tokens")


def _or(terms):
    node = ast.Term(terms[0])
    for t in terms[1:]:
        node = ast.Or(node, ast.Term(t))
    return node


def _cases(eng: QueryEngine, missing: bool = False) -> dict:
    """operator -> (engine call, segment method, segment kwargs,
    collapse field)."""
    hot, adj = _terms(eng)
    if missing:
        hot = adj = [MISSING, MISSING + "b", MISSING + "c"]
    avgdl = eng.avgdl
    node = _or(hot[:2])

    def pidf(terms):
        return {t: bm25_idf(eng.n_docs, eng.df(t)) for t in dict.fromkeys(terms)}

    q = f"lang:py lang:go {hot[0]} OR {hot[1]}"
    pnode, flt, boosts = parse_full(q, "and")
    top = eng.search(node, k=K)
    cut = top.slice(0, 1).to_pylist()
    cursor = ((0.0, 0) if not cut else
              (cut[0]["score"], cut[0]["doc_id_hi"], cut[0]["doc_id"])
              if "doc_id_hi" in top.column_names else (cut[0]["score"], cut[0]["doc_id"]))
    return {
        "search": (lambda e: e.search(node, k=K), "search_bm25",
                   dict(node=node, k=K, idfs=eng.idfs_for(node), avgdl=avgdl), None),
        "search_parsed": (lambda e: e.search_parsed(q, k=K), "search_bm25_filtered",
                          dict(node=pnode, k=K, idfs=eng.idfs_for(pnode, boosts),
                               avgdl=avgdl, flt=flt), None),
        "search_after": (lambda e: e.search_after(node, cursor, k=K), "search_bm25",
                         dict(node=node, k=K, idfs=eng.idfs_for(node), avgdl=avgdl,
                              after=cursor), None),
        "msm": (lambda e: e.search_msm(hot, 2, k=K), "search_msm",
                dict(terms=hot, m=2, k=K, idfs=eng.idfs_for(_or(hot)), avgdl=avgdl), None),
        "dismax": (lambda e: e.search_dismax(hot, tie=0.3, k=K), "search_dismax",
                   dict(terms=hot, tie=0.3, k=K, idfs=eng.idfs_for(_or(hot)),
                        avgdl=avgdl), None),
        "span_first": (lambda e: e.search_span_first(hot[0], 8, k=K), "search_span_first",
                       dict(term=hot[0], limit_pos=8, k=K,
                            idfs=eng.idfs_for(ast.Term(hot[0])), avgdl=avgdl), None),
        "collapse": (lambda e: e.search_collapse(node, field="lang", k=3), "search_collapse",
                     dict(node=node, field="lang", k=3, idfs=eng.idfs_for(node),
                          avgdl=avgdl), "lang"),
        "phrase": (lambda e: e.search_phrase(adj[:2], k=K), "search_phrase",
                   dict(terms=adj[:2], k=K, idfs=pidf(adj[:2]), avgdl=avgdl), None),
        "near": (lambda e: e.search_near(adj[0], adj[2], slop=3, k=K), "search_near",
                 dict(term_a=adj[0], term_b=adj[2], slop=3, ordered=False, k=K,
                      idfs=pidf(adj[::2]), avgdl=avgdl), None),
        "near_all": (lambda e: e.search_near_all(adj, slop=6, k=K), "search_near_all",
                     dict(terms=adj, slop=6, k=K, idfs=pidf(adj), avgdl=avgdl), None),
    }


def _reference(searchers, method: str, kw: dict, collapse: str | None) -> pa.Table:
    """the per-segment projection merge."""
    merged = pa.concat_tables([getattr(s, method)(**kw) for s in searchers])
    lo = merged["doc_id"].to_numpy().astype(np.uint64)
    key = (key16(merged["doc_id_hi"].to_numpy().astype(np.uint64), lo)
           if "doc_id_hi" in merged.column_names else lo)
    scores = merged["score"].to_numpy()
    if collapse is None:
        keep = topk_order(scores, key, kw["k"])
    else:
        vals, seen, keep = merged[collapse].to_pylist(), set(), []
        for i in topk_order(scores, key, len(merged)).tolist():
            if vals[i] not in seen and len(keep) < kw["k"]:
                seen.add(vals[i])
                keep.append(i)
    return merged.take(pa.array(keep, type=pa.int64()))


@pytest.mark.parametrize("mode", ["64", "128", "collide", "wide_ids_fixture"])
def test_every_topk_operator_matches_per_segment_merge(indexes, mode):
    local = QueryEngine(indexes[mode], use_actors=False)
    engines = {"local": local,
               "one_group": QueryEngine(indexes[mode], use_actors=True, max_actors=1),
               "actors": QueryEngine(indexes[mode], use_actors=True)}
    assert len(engines["actors"]._actors) == len(local.segments)
    searchers = [SegmentSearcher(local.index_dir, seg, local.cfg) for seg in local.segments]
    try:
        hits, empties = _cases(local), _cases(local, missing=True)
        for op, (call, method, kw, collapse) in hits.items():
            want = _reference(searchers, method, kw, collapse)
            # the fixture corpus has no lang column to filter on
            assert len(want) > 0 or (mode, op) == ("wide_ids_fixture", "search_parsed"), (mode, op)
            e_call, e_method, e_kw, _ = empties[op]
            want_empty = _reference(searchers, e_method, e_kw, collapse)
            assert len(want_empty) == 0 and want_empty.schema == want.schema, (mode, op)
            for name, eng in engines.items():
                got = call(eng)
                assert got.equals(want), (mode, op, name, got.to_pylist(), want.to_pylist())
                assert e_call(eng).equals(want_empty), (mode, op, name)
    finally:
        for name in ("one_group", "actors"):
            engines[name].close()


@pytest.mark.parametrize("mode", ["64", "128", "collide"])
def test_search_many_equals_per_query_search(indexes, mode):
    """search_many is each query's `search` result plus a query_id
    column, in query order, on every engine: a zero-hit query adds no
    rows, and the empty batch is the typed table of a zero-hit batch."""
    local = QueryEngine(indexes[mode], use_actors=False)
    engines = {"local": local,
               "one_group": QueryEngine(indexes[mode], use_actors=True, max_actors=1),
               "actors": QueryEngine(indexes[mode], use_actors=True)}
    hot, _ = _terms(local)
    queries = [_or(hot[:2]), MISSING, hot[2], f"{hot[0]} {hot[1]}",
               ast.And(ast.Term(hot[0]), ast.Term(hot[1]))]
    singles = [local.search(q, k=K) for q in queries]
    assert [len(t) > 0 for t in singles] == [True, False, True, True, True]
    want = pa.concat_tables([
        t.append_column("query_id", pa.array([i] * len(t), type=pa.int64()))
        for i, t in enumerate(singles)])
    ids = ["doc_id"] if mode == "64" else ["doc_id_hi", "doc_id"]
    try:
        for name, eng in engines.items():
            assert eng.search_many(queries, k=K).equals(want), (mode, name)
            zero = eng.search_many([MISSING], k=K)
            assert len(zero) == 0 and zero.schema == want.schema, (mode, name)
            empty = eng.search_many([], k=K)
            assert empty.equals(zero), (mode, name)
            assert empty.column_names == [*ids, "score", "repo", "path", "commit", "lang",
                                          "query_id"]
    finally:
        for name in ("one_group", "actors"):
            engines[name].close()


def test_wide_colliding_low_words_tie_break_on_full_key(indexes):
    """the twelve tied docs live in three segments: every engine
    orders them by (hi, lo), not by the low word."""
    want = [(0, 6), (0, 7), (0, 8), (1, 6), (1, 7)]
    local = QueryEngine(indexes["collide"], use_actors=False)
    assert {seg for seg in local.segments if np.isin(
        [6, 7, 8], SegmentSearcher(local.index_dir, seg, local.cfg).docmap.doc_ids).any()} \
        == set(local.segments)
    for eng in (local, QueryEngine(indexes["collide"], use_actors=True, max_actors=1)):
        top = eng.search("alpha beta gamma", k=5, default_op="and")
        assert list(zip(top["doc_id_hi"].to_pylist(), top["doc_id"].to_pylist())) == want
        eng.close()


def test_topk_projects_metadata_once(indexes, monkeypatch):
    """a top-k query on a multi-segment local engine issues exactly one
    docmap metadata take (the group's, for the k winners)."""
    eng = QueryEngine(indexes["64"], use_actors=False)
    hot, _ = _terms(eng)
    assert eng._group.searcher.segs == eng.segments and len(eng.segments) == 3
    meta_for = []
    orig = DocmapReader.meta_for
    monkeypatch.setattr(DocmapReader, "meta_for",
                        lambda self, ids, columns: meta_for.append(len(ids))
                        or orig(self, ids, columns))
    for call in (lambda: eng.search(_or(hot), k=K),
                 lambda: eng.search_msm(hot, 2, k=K),
                 lambda: eng.search_collapse(_or(hot), field="lang", k=3)):
        before = len(meta_for)
        out = call()
        assert len(out) > 0
        assert len(meta_for) - before == 1 and meta_for[-1] == len(out)


def test_string_view_rebases_offsets_over_shared_bytes():
    """a member's metadata column is a 32-bit view of the group's
    large_string copy: its offsets start at 0 however far into the
    group's bytes it begins, and it reads the group's data buffer."""
    col = pa.array(["aa", None, "bbb", "", "c", None, "dddd", "e"],
                   type=pa.large_string()).slice(1)
    for off, n in [(0, 7), (1, 3), (2, 4), (5, 2), (6, 1)]:
        view = _string_view(col, off, n)
        view.validate(full=True)
        assert view.equals(col.slice(off, n).cast(pa.string())), (off, n)
        assert np.frombuffer(view.buffers()[1], dtype=np.int32)[0] == 0
        data = col.buffers()[2]
        assert data.address <= view.buffers()[2].address <= data.address + data.size


@pytest.mark.parametrize("max_string_bytes", [None, 600])
def test_group_from_chunked_metadata_columns(indexes, monkeypatch, max_string_bytes):
    """docmaps whose metadata columns arrive in many chunks (as Arrow
    splits a column past 2 GiB): the group's docmap holds ONE
    contiguous chunk per column, one take serves a query, and every
    result equals the plain build.  Under the real 32-bit limit the
    group's string columns are pa.string(); under a stub limit smaller
    than the group's columns the group keeps large_string columns and
    casts only the winners."""
    from chearch_ray.state import segment as segment_mod

    plain = QueryEngine(indexes["64"], use_actors=False)
    orig_init = DocmapReader.__init__

    def chunked_init(self, path):
        orig_init(self, path)
        self.table = pa.Table.from_batches(self.table.to_batches(max_chunksize=5))

    monkeypatch.setattr(DocmapReader, "__init__", chunked_init)
    if max_string_bytes is not None:
        monkeypatch.setattr(segment_mod, "_MAX_STRING_BYTES", max_string_bytes)
    eng = QueryEngine(indexes["64"], use_actors=False)
    table = eng._group.searcher.docmap.table
    large = []
    for name in table.column_names:
        col = table[name]
        assert col.num_chunks == 1, name
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            fits = col.chunk(0).buffers()[2].size <= segment_mod._MAX_STRING_BYTES
            assert col.type == (pa.string() if fits else pa.large_string()), name
            large.append(not fits)
    assert any(large) == (max_string_bytes is not None)
    want = plain._group.searcher.docmap.table
    assert table.cast(want.schema).equals(want)
    hot, adj = _terms(plain)
    for call in (lambda e: e.search(_or(hot), k=K),
                 lambda e: e.search_msm(hot, 2, k=K),
                 lambda e: e.search_collapse(_or(hot), field="lang", k=3),
                 lambda e: e.search_phrase(adj[:2], k=K),
                 lambda e: e.search_boolean(_or(hot), limit=plain.n_docs + 1)):
        got, want = call(eng), call(plain)
        assert len(want) > 0 and got.equals(want)


def test_k_validation(indexes):
    """None means default_k; an int >= 1 is used as is; anything else
    is a one-line ValueError — never a silent rewrite of k."""
    eng = QueryEngine(indexes["64"], use_actors=False)
    hot, adj = _terms(eng)
    assert len(eng.search(_or(hot), k=None)) == eng.cfg.default_k
    assert len(eng.search(_or(hot), k=np.int64(3))) == 3
    calls = [lambda k: eng.search(_or(hot), k=k),
             lambda k: eng.search_msm(hot, 2, k=k),
             lambda k: eng.search_dismax(hot, k=k),
             lambda k: eng.search_phrase(adj[:2], k=k),
             lambda k: eng.search_many([hot[0]], k=k)]
    for call in calls:
        for bad in (0, -1, True, 2.5, "3"):
            with pytest.raises(ValueError, match="k must be an integer >= 1"):
                call(bad)


def test_cli_search_rejects_k_zero(indexes):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    p = subprocess.run(
        [sys.executable, "-m", "chearch_ray", "search", "--index", indexes["64"],
         "--local", "--query", "def", "--k", "0"],
        capture_output=True, text=True, env=env)
    assert p.returncode == 2, p.stdout + p.stderr
    assert p.stderr.startswith("error: k must be an integer >= 1")
    assert len(p.stderr.strip().splitlines()) == 1, p.stderr


@pytest.mark.parametrize("use_actors", [False, True])
def test_filtered_boolean_honours_with_meta(indexes, use_actors):
    """search_boolean(filter=…, with_meta=False) is id-only: its columns
    and rows are the unfiltered id-only result narrowed to the filter."""
    eng = QueryEngine(indexes["64"], use_actors=use_actors)
    try:
        hot, _ = _terms(eng)
        node, limit = _or(hot), eng.n_docs + 1
        flt = {"lang": ["py", "go"]}
        got = eng.search_boolean(node, filter=flt, limit=limit, with_meta=False)
        full = eng.search_boolean(node, limit=limit)
        keep = [i for i, lang in enumerate(full["lang"].to_pylist()) if lang in flt["lang"]]
        want = eng.search_boolean(node, limit=limit, with_meta=False).take(
            pa.array(keep, type=pa.int64()))
        assert got.column_names == ["doc_id"]
        assert 0 < len(got) < len(full)
        assert got.equals(want)
        assert eng.search_boolean(node, filter=flt, limit=limit).column_names == full.column_names
    finally:
        eng.close()
