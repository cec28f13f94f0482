"""Result projection: every result table comes from one docmap take.

`SegmentSearcher._project` gathers the id columns and the metadata
columns of the kept rows in ONE `DocmapReader.meta_for` take, adds the
score column, and answers zero rows with a prebuilt typed empty table
of the same schema.  Collapse groups rows by int32 codes computed once
per field and kept resident.  These tests pin the schema of zero-hit
results against hits for every operator and call shape, the collapse
codes against the per-segment reference, and the single take.
"""

import numpy as np
import pyarrow as pa
import pytest

from chearch_ray import ast
from chearch_ray.pipelines.build import build_index
from chearch_ray.sources.corpus import synthetic_corpus
from chearch_ray.state import searcher as searcher_mod
from chearch_ray.state.engine import QueryEngine
from chearch_ray.state.searcher import SegmentSearcher
from chearch_ray.state.segment import DocmapReader
from tests.test_topk_merge import CFG64, CFG128, K, MISSING, _or, _reference, _terms

MODES = {"64": CFG64, "128": CFG128}


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    """the 240-doc corpus of tests/test_topk_merge.py over three
    segments, with every fifth doc's `lang` null."""
    import ray.data

    corpus = synthetic_corpus(240, seed=7)
    corpus = corpus.append_column(
        "doc_id", pa.array(np.arange(5000, 5000 + len(corpus), dtype=np.uint64)))
    langs = corpus["lang"].to_pylist()
    corpus = corpus.set_column(
        corpus.schema.get_field_index("lang"), "lang",
        pa.array([None if i % 5 == 0 else v for i, v in enumerate(langs)], type=pa.string()))
    base = tmp_path_factory.mktemp("projection")
    out = {}
    for mode, cfg in MODES.items():
        out[mode] = str(base / mode)
        build_index(ray.data.from_arrow(corpus), out[mode], cfg)
    return out


def _calls(eng: QueryEngine, terms: list[str], adj: list[str]) -> dict:
    """operator -> (public call with_meta -> table, SearcherGroup.topk
    method, its keyword arguments)."""
    node = _or(terms[:2])
    text = f"{terms[0]} OR {terms[1]}"
    idfs, pidfs = eng.idfs_for(_or(terms)), eng.idfs_for(_or(adj))
    avgdl = eng.avgdl
    cursor = (1e9, 0, 0) if eng.cfg.doc_id_bits == 128 else (1e9, 0)
    return {
        "search_parsed": (lambda wm: eng.search_parsed(text, k=K, with_meta=wm),
                          "search_bm25", dict(node=node, idfs=idfs, avgdl=avgdl)),
        "filtered": (lambda wm: eng.search_parsed(f"lang:py lang:go {text}", k=K,
                                                  with_meta=wm),
                     "search_bm25", dict(node=node, idfs=idfs, avgdl=avgdl,
                                         flt={"lang": ["py", "go"]})),
        "search_msm": (lambda wm: eng.search_msm(terms, 2, k=K, with_meta=wm),
                       "search_msm", dict(terms=terms, m=2, idfs=idfs, avgdl=avgdl)),
        "search_dismax": (lambda wm: eng.search_dismax(terms, tie=0.3, k=K, with_meta=wm),
                          "search_dismax", dict(terms=terms, tie=0.3, idfs=idfs,
                                                avgdl=avgdl)),
        "search_span_first": (lambda wm: eng.search_span_first(terms[0], 50, k=K,
                                                               with_meta=wm),
                              "search_span_first", dict(term=terms[0], limit_pos=50,
                                                        idfs=idfs, avgdl=avgdl)),
        "search_collapse": (lambda wm: eng.search_collapse(node, field="lang", k=3),
                            "search_collapse", dict(node=node, field="lang", idfs=idfs,
                                                    avgdl=avgdl)),
        "search_phrase": (lambda wm: eng.search_phrase(adj[:2], k=K),
                          "search_phrase", dict(terms=adj[:2], idfs=pidfs, avgdl=avgdl)),
        "search_near": (lambda wm: eng.search_near(adj[0], adj[2], slop=3, k=K),
                        "search_near", dict(term_a=adj[0], term_b=adj[2], slop=3,
                                            ordered=False, idfs=pidfs, avgdl=avgdl)),
        "search_near_all": (lambda wm: eng.search_near_all(adj, slop=6, k=K),
                            "search_near_all", dict(terms=adj, slop=6, idfs=pidfs,
                                                    avgdl=avgdl)),
        "search_after": (lambda wm: eng.search_after(node, cursor, k=K),
                         "search_bm25", dict(node=node, idfs=idfs, avgdl=avgdl,
                                             after=cursor)),
        "search_boolean": (lambda wm: eng.search_boolean(node, with_meta=wm), None, None),
    }


#: operators whose engine call takes with_meta
ENGINE_WITH_META = {"search_parsed", "filtered", "search_msm", "search_dismax",
                    "search_span_first", "search_boolean"}


@pytest.mark.parametrize("use_actors", [False, True])
@pytest.mark.parametrize("mode", list(MODES))
def test_zero_hit_schema_equals_hit_schema(indexes, mode, use_actors):
    """every operator and call shape: a zero-hit result has exactly the
    columns, order and types of a hit, through the engine and through
    SearcherGroup.topk, with metadata and without."""
    eng = QueryEngine(indexes[mode], use_actors=use_actors, max_actors=1)
    try:
        hot, adj = _terms(eng)
        miss = [MISSING, MISSING + "b", MISSING + "c"]
        hits, empties = _calls(eng, hot, adj), _calls(eng, miss, miss)
        ids = ["doc_id_hi", "doc_id"] if mode == "128" else ["doc_id"]
        meta = ["repo", "path", "commit", "lang"]
        for op, (call, method, kw) in hits.items():
            e_call, _, e_kw = empties[op]
            for wm in (True, False) if op in ENGINE_WITH_META else (True,):
                got, zero = call(wm), e_call(wm)
                assert len(got) > 0 and len(zero) == 0, (op, wm)
                assert zero.schema == got.schema, (op, wm, zero.schema, got.schema)
                scored = [] if op == "search_boolean" else ["score"]
                assert got.column_names == ids + scored + (meta if wm else []), (op, wm)
            if method is None:
                continue
            for wm in (True, False):
                got = eng._scatter("topk", method, K, with_meta=wm, **kw)[0]
                zero = eng._scatter("topk", method, K, with_meta=wm, **e_kw)[0]
                assert len(got) > 0 and len(zero) == 0, (op, wm)
                assert zero.schema == got.schema, (op, wm)
                assert got.column_names == ids + ["score"] + (meta if wm else []), (op, wm)
    finally:
        eng.close()


@pytest.mark.parametrize("mode", list(MODES))
def test_collapse_codes_match_reference_and_compute_once(indexes, mode, monkeypatch):
    """collapse on a `lang` column with nulls and values spread over
    every segment equals the per-segment reference merge; the group
    codes are computed once per field, as one resident int32 array."""
    calls = []
    orig = searcher_mod.column_codes
    monkeypatch.setattr(searcher_mod, "column_codes",
                        lambda arr: calls.append(len(arr)) or orig(arr))
    local = QueryEngine(indexes[mode], use_actors=False)
    # one group per segment: the engine's cross-group collapse merges
    # null and shared `lang` values; the default engine has one group
    actors = QueryEngine(indexes[mode], use_actors=True, max_actors=len(local.segments))
    default = QueryEngine(indexes[mode], use_actors=True)
    assert len(actors._actors) == len(local.segments) > 1
    searchers = [SegmentSearcher(local.index_dir, seg, local.cfg) for seg in local.segments]
    try:
        langs = [set(s.docmap.table["lang"].to_pylist()) for s in searchers]
        assert all(None in seg_langs for seg_langs in langs)
        assert set.intersection(*langs) - {None}
        hot, adj = _terms(local)
        queries = [_or(hot[:2]), _or(hot), ast.Term(hot[2]), _or(adj),
                   ast.And(ast.Term(hot[0]), ast.Term(hot[1]))]
        wants = []
        for i in range(20):
            node, k = queries[i % len(queries)], 2 + i % 4
            kw = dict(node=node, field="lang", k=k, idfs=local.idfs_for(node),
                      avgdl=local.avgdl)
            wants.append((node, k, _reference(searchers, "search_collapse", kw, "lang")))
        calls.clear()
        null_groups = 0
        for i, (node, k, want) in enumerate(wants):
            got = local.search_collapse(node, field="lang", k=k)
            assert len(want) > 0 and got.equals(want), (i, got.to_pylist(), want.to_pylist())
            null_groups += None in got["lang"].to_pylist()
            if i < len(queries):
                for eng in (actors, default):
                    assert eng.search_collapse(node, field="lang", k=k).equals(want), i
        assert null_groups > 0
        n_rows = len(local._group.searcher.docmap.doc_ids)
        assert calls == [n_rows]
        codes = local._group.searcher._collapse_codes
        assert list(codes) == ["lang"] and codes["lang"].dtype == np.int32
        assert codes["lang"].nbytes == 4 * n_rows
    finally:
        actors.close()
        default.close()


@pytest.mark.parametrize("mode", list(MODES))
def test_topk_takes_ids_with_metadata(indexes, mode, monkeypatch):
    """the one meta_for take carries the ids: top-k queries on a
    multi-segment local engine never gather ids through external_ids.
    Results own fresh buffers, never views of the resident docmap (a
    serialized view would ship the whole column)."""
    eng = QueryEngine(indexes[mode], use_actors=False)
    assert len(eng.segments) == 3
    hot, adj = _terms(eng)
    resident = [(b.address, b.address + b.size)
                for col in eng._group.searcher.docmap.table.columns
                for chunk in col.chunks for b in chunk.buffers() if b is not None]
    gathered = []
    orig = DocmapReader.external_ids
    monkeypatch.setattr(DocmapReader, "external_ids",
                        lambda self, ords: gathered.append(len(ords)) or orig(self, ords))
    for call, _, _ in _calls(eng, hot, adj).values():
        for wm in (True, False):
            out = call(wm)
            assert len(out) > 0
            for col in out.columns:
                for b in col.chunk(0).buffers():
                    assert b is None or not any(lo <= b.address < hi for lo, hi in resident)
    assert gathered == []


@pytest.mark.parametrize("mode", list(MODES))
def test_more_like_this_zero_hits_is_typed(indexes, mode):
    """more_like_this with no indexed term returns the engine's typed
    empty result (doc_id_hi included in wide mode), and k is validated
    before anything else."""
    eng = QueryEngine(indexes[mode], use_actors=False)
    hot, _ = _terms(eng)
    got = eng.more_like_this(" ".join(hot), k=K)
    zero = eng.more_like_this("zzz unseen", k=K)
    assert len(got) > 0 and len(zero) == 0
    assert zero.schema == got.schema
    assert ("doc_id_hi" in zero.column_names) == (mode == "128")
    for text in ("zzz unseen", " ".join(hot)):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            eng.more_like_this(text, k=0)
