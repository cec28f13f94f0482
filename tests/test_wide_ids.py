"""doc_id_bits=128 mode: two-column (hi, lo) external ids with
segment-local posting ordinals (ROADMAP #6 / VERDICT r02 item 10).

The engine's internal posting values become dense per-segment row
ordinals of the (hi, lo)-sorted docmap — the reference's own
internal-docIndex / externalDocId split (documentid.chpl:17-24) — so
the uint64 codec, skip blocks and probe paths run unchanged while the
external id space is 128-bit (collision-free at 10^12 docs).
"""

import tempfile

import numpy as np
import pyarrow as pa
import pytest

from chearch_ray import ast
from chearch_ray.config import EngineConfig
from chearch_ray.pipelines.build import build_index
from chearch_ray.sources.corpus import synthetic_corpus
from chearch_ray.state.engine import QueryEngine

CFG64 = EngineConfig(num_segments=2, num_term_shards=3, block_size=16, tokenize_batch_size=64)
CFG128 = EngineConfig(
    num_segments=2, num_term_shards=3, block_size=16, tokenize_batch_size=64, doc_id_bits=128
)


@pytest.fixture(scope="module")
def engines(ray_session, tmp_path_factory):
    import ray.data

    corpus = synthetic_corpus(200, seed=42).append_column(
        "doc_id", pa.array(np.arange(1000, 1200, dtype=np.uint64), type=pa.uint64())
    )
    base = tmp_path_factory.mktemp("wide")
    d64, d128 = str(base / "idx64"), str(base / "idx128")
    build_index(ray.data.from_arrow(corpus), d64, CFG64)
    build_index(ray.data.from_arrow(corpus), d128, CFG128)
    return QueryEngine(d64, use_actors=False), QueryEngine(d128, use_actors=False)


QUERIES = [
    ast.Term("def"),
    ast.And(ast.Term("return"), ast.Term("if")),
    ast.Or(ast.Term("class"), ast.Term("import")),
    ast.And(ast.Or(ast.Term("def"), ast.Term("class")), ast.Term("return")),
    ast.Term("__never_present__"),
]


def test_wide_mode_result_parity(engines):
    """same corpus (explicit lo-64 ids, hi=0): wide and 64-bit indexes
    return identical boolean sets, BM25 ranks AND scores."""
    e64, e128 = engines
    for q in QUERIES:
        b64 = e64.search_boolean(q)
        b128 = e128.search_boolean(q)
        assert b64["doc_id"].to_pylist() == b128["doc_id"].to_pylist(), q
        assert set(b128["doc_id_hi"].to_pylist()) <= {0}
        s64, s128 = e64.search(q, k=10), e128.search(q, k=10)
        assert s64["doc_id"].to_pylist() == s128["doc_id"].to_pylist(), q
        assert s64["score"].to_pylist() == s128["score"].to_pylist(), q
        assert s64["repo"].to_pylist() == s128["repo"].to_pylist(), q


def test_wide_mode_search_after_pages_chain_exactly(engines):
    """Cursor pagination in doc_id_bits=128 mode: the cursor is
    (score, hi, lo), the segment-side qualification resolves posting
    ordinals to external keys, and chained pages reproduce the
    exhaustive ranking exactly (and match the 64-bit engine on this
    hi=0 corpus)."""
    e64, e128 = engines
    node = ast.Or(ast.Term("def"), ast.Term("return"))
    full = e128.search(node, k=1 << 20)
    pages = [e128.search(node, k=10)]
    for _ in range(3):
        last = pages[-1]
        if len(last) == 0:
            break
        cur = (last["score"][-1].as_py(), last["doc_id_hi"][-1].as_py(),
               last["doc_id"][-1].as_py())
        pages.append(e128.search_after(node, cur, k=10))
    got = pa.concat_tables(pages)
    n = len(got)
    assert got["doc_id"].to_pylist() == full["doc_id"].to_pylist()[:n]
    assert got["doc_id_hi"].to_pylist() == full["doc_id_hi"].to_pylist()[:n]
    assert got["score"].to_pylist() == full["score"].to_pylist()[:n]
    # parity with the 64-bit engine's page 2 on the same corpus
    p1 = e64.search(node, k=10)
    cur64 = (p1["score"][-1].as_py(), p1["doc_id"][-1].as_py())
    assert (e64.search_after(node, cur64, k=10)["doc_id"].to_pylist()
            == pages[1]["doc_id"].to_pylist())


def test_wide_mode_phrase_parity(engines):
    e64, e128 = engines
    p64 = e64.search_phrase("def main", k=10)
    p128 = e128.search_phrase("def main", k=10)
    assert p64["doc_id"].to_pylist() == p128["doc_id"].to_pylist()
    assert p64["score"].to_pylist() == p128["score"].to_pylist()


def _collision_corpus() -> pa.Table:
    """three docs, two of which share the SAME low-64 id with
    different hi words — the adversarial input a 64-bit id space
    cannot represent."""
    rows = [
        {"doc_id": 7, "doc_id_hi": 1, "content": "alpha beta gamma delta"},
        {"doc_id": 7, "doc_id_hi": 2, "content": "epsilon zeta eta theta"},
        {"doc_id": 8, "doc_id_hi": 0, "content": "alpha zeta"},
    ]
    t = pa.Table.from_pylist(rows)
    for c in ("doc_id", "doc_id_hi"):
        t = t.set_column(t.schema.get_field_index(c), c, t[c].cast(pa.uint64()))
    return t


def test_wide_mode_colliding_lo64_docs_stay_distinct(ray_session, tmp_path):
    import ray.data

    cfg = EngineConfig(num_segments=1, num_term_shards=2, doc_id_bits=128,
                       input_columns=("content",))
    idx = str(tmp_path / "collide")
    build_index(ray.data.from_arrow(_collision_corpus()), idx, cfg)
    eng = QueryEngine(idx, use_actors=False)

    r = eng.search_boolean(ast.Term("alpha"))
    pairs = set(zip(r["doc_id_hi"].to_pylist(), r["doc_id"].to_pylist()))
    assert pairs == {(1, 7), (0, 8)}
    r2 = eng.search_boolean(ast.Term("epsilon"))
    assert set(zip(r2["doc_id_hi"].to_pylist(), r2["doc_id"].to_pylist())) == {(2, 7)}
    # BM25 over the colliding pair: both docs scored independently
    s = eng.search(ast.Or(ast.Term("alpha"), ast.Term("epsilon")), k=10)
    assert set(zip(s["doc_id_hi"].to_pylist(), s["doc_id"].to_pylist())) == {
        (1, 7), (2, 7), (0, 8)
    }


def test_wide_mode_duplicate_external_id_rejected(ray_session, tmp_path):
    """the SAME (hi, lo) pair twice corrupts the ordinal mapping and
    must fail the build loudly."""
    import ray.data

    rows = [
        {"doc_id": 7, "doc_id_hi": 1, "content": "aa bb"},
        {"doc_id": 7, "doc_id_hi": 1, "content": "cc dd"},
    ]
    t = pa.Table.from_pylist(rows)
    for c in ("doc_id", "doc_id_hi"):
        t = t.set_column(t.schema.get_field_index(c), c, t[c].cast(pa.uint64()))
    cfg = EngineConfig(num_segments=1, num_term_shards=1, doc_id_bits=128,
                       input_columns=("content",))
    with pytest.raises(Exception, match="duplicate external"):
        build_index(ray.data.from_arrow(t), str(tmp_path / "dup"), cfg)


def test_wide_mode_requires_partitioned_shuffle(ray_session, tmp_path):
    """wide ids need the unsalted exchange: docmap ordinals are assigned
    before postings finalize."""
    import ray.data

    cfg = EngineConfig(doc_id_bits=128, build_salt=2)
    with pytest.raises(ValueError, match="build_salt=1"):
        build_index(
            ray.data.from_arrow(_collision_corpus()), str(tmp_path / "bad"), cfg
        )


def test_wide_mode_wire_round_trip(ray_session, tmp_path):
    """TCP serving over a wide index: records carry the low word and
    position lookups resolve through the full (hi, lo) pair."""
    import ray.data

    from chearch_ray.functions import chasm
    from chearch_ray.serve import TcpQueryServer, WireEngine, query_over_socket
    from chearch_ray.sources.queries import term_id32

    cfg = EngineConfig(num_segments=1, num_term_shards=2, doc_id_bits=128,
                       input_columns=("content",))
    idx = str(tmp_path / "wire")
    build_index(ray.data.from_arrow(_collision_corpus()), idx, cfg)
    eng = QueryEngine(idx, use_actors=False)
    srv = TcpQueryServer(WireEngine(eng), port=0).start_background()
    try:
        buf = chasm.InstructionBuffer(256)
        chasm.InstructionWriter(buf).write_push_term(term_id32("alpha"))
        recs = query_over_socket("127.0.0.1", srv.port, buf.to_bytes())
        assert {r.external_doc_id for r in recs} == {7, 8}
        assert all(r.text_location == 0 for r in recs)  # 'alpha' is token 0
    finally:
        srv.stop()


def test_wide_mode_derived_ids_blake2b128(ray_session, tmp_path):
    """corpora without id columns derive 128-bit blake2b ids; hi is
    nonzero and results stay deterministic across rebuilds."""
    import ray.data

    corpus = synthetic_corpus(60, seed=9)
    cfg = EngineConfig(num_segments=2, num_term_shards=2, doc_id_bits=128)
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    build_index(ray.data.from_arrow(corpus), d1, cfg)
    build_index(ray.data.from_arrow(corpus), d2, cfg)
    e1, e2 = QueryEngine(d1, use_actors=False), QueryEngine(d2, use_actors=False)
    r1, r2 = e1.search(ast.Term("def"), k=10), e2.search(ast.Term("def"), k=10)
    assert r1["doc_id"].to_pylist() == r2["doc_id"].to_pylist()
    assert r1["doc_id_hi"].to_pylist() == r2["doc_id_hi"].to_pylist()
    assert any(h != 0 for h in r1["doc_id_hi"].to_pylist())


def test_wide_mode_merge_byte_identical(ray_session, tmp_path):
    """merging two disjoint wide-id indexes == building over the union
    corpus, byte-for-byte (ordinals remap through both docmaps;
    colliding low words across inputs survive)."""
    import ray.data

    from chearch_ray.pipelines.merge import merge_indexes
    from chearch_ray.sources.corpus import synthetic_corpus

    cfg = EngineConfig(num_segments=2, num_term_shards=2, tokenize_batch_size=32,
                       doc_id_bits=128)
    c = synthetic_corpus(120, seed=3)
    # explicit (hi, lo) ids with lo COLLIDING across the two halves
    lo = np.concatenate([np.arange(60, dtype=np.uint64), np.arange(60, dtype=np.uint64)])
    hi = np.concatenate([np.ones(60, dtype=np.uint64), np.full(60, 2, dtype=np.uint64)])
    c = c.append_column("doc_id", pa.array(lo, type=pa.uint64()))
    c = c.append_column("doc_id_hi", pa.array(hi, type=pa.uint64()))
    a, b, u = c.slice(0, 60), c.slice(60), c
    da, db, dm, du = (str(tmp_path / x) for x in ("a", "b", "m", "u"))
    build_index(ray.data.from_arrow(a), da, cfg)
    build_index(ray.data.from_arrow(b), db, cfg)
    m_union = build_index(ray.data.from_arrow(u), du, cfg)
    m_merged = merge_indexes([da, db], dm)
    shas_u = {p["part"]: p["sha"] for p in m_union.postings_parts}
    shas_m = {p["part"]: p["sha"] for p in m_merged.postings_parts}
    assert shas_u == shas_m
    dshas_u = {p["part"]: p["sha"] for p in m_union.docmap_parts}
    dshas_m = {p["part"]: p["sha"] for p in m_merged.docmap_parts}
    assert dshas_u == dshas_m
    eng = QueryEngine(dm, use_actors=False)
    r = eng.search_boolean(ast.Term("def"))
    assert len(r) > 0 and set(r["doc_id_hi"].to_pylist()) <= {1, 2}


def test_wide_mode_resume_after_failure(ray_session, tmp_path):
    """kill the wide build mid-postings-wave (docmaps already
    committed), resume, byte-identical manifest to an uninterrupted
    build."""
    import glob
    import os

    import ray.data

    corpus = synthetic_corpus(150, seed=6).append_column(
        "doc_id", pa.array(np.arange(150, dtype=np.uint64), type=pa.uint64())
    )
    d_full, d_resume = str(tmp_path / "full"), str(tmp_path / "resumed")
    build_index(ray.data.from_arrow(corpus), d_full, CFG128)

    ctrl = os.path.join(d_resume, "_control", "fail_after_parts")
    os.makedirs(os.path.dirname(ctrl))
    with open(ctrl, "w") as f:
        f.write("2")
    with pytest.raises(Exception):
        build_index(ray.data.from_arrow(corpus), d_resume, CFG128)
    os.remove(ctrl)
    # docmap wave ran first: every docmap committed, postings partial
    n_doc = len(glob.glob(os.path.join(d_resume, "_lineage", "docmap-*.json")))
    n_post = len(glob.glob(os.path.join(d_resume, "_lineage", "postings-*.json")))
    assert n_doc == CFG128.num_segments
    assert 0 < n_post < CFG128.num_segments * CFG128.num_term_shards

    build_index(ray.data.from_arrow(corpus), d_resume, CFG128)  # resume
    with open(os.path.join(d_full, "manifest.json"), "rb") as f:
        full_manifest = f.read()
    with open(os.path.join(d_resume, "manifest.json"), "rb") as f:
        resumed_manifest = f.read()
    assert full_manifest == resumed_manifest


def test_merge_rejects_mixed_doc_id_bits(ray_session, tmp_path):
    """a 64-bit and a 128-bit index must fail the structural gate with
    a clear error, not crash inside a remote docmap/postings task."""
    import ray.data

    from chearch_ray.pipelines.merge import merge_indexes

    corpus = synthetic_corpus(40, seed=9).append_column(
        "doc_id", pa.array(np.arange(40, dtype=np.uint64), type=pa.uint64())
    )
    d64, d128 = str(tmp_path / "n64"), str(tmp_path / "w128")
    build_index(ray.data.from_arrow(corpus), d64, CFG64)
    build_index(ray.data.from_arrow(corpus), d128, CFG128)
    for order in ([d64, d128], [d128, d64]):
        with pytest.raises(ValueError, match="doc_id_bits"):
            merge_indexes(order, str(tmp_path / "out"))


def test_wide_mode_filtered_search_parity(engines):
    """metadata filter in wide mode: _filter_allowed returns posting
    ORDINALS (docmap row indices), not external ids — parity with the
    64-bit engine pins the translation."""
    e64, e128 = engines
    q = ast.Or(ast.Term("def"), ast.Term("return"))
    for flt in ({"lang": ["py", "go"]}, {"lang": ["chpl"]}):
        s64 = e64.search(q, k=10, filter=flt)
        s128 = e128.search(q, k=10, filter=flt)
        assert len(s64) > 0
        assert s64["doc_id"].to_pylist() == s128["doc_id"].to_pylist(), flt
        assert s64["score"].to_pylist() == s128["score"].to_pylist(), flt
        assert s64["lang"].to_pylist() == s128["lang"].to_pylist(), flt
        b64 = e64.search_boolean(q, filter=flt)
        b128 = e128.search_boolean(q, filter=flt)
        assert b64["doc_id"].to_pylist() == b128["doc_id"].to_pylist(), flt


def test_wide_upsert_byte_identical_to_rebuild(ray_session, tmp_path):
    """128-bit upsert: replace docs that COLLIDE on lo-64 (distinct
    hi) so only full (hi, lo) drop keys are correct; the swapped index
    part-shas a rebuild over the updated corpus."""
    import ray.data

    from chearch_ray.pipelines.lifecycle import upsert_docs

    n = 120
    base = synthetic_corpus(n, seed=51)
    # adversarial ids: every lo shared by up to 3 docs (hi = i % 3)
    lo = np.arange(n, dtype=np.uint64) // 3
    hi = (np.arange(n, dtype=np.uint64) % 3)
    base = base.append_column("doc_id", pa.array(lo, type=pa.uint64()))
    base = base.append_column("doc_id_hi", pa.array(hi, type=pa.uint64()))
    d = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(base), d, CFG128)

    # replace docs 30..39 (their lo values are shared with NON-replaced
    # docs of other hi) and insert 4 genuinely new (hi, lo) pairs
    repl_rows = np.arange(30, 40)
    fresh = synthetic_corpus(14, seed=77)
    delta = fresh.append_column(
        "doc_id", pa.array(np.concatenate([lo[repl_rows],
                                           np.arange(500, 504, dtype=np.uint64)]),
                           type=pa.uint64()))
    delta = delta.append_column(
        "doc_id_hi", pa.array(np.concatenate([hi[repl_rows],
                                              np.zeros(4, dtype=np.uint64)]),
                              type=pa.uint64()))
    m = upsert_docs(d, delta, CFG128)

    keep = np.ones(n, dtype=bool)
    keep[repl_rows] = False
    expected = pa.concat_tables([base.filter(pa.array(keep)), delta])
    ref = str(tmp_path / "ref")
    m_ref = build_index(ray.data.from_arrow(expected), ref, CFG128)
    assert m.num_docs == m_ref.num_docs == n + 4
    assert {p["part"]: p["sha"] for p in m.postings_parts} == {
        p["part"]: p["sha"] for p in m_ref.postings_parts}
    assert {p["part"]: p["sha"] for p in m.docmap_parts} == {
        p["part"]: p["sha"] for p in m_ref.docmap_parts}
    # lo-collision safety: the surviving docs sharing a replaced lo
    # (different hi) are still searchable with their ORIGINAL content
    eng = QueryEngine(d, use_actors=False)
    ref_eng = QueryEngine(ref, use_actors=False)
    for q in QUERIES[:3]:
        a, b = eng.search_boolean(q), ref_eng.search_boolean(q)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["doc_id_hi"].to_pylist() == b["doc_id_hi"].to_pylist()


def test_wide_mode_fuzzy_parity(engines):
    """`term~d` fuzzy queries in doc_id_bits=128 mode: the Levenshtein
    expansion -> Or-chain planning runs before segment dispatch, so
    wide ordinals must not change results, ranks, or scores
    (VERDICT r3 #8)."""
    e64, e128 = engines
    for q in ("def~1", "retur~1", "clas~2"):
        s64 = e64.search(q, k=10)
        s128 = e128.search(q, k=10)
        assert s64["doc_id"].to_pylist() == s128["doc_id"].to_pylist(), q
        assert s64["score"].to_pylist() == s128["score"].to_pylist(), q
        b64 = e64.search_boolean(q)
        b128 = e128.search_boolean(q)
        assert b64["doc_id"].to_pylist() == b128["doc_id"].to_pylist(), q
        assert set(b128["doc_id_hi"].to_pylist()) <= {0}


def test_wide_mode_near_parity(engines):
    """NEAR and N-term span-near in wide mode: the position verify
    resolves candidate ordinals through positions_rows_flat, which must
    behave identically when postings hold docmap ordinals."""
    e64, e128 = engines
    n64 = e64.search_near("def", "return", slop=4, k=10)
    n128 = e128.search_near("def", "return", slop=4, k=10)
    assert n64["doc_id"].to_pylist() == n128["doc_id"].to_pylist()
    assert n64["score"].to_pylist() == n128["score"].to_pylist()
    o64 = e64.search_near("def", "return", slop=4, k=10, ordered=True)
    o128 = e128.search_near("def", "return", slop=4, k=10, ordered=True)
    assert o64["doc_id"].to_pylist() == o128["doc_id"].to_pylist()
    a64 = e64.search_near_all(["def", "return", "if"], slop=8, k=10)
    a128 = e128.search_near_all(["def", "return", "if"], slop=8, k=10)
    assert a64["doc_id"].to_pylist() == a128["doc_id"].to_pylist()
    assert a64["score"].to_pylist() == a128["score"].to_pylist()
    assert set(a128["doc_id_hi"].to_pylist()) <= {0}


def test_wide_mode_phrase_boolean_parity(engines):
    """grammar phrase-in-boolean set algebra in doc_id_bits=128 mode:
    the S16 (hi, lo) key path must produce the same sets as 64-bit."""
    e64, e128 = engines
    for q in ('"def return" AND class', 'def AND NOT "def return"',
              '"def return" OR "def if"'):
        b64 = e64.search_boolean(q)
        b128 = e128.search_boolean(q)
        assert b64["doc_id"].to_pylist() == b128["doc_id"].to_pylist(), q
        assert set(b128["doc_id_hi"].to_pylist()) <= {0}
        assert len(b64) > 0, q


def test_text_serve_and_parsed_over_wide_ids(ray_session, tmp_path):
    """search_parsed and the TCP TEXT frame over a 128-bit index: the
    response carries the LOW word (like v1) and matches the engine's
    own ranked lo-ids; the grammar filter surface works unchanged."""
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.serve import (TcpQueryServer, WireEngine,
                                   query_text_pipelined)
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.state.engine import QueryEngine

    t = synthetic_corpus(120, seed=42).append_column(
        "doc_id", pa.array(np.arange(120, dtype=np.uint64), type=pa.uint64()))
    t = t.append_column(
        "doc_id_hi", pa.array((np.arange(120) % 3).astype(np.uint64),
                              type=pa.uint64()))
    cfg = EngineConfig(num_segments=2, num_term_shards=2, doc_id_bits=128)
    build_index(ray.data.from_arrow(t), str(tmp_path / "w"), cfg)
    eng = QueryEngine(str(tmp_path / "w"), use_actors=False)
    try:
        want = eng.search_parsed("def return", k=10)
        assert "doc_id_hi" in want.column_names
        srv = TcpQueryServer(WireEngine(eng), port=0,
                             pipelined=True).start_background()
        try:
            out = query_text_pipelined("127.0.0.1", srv.port,
                                       ["def return"], k=10)
            assert out[0] == list(zip(want["doc_id"].to_pylist(),
                                      want["score"].to_pylist()))
        finally:
            srv.stop()
    finally:
        eng.close()


def test_wide_explain_parity(engines):
    """explain() in doc_id_bits=128 mode: same evidence rows as the
    64-bit index (hi=0 corpus), with the doc_id_hi column carried."""
    e64, e128 = engines
    q = ast.Or(ast.Term("def"), ast.Term("return"))
    x64 = e64.explain(q, k=8)
    x128 = e128.explain(q, k=8)
    assert "doc_id_hi" in x128.column_names
    assert set(x128["doc_id_hi"].to_pylist()) <= {0}
    for col in ("rank", "doc_id", "term", "tf", "dl", "df", "idf", "contrib"):
        assert x128[col].to_pylist() == x64[col].to_pylist(), col


def test_wide_explain_colliding_lo64(ray_session, tmp_path):
    """explain keys evidence by the FULL (hi, lo) pair: two docs
    sharing lo=7 with different hi and different content must each get
    their own tf/dl rows — a lo-only keying would merge or
    mis-attribute them."""
    import ray.data

    cfg = EngineConfig(num_segments=1, num_term_shards=2, doc_id_bits=128,
                       input_columns=("content",))
    idx = str(tmp_path / "collide_explain")
    build_index(ray.data.from_arrow(_collision_corpus()), idx, cfg)
    eng = QueryEngine(idx, use_actors=False)

    ex = eng.explain(ast.Or(ast.Term("alpha"), ast.Term("zeta")), k=10)
    rows = {(r["doc_id_hi"], r["doc_id"], r["term"]): r for r in ex.to_pylist()}
    # doc (1,7): alpha only, dl=4; doc (2,7): zeta only, dl=4;
    # doc (0,8): both terms, dl=2
    assert set(rows) == {(1, 7, "alpha"), (2, 7, "zeta"),
                         (0, 8, "alpha"), (0, 8, "zeta")}
    assert rows[(1, 7, "alpha")]["dl"] == 4 and rows[(1, 7, "alpha")]["tf"] == 1
    assert rows[(2, 7, "zeta")]["dl"] == 4
    assert rows[(0, 8, "alpha")]["dl"] == 2 and rows[(0, 8, "zeta")]["dl"] == 2
    # contribs sum to each (hi, lo) doc's ranked score
    top = eng.search(ast.Or(ast.Term("alpha"), ast.Term("zeta")), k=10)
    import collections

    sums = collections.defaultdict(float)
    for r in ex.to_pylist():
        sums[(r["doc_id_hi"], r["doc_id"])] += r["contrib"]
    for h, l, s in zip(top["doc_id_hi"].to_pylist(),
                       top["doc_id"].to_pylist(), top["score"].to_pylist()):
        assert abs(sums[(h, l)] - s) < 1e-9


def test_wide_mode_regexp_msm_collapse_parity(engines):
    """The round-5 additions in doc_id_bits=128 mode: regexp expansion
    happens before planning (ordinal-agnostic), msm counts and
    collapse group-bests operate on ordinals whose docmap order equals
    the external (hi, lo) key order — results, ranks and scores must
    match the 64-bit build exactly."""
    e64, e128 = engines
    # regexp
    s64 = e64.search("/(de|re)[a-z]+/", k=10)
    s128 = e128.search("/(de|re)[a-z]+/", k=10)
    assert s64["doc_id"].to_pylist() == s128["doc_id"].to_pylist()
    assert s64["score"].to_pylist() == s128["score"].to_pylist()
    # minimum_should_match
    m64 = e64.search_msm(["def", "return", "class"], 2, k=10)
    m128 = e128.search_msm(["def", "return", "class"], 2, k=10)
    assert m64["doc_id"].to_pylist() == m128["doc_id"].to_pylist()
    assert m64["score"].to_pylist() == m128["score"].to_pylist()
    assert set(m128["doc_id_hi"].to_pylist()) <= {0}
    # field collapse
    c64 = e64.search_collapse("def OR return OR class", field="lang", k=3)
    c128 = e128.search_collapse("def OR return OR class", field="lang", k=3)
    assert c64["doc_id"].to_pylist() == c128["doc_id"].to_pylist()
    assert c64["score"].to_pylist() == c128["score"].to_pylist()
    assert c64["lang"].to_pylist() == c128["lang"].to_pylist()


def test_wide_mode_dismax_span_first_parity(engines):
    """dismax scatter-max and span-first position gathers operate on
    ordinals whose docmap order equals the external key order —
    results, ranks and scores must match the 64-bit build."""
    e64, e128 = engines
    d64 = e64.search_dismax(["def", "return", "class"], tie=0.3, k=10)
    d128 = e128.search_dismax(["def", "return", "class"], tie=0.3, k=10)
    assert d64["doc_id"].to_pylist() == d128["doc_id"].to_pylist()
    assert d64["score"].to_pylist() == d128["score"].to_pylist()
    s64 = e64.search_span_first("def", 8, k=10)
    s128 = e128.search_span_first("def", 8, k=10)
    assert s64["doc_id"].to_pylist() == s128["doc_id"].to_pylist()
    assert s64["score"].to_pylist() == s128["score"].to_pylist()
    assert set(s128["doc_id_hi"].to_pylist()) <= {0}
