"""End-to-end build + search vs the brute-force oracle.

Covers SURVEY.md §5c (synthetic-corpus conformance: identical boolean
doc-id sets, rank-identical — in fact score-identical — BM25 top-k)
and §5e (resume: kill after N partitions, re-run, identical manifest).
"""

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pytest

from chearch_ray import ast
from chearch_ray.config import EngineConfig
from chearch_ray.oracle import OracleIndex
from chearch_ray.pipelines.build import build_index
from chearch_ray.sources.corpus import NEVER_PRESENT, synthetic_corpus, vocab
from chearch_ray.state.engine import QueryEngine, parse_query
from chearch_ray.state.searcher import SegmentSearcher

CFG = EngineConfig(
    num_segments=2,
    num_term_shards=3,
    block_size=16,
    tokenize_batch_size=64,
)

N_DOCS = 200


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus(N_DOCS, seed=42)


@pytest.fixture(scope="module")
def oracle(corpus):
    return OracleIndex(corpus, CFG)


@pytest.fixture(scope="module")
def engine(ray_session, corpus, tmp_path_factory):
    import ray.data

    index_dir = str(tmp_path_factory.mktemp("index"))
    build_index(ray.data.from_arrow(corpus), index_dir, CFG)
    eng = QueryEngine(index_dir, use_actors=False)
    yield eng


def _hot_terms(oracle, n=5):
    return sorted(oracle.postings, key=lambda t: -len(oracle.postings[t]))[:n]


def _rare_terms(oracle, n=5):
    return sorted(oracle.postings, key=lambda t: (len(oracle.postings[t]), t))[:n]


# ------------------------------------------------------------ stats
def test_manifest_stats(engine, oracle):
    assert engine.n_docs == N_DOCS == oracle.n_docs
    assert engine.avgdl == oracle.avgdl
    for t in _hot_terms(oracle) + _rare_terms(oracle):
        assert engine.df(t) == oracle.df(t), t
    assert engine.df("__never_present__") == 0


def test_known_df_sentinels(engine, oracle):
    for step in (1, 2, 7, 32, 128):
        term = f"__known_{step}__"
        assert engine.df(term) == step, term
        assert oracle.df(term) == step, term


# ---------------------------------------------------------- boolean
def _bool_docs(engine, node):
    return engine.search_boolean(node)["doc_id"].to_pylist() if True else []


def test_boolean_single_term(engine, oracle):
    for t in _hot_terms(oracle, 3) + _rare_terms(oracle, 2):
        assert _bool_docs(engine, ast.Term(t)) == oracle.boolean_search(ast.Term(t)), t


def test_boolean_and_or_trees(engine, oracle):
    hot = _hot_terms(oracle, 4)
    trees = [
        ast.And(ast.Term(hot[0]), ast.Term(hot[1])),
        ast.Or(ast.Term(hot[2]), ast.Term(hot[3])),
        ast.And(ast.Or(ast.Term(hot[0]), ast.Term(hot[2])), ast.Term(hot[1])),
        ast.Or(ast.And(ast.Term(hot[0]), ast.Term(hot[1])), ast.Term("__known_7__")),
    ]
    for tree in trees:
        assert _bool_docs(engine, tree) == oracle.boolean_search(tree), tree


def test_missing_term_zero_rows(engine):
    assert len(engine.search_boolean(ast.Term(NEVER_PRESENT))) == 0
    assert len(engine.search(ast.Term(NEVER_PRESENT))) == 0
    # AND with missing term must also be empty (chearch.chpl:159-178)
    assert len(engine.search_boolean(ast.And(ast.Term(NEVER_PRESENT), ast.Term("def")))) == 0


# -------------------------------------------------------------- BM25
def _check_bm25(engine, oracle, tree, k=10):
    got = engine.search(tree, k=k)
    want = oracle.bm25_search(tree, k)
    assert got["doc_id"].to_pylist() == [d for d, _ in want], tree
    np.testing.assert_array_equal(
        got["score"].to_numpy(), np.array([s for _, s in want]), err_msg=str(tree)
    )


def test_bm25_single_terms(engine, oracle):
    for t in _hot_terms(oracle, 3) + _rare_terms(oracle, 2) + ["__known_32__"]:
        _check_bm25(engine, oracle, ast.Term(t))


def test_bm25_and_or(engine, oracle):
    hot = _hot_terms(oracle, 4)
    _check_bm25(engine, oracle, ast.And(ast.Term(hot[0]), ast.Term(hot[1])))
    _check_bm25(engine, oracle, ast.Or(ast.Term(hot[2]), ast.Term(hot[3])))


def test_bm25_deep_trees(engine, oracle):
    hot = _hot_terms(engine_oracle := oracle, 6)
    trees = [
        ast.Or(ast.And(ast.Term(hot[0]), ast.Term(hot[1])), ast.And(ast.Term(hot[2]), ast.Term(hot[3]))),
        ast.And(ast.Or(ast.Term(hot[0]), ast.Term(hot[4])), ast.Or(ast.Term(hot[5]), ast.Term(hot[1]))),
    ]
    for tree in trees:
        _check_bm25(engine, oracle, tree, k=20)


def test_bm25_rank_identity_query_sweep(engine, oracle):
    """Frozen-style stratified sweep (FIXTURES.md §4, reduced)."""
    rng = np.random.default_rng(42)
    terms = list(oracle.postings)
    for _ in range(40):
        a, b = (terms[int(i)] for i in rng.integers(0, len(terms), 2))
        cls = ast.And if rng.integers(0, 2) else ast.Or
        _check_bm25(engine, oracle, cls(ast.Term(a), ast.Term(b)))


def test_parse_query(engine, oracle):
    hot = _hot_terms(oracle, 2)
    assert parse_query(f"{hot[0]} {hot[1]}") == ast.Or(ast.Term(hot[0]), ast.Term(hot[1]))
    _check_bm25(engine, oracle, parse_query(f"{hot[0]} {hot[1]}", default_op="and"))


# --------------------------------------------------------- positions
def test_positions_roundtrip(engine, oracle):
    term = _hot_terms(oracle, 1)[0]
    doc = next(iter(oracle.positions[term]))
    seg = doc % CFG.num_segments
    searcher = SegmentSearcher(engine.index_dir, seg, CFG)
    assert searcher.positions(term, doc) == oracle.positions[term][doc]


# -------------------------------------------------------- actor path
def test_actor_engine_matches_local(ray_session, engine, oracle):
    # a group per segment, so the cross-group merge runs
    eng = QueryEngine(engine.index_dir, use_actors=True, max_actors=CFG.num_segments)
    try:
        hot = _hot_terms(oracle, 2)
        tree = ast.Or(ast.Term(hot[0]), ast.Term(hot[1]))
        got = eng.search(tree, k=10)
        want = engine.search(tree, k=10)
        assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
        assert got["score"].to_pylist() == want["score"].to_pylist()
    finally:
        eng.close()


# ------------------------------------------------------- salted build
def test_read_block_override_identical_output(ray_session, corpus, tmp_path):
    """Coalesced read blocks (sources.corpus.build_read_blocks /
    override_num_blocks, ROADMAP #10) change only the run-file layout
    of the partitioned shuffle — index bytes are identical, and the
    run directory holds exactly (read blocks x partitions) files."""
    import glob as _glob

    import pyarrow.parquet as _pq
    import ray.data

    from chearch_ray.sources.corpus import build_read_blocks

    src = str(tmp_path / "src")
    os.makedirs(src)
    half = len(corpus) // 2
    _pq.write_table(corpus.slice(0, half), os.path.join(src, "a.parquet"))
    _pq.write_table(corpus.slice(half), os.path.join(src, "b.parquet"))

    d1 = str(tmp_path / "many")
    m1 = build_index(ray.data.read_parquet(src), d1, CFG)
    d2 = str(tmp_path / "few")
    os.environ["CHEARCH_RAY_KEEP_RUNS"] = "1"
    try:
        m2 = build_index(
            ray.data.read_parquet(src, override_num_blocks=2), d2, CFG
        )
    finally:
        os.environ.pop("CHEARCH_RAY_KEEP_RUNS", None)
    shas1 = {p["part"]: p["sha"] for p in m1.postings_parts}
    shas2 = {p["part"]: p["sha"] for p in m2.postings_parts}
    assert shas1 == shas2
    n_parts = CFG.num_segments * CFG.num_term_shards + CFG.num_segments
    run_files = _glob.glob(os.path.join(d2, "_shuffle", "part=*", "*.parquet"))
    assert 0 < len(run_files) <= 2 * n_parts
    # the sizing helper: CPU term at small inputs, byte cap at scale
    assert build_read_blocks(1 << 20, num_cpus=32) == 32
    assert build_read_blocks(100 * (1 << 40), num_cpus=32) == (100 * (1 << 40)) // (128 << 20)


def test_salted_build_identical_output(ray_session, corpus, tmp_path):
    """salt composes with the partitioned exchange (salt = hive
    sub-partition, ROADMAP #7): output byte-identical to the unsalted
    build."""
    import glob as _glob

    import ray.data

    d1 = str(tmp_path / "plain")
    m1 = build_index(ray.data.from_arrow(corpus), d1, CFG)
    shas1 = {p["part"]: p["sha"] for p in m1.postings_parts}
    cfg_salt = EngineConfig(
        num_segments=2, num_term_shards=3, block_size=16,
        tokenize_batch_size=64, build_salt=4,
    )
    d2 = str(tmp_path / "salted")
    os.environ["CHEARCH_RAY_KEEP_RUNS"] = "1"
    try:
        m2 = build_index(ray.data.from_arrow(corpus), d2, cfg_salt)
    finally:
        os.environ.pop("CHEARCH_RAY_KEEP_RUNS", None)
    shas2 = {p["part"]: p["sha"] for p in m2.postings_parts}
    assert shas1 == shas2  # same bytes regardless of salt
    # the hive layout actually sub-partitioned by salt
    assert _glob.glob(os.path.join(d2, "_shuffle", "part=*", "salt=*"))


# ------------------------------------------------------------- resume
def test_resume_after_failure(ray_session, corpus, tmp_path):
    import ray.data

    d_full = str(tmp_path / "full")
    d_resume = str(tmp_path / "resumed")
    build_index(ray.data.from_arrow(corpus), d_full, CFG)

    ctrl = os.path.join(d_resume, "_control", "fail_after_parts")
    os.makedirs(os.path.dirname(ctrl))
    with open(ctrl, "w") as f:
        f.write("2")
    with pytest.raises(Exception):
        build_index(ray.data.from_arrow(corpus), d_resume, CFG)
    os.remove(ctrl)

    done_before = len(glob.glob(os.path.join(d_resume, "_lineage", "postings-*.json")))
    assert 0 < done_before < CFG.num_segments * CFG.num_term_shards
    assert not os.path.exists(os.path.join(d_resume, "manifest.json"))

    build_index(ray.data.from_arrow(corpus), d_resume, CFG)  # resume

    with open(os.path.join(d_full, "manifest.json"), "rb") as f:
        full_manifest = f.read()
    with open(os.path.join(d_resume, "manifest.json"), "rb") as f:
        resumed_manifest = f.read()
    assert full_manifest == resumed_manifest  # byte-identical (FIXTURES.md §6)

    # and no torn partition files remain
    for p in json.loads(full_manifest)["postings_parts"]:
        assert os.path.exists(os.path.join(d_resume, p["path"]))


# ---------------------------------------------------- frozen query set
def test_frozen_query_set_rank_identity(engine, oracle):
    """All 200 frozen queries (FIXTURES.md §4): engine vs oracle,
    score-identical, plus CHASM transport round-trip."""
    import os

    from chearch_ray.functions import chasm as chasm_mod
    from chearch_ray.sources import queries as qmod

    df_by_term = {t: len(d) for t, d in oracle.postings.items()}
    path = os.path.join(os.path.dirname(__file__), "data", "queries.jsonl")
    entries = qmod.frozen_query_set(df_by_term, seed=42)
    if not os.path.exists(path):
        qmod.save_query_set(entries, path)
    else:
        # the frozen file must stay frozen: regeneration is identical
        with open(path) as f:
            on_disk = [line.strip() for line in f if line.strip()]
        import json

        assert on_disk == [json.dumps(e, sort_keys=True) for e in entries]

    loaded = qmod.load_query_set(path)
    assert len(loaded) == qmod.QUERY_SET_SIZE
    for node, chasm_bytes in loaded:
        # transport round-trip: hex decodes to the int-term tree
        assert chasm_mod.parse_chasm(chasm_bytes) == qmod._int_tree(node)
        _check_bm25(engine, oracle, node, k=10)
        assert (
            engine.search_boolean(node)["doc_id"].to_pylist()
            == oracle.boolean_search(node)
        )


# ----------------------------------------------------------- MaxScore
def test_maxscore_identical_to_exhaustive(engine, oracle):
    """Pruned disjunctive path must return byte-identical results to
    the exhaustive scorer (and therefore the oracle) — including
    doc_id tie-breaks at the k-th score."""
    import dataclasses

    from chearch_ray.state.searcher import SegmentSearcher

    cfg_off = dataclasses.replace(CFG, use_maxscore=False)
    plain = [SegmentSearcher(engine.index_dir, s, cfg_off) for s in engine.segments]
    pruned_segs = [SegmentSearcher(engine.index_dir, s, CFG) for s in engine.segments]
    plain_group = SegmentSearcher(engine.index_dir, engine.segments, cfg_off)
    rng = np.random.default_rng(7)
    terms = sorted(oracle.postings)
    for _ in range(30):
        picks = [terms[int(i)] for i in rng.integers(0, len(terms), int(rng.integers(2, 6)))]
        node = ast.Term(picks[0])
        for t in picks[1:]:
            node = ast.Or(node, ast.Term(t))
        idfs = engine.idfs_for(node)
        pairs = [*zip(pruned_segs, plain), (engine._group.searcher, plain_group)]
        for pruned_s, searcher in pairs:
            pruned = pruned_s.search_bm25(node, 10, idfs, engine.avgdl)
            exact = searcher.search_bm25(node, 10, idfs, engine.avgdl)
            assert pruned["doc_id"].to_pylist() == exact["doc_id"].to_pylist(), node
            assert pruned["score"].to_pylist() == exact["score"].to_pylist(), node
        _check_bm25(engine, oracle, node)


@pytest.mark.parametrize("depth", [2, 4])
def test_hypothesis_random_trees(engine, oracle, depth):
    """Random AND/OR trees vs oracle (SURVEY.md §5d)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    terms = sorted(oracle.postings)

    @st.composite
    def trees(draw, d=depth):
        if d == 0 or draw(st.booleans()):
            return ast.Term(terms[draw(st.integers(0, len(terms) - 1))])
        cls = draw(st.sampled_from([ast.And, ast.Or]))
        return cls(draw(trees(d=d - 1)), draw(trees(d=d - 1)))

    @given(trees())
    @settings(max_examples=25, deadline=None)
    def run(tree):
        assert _bool_docs(engine, tree) == oracle.boolean_search(tree)
        _check_bm25(engine, oracle, tree)

    run()


def test_build_with_exact_dedup(ray_session, tmp_path):
    """dedup='exact' collapses identical content before indexing."""
    import ray.data

    base = synthetic_corpus(40, seed=42)
    dup = base.slice(0, 10)  # duplicate first 10 docs (diff repo keys)
    dup = dup.set_column(
        dup.schema.get_field_index("repo"),
        "repo",
        pa.array(["dup/" + r for r in dup["repo"].to_pylist()]),
    )
    corpus2 = pa.concat_tables([base, dup])
    m = build_index(ray.data.from_arrow(corpus2), str(tmp_path / "dd"), CFG, dedup="exact")
    assert m.num_docs == 40  # duplicates collapsed
    m2 = build_index(ray.data.from_arrow(corpus2), str(tmp_path / "nd"), CFG)
    assert m2.num_docs == 50  # default keeps row-for-row parity


def test_intersect_sorted_matches_numpy():
    from chearch_ray.state.searcher import intersect_sorted

    rng = np.random.default_rng(11)
    for _ in range(50):
        a = np.unique(rng.integers(0, 500, size=int(rng.integers(0, 80)))).astype(np.uint64)
        b = np.unique(rng.integers(0, 500, size=int(rng.integers(0, 400)))).astype(np.uint64)
        assert intersect_sorted(a, b).tolist() == np.intersect1d(a, b).tolist()
        assert intersect_sorted(b, a).tolist() == np.intersect1d(a, b).tolist()


def test_medium_scale_multi_partition(ray_session, tmp_path):
    """2,000-doc corpus across 3x5 partitions: stats + rank identity
    hold at a partition layout closer to production."""
    import ray.data

    cfg = EngineConfig(num_segments=3, num_term_shards=5, tokenize_batch_size=256)
    corpus = synthetic_corpus(2000, seed=42)
    oracle = OracleIndex(corpus, cfg)
    build_index(ray.data.from_arrow(corpus), str(tmp_path / "m"), cfg)
    eng = QueryEngine(str(tmp_path / "m"), use_actors=False)
    assert eng.n_docs == 2000 and eng.avgdl == oracle.avgdl
    for step in (1, 13, 128):
        assert eng.df(f"__known_{step}__") == step
    rng = np.random.default_rng(5)
    terms = sorted(oracle.postings)
    for _ in range(15):
        a, b = (terms[int(i)] for i in rng.integers(0, len(terms), 2))
        for tree in (ast.And(ast.Term(a), ast.Term(b)), ast.Or(ast.Term(a), ast.Term(b))):
            got = eng.search(tree, k=10)
            want = oracle.bm25_search(tree, 10)
            assert got["doc_id"].to_pylist() == [d for d, _ in want]
            assert got["score"].to_pylist() == [s for _, s in want]
            assert (
                eng.search_boolean(tree)["doc_id"].to_pylist() == oracle.boolean_search(tree)
            )


def test_build_deterministic_across_batch_sizes(ray_session, corpus, tmp_path):
    """Partition bytes must not depend on batching/parallelism (the
    in-partition sort canonicalizes) — same shas at different
    tokenize batch sizes."""
    import dataclasses

    import ray.data

    m_small = build_index(
        ray.data.from_arrow(corpus),
        str(tmp_path / "bs32"),
        dataclasses.replace(CFG, tokenize_batch_size=32),
    )
    m_big = build_index(
        ray.data.from_arrow(corpus),
        str(tmp_path / "bs128"),
        dataclasses.replace(CFG, tokenize_batch_size=128),
    )
    assert {p["part"]: p["sha"] for p in m_small.postings_parts} == {
        p["part"]: p["sha"] for p in m_big.postings_parts
    }
    assert {p["part"]: p["sha"] for p in m_small.docmap_parts} == {
        p["part"]: p["sha"] for p in m_big.docmap_parts
    }


def test_phrase_search(engine, oracle, corpus):
    """Exact phrase queries via stored positions vs the oracle."""
    # harvest real bigrams/trigrams from the corpus text
    import re

    texts = corpus["content"].to_pylist()
    phrases = []
    for t in texts[:20]:
        toks = re.split(r"[^a-z0-9_]+", t.lower())
        toks = [x for x in toks if x]
        if len(toks) >= 3:
            phrases.append(toks[0:2])
            phrases.append(toks[1:4])
    phrases.append(["__never_present__", "def"])
    for terms in phrases[:12]:
        got = engine.search_phrase(terms, k=10)
        want = oracle.phrase_search(terms, 10)
        assert got["doc_id"].to_pylist() == [d for d, _ in want], terms
        if len(got):
            assert got["score"].to_pylist() == [s for _, s in want], terms
    # a phrase in original order matches; the reversed phrase usually
    # differs from the AND of its terms
    sample = phrases[0]
    and_docs = set(
        engine.search_boolean(ast.And(ast.Term(sample[0]), ast.Term(sample[1])))["doc_id"].to_pylist()
    )
    phrase_docs = set(engine.search_phrase(sample, k=1000)["doc_id"].to_pylist())
    assert phrase_docs <= and_docs


def test_window_table_path_matches_sorted_path(engine, corpus, monkeypatch):
    """`_window_survivors` checks each window through a marked table
    over the candidates' key space or through batched searchsorted;
    the two are the same verification.  With the table budget at 0
    (searchsorted only) every phrase (point windows; 4 terms narrow
    the anchors window by window), ordered, unordered and same-term
    NEAR and N-term NEAR (range windows) returns the identical table
    to the default run, where this small corpus's dense keys take
    the table."""
    import re

    from chearch_ray.state import searcher as searcher_mod

    texts = corpus["content"].to_pylist()
    calls = []
    for t in texts[:10]:
        toks = [x for x in re.split(r"[^a-z0-9_]+", t.lower()) if x]
        if len(toks) >= 4:
            calls.append(("search_phrase", dict(phrase=toks[0:2])))
            calls.append(("search_phrase", dict(phrase=toks[0:4])))
            for slop in (1, 3, 8):
                calls.append(("search_near", dict(term_a=toks[0], term_b=toks[3], slop=slop)))
                calls.append(("search_near", dict(term_a=toks[3], term_b=toks[0], slop=slop,
                                                  ordered=True)))
                calls.append(("search_near", dict(term_a=toks[1], term_b=toks[1], slop=slop)))
                calls.append(("search_near_all", dict(terms=toks[0:3], slop=slop)))
    calls.append(("search_phrase", dict(phrase=["__never_present__", "def"])))
    table_results = [getattr(engine, name)(k=50, **kw) for name, kw in calls]
    monkeypatch.setattr(searcher_mod, "_WINDOW_TABLE_BUDGET_BYTES", 0)
    for (name, kw), want in zip(calls, table_results):
        assert getattr(engine, name)(k=50, **kw).equals(want), (name, kw)


def test_phrase_rank_ordered_early_exit(ray_session, tmp_path, monkeypatch):
    """Phrase and NEAR verification run in final-ranking order and stop
    once k survivors exist: on a corpus where the phrase (and the
    ordered NEAR of the same pair) matches everywhere, only the first
    chunk of candidates is position-verified; a candidate-heavy query
    with ZERO matches still verifies the whole conjunction (exactness
    of the exhaustion path)."""
    import ray.data

    from chearch_ray.state import searcher as searcher_mod

    n = 600
    rows = [
        {
            "doc_id": np.uint64(i),
            # one occurrence per doc: "zalpha zbeta" matches every doc,
            # the reversed phrase matches none while both terms stay in
            # every candidate set
            "content": "zalpha zbeta " + " ".join(f"w{j}" for j in range(i % 7)),
        }
        for i in range(n)
    ]
    cfg = EngineConfig(num_segments=1, num_term_shards=2, block_size=16, tokenize_batch_size=64)
    idx = str(tmp_path / "early")
    build_index(ray.data.from_arrow(pa.Table.from_pylist(rows)), idx, cfg)
    eng = QueryEngine(idx, use_actors=False)

    verified = []
    orig = searcher_mod.SegmentSearcher._window_survivors

    def spy(self, candidates, anchor_terms, windows):
        verified.append(len(candidates))
        return orig(self, candidates, anchor_terms, windows)

    monkeypatch.setattr(searcher_mod.SegmentSearcher, "_window_survivors", spy)

    def hits_and_verified(call):
        verified.clear()
        return len(call()), sum(verified)

    # one 64-candidate chunk (max(4k, 64)) out of 600 candidates
    assert hits_and_verified(lambda: eng.search_phrase("zalpha zbeta", k=3)) == (3, 64)
    assert hits_and_verified(
        lambda: eng.search_near("zalpha", "zbeta", slop=1, ordered=True, k=3)) == (3, 64)
    # zero survivors -> full exhaustion
    assert hits_and_verified(lambda: eng.search_phrase("zbeta zalpha", k=3)) == (0, n)
    assert hits_and_verified(
        lambda: eng.search_near("zbeta", "zalpha", slop=1, ordered=True, k=3)) == (0, n)


def test_phrase_with_repeated_term(engine, oracle, corpus):
    """A phrase containing the same term twice (e.g. 'x x') must score
    each unique term once."""
    import re

    # find a doc with an immediate repetition
    for t in corpus["content"].to_pylist():
        toks = [x for x in re.split(r"[^a-z0-9_]+", t.lower()) if x]
        for i in range(len(toks) - 1):
            if toks[i] == toks[i + 1]:
                terms = [toks[i], toks[i + 1]]
                got = engine.search_phrase(terms, k=10)
                want = oracle.phrase_search(terms, 10)
                assert got["doc_id"].to_pylist() == [d for d, _ in want]
                assert got["score"].to_pylist() == [s for _, s in want]
                return
    pytest.skip("no immediate repetition in corpus")


def test_near_search_vs_oracle(engine, oracle, corpus):
    """NEAR/slop proximity queries (ordered and unordered) vs the
    brute-force positional oracle: identical doc ids AND identical BM25
    floats, across slops, term orders, hot and rare terms."""
    import re

    texts = corpus["content"].to_pylist()
    pairs = []
    for t in texts[:15]:
        toks = [x for x in re.split(r"[^a-z0-9_]+", t.lower()) if x]
        if len(toks) >= 5:
            pairs.append((toks[0], toks[3]))  # gap 3
            pairs.append((toks[4], toks[1]))  # reversed, gap 3
    hot = _hot_terms(oracle, 2)
    rare = _rare_terms(oracle, 2)
    pairs += [(hot[0], hot[1]), (hot[0], rare[0]), ("__never_present__", hot[0])]
    for a, b in pairs[:14]:
        for slop in (1, 3, 8):
            for ordered in (False, True):
                got = engine.search_near(a, b, slop=slop, ordered=ordered, k=10)
                want = oracle.near_search(a, b, slop, ordered, 10)
                assert got["doc_id"].to_pylist() == [d for d, _ in want], (a, b, slop, ordered)
                assert got["score"].to_pylist() == [s for _, s in want], (a, b, slop, ordered)


def test_near_search_same_term_and_semantics(engine, oracle, corpus):
    """NEAR with term_a == term_b means 'another occurrence within
    slop' (self-pairs excluded); unordered NEAR slop=1 is a superset of
    both phrase orders; ordered NEAR is a subset of unordered."""
    import re

    # a term that repeats within a doc
    term = None
    for t in corpus["content"].to_pylist():
        toks = [x for x in re.split(r"[^a-z0-9_]+", t.lower()) if x]
        seen = set()
        for x in toks:
            if x in seen:
                term = x
                break
            seen.add(x)
        if term:
            break
    assert term is not None
    for slop in (1, 4):
        got = engine.search_near(term, term, slop=slop, k=1000)
        want = oracle.near_search(term, term, slop, False, 1000)
        assert got["doc_id"].to_pylist() == [d for d, _ in want]
    a, b = _hot_terms(oracle, 2)
    near1 = set(engine.search_near(a, b, slop=1, k=10_000)["doc_id"].to_pylist())
    phr_ab = set(engine.search_phrase([a, b], k=10_000)["doc_id"].to_pylist())
    phr_ba = set(engine.search_phrase([b, a], k=10_000)["doc_id"].to_pylist())
    assert (phr_ab | phr_ba) <= near1
    ordered = set(engine.search_near(a, b, slop=4, ordered=True, k=10_000)["doc_id"].to_pylist())
    unordered = set(engine.search_near(a, b, slop=4, k=10_000)["doc_id"].to_pylist())
    assert ordered <= unordered
    with pytest.raises(ValueError):
        engine.search_near(a, b, slop=0)


def test_near_all_vs_oracle(engine, oracle, corpus):
    """N-term unordered NEAR (window with max − min <= slop covering
    every term) vs the brute-force positional oracle: identical doc
    ids AND identical BM25 floats across triples and slops."""
    import re

    texts = corpus["content"].to_pylist()
    triples = []
    for t in texts[:12]:
        toks = [x for x in re.split(r"[^a-z0-9_]+", t.lower()) if x]
        if len(dict.fromkeys(toks[:6])) >= 3:
            u = list(dict.fromkeys(toks[:6]))
            triples.append((u[0], u[1], u[2]))
    hot = _hot_terms(oracle, 3)
    rare = _rare_terms(oracle, 2)
    triples += [tuple(hot), (hot[0], hot[1], rare[0]),
                (hot[0], "__never_present__", hot[1])]
    for tri in triples[:10]:
        for slop in (2, 5, 12):
            got = engine.search_near_all(list(tri), slop=slop, k=10)
            want = oracle.near_all_search(list(tri), slop, 10)
            assert got["doc_id"].to_pylist() == [d for d, _ in want], (tri, slop)
            assert got["score"].to_pylist() == [s for _, s in want], (tri, slop)


def test_near_all_two_term_matches_pairwise_near(engine, oracle):
    """For two distinct terms, N-term NEAR == the unordered pairwise
    search_near doc set (|pb − pa| <= slop ⟺ a covering window
    anchored at the smaller position exists)."""
    a, b = _hot_terms(oracle, 2)
    for slop in (1, 4):
        pair = set(engine.search_near(a, b, slop=slop, k=10_000)["doc_id"].to_pylist())
        nall = set(engine.search_near_all([a, b], slop=slop, k=10_000)["doc_id"].to_pylist())
        assert pair == nall, slop
    # duplicate terms dedupe: [a, a, b] behaves as [a, b]
    d1 = engine.search_near_all([a, a, b], slop=4, k=10_000)
    d2 = engine.search_near_all([a, b], slop=4, k=10_000)
    assert d1.equals(d2)
    # monotone in slop: a wider window only ever adds docs
    s2 = set(engine.search_near_all([a, b], slop=2, k=10_000)["doc_id"].to_pylist())
    s8 = set(engine.search_near_all([a, b], slop=8, k=10_000)["doc_id"].to_pylist())
    assert s2 <= s8
    with pytest.raises(ValueError):
        engine.search_near_all([a, b], slop=0)


def test_positional_int_arguments_are_validated(engine):
    """slop and limit_pos are checked once, at the engine: a float, a
    str or a bool is a one-line ValueError naming the argument, never
    numpy's TypeError, a comparison TypeError or a silent int()
    truncation; numpy integers are accepted as ints."""
    calls = {
        "slop": [lambda v: engine.search_near("def", "return", slop=v, k=5),
                 lambda v: engine.search_near_all(["def", "return"], slop=v, k=5)],
        "limit_pos": [lambda v: engine.search_span_first("def", v, k=5)],
    }
    for name, fns in calls.items():
        for fn in fns:
            for bad in (1.5, 2.9, "3", True, 0):
                with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, not ") as e:
                    fn(bad)
                assert "\n" not in str(e.value)
            assert fn(np.int64(3)).equals(fn(3))


# ------------------------------------------------- skip-block laziness
@pytest.mark.parametrize("codec", ["varint"])
def test_skip_blocks_actually_skip(ray_session, tmp_path, codec):
    """A selective AND against a hot term must decode only the skip
    blocks straddling the rare side's docs — never the hot term's full
    list (lazy block iteration, memorysegment.chpl:41-55)."""
    import dataclasses

    import ray.data

    n = 2000
    rare_rows = {17, 923, 1544}
    corpus2 = pa.table(
        {
            "repo": ["r"] * n,
            "path": [f"f{i}.py" for i in range(n)],
            "commit": ["c"] * n,
            "lang": ["py"] * n,
            "content": [
                "hotterm " + ("raregem" if i in rare_rows else f"filler{i % 50}")
                for i in range(n)
            ],
        }
    )
    cfg = EngineConfig(
        num_segments=1, num_term_shards=2, block_size=16, tokenize_batch_size=512
    )
    idx = str(tmp_path / f"skip-{codec}")
    build_index(ray.data.from_arrow(corpus2), idx, cfg)
    s = SegmentSearcher(idx, 0, cfg)
    hot_blocks = (n + cfg.block_size - 1) // cfg.block_size  # ~125 across shards

    tree = ast.And(ast.Term("raregem"), ast.Term("hotterm"))
    res = s.search_boolean(tree)
    assert len(res) == len(rare_rows)
    st = s.decode_stats
    # 3 probe docs can straddle at most 3 blocks of the hot list
    assert st["blocks_decoded"] <= len(rare_rows), st
    assert st["blocks_decoded"] * 8 < hot_blocks, st
    # only the rare term was fully decoded
    assert st["full_decodes"] == 1, st

    # BM25 over the same AND reuses the block cache — no new decodes
    before = dict(st)
    out = s.search_bm25(tree, 10, {"raregem": 1.0, "hotterm": 0.2}, 2.0)
    assert len(out) == len(rare_rows)
    assert s.decode_stats["blocks_decoded"] == before["blocks_decoded"]
    assert s.decode_stats["full_decodes"] == before["full_decodes"]

    # order heuristic is symmetric: hot AND rare also probes
    s2 = SegmentSearcher(idx, 0, cfg)
    res2 = s2.search_boolean(ast.And(ast.Term("hotterm"), ast.Term("raregem")))
    assert res2["doc_id"].to_pylist() == res["doc_id"].to_pylist()
    assert s2.decode_stats["blocks_decoded"] <= len(rare_rows)


def test_segment_group_actors(ray_session, tmp_path, corpus, oracle):
    """num_segments >> max_actors: the engine groups segments into few
    actors and results are identical to per-segment local searchers
    (VERDICT r01 item 8)."""
    import ray.data

    cfg = EngineConfig(num_segments=7, num_term_shards=2, block_size=16, tokenize_batch_size=64)
    idx = str(tmp_path / "grp")
    build_index(ray.data.from_arrow(corpus), idx, cfg)
    eng = QueryEngine(idx, use_actors=True, max_actors=2)
    local = QueryEngine(idx, use_actors=False)
    try:
        assert len(eng._actors) == 2
        assert sorted(s for g in eng.actor_segments for s in g) == eng.segments
        hot = _hot_terms(oracle, 3)
        for tree in (
            ast.Term(hot[0]),
            ast.And(ast.Term(hot[0]), ast.Term(hot[1])),
            ast.Or(ast.Term(hot[1]), ast.Term(hot[2])),
        ):
            got = eng.search(tree, k=10)
            want = local.search(tree, k=10)
            assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
            assert got["score"].to_pylist() == want["score"].to_pylist()
            gb = eng.search_boolean(tree)
            wb = local.search_boolean(tree)
            assert gb["doc_id"].to_pylist() == wb["doc_id"].to_pylist()
        # batch path through groups
        batch = eng.search_many([ast.Term(hot[0]), ast.Term(hot[1])], k=5)
        batch_local = local.search_many([ast.Term(hot[0]), ast.Term(hot[1])], k=5)
        assert batch["doc_id"].to_pylist() == batch_local["doc_id"].to_pylist()
    finally:
        eng.close()


def test_segment_capacity_warning(ray_session, tmp_path, corpus):
    """Overfilling a segment past segment_capacity warns and records
    the overfull segments in manifest.extra (documentid.chpl:24)."""
    import warnings

    import ray.data

    cfg = EngineConfig(num_segments=1, num_term_shards=2, segment_capacity=50,
                       tokenize_batch_size=64)
    idx = str(tmp_path / "cap")
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        m = build_index(ray.data.from_arrow(corpus), idx, cfg)
    assert any("segment_capacity" in str(x.message) for x in w)
    assert m.extra["overfull_segments"][0]["rows"] == N_DOCS


def test_blockmax_disjunctive_skips_blocks(ray_session, tmp_path):
    """A hot term that MUST be expanded (its UB beats the k-th score)
    is never fully decoded: scoring probes it block-sparsely and the
    expansion decodes only the blocks whose block-max UB (+ WAND
    carry) can reach kth — results identical to the exhaustive
    scorer."""
    import dataclasses

    import ray.data

    # bterm: rare (300 docs), tf=1, LONG docs (240 tokens) - high idf,
    # fills kth~2.5 well under its own dl-independent UB.  aterm: HOT
    # (8000 docs / ~500 blocks), tf=1 except 12 heavy tf=50 docs - its
    # UB 2.72 >= kth forces expansion, but only its ~12 heavy-doc
    # blocks can beat kth.  k1=2 widens the tf-saturation margins.
    n = 20000
    rows = []
    for i in range(n):
        if i < 12:
            text = ("aterm " * 50) + ("pad " * 50)
        elif i < 8000:
            text = "aterm " + ("pad " * 99)
        elif i < 8300:
            text = "bterm " + ("pad " * 239)
        else:
            text = "pad " * 100
        rows.append(
            {"repo": "r", "path": f"f{i}", "commit": "c", "lang": "py", "content": text}
        )
    corpus2 = pa.Table.from_pylist(rows)
    cfg = EngineConfig(
        num_segments=1, num_term_shards=2, block_size=16, tokenize_batch_size=4096, k1=2.0
    )
    idx = str(tmp_path / "bmw")
    build_index(ray.data.from_arrow(corpus2), idx, cfg)

    tree = ast.Or(ast.Term("bterm"), ast.Term("aterm"))
    eng = QueryEngine(idx, use_actors=False)
    idfs = eng.idfs_for(tree)

    s = SegmentSearcher(idx, 0, cfg)
    got = s.search_bm25(tree, 10, idfs, eng.avgdl)
    st = dict(s.decode_stats)

    cfg_off = dataclasses.replace(cfg, use_maxscore=False)
    s2 = SegmentSearcher(idx, 0, cfg_off)
    want = s2.search_bm25(tree, 10, idfs, eng.avgdl)
    assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    assert got["score"].to_pylist() == want["score"].to_pylist()

    # only bterm (the kth-filling term) may fully decode; the hot
    # aterm is touched via sparse probes + block-max expansion only
    assert st["full_decodes"] == 1, st
    hot_blocks = (8000 + cfg.block_size - 1) // cfg.block_size
    assert st["blocks_total"] >= hot_blocks, st
    assert st["blocks_decoded"] < hot_blocks * 0.75, st


def test_term_stats_parallel_path_byte_identical(ray_session, tmp_path):
    """above the part-count threshold commit_manifest aggregates term
    stats through Ray; the result must be byte-identical to the local
    sequential path over the same committed parts."""
    import ray.data

    from chearch_ray.pipelines.build import _aggregate_term_stats
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.state.segment import Manifest

    cfg = EngineConfig(num_segments=5, num_term_shards=16, tokenize_batch_size=64)
    idx = str(tmp_path / "many_parts")
    build_index(ray.data.from_arrow(synthetic_corpus(300, seed=7)), idx, cfg)
    manifest = Manifest.load(idx)
    assert len(manifest.postings_parts) > 64  # exercises the Ray path

    local = _aggregate_term_stats(idx, manifest.postings_parts, parallel_threshold=10**9)
    parallel = _aggregate_term_stats(idx, manifest.postings_parts, parallel_threshold=0)
    assert local.schema == parallel.schema
    assert local.equals(parallel)

    # and the committed stats file (written by build above, which took
    # the parallel path since parts > threshold) matches the local path
    import pyarrow.parquet as pq

    committed = pq.read_table(os.path.join(idx, manifest.term_stats_path))
    assert committed.equals(local)


# ------------------------------------------------------- prefix query
def _prefix_with_hits(oracle, min_terms=2):
    """a 2-char prefix shared by >= min_terms vocabulary terms."""
    from collections import Counter

    c = Counter(t[:2] for t in oracle.postings if len(t) >= 2)
    pref, n = c.most_common(1)[0]
    assert n >= min_terms
    return pref


def test_parse_query_prefix_leaves():
    from chearch_ray import ast as A

    n = parse_query("foo* bar", default_op="and")
    assert n == A.And(A.Prefix("foo"), A.Term("bar"))
    # lone '*' stays Term (a literal '*' term is impossible in the
    # tokenizer's output space, so this matches nothing — harmless);
    # mid-string '*' is the round-5 INFIX wildcard leaf, leading '*'
    # the suffix leaf
    assert parse_query("*") == A.Term("*")
    assert parse_query("f*o") == A.Wildcard("f", "o")
    assert parse_query("*oo bar", default_op="and") == A.And(
        A.Suffix("oo"), A.Term("bar"))
    with pytest.raises(TypeError):
        A.terms_of(A.Prefix("foo"))
    with pytest.raises(TypeError):
        A.terms_of(A.Wildcard("f", "o"))


def test_expand_prefix_matches_vocabulary(engine, oracle):
    pref = _prefix_with_hits(oracle)
    want = sorted(t for t in oracle.postings if t.startswith(pref))
    assert engine.expand_prefix(pref) == want
    # memoized second call
    assert engine.expand_prefix(pref) is engine._expansions[("prefix", pref)]
    with pytest.raises(ValueError):
        engine.expand_prefix(pref, max_expansions=max(0, len(want) - 1))
    with pytest.raises(ValueError):
        engine.expand_prefix("")
    # no string bounds these prefixes from above (U+D7FF + 1 is a
    # surrogate, U+10FFFF is the last code point): both expand to
    # nothing, and the query is a typed empty table
    typed = engine.search_parsed(pref + "*").schema
    for p in ("a\ud7ff", "de\U0010ffff"):
        assert engine.expand_prefix(p) == [], p
        assert not any(t.startswith(p) for t in oracle.postings)
        got = engine.search_parsed(p + "*")
        assert len(got) == 0 and got.schema == typed, p


def test_prefix_search_equals_explicit_or(engine, oracle):
    from chearch_ray import ast as A

    pref = _prefix_with_hits(oracle)
    terms = engine.expand_prefix(pref)
    explicit: A.Node = A.Term(terms[0])
    for t in terms[1:]:
        explicit = A.Or(explicit, A.Term(t))
    got_b = engine.search_boolean(f"{pref}*")
    want_b = engine.search_boolean(explicit)
    assert got_b.equals(want_b)
    assert got_b.num_rows > 0
    got_s = engine.search(f"{pref}*", k=25)
    want_s = engine.search(explicit, k=25)
    assert got_s.equals(want_s)


def test_prefix_empty_expansion_semantics(engine, oracle):
    rare = _rare_terms(oracle, 1)[0]
    # no vocabulary term starts with this
    dead = "zzzzqqqq"
    assert engine.expand_prefix(dead) == []
    # OR: dead side drops away
    assert engine.search_boolean(f"{dead}* {rare}", default_op="or").equals(
        engine.search_boolean(rare)
    )
    # AND: annihilates
    assert engine.search_boolean(f"{dead}* {rare}", default_op="and").num_rows == 0
    assert engine.search(f"{dead}*", k=10).num_rows == 0


# ---------------------------------------------------------- negation
def test_parse_query_negation():
    from chearch_ray import ast as A

    n = parse_query("merge sort -window -str*", default_op="and")
    assert n == A.AndNot(
        A.And(A.Term("merge"), A.Term("sort")),
        A.Or(A.Term("window"), A.Prefix("str")),
    )
    # terms_of sees only the positive side
    assert A.terms_of(n) == ["merge", "sort"]
    with pytest.raises(ValueError):
        parse_query("-onlyneg")
    # a bare '-' is a term, not a negation marker
    assert parse_query("-") == A.Term("-")


def test_boolean_andnot_vs_oracle(engine, oracle):
    hot = _hot_terms(oracle, 4)
    rare = _rare_terms(oracle, 2)
    trees = [
        ast.AndNot(ast.Term(hot[0]), ast.Term(hot[1])),
        ast.AndNot(ast.Term(hot[0]), ast.Term(NEVER_PRESENT)),
        ast.AndNot(ast.Term(rare[0]), ast.Term(hot[0])),
        ast.AndNot(ast.Or(ast.Term(hot[0]), ast.Term(hot[1])),
                   ast.Or(ast.Term(hot[2]), ast.Term(hot[3]))),
        ast.AndNot(ast.And(ast.Term(hot[0]), ast.Term(hot[1])), ast.Term(hot[2])),
        ast.AndNot(ast.AndNot(ast.Term(hot[0]), ast.Term(hot[1])), ast.Term(hot[2])),
    ]
    for tree in trees:
        assert _bool_docs(engine, tree) == oracle.boolean_search(tree), tree
    # result is a strict subset: no doc of the negative side survives
    got = set(_bool_docs(engine, trees[0]))
    assert got and got.isdisjoint(oracle.boolean_search(ast.Term(hot[1])))


def test_bm25_andnot_vs_oracle(engine, oracle):
    hot = _hot_terms(oracle, 4)
    _check_bm25(engine, oracle, ast.AndNot(ast.Term(hot[0]), ast.Term(hot[1])))
    _check_bm25(engine, oracle, ast.AndNot(
        ast.Or(ast.Term(hot[0]), ast.Term(hot[1])), ast.Term(hot[2])))
    # string path: parse -> plan -> same result as the explicit tree
    got = engine.search(f"{hot[0]} -{hot[1]}", k=10)
    want = engine.search(ast.AndNot(ast.Term(hot[0]), ast.Term(hot[1])), k=10)
    assert got.equals(want)


def test_andnot_empty_negative_rewrite(engine, oracle):
    """`-dead*` (prefix matching nothing) rewrites away; the positive
    side alone remains."""
    hot = _hot_terms(oracle, 1)[0]
    assert engine.search_boolean(f"{hot} -zzzzqqqq*").equals(
        engine.search_boolean(hot)
    )


# ------------------------------------------------------------ facets
def test_facet_counts_vs_oracle(engine, oracle):
    hot = _hot_terms(oracle, 2)
    q = ast.Or(ast.Term(hot[0]), ast.Term(hot[1]))
    got = engine.facet_counts(q, column="lang")
    # oracle: docs -> lang via the corpus metadata
    docs = oracle.boolean_search(q)
    langs = {}
    meta = {r["doc_id"]: r["lang"] for r in engine.search_boolean(q).to_pylist()}
    for d in docs:
        langs[meta[d]] = langs.get(meta[d], 0) + 1
    want = sorted(langs.items(), key=lambda kv: (-kv[1], kv[0]))
    assert list(zip(got["lang"].to_pylist(), got["n"].to_pylist())) == want
    assert int(got["n"].to_numpy().sum()) == len(docs)


# ------------------------------------------------------- did-you-mean
def test_levenshtein_kernel_vs_python():
    from chearch_ray.functions.editdist import levenshtein_to

    def ref(a, b):
        dp = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            prev, dp[0] = dp[0], i
            for j, cb in enumerate(b, 1):
                prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1, prev + (ca != cb))
        return dp[-1]

    import random

    rng = random.Random(17)
    words = ["", "a", "merge", "mergee", "merg", "sort", "stream", "windoow",
             "abcdef", "fedcba", "xyz"] + [
        "".join(rng.choice("abcd") for _ in range(rng.randint(1, 9))) for _ in range(50)
    ]
    for q in ["merge", "", "ab", "abcdefgh"]:
        got = levenshtein_to(q, words).tolist()
        want = [ref(w, q) for w in words]
        assert got == want, q


def test_suggest_vs_duckdb(engine, oracle):
    import duckdb

    con = duckdb.connect()
    vocab = [(t, len(docs)) for t, docs in oracle.postings.items()]
    con.execute("CREATE TABLE v(term VARCHAR, df BIGINT)")
    con.executemany("INSERT INTO v VALUES (?, ?)", vocab)
    for q in ["def", "retur", "claas", "zzzz"]:
        got = engine.suggest(q, max_distance=2, k=5)
        want = con.execute(
            "SELECT term, levenshtein(term, ?)::BIGINT d, df FROM v "
            "WHERE levenshtein(term, ?) <= 2 ORDER BY d, df DESC, term LIMIT 5",
            [q, q],
        ).fetchall()
        assert [tuple(r.values()) for r in got.to_pylist()] == want, q


def test_symspell_deletion_guarantee():
    """the SymSpell property the index relies on: lev(a, b) <= d
    implies a and b share a <= d-deletion variant — checked over
    random mutation pairs against the reference DP."""
    import random

    from chearch_ray.state.suggest import deletion_variants

    def ref(a, b):
        dp = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            prev, dp[0] = dp[0], i
            for j, cb in enumerate(b, 1):
                prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1, prev + (ca != cb))
        return dp[-1]

    rng = random.Random(23)
    alphabet = "abcde"
    for _ in range(300):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        b = list(a)
        for _ in range(rng.randint(0, 2)):
            op = rng.choice("ids")
            pos = rng.randint(0, max(0, len(b) - 1))
            if op == "i":
                b.insert(pos, rng.choice(alphabet))
            elif op == "d" and b:
                del b[pos]
            elif b:
                b[pos] = rng.choice(alphabet)
        b = "".join(b)
        d = ref(a, b)
        if d <= 2:
            assert deletion_variants(a, 2) & deletion_variants(b, 2), (a, b, d)


def test_suggest_index_matches_scan(engine, oracle):
    """index-backed suggest == vocabulary-scan suggest, row for row,
    and the engine auto-routes to the index once it exists (for any
    query distance <= the built one)."""
    import shutil

    queries = ["def", "retur", "claas", "zzzz", "merge"]
    scan = {q: engine.suggest(q, max_distance=2, k=5) for q in queries}
    scan1 = {q: engine.suggest(q, max_distance=1, k=5) for q in queries}
    sdir = engine.build_suggest_index(max_distance=2)
    try:
        from chearch_ray.state.suggest import suggest_index_distance

        assert suggest_index_distance(sdir) == 2
        for q in queries:
            assert engine.suggest(q, max_distance=2, k=5).equals(scan[q]), q
            # a d=2 index also serves d=1 queries exactly
            assert engine.suggest(q, max_distance=1, k=5).equals(scan1[q]), q
    finally:
        shutil.rmtree(sdir)


# -------------------------------------------------------------- fuzzy
def _ref_lev(a, b):
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev, dp[0] = dp[0], i
        for j, cb in enumerate(b, 1):
            prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1, prev + (ca != cb))
    return dp[-1]


def test_parse_fuzzy():
    assert parse_query("part~2") == ast.Fuzzy("part", 2)
    assert parse_query("data~1 merge", default_op="and") == ast.And(
        ast.Fuzzy("data", 1), ast.Term("merge")
    )
    # only trailing `~1` / `~2` is the fuzzy marker; anything else is a
    # literal term (the tokenizer strips `~` anyway, but the parser
    # must not misread it)
    assert parse_query("part~3") == ast.Term("part~3")
    assert parse_query("~1") == ast.Term("~1")


def test_fuzzy_expansion_matches_bruteforce(engine, oracle):
    """expand_fuzzy == brute-force DP over the indexed vocabulary, for
    present, misspelled, and absent query terms at both distances."""
    vocab = list(oracle.postings)
    for q in ["merge", "mergee", "sorrt", "zzzz", "a"]:
        for d in (1, 2):
            want = sorted(t for t in vocab if _ref_lev(t, q) <= d)
            assert engine.expand_fuzzy(q, d) == want, (q, d)


def test_fuzzy_search_equals_or_chain(engine, oracle):
    """A Fuzzy node must score byte-identically to the explicit sorted
    Or chain over its expansion set — BM25 and boolean both."""
    # find a query whose d=2 expansion is multi-term (deterministic
    # corpus => stable); fall back assertion guards fixture drift
    q = next(
        (t for t in sorted(oracle.postings) if len(engine.expand_fuzzy(t, 2)) >= 2),
        None,
    )
    assert q is not None, "no multi-term fuzzy expansion in test vocab"
    exp = engine.expand_fuzzy(q, 2)
    chain: ast.Node = ast.Term(exp[0])
    for t in exp[1:]:
        chain = ast.Or(chain, ast.Term(t))
    node = parse_query(f"{q}~2")
    assert engine.search(node, k=10).equals(engine.search(chain, k=10))
    got_bool = set(engine.search_boolean(node)["doc_id"].to_pylist())
    want_bool = set()
    for t in exp:
        want_bool |= set(oracle.postings.get(t, ()))
    ext = {r["doc_id"] for r in engine.search_boolean(chain).to_pylist()}
    assert got_bool == ext
    assert len(got_bool) == len(want_bool)


def test_fuzzy_index_path_matches_scan(engine):
    """expansion via the SymSpell deletion index == the vocabulary
    scan, exactly, for every query × distance."""
    import shutil

    queries = ["merge", "mergee", "sorrt", "zzzz", "a"]
    scan = {(q, d): engine.expand_fuzzy(q, d) for q in queries for d in (1, 2)}
    sdir = engine.build_suggest_index(max_distance=2)
    try:
        engine._expansions.clear()
        for (q, d), want in scan.items():
            assert engine.expand_fuzzy(q, d) == want, (q, d)
    finally:
        shutil.rmtree(sdir)
        engine._expansions.clear()


def test_fuzzy_expansion_cap_raises(engine):
    with pytest.raises(ValueError, match="expands to"):
        engine.expand_fuzzy("merge", 2, max_expansions=1)


def test_conjunctive_fast_path_identical_to_generic(engine, oracle):
    """the one-pass AND scorer (tf reuse from the intersection) must be
    byte-identical — scores included — to the generic probe-again path
    on random conjunctive trees."""
    import random

    import chearch_ray.state.searcher as S
    from chearch_ray import ast as A

    vocab = _hot_terms(oracle, 5) + _rare_terms(oracle, 3)
    rng = random.Random(99)

    def rand_and(depth):
        if depth == 0:
            return A.Term(rng.choice(vocab))
        return A.And(rand_and(depth - 1), rand_and(rng.randint(0, depth - 1)))

    trees = [rand_and(rng.randint(1, 3)) for _ in range(25)]
    fast = [engine.search(t, k=25) for t in trees]
    orig = S.ast.is_conjunctive
    S.ast.is_conjunctive = lambda n: False
    try:
        slow = [engine.search(t, k=25) for t in trees]
    finally:
        S.ast.is_conjunctive = orig
    for t, a, b in zip(trees, fast, slow):
        assert a.equals(b), t


def test_random_mixed_trees_vs_oracle(engine, oracle):
    """randomized And/Or/AndNot trees: engine boolean AND BM25 results
    must match the pure-Python oracle (docs, scores, and order) — the
    fast paths (flat union, one-pass AND, Term scoring, lazy probes)
    all route through here."""
    import random

    from chearch_ray import ast as A

    vocab = _hot_terms(oracle, 6) + _rare_terms(oracle, 4) + [NEVER_PRESENT]
    rng = random.Random(271)

    def rand_tree(depth):
        if depth == 0:
            return A.Term(rng.choice(vocab))
        op = rng.choice([A.And, A.Or, A.AndNot])
        return op(rand_tree(depth - 1), rand_tree(rng.randint(0, depth - 1)))

    n_checked = 0
    for _ in range(60):
        tree = rand_tree(rng.randint(1, 4))
        assert _bool_docs(engine, tree) == oracle.boolean_search(tree), tree
        want = oracle.bm25_search(tree, 15)
        got = engine.search(tree, k=15)
        assert got["doc_id"].to_pylist() == [d for d, _ in want], tree
        np.testing.assert_array_equal(
            got["score"].to_numpy(), np.array([s for _, s in want]), err_msg=str(tree)
        )
        n_checked += 1
    assert n_checked == 60


# --------------------------------------------------- metadata filters
def _lang_of(corpus):
    from chearch_ray.stages.tokenize import _doc_ids_of

    ids = _doc_ids_of(corpus).tolist()
    return dict(zip(ids, corpus["lang"].to_pylist()))


def test_filtered_bm25_vs_bruteforce(engine, oracle, corpus):
    """filter={'lang': [...]} = restrict the candidate set BEFORE
    top-k; scores of surviving docs are bit-identical to the
    unfiltered engine's scores for the same docs."""
    lang_of = _lang_of(corpus)
    hot = _hot_terms(oracle, 2)
    tree = ast.Or(ast.Term(hot[0]), ast.Term(hot[1]))
    for langs in (["py"], ["go", "rs"], ["chpl", "c", "rb"]):
        allowed = set(langs)
        want = [
            (d, s)
            for d, s in sorted(oracle.bm25_scores(tree).items(), key=lambda it: (-it[1], it[0]))
            if lang_of[d] in allowed
        ][:10]
        got = engine.search(tree, k=10, filter={"lang": langs})
        assert got["doc_id"].to_pylist() == [d for d, _ in want], langs
        np.testing.assert_array_equal(
            got["score"].to_numpy(), np.array([s for _, s in want])
        )
        assert set(got["lang"].to_pylist()) <= allowed
        assert len(want) > 0  # fixture exercises the path


def test_filtered_topk_differs_from_postfilter(engine, oracle, corpus):
    """the filtered top-k must contain docs a post-filter of the
    unrestricted top-k would have dropped."""
    lang_of = _lang_of(corpus)
    hot = _hot_terms(oracle, 2)
    tree = ast.Or(ast.Term(hot[0]), ast.Term(hot[1]))
    unfiltered_topk = set(engine.search(tree, k=5)["doc_id"].to_pylist())
    got = engine.search(tree, k=5, filter={"lang": ["py"]})
    assert len(got) == 5
    assert any(d not in unfiltered_topk for d in got["doc_id"].to_pylist())


def test_filtered_boolean_and_multi_column(engine, oracle, corpus):
    lang_of = _lang_of(corpus)
    hot = _hot_terms(oracle, 2)
    tree = ast.And(ast.Term(hot[0]), ast.Term(hot[1]))
    got = engine.search_boolean(tree, filter={"lang": ["js", "java"]})
    want = [d for d in oracle.boolean_search(tree) if lang_of[d] in {"js", "java"}]
    assert got["doc_id"].to_pylist() == want
    # AND across filter columns: lang + an impossible repo -> empty
    got2 = engine.search_boolean(tree, filter={"lang": ["js"], "repo": ["no/such"]})
    assert len(got2) == 0


def test_filtered_actor_path_matches_local(ray_session, engine, oracle, corpus):
    eng_a = QueryEngine(engine.index_dir, use_actors=True, max_actors=CFG.num_segments)
    try:
        lang_of = _lang_of(corpus)
        hot = _hot_terms(oracle, 2)
        tree = ast.Or(ast.Term(hot[0]), ast.Term(hot[1]))
        local = engine.search(tree, k=10, filter={"lang": ["py", "go"]})
        remote = eng_a.search(tree, k=10, filter={"lang": ["py", "go"]})
        assert local["doc_id"].to_pylist() == remote["doc_id"].to_pylist()
        np.testing.assert_array_equal(
            local["score"].to_numpy(), remote["score"].to_numpy()
        )
    finally:
        eng_a.close()


# ------------------------------------------------------ more-like-this
def test_more_like_this_vs_bruteforce(engine, oracle, corpus):
    """term selection = top-n by (tf*idf desc, term asc) over the
    source doc's unique terms; results = BM25 Or over those terms."""
    from chearch_ray.functions.tokenizer import tokenize
    from chearch_ray.state.searcher import bm25_idf
    from chearch_ray.stages.tokenize import _doc_ids_of

    ids = _doc_ids_of(corpus).tolist()
    texts = corpus["content"].to_pylist()
    src_row = 7
    toks = tokenize(pa.array([texts[src_row]])).to_pylist()[0]
    tf = {}
    for t in toks:
        tf[t] = tf.get(t, 0) + 1
    scored = sorted(
        (-(float(f) * bm25_idf(oracle.n_docs, oracle.df(t))), t)
        for t, f in tf.items() if oracle.df(t) > 0
    )
    pick = [t for _, t in scored[:4]]
    node = ast.Term(pick[0])
    for t in pick[1:]:
        node = ast.Or(node, ast.Term(t))
    want = oracle.bm25_search(node, 12)
    got = engine.more_like_this(texts[src_row], n_terms=4, k=12)
    assert got["doc_id"].to_pylist() == [d for d, _ in want]
    np.testing.assert_array_equal(
        got["score"].to_numpy(), np.array([s for _, s in want])
    )
    # the source doc itself ranks (it contains all its own terms)
    assert ids[src_row] in got["doc_id"].to_pylist()


def test_more_like_this_unknown_text_empty(engine):
    out = engine.more_like_this("zzzqqqxxx unseen tokens only", n_terms=3, k=5)
    assert len(out) == 0


def test_filtered_maxscore_identical_to_generic(engine, oracle, corpus):
    """the filtered MaxScore fast path must return exactly what the
    generic eval+score path returns, for every filter selectivity."""
    import dataclasses

    from chearch_ray.state.searcher import SegmentSearcher

    lang_of = _lang_of(corpus)
    hot = _hot_terms(oracle, 4)
    cfg_off = dataclasses.replace(CFG, use_maxscore=False)
    searchers_on = [SegmentSearcher(engine.index_dir, s, CFG) for s in range(CFG.num_segments)]
    searchers_off = [SegmentSearcher(engine.index_dir, s, cfg_off) for s in range(CFG.num_segments)]
    trees = [
        ast.Or(ast.Term(hot[0]), ast.Term(hot[1])),
        ast.Or(ast.Or(ast.Term(hot[0]), ast.Term(hot[2])), ast.Term(hot[3])),
    ]
    idfs_all = {t: engine.idfs_for(ast.Term(t))[t] for t in hot}
    filters = [{"lang": ["py"]}, {"lang": ["go", "rs", "c"]},
               {"lang": ["py", "js", "java", "go", "c", "rs", "rb", "chpl"]},
               {"lang": ["nope"]}]
    n_nonempty = 0
    for tree in trees:
        for flt in filters:
            for k in (3, 10, 1000):
                outs = []
                for group in (searchers_on, searchers_off):
                    tables = [s.search_bm25_filtered(tree, k, idfs_all, engine.avgdl, flt)
                              for s in group]
                    merged = pa.concat_tables(tables)
                    outs.append(merged)
                a, b = outs
                ka = sorted(zip(a["doc_id"].to_pylist(), a["score"].to_pylist()))
                kb = sorted(zip(b["doc_id"].to_pylist(), b["score"].to_pylist()))
                assert ka == kb, (tree, flt, k)
                n_nonempty += len(ka) > 0
    assert n_nonempty > 0


# ------------------------------------------------------ fielded search
def test_fielded_engine_vs_bruteforce(ray_session, engine, oracle, corpus, tmp_path_factory):
    """content + path field indexes: combined score = 1.0*bm25_content
    + 3.0*bm25_path, checked doc-by-doc against the two oracles."""
    import ray.data

    from chearch_ray.state.engine import FieldedEngine

    path_corpus = corpus.set_column(
        corpus.column_names.index("content"), "content", corpus["path"]
    )
    pdir = str(tmp_path_factory.mktemp("fielded") / "pathidx")
    build_index(ray.data.from_arrow(path_corpus), pdir, CFG)
    path_eng = QueryEngine(pdir, use_actors=False)
    path_oracle = OracleIndex(path_corpus, CFG)

    fe = FieldedEngine({"content": engine, "path": path_eng},
                       weights={"content": 1.0, "path": 3.0})
    rare = _rare_terms(oracle, 2)
    # path tokens: src / pkgN / mod_i / extension; rare content terms
    # keep the two fields' candidate sets from coinciding
    q = {"content": ast.Or(ast.Term(rare[0]), ast.Term(rare[1])),
         "path": ast.Term("pkg3")}
    got = fe.search(q, k=15)
    c_scores = oracle.bm25_scores(q["content"])
    p_scores = path_oracle.bm25_scores(q["path"])
    want_map = {}
    for d, s in c_scores.items():
        want_map[d] = want_map.get(d, 0.0) + 1.0 * s
    for d, s in p_scores.items():
        want_map[d] = want_map.get(d, 0.0) + 3.0 * s
    want = sorted(want_map.items(), key=lambda it: (-it[1], it[0]))[:15]
    assert got["doc_id"].to_pylist() == [d for d, _ in want]
    np.testing.assert_array_equal(got["score"].to_numpy(), np.array([s for _, s in want]))
    # path-only matches are real candidates (the union is not just the
    # content set) and the path weight actually moved the ranking
    path_only = set(p_scores) - set(c_scores)
    assert path_only
    full = fe.search(q, k=N_DOCS + 1)
    assert path_only <= set(full["doc_id"].to_pylist())
    content_only_rank = engine.search(q["content"], k=15)["doc_id"].to_pylist()
    assert got["doc_id"].to_pylist() != content_only_rank


def test_fielded_engine_single_field_matches_plain(engine, oracle):
    from chearch_ray.state.engine import FieldedEngine

    hot = _hot_terms(oracle, 2)
    fe = FieldedEngine({"content": engine})
    q = ast.Or(ast.Term(hot[0]), ast.Term(hot[1]))
    got = fe.search({"content": q}, k=10)
    want = engine.search(q, k=10)
    assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    np.testing.assert_array_equal(got["score"].to_numpy(), want["score"].to_numpy())


def test_search_after_pages_chain_exactly(engine, oracle):
    """Cursor pagination: concatenating pages of size k reproduces the
    global top-(n*k) ranking exactly (scores and ids), mixed page
    sizes stay consistent, and paging past the end returns empty."""
    node = ast.Or(ast.Term("def"), ast.Term("return"))
    full = engine.search(node, k=40)
    pages = [engine.search(node, k=10)]
    for _ in range(3):
        last = pages[-1]
        if len(last) == 0:
            break
        cursor = (last["score"][-1].as_py(), last["doc_id"][-1].as_py())
        pages.append(engine.search_after(node, cursor, k=10))
    got = pa.concat_tables(pages)
    assert got["doc_id"].to_pylist() == full["doc_id"].to_pylist()
    assert got["score"].to_pylist() == full["score"].to_pylist()
    # mixed page sizes: one 25-row page after page1 == rows 10..35
    cursor = (pages[0]["score"][-1].as_py(), pages[0]["doc_id"][-1].as_py())
    wide = engine.search_after(node, cursor, k=25)
    assert wide["doc_id"].to_pylist() == full["doc_id"].to_pylist()[10:35]
    # paging past the end
    total = engine.search(node, k=1 << 20)
    end_cursor = (total["score"][-1].as_py(), total["doc_id"][-1].as_py())
    assert len(engine.search_after(node, end_cursor, k=10)) == 0


def test_search_after_every_query_shape_and_tie_cursors(engine, oracle):
    """Cursor-aware segment search (ROADMAP #21) is exact on every
    search_bm25 fast path — MaxScore disjunction, single term,
    conjunctive AND, nested generic tree — for cursors at several
    depths INCLUDING inside score-tie runs (the boundary the pruning
    argument has to get right): page n+1 from a cursor at full-rank
    row i must equal rows i+1..i+k of the exhaustive ranking."""
    hot = _hot_terms(oracle, 3)
    shapes = [
        ast.Or(ast.Term(hot[0]), ast.Term(hot[1])),          # MaxScore path
        ast.Term(hot[0]),                                     # term fast path
        ast.And(ast.Term(hot[0]), ast.Term(hot[1])),          # conjunctive path
        ast.And(ast.Or(ast.Term(hot[0]), ast.Term(hot[2])),   # generic path
                ast.Term(hot[1])),
    ]
    for node in shapes:
        full = engine.search(node, k=1 << 20)
        scores = full["score"].to_numpy()
        n = len(full)
        assert n > 5, "fixture query too selective for pagination"
        cursors = {0, 1, n // 2, n - 2}
        # aim a cursor at the FIRST row of a score-tie run, if any
        ties = np.flatnonzero(scores[:-1] == scores[1:])
        if len(ties):
            cursors.add(int(ties[0]))
        for i in sorted(cursors):
            cur = (full["score"][i].as_py(), full["doc_id"][i].as_py())
            got = engine.search_after(node, cur, k=7)
            want = full.slice(i + 1, 7)
            assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist(), (node, i)
            assert got["score"].to_pylist() == want["score"].to_pylist(), (node, i)


def test_facet_histogram_vs_boolean_lengths(engine, oracle):
    """Histogram facet counts ALL matches (not the result window) and
    equals a brute-force bucket count of the oracle's matching docs'
    token lengths; actor and local paths agree."""
    import collections

    node = ast.Or(ast.Term("def"), ast.Term("return"))
    got = engine.facet_histogram(node, bucket_width=16)
    match_docs = oracle.boolean_search(node)
    want = collections.Counter(
        (oracle.doc_len[d] // 16) * 16 for d in match_docs)
    got_map = dict(zip(got["bucket_lo"].to_pylist(), got["n"].to_pylist()))
    assert got_map == dict(want)
    assert sum(got_map.values()) == len(match_docs)


# -------------------------------------------------- scoring explain


def test_explain_matches_oracle(engine, oracle):
    """explain() rows carry EXACTLY the oracle's per-(doc, term)
    evidence: tf, dl, df, idf — and contribs sum to the ranked
    score (same bm25_component floats the scorer used)."""
    import collections

    ex = engine.explain("def OR return OR if", k=8)
    top = engine.search("def OR return OR if", k=8)
    assert len(ex) > 0
    sums = collections.defaultdict(float)
    seen = set()
    for r in ex.to_pylist():
        assert (r["doc_id"], r["term"]) not in seen  # one row per pair
        seen.add((r["doc_id"], r["term"]))
        assert r["tf"] == oracle.postings[r["term"]][r["doc_id"]]
        assert r["dl"] == oracle.doc_len[r["doc_id"]]
        assert r["df"] == oracle.df(r["term"])
        assert r["idf"] == oracle.idf(r["term"])
        sums[r["rank"]] += r["contrib"]
    for i, s in enumerate(top["score"].to_pylist(), 1):
        assert abs(sums[i] - s) < 1e-9
    # output order is (rank asc, term asc)
    keys = [(r["rank"], r["term"]) for r in ex.to_pylist()]
    assert keys == sorted(keys)
    # every ranked doc has at least one evidence row
    assert {r["rank"] for r in ex.to_pylist()} == set(range(1, len(top) + 1))


def test_explain_negated_terms_absent(engine):
    """AndNot right-side terms never contribute to scores, so they
    must not appear as evidence either."""
    ex = engine.explain("def -return", k=5)
    assert len(ex) > 0
    assert set(ex["term"].to_pylist()) == {"def"}


def test_explain_filter_and_boosts(engine, oracle):
    """explain composes with search's filter/boosts exactly: rows
    cover the FILTERED ranking, and the idf column shows the boosted
    idf the scorer used (contribs still sum to the scores)."""
    import collections

    flt = {"lang": ["py", "go"]}
    boosts = {"def": 2.0}
    ex = engine.explain("def OR return", filter=flt, boosts=boosts, k=6)
    top = engine.search("def OR return", filter=flt, boosts=boosts, k=6)
    assert len(ex) > 0
    sums = collections.defaultdict(float)
    for r in ex.to_pylist():
        want_idf = oracle.idf(r["term"]) * (2.0 if r["term"] == "def" else 1.0)
        assert r["idf"] == want_idf
        sums[r["rank"]] += r["contrib"]
    for i, s in enumerate(top["score"].to_pylist(), 1):
        assert abs(sums[i] - s) < 1e-9
    assert ex["doc_id"].to_pylist()[:1] == top["doc_id"].to_pylist()[:1]


def test_explain_empty_index(ray_session, tmp_path):
    """docmap-less segments (empty corpus) return empty evidence, not
    AttributeError — same guard every other entry point has."""
    import ray.data

    idx = str(tmp_path / "empty_explain")
    empty = pa.table({"doc_id": pa.array([], type=pa.uint64()),
                      "content": pa.array([], type=pa.string())})
    build_index(ray.data.from_arrow(empty), idx, CFG)
    eng = QueryEngine(idx, use_actors=False)
    ex = eng.explain("def OR return", k=5)
    assert len(ex) == 0
