"""One searcher per segment group: a SegmentSearcher over several
doc-segments holds them as ONE row space (row off_j + o is ordinal o of
segment j) with each term's postings fused once at open.

Every answer must equal the per-segment one: the codec and reader over
fused lists equal the shifted concatenation of the segments' lists,
tombstones and the per-segment boolean window survive the fusion, and
`first_position` reads one posting.
"""

import dataclasses
import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chearch_ray.config import EngineConfig
from chearch_ray.functions.codec import (decode_blocks, decode_postings, encode_postings,
                                         pack_position_lists)
from chearch_ray.pipelines.build import build_index
from chearch_ray.pipelines.lifecycle import delete_docs
from chearch_ray.sources.corpus import synthetic_corpus
from chearch_ray.state.engine import QueryEngine, _merge_tie_key
from chearch_ray.state.searcher import SegmentSearcher
from chearch_ray.state.segment import (DOCMAP_SCHEMA, POSTINGS_SCHEMA, PostingsPartReader,
                                       docmap_rel_path, postings_rel_path)
from tests.test_topk_merge import CFG64, CFG128, _cases, _or, _reference, _terms

TERMS = ("aa", "bb", "cc")


# ------------------------------------------ codec / reader property
def _part_table(lists: dict, block_size: int) -> pa.Table:
    """one postings part from {term: (ordinals, tfs, position lists)}"""
    rows = []
    for term in sorted(lists):
        ords, tfs, pos = lists[term]
        enc = encode_postings(ords, tfs, block_size)
        cells = pack_position_lists(pa.array(pos, type=pa.list_(pa.uint32())))
        offs = np.frombuffer(cells.buffers()[1], dtype=np.int32)[: len(pos) + 1]
        rows.append({
            "term": term, "count": enc.count, "doc_blob": enc.doc_blob, "tf_blob": enc.tf_blob,
            "block_last": enc.block_last.tolist(), "block_max_tf": enc.block_max_tf.tolist(),
            "block_doc_off": enc.block_doc_off.tolist(),
            "block_tf_off": enc.block_tf_off.tolist(),
            "pos_blob": b"".join(cells.to_pylist()),
            "pos_off": (offs[::block_size][: len(enc.block_last)] - offs[0]).tolist(),
        })
    return pa.Table.from_pylist(rows, schema=POSTINGS_SCHEMA)


def _write_index(root: str, segs: list[dict], sizes: list[int], cfg: EngineConfig) -> None:
    """docmaps whose external ids interleave across segments (rows are
    not in external-id order across them) and one postings part each"""
    for j, (lists, n) in enumerate(zip(segs, sizes)):
        ids = np.arange(n, dtype=np.uint64) * np.uint64(len(segs)) + np.uint64(j)
        docmap = pa.table({"doc_id": ids, "repo": ["r"] * n, "path": ["p"] * n,
                           "commit": ["c"] * n, "lang": ["py"] * n,
                           "doc_len": pa.array(np.full(n, 9), type=pa.uint32()),
                           "content_sha": ["s"] * n}, schema=DOCMAP_SCHEMA)
        for rel, table in ((docmap_rel_path(j), docmap),
                           (postings_rel_path(cfg.part_id(j, 0)), _part_table(lists, cfg.block_size))):
            os.makedirs(os.path.dirname(os.path.join(root, rel)), exist_ok=True)
            pq.write_table(table, os.path.join(root, rel))


@st.composite
def _segments(draw):
    """per-segment lists: each (term, segment) is missing, one posting
    or a random subset (partial last blocks throughout)"""
    n_seg = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 40)) for _ in range(n_seg)]
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    segs = []
    for n in sizes:
        lists = {}
        for term in TERMS:
            mode = draw(st.sampled_from(["missing", "one", "some"]))
            if mode == "missing":
                continue
            size = 1 if mode == "one" else int(rng.integers(1, n + 1))
            ords = np.sort(rng.choice(n, size=size, replace=False)).astype(np.uint64)
            tfs = rng.integers(1, 5, size=size).astype(np.uint64)
            pos = [sorted(rng.choice(40, size=int(t), replace=False).tolist()) for t in tfs]
            lists[term] = (ords, tfs, pos)
        segs.append(lists)
    return segs, sizes, draw(st.sampled_from([2, 3, 4]))


@settings(max_examples=40, deadline=None)
@given(case=_segments(), data=st.data())
def test_fused_lists_equal_shifted_per_segment_lists(case, data):
    segs, sizes, bs = case
    cfg = EngineConfig(num_segments=len(segs), num_term_shards=1, block_size=bs)
    offsets = np.cumsum([0] + sizes)
    with tempfile.TemporaryDirectory() as root:
        _write_index(root, segs, sizes, cfg)
        group = SegmentSearcher(root, list(range(len(segs))), cfg)
        per = [SegmentSearcher(root, j, cfg) for j in range(len(segs))]
        paths = [os.path.join(root, postings_rel_path(cfg.part_id(j, 0)))
                 for j in range(len(segs))]
        for term in TERMS:
            runs = [(j, *lists[term]) for j, lists in enumerate(segs) if term in lists]
            enc = group.shards[0].encoded(term)
            if not runs:
                assert enc is None
                continue
            docs = np.concatenate([o + np.uint64(offsets[j]) for j, o, _, _ in runs])
            tfs = np.concatenate([t for _, _, t, _ in runs])
            pos = [p for _, _, _, ps in runs for p in ps]
            got_d, got_t = decode_postings(enc, bs)
            assert got_d.tolist() == docs.tolist() and got_t.tolist() == tfs.tolist()
            # each run's blocks, independently of the codec's geometry
            blocks, start = [], 0
            for _, o, _, _ in runs:
                blocks += [(start + b, start + min(b + bs, len(o))) for b in range(0, len(o), bs)]
                start += len(o)
            assert len(enc.block_last) == len(blocks)
            subset = sorted(data.draw(st.sets(st.integers(0, len(blocks) - 1), min_size=1)))
            got_d, got_t = decode_blocks(enc, np.array(subset), bs)
            want = np.concatenate([np.arange(*blocks[b]) for b in subset])
            assert got_d.tolist() == docs[want].tolist() and got_t.tolist() == tfs[want].tolist()
            # skip-block probes of the group equal the segments' probes
            rows = np.array(sorted(data.draw(st.sets(st.integers(0, offsets[-1] - 1)))),
                            dtype=np.uint64)
            want_tf = np.concatenate([
                per[j].probe_tfs(term, rows[(rows >= offsets[j]) & (rows < offsets[j + 1])]
                                 - np.uint64(offsets[j]))
                for j in range(len(segs))])
            assert group.probe_tfs(term, rows).tolist() == want_tf.tolist()
            # position reads in rank order, straddling run boundaries,
            # on the shared reader and on a fresh one (per-block path)
            picks = np.array(data.draw(st.permutations(range(len(docs))))[: max(1, len(docs) // 3)])
            seg_of = np.searchsorted(offsets, docs[picks].astype(np.int64), side="right") - 1
            want_pos = []
            for p, j in zip(picks.tolist(), seg_of.tolist()):
                i = int(np.searchsorted(per[j]._postings(term)[0],
                                        docs[p] - np.uint64(offsets[j])))
                lengths, flat = per[j].shards[0].positions_rows_flat(term, np.array([i]))
                assert flat.tolist() == pos[p]
                want_pos.append(flat.tolist())
            fresh = PostingsPartReader(paths, cfg, offsets[:-1].tolist())
            for reader in (group.shards[0], fresh, group.shards[0]):
                lengths, flat = reader.positions_rows_flat(term, picks)
                cut = np.cumsum(lengths)[:-1]
                assert [x.tolist() for x in np.split(flat, cut)] == want_pos
            assert PostingsPartReader(paths, cfg, offsets[:-1].tolist()).positions_for_rows(
                term, picks).to_pylist() == want_pos


# ------------------------------------------- tombstones, boolean caps
@pytest.fixture(scope="module")
def deleted(ray_session, tmp_path_factory):
    """3-segment indexes (both id modes) with docs deleted from
    segments 0 and 1 only"""
    import ray.data

    corpus = synthetic_corpus(240, seed=7)
    corpus = corpus.append_column(
        "doc_id", pa.array(np.arange(5000, 5000 + len(corpus), dtype=np.uint64)))
    out = {}
    for mode, cfg in (("64", CFG64), ("128", CFG128)):
        d = str(tmp_path_factory.mktemp(f"deleted{mode}"))
        build_index(ray.data.from_arrow(corpus), d, cfg)
        hi, lo = [], []
        for seg in (0, 1):
            dm = SegmentSearcher(d, seg, cfg).docmap
            lo += dm.doc_ids[::3].tolist()
            hi += [] if dm.doc_hi is None else dm.doc_hi[::3].tolist()
        delete_docs(d, lo, hi if mode == "128" else None)
        out[mode] = d
    return out


@pytest.mark.parametrize("mode", ["64", "128"])
def test_group_with_tombstones_matches_per_segment(deleted, mode):
    local = QueryEngine(deleted[mode], use_actors=False)
    one = QueryEngine(deleted[mode], use_actors=True, max_actors=1)
    searchers = [SegmentSearcher(local.index_dir, s, local.cfg) for s in local.segments]
    assert [len(s.deleted) > 0 for s in searchers] == [True, True, False]
    assert len(local._group.searcher.deleted) == sum(len(s.deleted) for s in searchers)
    try:
        hot, _ = _terms(local)
        node = _or(hot)
        merged = pa.concat_tables([s.search_boolean(node, limit=3) for s in searchers])
        want_bool = merged.take(pa.array(np.argsort(_merge_tie_key(merged), kind="stable")))
        assert len(want_bool) == 9
        for op, (call, method, kw, collapse) in _cases(local).items():
            want = _reference(searchers, method, kw, collapse)
            for eng in (local, one):
                assert call(eng).equals(want), (mode, op)
        for eng in (local, one):
            assert eng.search_boolean(node, limit=3).equals(want_bool), mode
            assert eng.count(node) == sum(s.count(node) for s in searchers)
    finally:
        one.close()


# ------------------------------------------------------ first_position
@pytest.fixture(scope="module")
def plain(ray_session, tmp_path_factory):
    """3-segment indexes: both id modes with positions, and one without"""
    import ray.data

    corpus = synthetic_corpus(120, seed=11)
    corpus = corpus.append_column(
        "doc_id", pa.array(np.arange(700, 700 + len(corpus), dtype=np.uint64)))
    out = {}
    for mode, cfg in (("64", CFG64), ("128", CFG128),
                      ("nopos", dataclasses.replace(CFG64, store_positions=False))):
        out[mode] = str(tmp_path_factory.mktemp(f"plain{mode}"))
        build_index(ray.data.from_arrow(corpus), out[mode], cfg)
    return out


@pytest.mark.parametrize("mode", ["64", "128", "nopos"])
def test_first_position_reads_one_posting(plain, mode):
    local = QueryEngine(plain[mode], use_actors=False)
    # one group per segment routes each doc to one of three groups;
    # the default engine's one group holds them all
    actors = QueryEngine(plain[mode], use_actors=True, max_actors=len(local.segments))
    default = QueryEngine(plain[mode], use_actors=True)
    assert len(actors._actors) == len(local.segments) == 3
    searchers = [SegmentSearcher(local.index_dir, s, local.cfg) for s in local.segments]
    try:
        stats = pq.read_table(os.path.join(local.index_dir, local.manifest.term_stats_path))
        df = stats["df"].to_numpy()
        # terms in about a tenth to half of the docs: sampled docs hold
        # some and lack others
        mid = np.flatnonzero((df > local.n_docs // 10) & (df < local.n_docs // 2))
        terms = [stats["term"][int(i)].as_py() for i in mid[:4]]
        rng = np.random.default_rng(3)
        checked = absent = 0
        for s in searchers:
            dm = s.docmap
            for row in rng.choice(len(dm.doc_ids), size=8, replace=False).tolist():
                doc = int(dm.doc_ids[row])
                hi = None if dm.doc_hi is None else int(dm.doc_hi[row])
                for term in terms:
                    pos = s.positions(term, doc, hi)
                    has = s.probe_tfs(term, np.array([row], dtype=np.uint64))[0] > 0
                    want = None if not has else pos[0] if mode != "nopos" else 0
                    for eng in (local, actors, default):
                        assert eng.first_position(term, doc, doc_hi=hi) == want, (mode, term)
                    checked += want is not None
                    absent += want is None
        assert checked > 10 and absent > 0
    finally:
        actors.close()
        default.close()
