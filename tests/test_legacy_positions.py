"""Postings parts written before the one-route positions layout carry a
per-skip-block byte offsets column, `pos_off`, that this version
neither writes nor reads.

Such parts must keep answering identically: read alone, fused in one
searcher group with a part that lacks the column (a resume across
versions), and merged, where the output parts drop the column and are
byte-identical to merging parts that never had it."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from chearch_ray.config import EngineConfig
from chearch_ray.functions.codec import decode_tfs
from chearch_ray.pipelines.build import build_index
from chearch_ray.pipelines.merge import merge_indexes
from chearch_ray.sources.corpus import synthetic_corpus
from chearch_ray.state.engine import QueryEngine
from chearch_ray.state.segment import (Manifest, PostingsPartReader, docmap_rel_path,
                                       file_sha256, postings_rel_path)

CFG = EngineConfig(num_segments=2, num_term_shards=2, block_size=8, tokenize_batch_size=64)
N_DOCS = 160


def _add_pos_off(path: str, cfg: EngineConfig) -> None:
    """rewrite a built part with the older layout's `pos_off` column
    after `pos_blob`: per term, the byte offset of each skip block's
    first posting inside the term's pos_blob"""
    table = pq.read_table(path)
    reader = PostingsPartReader(path, cfg)
    offs = []
    for i, term in enumerate(table["term"].to_pylist()):
        enc = reader.encoded(term)
        counts = decode_tfs(enc).astype(np.int64)  # max_positions_per_doc=0: uncapped
        blob = np.frombuffer(table["pos_blob"][i].as_py(), dtype=np.uint8)
        ends = np.concatenate([[0], np.flatnonzero(blob < 0x80) + 1])
        cell_start = ends[np.concatenate([[0], np.cumsum(counts)])[:-1]]
        offs.append(cell_start[::cfg.block_size][: len(enc.block_last)].tolist())
    at = table.column_names.index("pos_blob") + 1
    pq.write_table(table.add_column(at, "pos_off", pa.array(offs, pa.list_(pa.int64()))), path)


def _legacy_copy(src: str, dst: str, segments=None) -> str:
    """a copy of index `src` whose postings parts of `segments` (all
    when None) carry `pos_off`, their manifest shas updated"""
    shutil.copytree(src, dst)
    m = Manifest.load(dst)
    for p in m.postings_parts:
        if segments is None or p["part"] // CFG.num_term_shards in segments:
            full = os.path.join(dst, p["path"])
            _add_pos_off(full, CFG)
            p["sha"] = file_sha256(full)
    m.save(dst)
    return dst


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    """a two-segment index over the corpus, and one over each half"""
    import ray.data

    base = tmp_path_factory.mktemp("legacy_pos")
    out = {}
    for name, rows in (("full", (0, N_DOCS)), ("a", (0, N_DOCS // 2)),
                       ("b", (N_DOCS // 2, N_DOCS))):
        d = str(base / name)
        build_index(ray.data.from_arrow(synthetic_corpus(N_DOCS, seed=5, row_range=rows)), d, CFG)
        out[name] = d
    return out


def _answers(index_dir: str) -> list:
    """positional answers of a local engine (one group over every
    segment, so each term shard's parts are fused)"""
    eng = QueryEngine(index_dir, use_actors=False)
    ids = eng.search("def", k=20)["doc_id"].to_pylist()
    return [eng.search_phrase("return if", k=1000), eng.search_phrase("return def", k=1000),
            eng.search_phrase("def def", k=1000),
            eng.search_near("def", "return", slop=4, k=1000),
            eng.search_near("return", "if", slop=2, ordered=True, k=1000),
            eng.search_near_all(["def", "return", "if"], slop=8, k=1000),
            eng.search_span_first("return", 12, k=1000),
            [eng.first_position(t, d) for t in ("def", "return") for d in ids],
            [eng._group.searcher.positions(t, d) for t in ("def", "return") for d in ids]]


def _same_reader(got: PostingsPartReader, want: PostingsPartReader) -> None:
    assert list(got.terms) == list(want.terms)
    for term in want.terms:
        g, w = got.encoded(term), want.encoded(term)
        assert bytes(g.doc_blob) == bytes(w.doc_blob) and g.count == w.count
        rows = np.arange(w.count)[::-1]
        for a, b in zip(got.positions_rows_flat(term, rows),
                        want.positions_rows_flat(term, rows)):
            assert a.tolist() == b.tolist(), term
    assert got.positions_packed_column().equals(want.positions_packed_column())


def test_legacy_part_reads_identically(built, tmp_path):
    idx = built
    legacy = _legacy_copy(idx["full"], str(tmp_path / "legacy"))
    m = Manifest.load(legacy)
    assert all("pos_off" in pq.read_schema(os.path.join(legacy, p["path"])).names
               for p in m.postings_parts)
    for p in m.postings_parts:
        _same_reader(PostingsPartReader(os.path.join(legacy, p["path"]), CFG),
                     PostingsPartReader(os.path.join(idx["full"], p["path"]), CFG))
    want = _answers(idx["full"])
    assert all(len(t) for t in want[:7]) and any(want[7]) and any(want[8])
    assert _answers(legacy) == want


def test_group_fusing_legacy_and_new_parts(built, tmp_path):
    """a resume across versions leaves segment 0 in the older layout and
    segment 1 in this one; the group fusing them answers identically"""
    idx = built
    mixed = _legacy_copy(idx["full"], str(tmp_path / "mixed"), segments={0})
    seg0_rows = pq.read_metadata(os.path.join(mixed, docmap_rel_path(0))).num_rows
    for shard in range(CFG.num_term_shards):
        rel = [postings_rel_path(CFG.part_id(seg, shard)) for seg in (0, 1)]
        assert "pos_off" in pq.read_schema(os.path.join(mixed, rel[0])).names
        assert "pos_off" not in pq.read_schema(os.path.join(mixed, rel[1])).names
        _same_reader(PostingsPartReader([os.path.join(mixed, r) for r in rel], CFG, [0, seg0_rows]),
                     PostingsPartReader([os.path.join(idx["full"], r) for r in rel], CFG,
                                        [0, seg0_rows]))
    assert _answers(mixed) == _answers(idx["full"])


def test_merge_of_legacy_indexes_drops_the_column(built, tmp_path):
    idx = built
    legacy = [_legacy_copy(idx[h], str(tmp_path / f"legacy_{h}")) for h in ("a", "b")]
    merged_legacy = str(tmp_path / "merged_legacy")
    merged_new = str(tmp_path / "merged_new")
    m_legacy = merge_indexes(legacy, merged_legacy)
    m_new = merge_indexes([idx["a"], idx["b"]], merged_new)
    for p in m_legacy.postings_parts:
        assert "pos_off" not in pq.read_schema(os.path.join(merged_legacy, p["path"])).names
    assert ({p["part"]: p["sha"] for p in m_legacy.postings_parts}
            == {p["part"]: p["sha"] for p in m_new.postings_parts})
    assert _answers(merged_legacy) == _answers(idx["full"])
