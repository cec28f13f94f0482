"""The finalize wave: build and merge finalize their parts in about
2 x cluster-CPU tasks, each a contiguous run of segment-ordered parts
(`pipelines.build.plan_finalize_chunks`).  Which task finalizes a part
must never change its bytes, and a failed task must leave no state in
a reused Ray worker that a later build could read."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pytest

from chearch_ray.config import EngineConfig
from chearch_ray.pipelines import build as build_mod
from chearch_ray.pipelines.build import build_index, plan_finalize_chunks
from chearch_ray.pipelines.lifecycle import compact_index, delete_docs, upsert_docs
from chearch_ray.pipelines.merge import merge_indexes
from chearch_ray.sources.corpus import synthetic_corpus
from chearch_ray.state.segment import Manifest

#: a CPU count that plans one part per task for every index below
ONE_PART_PER_TASK_CPUS = 1000


def _items(n_segments: int, n_shards: int) -> list[dict]:
    n_posting = n_segments * n_shards
    items = [{"kind": "postings", "part": p, "seg": p // n_shards} for p in range(n_posting)]
    items += [{"kind": "docmap", "part": n_posting + s, "seg": s} for s in range(n_segments)]
    # the planner must not depend on the order it is handed
    return items[::-1]


def _seg_order(it: dict) -> tuple:
    return (it["seg"], it["kind"] != "docmap", it["part"])


# ------------------------------------------------------------- planner
@pytest.mark.parametrize("n_items_shape,cpus", [((4, 16), 1), ((4, 16), 4), ((4, 16), 16),
                                                ((2, 3), 1), ((2, 3), 100), ((1, 1), 2)])
def test_plan_covers_items_contiguously(n_items_shape, cpus):
    items = _items(*n_items_shape)
    chunks = plan_finalize_chunks(items, cpus)
    assert len(chunks) == min(len(items), 2 * cpus)
    flat = [it["part"] for c in chunks for it in c]
    assert sorted(flat) == sorted(it["part"] for it in items)  # each item exactly once
    sizes = [len(c) for c in chunks]
    assert max(sizes) - min(sizes) <= 1
    # every chunk is a contiguous slice of the segment-ordered items
    # (each segment's docmap part first, then its postings parts)
    by_slice = sorted((sorted(c, key=_seg_order) for c in chunks), key=lambda c: _seg_order(c[0]))
    assert [it for c in by_slice for it in c] == sorted(items, key=_seg_order)
    # launch order: docmap parts head their chunk, and their chunks go
    # first, so a segment's docmap runs before any of its postings parts
    kinds = [[it["kind"] for it in c] for c in chunks]
    assert all(k == sorted(k, key=lambda kind: kind != "docmap") for k in kinds)
    heads = [k[0] == "docmap" for k in kinds]
    assert heads == sorted(heads, reverse=True)
    at = {it["part"]: (i, j) for i, c in enumerate(chunks) for j, it in enumerate(c)}
    for it in items:
        if it["kind"] == "postings":
            dm = next(d for d in items if d["kind"] == "docmap" and d["seg"] == it["seg"])
            assert at[dm["part"]] < at[it["part"]]


def test_plan_spreads_segments_when_tasks_outnumber_them():
    chunks = plan_finalize_chunks(_items(4, 16), 16)
    assert len(chunks) == 32
    for seg in range(4):
        assert sum(any(it["seg"] == seg for it in c) for c in chunks) > 1


def test_plan_packs_to_two_tasks_on_one_cpu():
    chunks = plan_finalize_chunks(_items(4, 16), 1)
    assert [len(c) for c in chunks] == [34, 34]
    assert {it["seg"] for it in chunks[0]} == {0, 1}
    assert plan_finalize_chunks([], 4) == []


# ---------------------------------------------- byte identity across packings
CFG64 = EngineConfig(num_segments=2, num_term_shards=3, block_size=16, tokenize_batch_size=64)
CFG128 = EngineConfig(num_segments=2, num_term_shards=3, block_size=16, tokenize_batch_size=64,
                      doc_id_bits=128)


def _corpus(n: int, seed: int, base_id: int, wide: bool) -> pa.Table:
    t = synthetic_corpus(n, seed=seed).append_column(
        "doc_id", pa.array(np.arange(base_id, base_id + n, dtype=np.uint64)))
    if wide:
        t = t.append_column("doc_id_hi", pa.array(np.arange(n, dtype=np.uint64) % 3))
    return t


def _index_bytes(d: str) -> dict:
    """every part sha plus the raw bytes of term stats and manifest"""
    m = Manifest.load(d)
    with open(os.path.join(d, "stats", "term_stats.parquet"), "rb") as f:
        stats = f.read()
    with open(os.path.join(d, "manifest.json"), "rb") as f:
        manifest = f.read()
    return {
        "postings": {p["part"]: p["sha"] for p in m.postings_parts},
        "docmap": {p["part"]: p["sha"] for p in m.docmap_parts},
        "term_stats": stats,
        "manifest": manifest,
    }


def _lifecycle_run(base: str, cfg: EngineConfig) -> dict:
    """build, merge, delete + compact and upsert into `base`; returns
    each resulting index's bytes"""
    import ray.data

    wide = cfg.doc_id_bits == 128
    a, b = _corpus(120, 42, 1000, wide), _corpus(80, 43, 5000, wide)
    da, db = os.path.join(base, "a"), os.path.join(base, "b")
    build_index(ray.data.from_arrow(a), da, cfg)
    build_index(ray.data.from_arrow(b), db, cfg)
    merged = os.path.join(base, "merged")
    merge_indexes([da, db], merged)

    lo = [1003, 1010, 1011, 5007]
    hi = [a["doc_id_hi"][3].as_py(), a["doc_id_hi"][10].as_py(), a["doc_id_hi"][11].as_py(),
          b["doc_id_hi"][7].as_py()] if wide else None
    delete_docs(merged, lo, doc_ids_hi=hi)
    compacted = os.path.join(base, "compacted")
    compact_index(merged, compacted)

    out = {name: _index_bytes(os.path.join(base, name))
           for name in ("a", "b", "merged", "compacted")}
    # 5 replaced ids and 5 new ones
    upsert_docs(da, _corpus(10, 99, 1115, wide), cfg, scratch_dir=os.path.join(base, "scratch"))
    out["upserted"] = _index_bytes(da)
    return out


@pytest.mark.parametrize("cfg", [CFG64, CFG128], ids=["ids64", "ids128"])
def test_packing_does_not_change_index_bytes(ray_session, tmp_path, monkeypatch, cfg):
    """The same build, merge, compaction and upsert, once with one part
    per finalize task and once packed into two tasks: every part sha,
    term_stats.parquet and manifest.json are byte-equal."""
    monkeypatch.setattr(build_mod, "cluster_cpus", lambda: ONE_PART_PER_TASK_CPUS)
    unpacked = _lifecycle_run(str(tmp_path / "unpacked"), cfg)
    monkeypatch.setattr(build_mod, "cluster_cpus", lambda: 1)
    packed = _lifecycle_run(str(tmp_path / "packed"), cfg)
    assert unpacked.keys() == packed.keys()
    for name in unpacked:
        assert unpacked[name] == packed[name], name
    # the lifecycle steps really produced distinct indexes
    assert unpacked["merged"]["docmap"] != unpacked["compacted"]["docmap"]
    assert unpacked["a"]["docmap"] != unpacked["upserted"]["docmap"]
    assert json.loads(packed["compacted"]["manifest"])["num_docs"] == 200 - 4


# ----------------------------------------- no state across reused workers
def test_failed_wave_leaves_no_state_for_the_next_build(ray_session, tmp_path, monkeypatch):
    """A build of corpus A fails mid-wave (`fail_after_parts`) while its
    tasks hold segment keys; a build of a different corpus B in the same
    Ray session, on the same reused workers, must equal a fresh build
    of B.  Per-task state that outlives a raising task (a module-level
    memo of segment keys) would map B's postings against A's keys."""
    import ray.data

    cfg = EngineConfig(num_segments=1, num_term_shards=8, block_size=16, tokenize_batch_size=64)
    corpus_a = _corpus(150, 7, 1000, False)
    corpus_b = _corpus(150, 8, 9000, False)

    d_fail = str(tmp_path / "a_fails")
    ctrl = os.path.join(d_fail, "_control", "fail_after_parts")
    os.makedirs(os.path.dirname(ctrl))
    with open(ctrl, "w") as f:
        f.write("2")
    # packed: each task holds several postings parts of the one segment,
    # so a task commits parts and then raises with the keys in hand
    monkeypatch.setattr(build_mod, "cluster_cpus", lambda: 1)
    with pytest.raises(Exception, match="fail injection"):
        build_index(ray.data.from_arrow(corpus_a), d_fail, cfg)

    # one part per task, so B's wave reaches every pooled worker
    monkeypatch.setattr(build_mod, "cluster_cpus", lambda: ONE_PART_PER_TASK_CPUS)
    d_b = str(tmp_path / "b")
    build_index(ray.data.from_arrow(corpus_b), d_b, cfg)
    monkeypatch.setattr(build_mod, "cluster_cpus", lambda: 1)
    d_b_fresh = str(tmp_path / "b_fresh")
    build_index(ray.data.from_arrow(corpus_b), d_b_fresh, cfg)
    assert _index_bytes(d_b) == _index_bytes(d_b_fresh)
