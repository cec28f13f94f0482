"""One postings format: on-disk input written in a layout this version
no longer reads (another codec, nested positions, run files without
pos_lens, version-1 64-bit postings holding external ids) is rejected
with a one-line ValueError that says to rebuild, and an older manifest
that still records the retired options, or a version-1 wide index,
opens and answers as before."""

import json
import os

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from chearch_ray.config import EngineConfig
from chearch_ray.pipelines.build import build_index
from chearch_ray.sources.corpus import synthetic_corpus
from chearch_ray.state.engine import QueryEngine
from chearch_ray.state.segment import PostingsPartReader

CFG = EngineConfig(num_segments=2, num_term_shards=2, block_size=16, tokenize_batch_size=64)


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus(60, seed=7)


@pytest.fixture(scope="module")
def built(ray_session, corpus, tmp_path_factory):
    import ray.data

    d = str(tmp_path_factory.mktemp("fmt") / "idx")
    build_index(ray.data.from_arrow(corpus), d, CFG)
    return d


def _edit_manifest(src: str, dst: str, **config) -> None:
    """copy an index and overwrite keys of its manifest config"""
    import shutil

    shutil.copytree(src, dst)
    path = os.path.join(dst, "manifest.json")
    with open(path) as f:
        m = json.load(f)
    m["config"].update(config)
    with open(path, "w") as f:
        json.dump(m, f)


def test_manifest_with_other_codec_rejected(built, tmp_path):
    d = str(tmp_path / "bp")
    _edit_manifest(built, d, codec="bp128")
    with pytest.raises(ValueError, match="codec 'bp128'.*rebuild"):
        QueryEngine(d, use_actors=False)


def test_old_manifest_with_retired_options_answers_as_before(built, tmp_path):
    d = str(tmp_path / "old")
    _edit_manifest(built, d, shuffle_mode="partitioned", codec="varint")
    want = QueryEngine(built, use_actors=False)
    got = QueryEngine(d, use_actors=False)
    assert got.cfg == want.cfg
    for q in ("def return", "merge sort", "filter OR join"):
        assert got.search(q).equals(want.search(q)), q


def test_nested_positions_part_rejected(tmp_path):
    path = str(tmp_path / "part-00000.parquet")
    pq.write_table(
        pa.table(
            {
                "term": ["a"],
                "count": pa.array([1], type=pa.uint64()),
                "doc_blob": [b"\x05"],
                "tf_blob": [b"\x01"],
                "block_last": pa.array([[5]], type=pa.list_(pa.uint64())),
                "block_max_tf": pa.array([[1]], type=pa.list_(pa.uint32())),
                "block_doc_off": pa.array([[0]], type=pa.list_(pa.int64())),
                "block_tf_off": pa.array([[0]], type=pa.list_(pa.int64())),
                "positions": pa.array([[[3]]], type=pa.list_(pa.list_(pa.uint32()))),
            }
        ),
        path,
    )
    with pytest.raises(ValueError, match="nested list column.*rebuild"):
        PostingsPartReader(path, CFG)


def test_resumed_runs_without_pos_lens_rejected(ray_session, corpus, tmp_path):
    """a kept _shuffle dir marked complete whose runs predate pos_lens"""
    import glob
    import shutil

    import ray.data

    d = str(tmp_path / "idx")
    os.environ["CHEARCH_RAY_KEEP_RUNS"] = "1"
    try:
        build_index(ray.data.from_arrow(corpus), d, CFG)
    finally:
        os.environ.pop("CHEARCH_RAY_KEEP_RUNS", None)
    # un-commit every partition so a resume goes back to the runs
    os.remove(os.path.join(d, "manifest.json"))
    shutil.rmtree(os.path.join(d, "_lineage"))
    run_dir = os.path.join(d, "_shuffle")
    assert os.path.exists(os.path.join(run_dir, "_runs_complete"))
    files = glob.glob(os.path.join(run_dir, "part=*", "*.parquet"))
    assert files
    for f in files:
        pq.write_table(pads.dataset(f).to_table().drop_columns(["pos_lens"]), f)
    with pytest.raises(ValueError, match="pos_lens.*rebuild"):
        build_index(ray.data.from_arrow(corpus), d, CFG)


# ------------------------------------------------- manifest version 1
def _set_version(src: str, dst: str, version: int) -> None:
    """copy an index and overwrite its manifest version"""
    import shutil

    shutil.copytree(src, dst)
    path = os.path.join(dst, "manifest.json")
    with open(path) as f:
        m = json.load(f)
    m["version"] = version
    with open(path, "w") as f:
        json.dump(m, f)


def test_version1_64bit_index_rejected(built, tmp_path):
    """version-1 64-bit postings hold hashed external ids, which this
    version would read as docmap ordinals"""
    from chearch_ray.pipelines.merge import merge_indexes

    d = str(tmp_path / "v1")
    _set_version(built, d, 1)
    with pytest.raises(ValueError, match="64-bit postings hold external ids.*rebuild"):
        QueryEngine(d, use_actors=False)
    with pytest.raises(ValueError, match="64-bit postings hold external ids.*rebuild"):
        merge_indexes([d, built], str(tmp_path / "merged"))


def test_version1_wide_index_answers_as_before(ray_session, corpus, tmp_path):
    """wide postings held ordinals in version 1 already"""
    import dataclasses

    import ray.data

    wide = str(tmp_path / "wide")
    build_index(ray.data.from_arrow(corpus), wide, dataclasses.replace(CFG, doc_id_bits=128))
    d = str(tmp_path / "v1")
    _set_version(wide, d, 1)
    want = QueryEngine(wide, use_actors=False)
    got = QueryEngine(d, use_actors=False)
    hits = 0
    for q in ("def return", "merge sort", "filter OR join"):
        assert got.search(q).equals(want.search(q)), q
        hits += len(want.search(q))
    assert hits > 0
