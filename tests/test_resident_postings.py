"""Resident flat postings: `PostingsPartReader` holds every per-term
column as one flat numpy buffer plus offsets, and serves a term as
slices of it.

Pinned here against the Arrow per-term values of the part file itself:
every `encoded` field, `max_tf`, and the positions paths, for 64-bit and
wide ids, with and without stored positions, on single- and multi-chunk
columns.  Also the ordinal format (every posting value is a docmap row),
the postings/docmap divergence checks at build, commit and query time,
and the bounds on the searcher's metadata-filter cache and the reader's
positions cache."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from chearch_ray.config import EngineConfig
from chearch_ray.functions.codec import decode_tfs, pack_position_lists, unpack_position_blob
from chearch_ray.pipelines.build import build_index
from chearch_ray.sources.corpus import synthetic_corpus
from chearch_ray.state import searcher as searcher_mod
from chearch_ray.state import segment as segment_mod
from chearch_ray.state.engine import QueryEngine
from chearch_ray.state.segment import (
    DocmapReader,
    Manifest,
    PostingsPartReader,
    docmap_rel_path,
)

MODES = [(64, True), (64, False), (128, True), (128, False)]


def _cfg(bits: int, positions: bool) -> EngineConfig:
    return EngineConfig(num_segments=2, num_term_shards=2, block_size=8,
                        tokenize_batch_size=64, doc_id_bits=bits,
                        store_positions=positions)


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus(150, seed=11)


@pytest.fixture(scope="module")
def indexes(ray_session, corpus, tmp_path_factory):
    """one index per (doc_id_bits, store_positions), block_size 8 so
    common terms span many skip blocks"""
    import ray.data

    base = tmp_path_factory.mktemp("resident")
    out = {}
    for bits, positions in MODES:
        d = str(base / f"idx{bits}{'p' if positions else ''}")
        build_index(ray.data.from_arrow(corpus), d, _cfg(bits, positions))
        out[bits, positions] = d
    return out


def _part_paths(index_dir: str) -> list[str]:
    import os

    m = Manifest.load(index_dir)
    return [os.path.join(index_dir, p["path"]) for p in m.postings_parts]


def _arrow_positions(table: pa.Table, i: int, counts: np.ndarray) -> pa.ListArray:
    """the term's positions decoded from its Arrow pos_blob value"""
    flat, offsets = unpack_position_blob(table["pos_blob"][i].as_py(), counts)
    return pa.ListArray.from_arrays(pa.array(offsets.astype(np.int32)),
                                    pa.array(flat.astype(np.uint32)))


def _pos_counts(enc, cfg: EngineConfig) -> np.ndarray:
    """each posting's stored position count: tf capped at
    max_positions_per_doc"""
    tfs = decode_tfs(enc).astype(np.int64)
    return np.minimum(tfs, cfg.max_positions_per_doc) if cfg.max_positions_per_doc > 0 else tfs


def _check_reader(reader: PostingsPartReader, table: pa.Table, cfg: EngineConfig) -> int:
    """every per-term answer of `reader` against the Arrow values of
    `table`; returns the number of terms that span several blocks"""
    terms = table["term"].to_pylist()
    assert list(reader.terms) == terms
    multi_block = 0
    for i, term in enumerate(terms):
        enc = reader.encoded(term)
        assert enc.count == table["count"][i].as_py()
        assert bytes(enc.doc_blob) == table["doc_blob"][i].as_py()
        assert bytes(enc.tf_blob) == table["tf_blob"][i].as_py()
        for name, dtype in (("block_last", np.uint64), ("block_max_tf", np.uint32),
                            ("block_doc_off", np.int64), ("block_tf_off", np.int64)):
            got = getattr(enc, name)
            assert got.dtype == dtype, name
            assert got.tolist() == table[name][i].as_py(), (term, name)
        blocks = table["block_max_tf"][i].values
        want_max = pc.max(blocks).as_py() if len(blocks) else 0
        assert reader.max_tf(term) == want_max
        multi_block += len(enc.block_last) > 2
        if "pos_blob" not in table.column_names:
            assert reader.positions_rows_flat(term, np.arange(enc.count)) is None
            continue
        want = _arrow_positions(table, i, _pos_counts(enc, cfg))
        rng = np.random.default_rng(i)
        picks = [np.arange(enc.count), rng.permutation(enc.count)[: max(enc.count // 3, 1)]]
        for rows in picks:
            want_rows = want.take(pa.array(rows, type=pa.int64()))
            lengths, flat = reader.positions_rows_flat(term, rows)
            assert lengths.tolist() == [len(x) for x in want_rows.to_pylist()]
            assert flat.tolist() == [p for x in want_rows.to_pylist() for p in x]
    if "pos_blob" in table.column_names:
        want_cells = pa.concat_arrays([
            pack_position_lists(_arrow_positions(table, i, _pos_counts(reader.encoded(t), cfg)))
            for i, t in enumerate(terms)])
        assert reader.positions_packed_column().equals(want_cells)
    else:
        assert reader.positions_packed_column() is None
    return multi_block


@pytest.mark.parametrize("bits,positions", MODES)
def test_reader_matches_arrow_values(indexes, bits, positions):
    cfg = _cfg(bits, positions)
    multi_block = 0
    for path in _part_paths(indexes[bits, positions]):
        table = pq.read_table(path)
        assert table["doc_blob"].num_chunks == 1
        multi_block += _check_reader(PostingsPartReader(path, cfg), table, cfg)
    assert multi_block > 10  # the fixture exercises many skip blocks


@pytest.mark.parametrize("bits,positions", MODES)
def test_multi_chunk_part_gives_identical_answers(indexes, bits, positions, tmp_path):
    """a part written in several row groups reads as multi-chunk
    columns; the reader combines them once and answers the same"""
    cfg = _cfg(bits, positions)
    for n, path in enumerate(_part_paths(indexes[bits, positions])):
        table = pq.read_table(path)
        small = str(tmp_path / f"part-{n}.parquet")
        pq.write_table(table, small, row_group_size=7)
        chunked = pq.read_table(small)
        assert chunked["doc_blob"].num_chunks > 1
        assert chunked["block_last"].num_chunks > 1
        _check_reader(PostingsPartReader(small, cfg), table, cfg)


def test_empty_part_serves_nothing(tmp_path):
    from chearch_ray.state.segment import POSTINGS_SCHEMA

    path = str(tmp_path / "part-00000.parquet")
    pq.write_table(POSTINGS_SCHEMA.empty_table(), path)
    reader = PostingsPartReader(path, _cfg(64, True))
    assert reader.terms == {} and reader.encoded("def") is None
    assert reader.max_tf("def") == 0 and reader.positions_rows_flat("def", [0]) is None
    assert len(reader.positions_packed_column()) == 0


def test_encoded_returns_views_not_copies(indexes):
    path = _part_paths(indexes[64, True])[0]
    reader = PostingsPartReader(path, _cfg(64, True))
    term = max(reader.terms, key=reader.df)
    enc = reader.encoded(term)
    assert len(enc.block_last) > 2
    for name in ("doc_blob", "tf_blob", "block_last", "block_max_tf",
                 "block_doc_off", "block_tf_off"):
        view = getattr(enc, name)
        assert np.shares_memory(view, getattr(reader, "_" + name)[0]), name
        assert not view.flags.writeable, name


# ------------------------------------------------------ ordinal format
@pytest.mark.parametrize("bits", [64, 128])
def test_postings_hold_docmap_ordinals(indexes, bits):
    """every posting value is a row of its segment's docmap, so 64-bit
    doc blobs hold small ordinal deltas, not hashed external ids"""
    import os

    from chearch_ray.functions.codec import decode_postings

    d, cfg = indexes[bits, False], _cfg(bits, False)
    n_postings = blob_bytes = 0
    for p in Manifest.load(d).postings_parts:
        seg = p["part"] // cfg.num_term_shards
        n_docs = pq.read_metadata(os.path.join(d, docmap_rel_path(seg))).num_rows
        reader = PostingsPartReader(os.path.join(d, p["path"]), cfg)
        for term in reader.terms:
            docs, _ = decode_postings(reader.encoded(term), cfg.block_size)
            assert int(docs.max()) < n_docs, term
        n_postings += p["n_postings"]
        blob_bytes += len(reader._doc_blob[0])
    assert n_postings > 1000
    if bits == 64:
        assert blob_bytes / n_postings < 2


# ------------------------------------------- postings/docmap divergence
def _truncate_docmaps(index_dir: str) -> None:
    """keep only the first row of every docmap, so postings name docs
    the docmap no longer holds"""
    import os

    for seg in range(Manifest.load(index_dir).engine_config.num_segments):
        path = os.path.join(index_dir, docmap_rel_path(seg))
        pq.write_table(pq.read_table(path).slice(0, 1), path)


def test_docmap_divergence_raises_64bit(indexes, tmp_path):
    import shutil

    d = str(tmp_path / "idx")
    shutil.copytree(indexes[64, False], d)
    _truncate_docmaps(d)
    eng = QueryEngine(d, use_actors=False)
    with pytest.raises(ValueError, match="postings/docmap divergence"):
        eng.search("def OR return")


def test_docmap_divergence_raises_wide(indexes, tmp_path):
    import shutil

    d = str(tmp_path / "idx")
    shutil.copytree(indexes[128, False], d)
    _truncate_docmaps(d)
    eng = QueryEngine(d, use_actors=False)
    with pytest.raises(ValueError, match="out of docmap range"):
        eng.search("def OR return")


@pytest.mark.parametrize("bits", [64, 128])
def test_merge_rejects_docmap_divergence(indexes, bits, tmp_path):
    """merge translates each input's ordinals through that input's
    docmap ids, with the same range check as the searcher"""
    import shutil

    from chearch_ray.pipelines.merge import merge_indexes

    d = str(tmp_path / "idx")
    shutil.copytree(indexes[bits, False], d)
    _truncate_docmaps(d)
    with pytest.raises(Exception, match="out of docmap range"):
        merge_indexes([d], str(tmp_path / "merged"))


def test_postings_helper_returns_external_ids(indexes):
    """SegmentSearcher.postings gives 64-bit external ids; a wide id is
    a (hi, lo) pair, so it refuses a wide index"""
    from chearch_ray.state.searcher import SegmentSearcher

    s = SegmentSearcher(indexes[64, False], 0, _cfg(64, False))
    docs, tfs = s.postings("def")
    ords, want_tfs = s._postings("def")
    assert len(docs) > 10 and np.isin(docs, s.docmap.doc_ids).all()
    assert docs.tolist() == s.docmap.doc_ids[ords].tolist()
    assert tfs.tolist() == want_tfs.tolist()
    wide = SegmentSearcher(indexes[128, False], 0, _cfg(128, False))
    with pytest.raises(ValueError, match="doc_id_bits=128"):
        wide.postings("def")


def test_docmap_divergence_names_missing_ids(indexes, tmp_path):
    """postings finalize maps external ids to docmap ordinals, and a
    doc its segment's docmap lacks raises, naming the id"""
    import os

    from chearch_ray.stages.postings import _finalize_part

    dm = DocmapReader(os.path.join(indexes[64, False], docmap_rel_path(0)))
    ids = dm.doc_ids[:3].astype(np.uint64)
    assert dm.ordinals_for(None, ids).tolist() == [0, 1, 2]
    absent = np.array([ids[0], ids[-1] + np.uint64(1)], dtype=np.uint64)
    absent = absent[~np.isin(absent, dm.doc_ids)]

    def finalize(doc_ids, keys):
        g = pa.table({"term": ["t"] * len(doc_ids),
                      "doc_id": pa.array(doc_ids, type=pa.uint64()),
                      "tf": pa.array(np.ones(len(doc_ids)), type=pa.uint32())})
        return _finalize_part(_cfg(64, False), str(tmp_path), 0, g, keys)

    with pytest.raises(ValueError, match=f"divergence.*{absent[0]}"):
        finalize(np.sort(np.concatenate([ids, absent])), dm.doc_ids)
    with pytest.raises(ValueError, match="postings/docmap divergence"):
        finalize(ids, dm.doc_ids[:0])


def test_repeated_doc_id_in_segment_raises(ray_session, corpus, tmp_path):
    """two rows with one external id would share one ordinal"""
    import ray.data

    ids = np.arange(len(corpus), dtype=np.uint64) * np.uint64(2)
    ids[5] = ids[7]  # same id, same segment
    dup = corpus.append_column("doc_id", pa.array(ids, type=pa.uint64()))
    with pytest.raises(Exception, match="duplicate external doc id in segment"):
        build_index(ray.data.from_arrow(dup), str(tmp_path / "idx"), _cfg(64, False))


def test_commit_checks_postings_against_docmap(indexes, tmp_path):
    """a postings part whose ordinals were mapped against another doc
    set fails the commit; a record naming no docmap does not verify,
    so resume finalizes that part again"""
    import json
    import os
    import shutil

    from chearch_ray.pipelines.build import commit_manifest
    from chearch_ray.state.segment import completed_parts, lineage_path

    d = str(tmp_path / "idx")
    shutil.copytree(indexes[64, False], d)
    cfg = _cfg(64, False)
    assert commit_manifest(d, cfg).postings_parts  # the copy commits as built
    path = lineage_path(d, "postings", 0)
    with open(path) as f:
        rec = json.load(f)
    with open(path, "w") as f:
        json.dump({**rec, "docmap_fingerprint": "0" * 64}, f)
    with pytest.raises(ValueError, match="postings/docmap divergence in part 0"):
        commit_manifest(d, cfg)
    del rec["docmap_fingerprint"]
    with open(path, "w") as f:
        json.dump(rec, f)
    assert 0 not in completed_parts(d, "postings")
    assert 1 in completed_parts(d, "postings")


# ---------------------------------------------------- filter-cache bound
def test_filter_cache_is_bounded(indexes):
    d = indexes[64, False]
    eng = QueryEngine(d, use_actors=False)
    queries = [f"doc_len:[{i} TO {i + 500}] def" for i in range(300)]
    got = [eng.search_parsed(q) for q in queries]
    assert 0 < len(eng._group.searcher._filter_cache) <= searcher_mod._FILTER_CACHE_MAX
    # evicted predicates recompute to a fresh engine's answers
    fresh = QueryEngine(d, use_actors=False)
    for q, t in zip(queries[::25], got[::25]):
        assert t.equals(fresh.search_parsed(q)), q
        assert eng.search_parsed(q).equals(t), q


# ------------------------------------------------ positions cache bound
def test_positions_cache_is_bounded(ray_session, tmp_path):
    """phrase verification caches each decoded term; past the cache
    limit of distinct terms the one positions cache is cleared, and
    answers stay a fresh engine's"""
    import ray.data

    limit = segment_mod._POS_CACHE_MAX
    words = [f"w{i:05d}" for i in range(2 * limit + 100)]
    corpus = pa.table({
        "doc_id": pa.array(np.arange(len(words) // 2), type=pa.uint64()),
        "content": [f"{a} {b}" for a, b in zip(words[::2], words[1::2])],
    })
    cfg = EngineConfig(num_segments=1, num_term_shards=1, tokenize_batch_size=512)
    d = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(corpus), d, cfg)
    eng = QueryEngine(d, use_actors=False)
    phrases = [[a, b] for a, b in zip(words[::2], words[1::2])]
    got = [eng.search_phrase(p) for p in phrases]
    reader = eng._group.searcher.shards[0]
    assert 0 < len(reader._positions) <= limit
    fresh = QueryEngine(d, use_actors=False)
    for p, t in zip(phrases[::50], got[::50]):
        assert len(t) == 1
        assert t.equals(fresh.search_phrase(p)), p
