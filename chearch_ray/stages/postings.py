"""Posting-list construction stages (the central shuffle).

Reference mapping (SURVEY.md §2.5 A3): the mutate-in-place posting
chains of memorysegment.chpl:178-252 invert into a shuffle-build —
tokenize emits per-term sorted runs keyed by the flattened
(doc-segment, term-shard) partition, the partitioned exchange
(pipelines/build.py) gathers each partition's runs, and each partition
materializes as one immutable Parquet file.  Zipf-hot terms (north
rule): with build_salt > 1 the salt (doc_id % S) sub-partitions the
exchange's run files, so a hot partition's runs are written by many
tasks; finalize reads the whole partition and its output does not
depend on the salt.

All writers emit per-partition lineage records (state/segment.py) so a
killed build resumes by skipping verified partitions.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from chearch_ray.config import EngineConfig
from chearch_ray.functions.codec import encode_postings_bulk
from chearch_ray.state import segment as seg_io


def write_unified_part(group: pa.Table, cfg: EngineConfig, index_dir: str,
                       seg_keys: np.ndarray | None = None) -> pa.Table:
    """Finalize one partition of the unified run schema
    (stages/tokenize.UNIFIED_SCHEMA): EITHER a postings partition
    (part < num_segments*num_term_shards; rows = per-term sorted
    partial runs from the map-side combine; `seg_keys` = its
    segment's `_segment_keys`) or a docmap partition
    (part = n_posting_parts + seg)."""
    if len(group) == 0:
        return _empty_summary()
    part = int(group["part"][0].as_py())
    n_posting_parts = cfg.num_segments * cfg.num_term_shards
    wide = cfg.doc_id_bits == 128
    if part < n_posting_parts:
        return _finalize_runs(cfg, index_dir, part, group, seg_keys)
    seg_id = part - n_posting_parts
    meta_cols = {
        "seg": pa.array([seg_id] * len(group), type=pa.int32()),
        "doc_id": group["doc_id"],
        "repo": group["repo"],
        "path": group["path"],
        "commit": group["commit"],
        "lang": group["lang"],
        "doc_len": group["doc_len"],
        "content_sha": group["content_sha"],
    }
    if wide:
        meta_cols["doc_id_hi"] = group["doc_id_hi"]
    return DocmapWriter(cfg, index_dir)(pa.table(meta_cols))


_SUMMARY_SCHEMA = pa.schema(
    [
        ("kind", pa.string()),
        ("part", pa.int32()),
        ("path", pa.string()),
        ("rows", pa.int64()),
        ("n_postings", pa.int64()),
        ("sha", pa.string()),
    ]
)


def _empty_summary() -> pa.Table:
    return _SUMMARY_SCHEMA.empty_table()


def _summary_row(kind: str, part: int, path: str, rows: int, n_postings: int, sha: str) -> pa.Table:
    return pa.table(
        {
            "kind": [kind],
            "part": pa.array([part], type=pa.int32()),
            "path": [path],
            "rows": [rows],
            "n_postings": [n_postings],
            "sha": [sha],
        },
        schema=_SUMMARY_SCHEMA,
    )


def _maybe_fail_injection(index_dir: str) -> None:
    """Test hook (FIXTURES.md §6): a `_control/fail_after_parts` file
    (or env CHEARCH_RAY_FAIL_AFTER_PARTS, when set before ray.init)
    kills the build once N postings partitions have committed.  File
    based because Ray workers don't see driver env mutations."""
    n = os.environ.get("CHEARCH_RAY_FAIL_AFTER_PARTS")
    ctrl = os.path.join(index_dir, "_control", "fail_after_parts")
    if n is None and os.path.exists(ctrl):
        with open(ctrl) as f:
            n = f.read().strip()
    if n is None:
        return
    done = seg_io.completed_parts(index_dir, "postings")
    if len(done) >= int(n):
        raise RuntimeError(f"fail injection: {len(done)} postings parts committed")


def _maybe_sleep_injection(index_dir: str) -> None:
    """Test hook, same pattern as `fail_after_parts`: a
    `_control/sleep_per_part` file holding a float stretches every
    partition commit by that many seconds, so chaos tests (SIGKILL a
    worker / the driver mid-shuffle) get a deterministic window on a
    small corpus instead of racing a sub-second build."""
    ctrl = os.path.join(index_dir, "_control", "sleep_per_part")
    if os.path.exists(ctrl):
        import time

        with open(ctrl) as f:
            time.sleep(float(f.read().strip()))


def _combine(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _split_runs_by_lens(run_cells: pa.Array, lens_cells: pa.Array,
                        n_postings: int) -> pa.Array:
    """run-level packed positions + per-posting uint32 byte lengths ->
    per-posting cells: ONE cumsum over the lengths (runs concatenate
    in row order, so the flattened lens align with the flattened
    postings), no scan over the positions bytes."""
    if n_postings == 0 or run_cells.buffers()[2] is None:
        return pa.array([b""] * n_postings, type=pa.binary())
    n_runs = len(run_cells)
    roff = np.frombuffer(run_cells.buffers()[1], dtype=np.int32)[
        run_cells.offset : run_cells.offset + n_runs + 1
    ].astype(np.int64)
    data = np.frombuffer(run_cells.buffers()[2], dtype=np.uint8)
    blob = data[roff[0] : roff[-1]]
    loff = np.frombuffer(lens_cells.buffers()[1], dtype=np.int32)[
        lens_cells.offset : lens_cells.offset + len(lens_cells) + 1
    ].astype(np.int64)
    lbuf = np.frombuffer(lens_cells.buffers()[2], dtype=np.uint8)[
        loff[0] : loff[-1]
    ]
    # tobytes: 4 B/posting copy, sidesteps u4-view alignment rules
    lens = np.frombuffer(lbuf.tobytes(), dtype="<u4").astype(np.int64)
    if len(lens) != n_postings:
        raise ValueError(
            f"pos_lens carries {len(lens)} lengths for {n_postings} postings")
    byte_off = np.concatenate([[0], np.cumsum(lens)])
    return pa.Array.from_buffers(
        pa.binary(),
        n_postings,
        [None, pa.py_buffer(byte_off.astype(np.int32).tobytes()),
         pa.py_buffer(blob.tobytes())],
    )


def _binary_from_offsets(offsets: np.ndarray, buf: bytes) -> pa.Array:
    """Zero-copy Arrow binary column from an int64 offsets array into
    one shared byte buffer (per-part blobs stay < 2 GiB by segment /
    shard sizing, so int32 offsets suffice)."""
    if len(buf) >= (1 << 31):
        raise ValueError("partition blob exceeds 2 GiB — raise num_term_shards")
    off32 = pa.py_buffer(offsets.astype(np.int32).tobytes())
    return pa.Array.from_buffers(pa.binary(), len(offsets) - 1, [None, off32, pa.py_buffer(buf)])


def _finalize_part(cfg: EngineConfig, index_dir: str, part: int, g: pa.Table,
                   seg_keys: np.ndarray) -> pa.Table:
    """g: rows of one partition, sorted by (term, doc_id) — or
    (term, doc_hi, doc_id) in wide mode.  `seg_keys`: the sorted
    external keys of the partition's doc-segment (`seg_io.doc_keys`),
    one per docmap row.  Every posting's external id is mapped here to
    its SEGMENT-LOCAL ORDINAL, the docmap row (reference documentIndex,
    documentid.chpl:20-42); ordinal order is external order, so the
    ascending-doc-id codec invariants hold unchanged."""
    terms = _combine(g["term"])
    hi = g["doc_hi"].to_numpy() if "doc_hi" in g.column_names else None
    q = seg_io.doc_keys(hi, g["doc_id"].to_numpy())
    doc = np.searchsorted(seg_keys, q)
    hit = (seg_keys[np.minimum(doc, len(seg_keys) - 1)] == q if len(seg_keys)
           else np.zeros(len(q), dtype=bool))
    if not hit.all():
        raise ValueError(
            f"postings/docmap divergence in part {part}: doc ids "
            f"{g['doc_id'].to_numpy()[~hit][:5]} missing from segment "
            f"{part // cfg.num_term_shards} docmap"
        )
    doc = doc.astype(np.uint64)
    tf = g["tf"].to_numpy().astype(np.uint64)
    has_pos = cfg.store_positions and "positions" in g.column_names
    pos_col = _combine(g["positions"]) if has_pos else None

    codes_arr = terms.dictionary_encode()
    codes = np.asarray(codes_arr.indices)
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    bounds = np.append(starts, len(g))
    uniq_terms = codes_arr.dictionary  # encounter order == sorted order here

    bulk = encode_postings_bulk(doc, tf, bounds, block_size=cfg.block_size)
    n_postings = len(doc)
    fingerprint = hashlib.sha256()
    fingerprint.update(bulk["doc_blob_buf"])
    fingerprint.update(bulk["tf_blob_buf"])

    blk_off = pa.array(bulk["block_list_offsets"], type=pa.int32())
    cols = {
        "term": uniq_terms,
        "count": pa.array(bulk["counts"], type=pa.uint64()),
        "doc_blob": _binary_from_offsets(bulk["doc_blob_offsets"], bulk["doc_blob_buf"]),
        "tf_blob": _binary_from_offsets(bulk["tf_blob_offsets"], bulk["tf_blob_buf"]),
        "block_last": pa.ListArray.from_arrays(blk_off, pa.array(bulk["block_last"], type=pa.uint64())),
        "block_max_tf": pa.ListArray.from_arrays(blk_off, pa.array(bulk["block_max_tf"], type=pa.uint32())),
        "block_doc_off": pa.ListArray.from_arrays(blk_off, pa.array(bulk["block_doc_off"], type=pa.int64())),
        "block_tf_off": pa.ListArray.from_arrays(blk_off, pa.array(bulk["block_tf_off"], type=pa.int64())),
    }
    if pos_col is not None:
        # per-term positions blob: the per-posting packed varint-delta
        # cells (tokenize packed them once) concatenate BYTE-WISE into
        # one blob per term — no re-encoding
        if isinstance(pos_col, pa.ChunkedArray):
            pos_col = pos_col.combine_chunks()
        poff = np.frombuffer(pos_col.buffers()[1], dtype=np.int32)[
            pos_col.offset : pos_col.offset + len(pos_col) + 1
        ].astype(np.int64)
        term_pos_off = poff[bounds]  # absolute byte offset at each term start
        if term_pos_off[-1] >= (1 << 31):
            raise ValueError("positions blob exceeds 2 GiB — raise num_term_shards")
        cols["pos_blob"] = pa.Array.from_buffers(
            pa.binary(),
            len(bounds) - 1,
            [None, pa.py_buffer(term_pos_off.astype(np.int32).tobytes()), pos_col.buffers()[2]],
        )
    table = pa.table(cols)

    rel = seg_io.postings_rel_path(part)
    full = os.path.join(index_dir, rel)
    seg_io.atomic_write_table(table, full)
    sha = seg_io.file_sha256(full)
    seg_io.LineageRecord(
        kind="postings",
        part=part,
        path=rel,
        rows=len(table),
        n_postings=int(n_postings),
        content_sha=sha,
        input_fingerprint=fingerprint.hexdigest(),
        docmap_fingerprint=seg_io.segment_fingerprint(seg_keys),
    ).save(index_dir)
    return _summary_row("postings", part, rel, len(table), int(n_postings), sha)


def _finalize_runs(cfg: EngineConfig, index_dir: str, part: int, group: pa.Table,
                   seg_keys: np.ndarray) -> pa.Table:
    """flatten one postings partition's runs back to posting rows,
    sort per term, encode + write against its segment's sorted keys.
    A term's runs come from different input batches (or salts), so
    they are disjoint sorted sequences; concat+sort merges them."""
    _maybe_fail_injection(index_dir)
    _maybe_sleep_injection(index_dir)
    doc_lists = _combine(group["doc_ids"])
    lengths = np.asarray(pc.list_value_length(doc_lists)).astype(np.int64)
    term_rep = pc.list_parent_indices(doc_lists)
    n_postings = int(lengths.sum())
    flat_cols = {
        "term": _combine(group["term"]).take(term_rep),
        "doc_id": doc_lists.flatten(),
        "tf": _combine(group["tfs"]).flatten(),
        "positions": _split_runs_by_lens(
            _combine(group["positions"]), _combine(group["pos_lens"]), n_postings
        ),
    }
    sort_keys = [("term", "ascending"), ("doc_id", "ascending")]
    if cfg.doc_id_bits == 128:
        flat_cols["doc_hi"] = _combine(group["doc_his"]).flatten()
        sort_keys = [("term", "ascending"), ("doc_hi", "ascending"), ("doc_id", "ascending")]
    flat = pa.table(flat_cols)
    order = pc.sort_indices(flat, sort_keys=sort_keys)
    return _finalize_part(cfg, index_dir, part, flat.take(order), seg_keys)


def _read_runs(run_dir: str, columns: list[str] | None = None) -> pa.Table:
    """every run file of one shuffle partition (salt subdirs included),
    in sorted path order.  A ParquetFile per file costs a fraction of
    a dataset scan's discovery on small runs; finalize sorts what it
    reads, so file order never reaches a part's bytes."""
    import glob

    files = sorted(glob.glob(os.path.join(run_dir, "**", "*.parquet"), recursive=True))
    return pa.concat_tables([pq.ParquetFile(f).read(columns=columns) for f in files])


def _segment_keys(cfg: EngineConfig, index_dir: str, seg: int) -> np.ndarray:
    """sorted external keys of doc-segment `seg`, read in the postings'
    own finalize wave from its docmap partition's run files — or from
    its committed docmap, when a resumed build kept that and so wrote
    no runs for it."""
    wide = cfg.doc_id_bits == 128
    cols = ["doc_id_hi", "doc_id"] if wide else ["doc_id"]
    runs = os.path.join(index_dir, "_shuffle",
                        f"part={cfg.num_segments * cfg.num_term_shards + seg}")
    if os.path.isdir(runs):
        t = _read_runs(runs, cols)
    else:
        t = pq.read_table(os.path.join(index_dir, seg_io.docmap_rel_path(seg)), columns=cols)
    hi = t["doc_id_hi"].to_numpy() if wide else None
    return _unique_keys(np.sort(seg_io.doc_keys(hi, t["doc_id"].to_numpy())), seg)


def _unique_keys(keys: np.ndarray, seg: int) -> np.ndarray:
    """sorted keys, checked: a repeated external id would give two docs
    one ordinal"""
    if (keys[1:] == keys[:-1]).any():
        raise ValueError(f"duplicate external doc id in segment {seg}")
    return keys


class DocmapWriter:
    """map_groups callable over groupby('seg'): write one doc-segment's
    docmap sorted by doc_id, with lineage."""

    def __init__(self, cfg: EngineConfig, index_dir: str):
        self.cfg = cfg
        self.index_dir = index_dir

    def __call__(self, group: pa.Table) -> pa.Table:
        if len(group) == 0:
            return _empty_summary()
        seg = int(group["seg"][0].as_py())
        # row order IS the ordinal assignment: sorted by external id,
        # so ordinal order mirrors external order
        wide = self.cfg.doc_id_bits == 128
        schema = seg_io.DOCMAP_SCHEMA_WIDE if wide else seg_io.DOCMAP_SCHEMA
        order = ["doc_id_hi", "doc_id"] if wide else ["doc_id"]
        g = group.sort_by([(c, "ascending") for c in order]).select(schema.names).cast(schema)
        hi = g["doc_id_hi"].to_numpy() if wide else None
        keys = _unique_keys(seg_io.doc_keys(hi, g["doc_id"].to_numpy()), seg)
        rel = seg_io.docmap_rel_path(seg)
        full = os.path.join(self.index_dir, rel)
        seg_io.atomic_write_table(g, full)
        sha = seg_io.file_sha256(full)
        seg_io.LineageRecord(
            kind="docmap",
            part=seg,
            path=rel,
            rows=len(g),
            n_postings=int(g["doc_len"].to_numpy().astype(np.int64).sum()),
            content_sha=sha,
            input_fingerprint=seg_io.segment_fingerprint(keys),
        ).save(self.index_dir)
        return _summary_row("docmap", seg, rel, len(g), 0, sha)
