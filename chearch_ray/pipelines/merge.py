"""Index merging: combine several built indexes into one.

The north star calls for "merge segment posting lists into a sharded
index"; the reference can't do this at all (no persistence,
docs/TODO.txt:5).  Because doc-segments are keyed by doc_id %
num_segments and partitions are canonically sorted by (term, doc_id),
two indexes built with the same structural config have ALIGNED
partitioning: merging is per-partition — decode each input's postings
for that partition back to external ids, concatenate, re-sort, map to
the merged segment's ordinals, re-encode — with no global shuffle.
Output partitions are byte-identical to a from-scratch build over the
union corpus (pinned by tests), so merged indexes carry the same
determinism guarantees.

This is the batch companion to state/online.OnlineIndexer: flush
incremental batches to small indexes, then fold them into the main
index with merge_indexes.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from chearch_ray.config import EngineConfig
from chearch_ray.pipelines.build import commit_manifest
from chearch_ray.stages.postings import DocmapWriter, _finalize_part
from chearch_ray.state import segment as seg_io
from chearch_ray.state.segment import Manifest

#: structural fields that must match across merge inputs (they define
#: partition alignment and on-disk format)
_STRUCTURAL = (
    "num_segments",
    "num_term_shards",
    "block_size",
    "token_split_regex",
    "lowercase",
    "split_subtokens",
    "store_positions",
    "max_positions_per_doc",
    # wide vs narrow docmaps have different schemas and id spaces —
    # never mix silently
    "doc_id_bits",
)


def _explode_postings_part(path: str, cfg: EngineConfig, ids: pa.Table | None) -> pa.Table:
    """partition file -> flat (term, doc_id[, doc_hi], tf, positions)
    rows.  Posting values are the SOURCE index's segment-local
    ordinals: they index that segment's docmap id columns (`ids`:
    doc_id[, doc_id_hi]; None when the input has no such docmap), so
    inputs merge in a shared id space."""
    from chearch_ray.functions.codec import decode_postings
    from chearch_ray.state.segment import PostingsPartReader

    reader = PostingsPartReader(path, cfg)
    terms = list(reader.terms)  # file-row order (term-sorted)
    out_doc, out_tf = [], []
    counts = np.empty(len(terms), dtype=np.int64)
    for i, term in enumerate(terms):
        enc = reader.encoded(term)
        docs, tfs = decode_postings(enc, cfg.block_size)
        counts[i] = len(docs)
        out_doc.append(docs)
        out_tf.append(tfs)
    doc = np.concatenate(out_doc) if out_doc else np.empty(0, dtype=np.uint64)
    tf = np.concatenate(out_tf) if out_tf else np.empty(0, dtype=np.uint64)
    # np.repeat over term indices + one dictionary take — no
    # per-posting Python string lists (VERDICT r01 item 10)
    idx = np.repeat(np.arange(len(terms), dtype=np.int32), counts)
    term_col = pa.DictionaryArray.from_arrays(
        pa.array(idx, type=pa.int32()), pa.array(terms, type=pa.string())
    ).cast(pa.string())
    idx = seg_io.checked_ordinals(doc, 0 if ids is None else len(ids))

    def external(col: str) -> pa.Array:
        return pa.array(ids[col].to_numpy()[idx] if len(idx) else idx, type=pa.uint64())

    cols = {"term": term_col, "doc_id": external("doc_id"),
            "tf": pa.array(tf.astype(np.uint32), type=pa.uint32())}
    if cfg.doc_id_bits == 128:
        cols["doc_hi"] = external("doc_id_hi")
    pos = reader.positions_packed_column()
    if pos is not None:
        cols["positions"] = pos  # per-posting packed cells, term-major order
    else:
        cols["positions"] = pa.nulls(len(doc), type=pa.binary())
    return pa.table(cols)


def _drop_mask(lo: np.ndarray, hi: np.ndarray | None, drop: dict) -> np.ndarray:
    """keep-mask of rows whose external id (hi None in 64-bit mode) is
    NOT in the drop set: sorted membership on `doc_keys`."""
    keys = seg_io.doc_keys(hi, lo)
    dkeys = np.sort(seg_io.doc_keys(None if hi is None else drop["hi"], drop["lo"]))
    if len(dkeys) == 0 or len(keys) == 0:
        return np.ones(len(keys), dtype=bool)
    pos = np.searchsorted(dkeys, keys)
    pos_c = np.minimum(pos, len(dkeys) - 1)
    return dkeys[pos_c] != keys


def _merge_one_part(batch: pa.Table, cfg_dict: dict, input_dirs: list[str], out_dir: str,
                    drop: dict | list | None = None) -> pa.Table:
    """ray task: merge one partition id across all inputs, optionally
    dropping documents in `drop` ({"lo": uint64 array, "hi": array or
    None}) — the compaction path (pipelines.lifecycle.compact_index).
    A LIST of drop sets (one per input, None allowed) applies each set
    to ITS OWN input only — the upsert path, where the old index drops
    the replaced ids but the delta index carrying their new versions
    must not."""
    import pyarrow.compute as pc

    from chearch_ray.stages.postings import _empty_summary

    cfg = EngineConfig(**cfg_dict)
    drops = drop if isinstance(drop, list) else [drop] * len(input_dirs)

    def _apply_drop(t: pa.Table, dset, lo_col: str, hi_col: str | None) -> pa.Table:
        if dset is None or len(t) == 0:
            return t
        lo_np = t[lo_col].to_numpy()
        hi_np = t[hi_col].to_numpy() if hi_col else None
        return t.filter(pa.array(_drop_mask(lo_np, hi_np, dset)))

    wide = cfg.doc_id_bits == 128

    def _input_docmaps(seg: int, columns: list[str] | None = None) -> list:
        """each input's docmap table of doc-segment `seg` (None where
        the input has none)"""
        paths = [os.path.join(d, seg_io.docmap_rel_path(seg)) for d in input_dirs]
        return [pq.read_table(p, columns=columns) if os.path.exists(p) else None
                for p in paths]

    def _segment_docs(seg: int, docmaps: list):
        """(the inputs' docmap rows minus drops, their sorted external
        keys): the merged segment's doc set, which the docmap task
        writes and the postings tasks map to ordinals"""
        tables = [_apply_drop(t, dset, "doc_id", "doc_id_hi" if wide else None)
                  for t, dset in zip(docmaps, drops) if t is not None]
        cat = pa.concat_tables(tables)
        hi = cat["doc_id_hi"].to_numpy() if wide else None
        keys = np.sort(seg_io.doc_keys(hi, cat["doc_id"].to_numpy()))
        # the merge contract requires disjoint corpora
        if (keys[1:] == keys[:-1]).any():
            raise ValueError(f"duplicate doc ids across merge inputs in docmap seg {seg}")
        return cat, keys

    outs = []
    for row in batch.to_pylist():
        part = int(row["part"])
        if row["kind"] == "docmap":
            cat, _ = _segment_docs(part, _input_docmaps(part))
            cat = cat.append_column("seg", pa.array([part] * len(cat), type=pa.int32()))
            outs.append(DocmapWriter(cfg, out_dir)(cat))
            continue
        seg_id = part // cfg.num_term_shards
        # each input's id columns, read once: they translate its
        # ordinals and make up the merged segment's keys
        docmaps = _input_docmaps(seg_id, ["doc_id_hi", "doc_id"] if wide else ["doc_id"])
        tables = []
        for d, dset, ids in zip(input_dirs, drops, docmaps):
            p = os.path.join(d, seg_io.postings_rel_path(part))
            if os.path.exists(p):
                t = _explode_postings_part(p, cfg, ids)
                tables.append(_apply_drop(t, dset, "doc_id", "doc_hi" if wide else None))
        flat = pa.concat_tables(tables)
        if len(flat) == 0:
            outs.append(_empty_summary())
            continue
        sort_keys = [("term", "ascending"), ("doc_id", "ascending")]
        if wide:
            sort_keys.insert(1, ("doc_hi", "ascending"))
        _, seg_keys = _segment_docs(seg_id, docmaps)
        g = flat.take(pc.sort_indices(flat, sort_keys=sort_keys))
        outs.append(_finalize_part(cfg, out_dir, part, g, seg_keys))
    return pa.concat_tables(outs)


def merge_indexes(input_dirs: list[str], out_dir: str,
                  drop_ids: dict | list | None = None) -> Manifest:
    """Merge built indexes (same structural config, disjoint doc ids)
    into `out_dir`; per-partition ray tasks, no global shuffle.  Output
    partitions are byte-identical to a from-scratch build over the
    union corpus.

    Indexes merge at the EXTERNAL-id level, in one wave of tasks: each
    posting merge translates its inputs' segment-local ordinals to
    external ids via the source docmaps, and re-maps them to ordinals of
    the merged segment's doc set (the inputs' docmap rows minus drops,
    which the docmap task writes) — never a silent ordinal-space
    mixup."""
    import dataclasses

    import ray.data

    manifests = [Manifest.load(d) for d in input_dirs]
    cfg = manifests[0].engine_config
    for m in manifests[1:]:
        other = m.engine_config
        for f in _STRUCTURAL:
            if getattr(other, f) != getattr(cfg, f):
                raise ValueError(f"merge inputs disagree on {f}")
    # purge any previous index's state in out_dir — stale lineage
    # records would verify and be folded into the merged manifest by
    # commit_manifest (same mixed-index hazard as build resume=False)
    import shutil

    for sub in ("_lineage", "segments", "docmap", "stats", "_shuffle", "_control"):
        shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
    stale_manifest = os.path.join(out_dir, "manifest.json")
    if os.path.exists(stale_manifest):
        os.remove(stale_manifest)
    os.makedirs(out_dir, exist_ok=True)
    posting_parts = sorted({p["part"] for m in manifests for p in m.postings_parts})
    doc_segs = sorted({p["part"] for m in manifests for p in m.docmap_parts})
    cfg_dict = dataclasses.asdict(cfg)
    cfg_dict["input_columns"] = tuple(cfg_dict.get("input_columns", ()))

    items = ([{"kind": "postings", "part": p} for p in posting_parts]
             + [{"kind": "docmap", "part": s} for s in doc_segs])
    if items:
        (
            ray.data.from_items(items, override_num_blocks=len(items))
            .map_batches(
                partial(_merge_one_part, cfg_dict=cfg_dict, input_dirs=list(input_dirs),
                        out_dir=out_dir, drop=drop_ids),
                batch_format="pyarrow",
                batch_size=1,
                num_cpus=1,
            )
            .take_all()
        )
    return commit_manifest(out_dir, cfg)
