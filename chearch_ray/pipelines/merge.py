"""Index merging: combine several built indexes into one.

The north star calls for "merge segment posting lists into a sharded
index"; the reference can't do this at all (no persistence,
docs/TODO.txt:5).  Because doc-segments are keyed by doc_id %
num_segments and partitions are canonically sorted by (term, doc_id),
two indexes built with the same structural config have ALIGNED
partitioning: merging is per-partition — decode each input's postings
for that partition, concatenate, re-sort, re-encode — with no global
shuffle.  Output partitions are byte-identical to a from-scratch build
over the union corpus (pinned by tests), so merged indexes carry the
same determinism guarantees.

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
    # wide vs narrow docmaps have different schemas and posting-value
    # semantics (ordinals vs external ids) — never mix silently
    "doc_id_bits",
)


def _explode_postings_part(path: str, cfg: EngineConfig,
                           source_docmap: str | None = None) -> pa.Table:
    """partition file -> flat (term, doc_id, tf, positions) rows.
    Wide mode: posting values are the SOURCE index's segment-local
    ordinals — translate them to external (hi, lo) pairs through that
    index's docmap (`source_docmap`) so inputs merge in a shared id
    space."""
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
    cols = {
        "term": term_col,
        "doc_id": pa.array(doc, type=pa.uint64()),
        "tf": pa.array(tf.astype(np.uint32), type=pa.uint32()),
    }
    if cfg.doc_id_bits == 128:
        from chearch_ray.state.segment import DocmapReader

        dm = DocmapReader(source_docmap)
        hi, lo = dm.external_ids(doc)
        cols["doc_hi"] = pa.array(hi, type=pa.uint64())
        cols["doc_id"] = pa.array(lo, type=pa.uint64())
    pos = reader.positions_packed_column()
    if pos is not None:
        cols["positions"] = pos  # per-posting packed cells, term-major order
    else:
        cols["positions"] = pa.nulls(len(doc), type=pa.binary())
    return pa.table(cols)


def _drop_mask(lo: np.ndarray, hi: np.ndarray | None, drop: dict) -> np.ndarray:
    """keep-mask of rows whose external id is NOT in the drop set.
    64-bit mode: sorted membership on doc_id; wide mode: on the packed
    (hi, lo) key."""
    from chearch_ray.functions.hashing import key16

    if hi is not None:
        keys = key16(hi.astype(np.uint64), lo.astype(np.uint64))
        dkeys = np.sort(key16(drop["hi"].astype(np.uint64), drop["lo"].astype(np.uint64)))
    else:
        keys = lo.astype(np.uint64)
        dkeys = np.sort(drop["lo"].astype(np.uint64))
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

    outs = []
    for row in batch.to_pylist():
        part = int(row["part"])
        kind = row["kind"]
        if kind == "postings":
            wide = cfg.doc_id_bits == 128
            seg_id = part // cfg.num_term_shards
            tables = []
            for d, dset in zip(input_dirs, drops):
                p = os.path.join(d, seg_io.postings_rel_path(part))
                if os.path.exists(p):
                    t = _explode_postings_part(
                        p, cfg,
                        source_docmap=os.path.join(d, seg_io.docmap_rel_path(seg_id))
                        if wide
                        else None,
                    )
                    tables.append(
                        _apply_drop(t, dset, "doc_id", "doc_hi" if wide else None))
            flat = pa.concat_tables(tables)
            if len(flat) == 0:
                outs.append(_empty_summary())
                continue
            sort_keys = (
                [("term", "ascending"), ("doc_hi", "ascending"), ("doc_id", "ascending")]
                if wide
                else [("term", "ascending"), ("doc_id", "ascending")]
            )
            order = pc.sort_indices(flat, sort_keys=sort_keys)
            g = flat.take(order)
            # duplicate (term, doc) pairs mean the same doc exists in
            # two inputs — the merge contract requires disjoint corpora
            t = g["term"].combine_chunks()
            codes = np.asarray(t.dictionary_encode().indices)
            docs_np = g["doc_id"].to_numpy()
            same_doc = docs_np[1:] == docs_np[:-1]
            if wide:
                his_np = g["doc_hi"].to_numpy()
                same_doc &= his_np[1:] == his_np[:-1]
            same = np.flatnonzero((codes[1:] == codes[:-1]) & same_doc)
            if len(same):
                raise ValueError(
                    f"duplicate doc ids across merge inputs in part {part} "
                    f"(e.g. doc {docs_np[same[0]]})"
                )
            outs.append(_finalize_part(cfg, out_dir, part, g))
        else:  # docmap
            tables = []
            for d, dset in zip(input_dirs, drops):
                p = os.path.join(d, seg_io.docmap_rel_path(part))
                if os.path.exists(p):
                    t = pq.read_table(p)
                    t = t.append_column("seg", pa.array([part] * len(t), type=pa.int32()))
                    tables.append(
                        _apply_drop(
                            t, dset, "doc_id",
                            "doc_id_hi" if cfg.doc_id_bits == 128 else None))
            cat = pa.concat_tables(tables)
            if cfg.doc_id_bits != 128:
                # wide mode: low words may legitimately collide; the
                # writer dup-checks the full (hi, lo) pair after sorting
                ids = cat["doc_id"].to_numpy()
                if len(ids) != len(np.unique(ids)):
                    raise ValueError(f"duplicate doc ids across merge inputs in docmap seg {part}")
            outs.append(DocmapWriter(cfg, out_dir)(cat))
    return pa.concat_tables(outs)


def merge_indexes(input_dirs: list[str], out_dir: str,
                  drop_ids: dict | list | None = None) -> Manifest:
    """Merge built indexes (same structural config, disjoint doc ids)
    into `out_dir`; per-partition ray tasks, no global shuffle.  Output
    partitions are byte-identical to a from-scratch build over the
    union corpus.

    doc_id_bits=128 indexes merge at the EXTERNAL-id level: docmaps
    merge first, then each posting merge translates its input's
    segment-local ordinals to (hi, lo) pairs via the source docmap and
    re-maps them to the merged docmap's ordinals — never a silent
    ordinal-space mixup."""
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

    def _run_items(items: list[dict]) -> None:
        if not items:
            return
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

    post_items = [{"kind": "postings", "part": p} for p in posting_parts]
    doc_items = [{"kind": "docmap", "part": s} for s in doc_segs]
    if cfg.doc_id_bits == 128:
        # wide-id merge: docmaps merge FIRST — posting merges translate
        # each input's segment-local ordinals to external (hi, lo)
        # pairs via the SOURCE docmap, and _finalize_part re-maps them
        # to the MERGED docmap's ordinals (same code path as the build)
        _run_items(doc_items)
        _run_items(post_items)
    else:
        _run_items(post_items + doc_items)
    return commit_manifest(out_dir, cfg)
