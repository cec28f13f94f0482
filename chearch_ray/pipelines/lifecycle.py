"""Index lifecycle: document deletes (tombstones) + compaction.

The reference's MVCC-lite snapshot filter (memorysegment.chpl:299:
queries only see documents registered before the query started)
generalizes to the persistent engine as LIVE-DOCS semantics:

* `delete_docs` appends a tombstone parquet under
  `<index>/tombstones/` — no segment file is touched, the manifest
  stays valid, and the write is atomic (tmp + rename), so a
  concurrent reader never sees a partial tombstone.
* `SegmentSearcher` loads the tombstone set ONCE at construction and
  masks candidates in every query mode; an engine opened BEFORE the
  delete keeps serving its snapshot (`load_tombstone_ids`).
* BM25 corpus stats (df / N / avgdl) intentionally remain the
  manifest's until compaction — the standard live-docs contract
  (scores of surviving docs are unchanged by a delete).
* `compact_index` rewrites the index WITHOUT the deleted docs by
  running the per-partition merge machinery over the single input
  with a drop set: decode -> filter -> re-sort -> re-encode per
  partition, no global shuffle, stats re-derived by commit_manifest.
  The output is byte-identical to a from-scratch build over the
  corpus minus the deleted docs (pinned by
  tests/test_lifecycle.py::test_compact_byte_identical_to_rebuild),
  and carries no tombstones.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa

from chearch_ray.state import segment as seg_io
from chearch_ray.state.segment import Manifest


def delete_docs(index_dir: str, doc_ids, doc_ids_hi=None) -> str:
    """Tombstone `doc_ids` (uint64 external ids; pass `doc_ids_hi` for
    a doc_id_bits=128 index).  Returns the tombstone file path.
    Readers constructed after this call exclude the docs from every
    query mode; already-open engines keep their snapshot."""
    if not seg_io.manifest_exists(index_dir):
        raise ValueError(f"no committed index at {index_dir}")
    lo = np.asarray(list(doc_ids), dtype=np.uint64)
    cols: dict = {"doc_id": pa.array(lo, type=pa.uint64())}
    manifest = Manifest.load(index_dir)
    wide = manifest.engine_config.doc_id_bits == 128
    if wide:
        if doc_ids_hi is None:
            raise ValueError("doc_id_bits=128 index: pass doc_ids_hi")
        hi = np.asarray(list(doc_ids_hi), dtype=np.uint64)
        if len(hi) != len(lo):
            raise ValueError("doc_ids and doc_ids_hi length mismatch")
        cols = {"doc_id_hi": pa.array(hi, type=pa.uint64()), **cols}
    elif doc_ids_hi is not None:
        raise ValueError("doc_ids_hi given for a 64-bit index")
    tomb_dir = os.path.join(index_dir, "tombstones")
    os.makedirs(tomb_dir, exist_ok=True)
    n = len(glob.glob(os.path.join(tomb_dir, "t-*.parquet")))
    path = os.path.join(tomb_dir, f"t-{n:06d}.parquet")
    seg_io.atomic_write_table(pa.table(cols), path)
    return path


def load_tombstone_ids(index_dir: str) -> dict | None:
    """{"lo": uint64 array, "hi": uint64 array | None} of all
    tombstoned external ids, or None when there are none."""
    import pyarrow.parquet as pq

    paths = sorted(glob.glob(os.path.join(index_dir, "tombstones", "*.parquet")))
    if not paths:
        return None
    t = pa.concat_tables([pq.read_table(p) for p in paths])
    lo = t["doc_id"].to_numpy().astype(np.uint64)
    hi = (
        t["doc_id_hi"].to_numpy().astype(np.uint64)
        if "doc_id_hi" in t.column_names
        else None
    )
    return {"lo": lo, "hi": hi}


def compact_index(index_dir: str, out_dir: str) -> Manifest:
    """Rewrite the index into `out_dir` without its tombstoned docs
    (per-partition Ray tasks, no global shuffle); output is
    byte-identical to a fresh build over the surviving corpus and has
    an empty tombstone set.  A no-op copy-shaped compact (no
    tombstones) is also valid — it re-finalizes every partition."""
    from chearch_ray.pipelines.merge import merge_indexes
    from chearch_ray.state.docstore import gc_docstore, has_docstore

    drop = load_tombstone_ids(index_dir)
    manifest = merge_indexes([index_dir], out_dir, drop_ids=drop)
    if has_docstore(index_dir):
        # the sidecar compacts with the segments: tombstoned docs'
        # TEXT leaves disk too, byte-identical to a fresh sidecar
        # build over the survivors
        gc_docstore(index_dir, out_dir,
                    drop_lo=None if drop is None else drop["lo"],
                    drop_hi=None if drop is None else drop["hi"])
    return manifest


def upsert_docs(index_dir: str, corpus, cfg=None, scratch_dir: str | None = None):
    """Replace-or-insert documents in a live index: batch-build the
    incoming rows as a delta index, then run ONE per-input-drop merge
    — the old index drops every incoming doc_id (replaced versions
    vanish physically, like compaction), the delta contributes the new
    versions, and ids new to the corpus simply insert.  The result is
    byte-identical to a from-scratch build over
    (old corpus − replaced ids) ∪ incoming rows, with fresh stats and
    no tombstones (the reference is append-only in-memory,
    search.chpl:38-39; updates are this repo's persistence extension).

    Scale shape: the delta build is the normal distributed pipeline
    over ONLY the new rows, and the merge rewrites each term partition
    once (per-partition Ray tasks, no global shuffle) — no
    full-corpus re-tokenization.  Swap is atomic-ish: merged dir moves
    in after the old moves aside, so a crash leaves one complete
    index."""
    import shutil
    import tempfile

    import pyarrow as _pa

    from chearch_ray.config import DEFAULT_CONFIG
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.pipelines.merge import merge_indexes

    cfg = cfg or Manifest.load(index_dir).engine_config or DEFAULT_CONFIG
    wide = cfg.doc_id_bits == 128

    def _ids_of(t: _pa.Table):
        lo = t["doc_id"].to_numpy().astype("uint64")
        if not wide:
            return lo, None
        if "doc_id_hi" not in t.column_names:
            raise ValueError(
                "wide-id upsert needs explicit doc_id_hi + doc_id columns "
                "(derived blake2b ids would have to be recomputed here)")
        return lo, t["doc_id_hi"].to_numpy().astype("uint64")

    if isinstance(corpus, _pa.Table):
        import ray.data

        ids, his = _ids_of(corpus)
        ds = ray.data.from_arrow(corpus)
    else:
        ds = corpus
        parts = [_ids_of(b) for b in ds.iter_batches(batch_size=None,
                                                     batch_format="pyarrow")]
        ids = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, "uint64")
        his = (np.concatenate([p[1] for p in parts])
               if wide and parts else None)
    if len(ids) == 0:
        raise ValueError("nothing to upsert")
    scratch = scratch_dir or tempfile.mkdtemp(prefix="chearch_upsert_")
    delta_dir = os.path.join(scratch, "delta")
    build_index(ds, delta_dir, cfg, resume=False)
    merged_dir = os.path.join(scratch, "merged")
    # per-input drops: replaced ids leave the OLD index only; ids
    # absent from it are inert (sorted-membership mask)
    manifest = merge_indexes(
        [index_dir, delta_dir], merged_dir,
        drop_ids=[{"lo": ids, "hi": his}, None],
    )
    from chearch_ray.state.docstore import (_read_docstore_meta,
                                            build_docstore, gc_docstore,
                                            has_docstore, merge_docstores)

    if has_docstore(index_dir):
        # the sidecar upserts with the segments: replaced versions'
        # text leaves, incoming text enters — (old − incoming ids) ∪
        # incoming, byte-identical to a fresh sidecar over the final
        # corpus.  Incoming text column mirrors the corpus contract;
        # the delta inherits the old store's hash modulus so the
        # merge's per-partition union lines up.
        schema_names = ds.schema().names
        text_col = "content" if "content" in schema_names else "text"
        survivors_dir = os.path.join(scratch, "oldgc")
        gc_docstore(index_dir, survivors_dir, drop_lo=ids, drop_hi=his)
        meta = _read_docstore_meta(index_dir) or {}
        build_docstore(ds, delta_dir, text_column=text_col, wide=wide,
                       n_partitions=int(meta.get("n_partitions", 64)))
        merge_docstores([survivors_dir, delta_dir], merged_dir)
    old = index_dir.rstrip("/") + ".old"
    shutil.rmtree(old, ignore_errors=True)
    shutil.move(index_dir, old)
    shutil.move(merged_dir, index_dir)
    shutil.rmtree(old, ignore_errors=True)
    shutil.rmtree(scratch, ignore_errors=True)
    return manifest
