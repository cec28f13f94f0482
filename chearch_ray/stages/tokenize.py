"""Index-build stage: document prep/metadata and posting explosion.

Reference mapping (SURVEY.md §2.2 M1): the per-document posting
explosion of MemorySegment.addDocument (memorysegment.chpl:267-292)
becomes a stateless vectorized map_batches over Arrow batches — no
shared mutable state; posting lists are assembled later by the
partitioned exchange (§2.5 A3).

The stage is a callable CLASS so the term-shard cache and config live
once per actor/worker (`concurrency=` pool), not once per batch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from chearch_ray.config import EngineConfig
from chearch_ray.functions.hashing import TermSharder, doc_id_from_keys, sha256_hex
from chearch_ray.functions.tokenizer import explode, token_counts, tokenize


def _doc_ids_of(batch: pa.Table) -> np.ndarray:
    """uint64 doc ids: reuse an existing doc_id column (driver testdata
    `documents` table) or derive stably from (repo, path, commit)."""
    if "doc_id" in batch.column_names:
        return batch["doc_id"].to_numpy().astype(np.uint64)
    return doc_id_from_keys(
        batch["repo"].to_pylist(), batch["path"].to_pylist(), batch["commit"].to_pylist()
    )


def _doc_ids_wide_of(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) uint64 external ids for doc_id_bits=128 mode: reuse
    doc_id_hi/doc_id columns when present (hi defaults to 0 so 64-bit
    corpora embed naturally), else derive blake2b-128 from keys."""
    from chearch_ray.functions.hashing import doc_id_wide_from_keys

    if "doc_id" in batch.column_names:
        lo = batch["doc_id"].to_numpy().astype(np.uint64)
        hi = (
            batch["doc_id_hi"].to_numpy().astype(np.uint64)
            if "doc_id_hi" in batch.column_names
            else np.zeros(len(lo), dtype=np.uint64)
        )
        return hi, lo
    return doc_id_wide_from_keys(
        batch["repo"].to_pylist(), batch["path"].to_pylist(), batch["commit"].to_pylist()
    )


#: unified RUN schema for the single-pass build: posting rows carry one
#: sorted partial run per (term, input batch) — list columns, the
#: map-side combiner of the two-phase posting merge (north rule) —
#: docmap rows (one per doc, routed to part = num_posting_parts + seg)
#: carry the scalar meta columns.  Rows-per-batch drops from
#: one-per-(doc, term) to one-per-distinct-term, which shrinks the
#: shuffle both in rows and bytes (term strings ride once per run).
UNIFIED_SCHEMA = pa.schema(
    [
        ("part", pa.int32()),
        ("salt", pa.int32()),
        ("term", pa.string()),
        ("doc_ids", pa.list_(pa.uint64())),
        ("tfs", pa.list_(pa.uint32())),
        # ONE packed cell per RUN (per-posting varint-delta cells
        # concatenated): a per-posting binary column would pay parquet's
        # 4-byte length prefix per posting — measured 136 MB of pure
        # framing on the 100k bench corpus.  Per-posting boundaries come
        # from pos_lens.
        ("positions", pa.binary()),
        # per-posting byte lengths of the positions cells (uint32 LE,
        # one cell per run): finalize rebuilds boundaries with one
        # cumsum instead of a varint-end scan (_runs_lens32)
        ("pos_lens", pa.binary()),
        ("doc_id", pa.uint64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("doc_len", pa.uint32()),
        ("content_sha", pa.string()),
    ]
)


def unified_schema(cfg: EngineConfig) -> pa.Schema:
    """UNIFIED_SCHEMA, plus the external-id hi columns in
    doc_id_bits=128 mode (doc_his per posting run, doc_id_hi per
    docmap row)."""
    if cfg.doc_id_bits != 128:
        return UNIFIED_SCHEMA
    return UNIFIED_SCHEMA.append(pa.field("doc_his", pa.list_(pa.uint64()))).append(
        pa.field("doc_id_hi", pa.uint64())
    )


class TokenizeCorpus:
    """Single-pass build stage: tokenize ONCE, emit posting RUNS and
    docmap rows in one unified table — the corpus is read and
    tokenized exactly once, one shuffle routes both kinds of
    partition, and postings leave the batch already combined into
    per-term sorted runs (map-side combine).

    `done_parts` (resume) drops rows destined for partitions whose
    lineage already verifies — resume-mid-shuffle."""

    def __init__(self, cfg: EngineConfig, done_parts: frozenset[int] = frozenset()):
        self.cfg = cfg
        self.sharder = TermSharder(cfg.num_term_shards)
        self.done_parts = done_parts

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        wide = cfg.doc_id_bits == 128
        n_posting_parts = cfg.num_segments * cfg.num_term_shards
        lists = tokenize(
            batch["content"],
            lowercase=cfg.lowercase,
            split_subtokens=cfg.split_subtokens,
            split_regex=cfg.token_split_regex,
        )
        if wide:
            doc_his, doc_ids = _doc_ids_wide_of(batch)
            post = self._posting_rows(doc_ids, lists, doc_his=doc_his)
        else:
            doc_his, doc_ids = None, _doc_ids_of(batch)
            post = self._posting_rows(doc_ids, lists)

        # ---- map-side combine: (part, salt, term, doc_id) rows ->
        # runs (salt sub-partitions the hive exchange when
        # cfg.build_salt > 1, spreading a hot partition's run files)
        sort_keys = [
            ("part", "ascending"),
            ("salt", "ascending"),
            ("term", "ascending"),
        ]
        if wide:
            sort_keys.append(("doc_hi", "ascending"))
        sort_keys.append(("doc_id", "ascending"))
        order = pc.sort_indices(post, sort_keys=sort_keys)
        p = post.take(order)
        part_np = p["part"].to_numpy()
        salt_np = p["salt"].to_numpy()
        term_arr = p["term"]
        if isinstance(term_arr, pa.ChunkedArray):
            term_arr = term_arr.combine_chunks()
        codes = np.asarray(term_arr.dictionary_encode().indices)
        change = np.empty(len(p), dtype=bool)
        if len(p):
            change[0] = True
            change[1:] = (
                (part_np[1:] != part_np[:-1])
                | (salt_np[1:] != salt_np[:-1])
                | (codes[1:] != codes[:-1])
            )
        starts = np.flatnonzero(change)
        bounds = pa.array(np.append(starts, len(p)).astype(np.int32), type=pa.int32())
        take_starts = pa.array(starts, type=pa.int64())
        n_runs = len(starts)
        nulls_s = pa.nulls(n_runs, type=pa.string())
        schema = unified_schema(cfg)
        post_cols = {
            "part": pa.array(part_np[starts], type=pa.int32()),
            "salt": pa.array(salt_np[starts], type=pa.int32()),
            "term": term_arr.take(take_starts),
            "doc_ids": pa.ListArray.from_arrays(bounds, _chunk(p["doc_id"])).cast(
                pa.list_(pa.uint64())
            ),
            "tfs": pa.ListArray.from_arrays(bounds, _chunk(p["tf"])).cast(
                pa.list_(pa.uint32())
            ),
            "positions": _runs_binary(_chunk(p["positions"]), starts),
            "pos_lens": _runs_lens32(_chunk(p["positions"]), starts),
            "doc_id": pa.nulls(n_runs, type=pa.uint64()),
            "repo": nulls_s,
            "path": nulls_s,
            "commit": nulls_s,
            "lang": nulls_s,
            "doc_len": pa.nulls(n_runs, type=pa.uint32()),
            "content_sha": nulls_s,
        }
        if wide:
            post_cols["doc_his"] = pa.ListArray.from_arrays(
                bounds, _chunk(p["doc_hi"])
            ).cast(pa.list_(pa.uint64()))
            post_cols["doc_id_hi"] = pa.nulls(n_runs, type=pa.uint64())
        post_tbl = pa.table(post_cols, schema=schema)

        # ---- docmap rows ---------------------------------------------
        seg = (doc_ids % np.uint64(cfg.num_segments)).astype(np.int64)
        meta_part = (n_posting_parts + seg).astype(np.int32)
        doc_len = token_counts(lists).astype(np.uint32)
        n = len(batch)

        def col(name: str) -> pa.Array:
            if name in batch.column_names:
                c = batch[name]
                return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
            return pa.array([""] * n, type=pa.string())

        meta_cols = {
            "part": pa.array(meta_part, type=pa.int32()),
            "salt": pa.array(np.zeros(n, dtype=np.int32), type=pa.int32()),
            "term": pa.nulls(n, type=pa.string()),
            "doc_ids": pa.nulls(n, type=pa.list_(pa.uint64())),
            "tfs": pa.nulls(n, type=pa.list_(pa.uint32())),
            "positions": pa.nulls(n, type=pa.binary()),
            "pos_lens": pa.nulls(n, type=pa.binary()),
            "doc_id": pa.array(doc_ids, type=pa.uint64()),
            "repo": col("repo"),
            "path": col("path"),
            "commit": col("commit"),
            "lang": col("lang"),
            "doc_len": pa.array(doc_len, type=pa.uint32()),
            "content_sha": sha256_hex(batch["content"]),
        }
        if wide:
            meta_cols["doc_his"] = pa.nulls(n, type=pa.list_(pa.uint64()))
            meta_cols["doc_id_hi"] = pa.array(doc_his, type=pa.uint64())
        meta_tbl = pa.table(meta_cols, schema=schema)
        if self.done_parts:
            mask = np.isin(
                meta_part, np.fromiter(self.done_parts, dtype=np.int32), invert=True
            )
            meta_tbl = meta_tbl.filter(pa.array(mask))
        return pa.concat_tables([post_tbl, meta_tbl]).combine_chunks()

    def _posting_rows(
        self, doc_ids: np.ndarray, lists: pa.ListArray, doc_his: np.ndarray | None = None,
    ) -> pa.Table:
        """token lists -> one row per (doc, term): (part, salt, term,
        doc_id, tf, positions) with positions as a per-posting varint-
        delta pack (functions.codec.pack_position_lists), plus doc_hi in
        wide mode.  (doc, term) pairs aggregate within the batch via
        Arrow hash aggregation, so the shuffle moves one row per
        (doc, term), not one per token occurrence."""
        cfg = self.cfg
        values, row_idx, positions = explode(lists)
        cols = {
            "term": values,
            "doc_id": pa.array(doc_ids[row_idx], type=pa.uint64()),
            "pos": pa.array(positions.astype(np.uint32), type=pa.uint32()),
        }
        keys = ["doc_id", "term"]
        if doc_his is not None:
            cols["doc_hi"] = pa.array(doc_his[row_idx], type=pa.uint64())
            keys = ["doc_hi", "doc_id", "term"]
        exploded = pa.table(cols)
        grouped = exploded.group_by(keys, use_threads=False).aggregate(
            [("pos", "list"), ("pos", "count")]
        )
        g_doc = grouped["doc_id"].to_numpy().astype(np.uint64)
        g_term = grouped["term"]
        if isinstance(g_term, pa.ChunkedArray):
            g_term = g_term.combine_chunks()
        tf = grouped["pos_count"].to_numpy().astype(np.uint32)
        pos_lists = grouped["pos_list"]
        if isinstance(pos_lists, pa.ChunkedArray):
            pos_lists = pos_lists.combine_chunks()
        if cfg.max_positions_per_doc > 0:
            pos_lists = pc.list_slice(pos_lists, 0, cfg.max_positions_per_doc)
            if isinstance(pos_lists, pa.ChunkedArray):
                pos_lists = pos_lists.combine_chunks()
        # pack positions ONCE at the source: the delta+varint cells ride
        # the shuffle (~1 byte/occurrence vs 4) and are concatenated
        # byte-wise into the final per-term blob without re-encoding
        from chearch_ray.functions.codec import pack_position_lists

        packed = pack_position_lists(pos_lists.cast(pa.list_(pa.uint32())))

        seg = (g_doc % np.uint64(cfg.num_segments)).astype(np.int64)
        shard = self.sharder.shards(g_term).astype(np.int64)
        part = (seg * cfg.num_term_shards + shard).astype(np.int32)
        salt = (
            (g_doc % np.uint64(cfg.build_salt)).astype(np.int32)
            if cfg.build_salt > 1
            else np.zeros(len(g_doc), dtype=np.int32)
        )
        out_cols = {
            "part": pa.array(part, type=pa.int32()),
            "salt": pa.array(salt, type=pa.int32()),
            "term": g_term,
            "doc_id": pa.array(g_doc, type=pa.uint64()),
            "tf": pa.array(tf, type=pa.uint32()),
            "positions": packed,
        }
        if doc_his is not None:
            out_cols["doc_hi"] = grouped["doc_hi"].cast(pa.uint64())
        out = pa.table(out_cols)
        if self.done_parts:
            mask = np.isin(part, np.fromiter(self.done_parts, dtype=np.int32), invert=True)
            out = out.filter(pa.array(mask))
        return out


def _chunk(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _runs_binary(per_posting: pa.Array, starts: np.ndarray) -> pa.Array:
    """per-posting packed cells (binary, contiguous row order) -> one
    concatenated cell per run, zero-copy over the shared data buffer
    (run boundaries given by `starts` posting indices)."""
    n = len(per_posting)
    if n == 0 or per_posting.buffers()[2] is None:
        return pa.array([b""] * len(starts), type=pa.binary())
    poff = np.frombuffer(per_posting.buffers()[1], dtype=np.int32)[
        per_posting.offset : per_posting.offset + n + 1
    ].astype(np.int64)
    run_off = poff[np.append(starts, n)]
    return pa.Array.from_buffers(
        pa.binary(),
        len(starts),
        [None, pa.py_buffer(run_off.astype(np.int32).tobytes()), per_posting.buffers()[2]],
    )


def _runs_lens32(per_posting: pa.Array, starts: np.ndarray) -> pa.Array:
    """per-posting packed cells -> one cell per run holding each
    posting's BYTE LENGTH as little-endian uint32.  Carrying lengths
    through the shuffle lets finalize rebuild posting boundaries with
    one cumsum instead of scanning every positions byte for varint
    terminators (the scan was 60% of the hottest partition's finalize
    CPU).  Raw cost 4 B/posting; the mostly-small values page-compress
    far below that."""
    n = len(per_posting)
    if n == 0 or per_posting.buffers()[2] is None:
        return pa.array([b""] * len(starts), type=pa.binary())
    poff = np.frombuffer(per_posting.buffers()[1], dtype=np.int32)[
        per_posting.offset : per_posting.offset + n + 1
    ].astype(np.int64)
    lens = np.diff(poff).astype("<u4")
    run_off = (np.append(starts, n) * 4).astype(np.int32)
    return pa.Array.from_buffers(
        pa.binary(),
        len(starts),
        [None, pa.py_buffer(run_off.tobytes()), pa.py_buffer(lens.tobytes())],
    )
