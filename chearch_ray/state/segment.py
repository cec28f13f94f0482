"""Segment persistence: postings/docmap Parquet files, per-partition
lineage records, manifest commit.

The reference has NO persistence (flush/read is TODO,
docs/TODO.txt:5; README.md:18-22) — this module builds the layer it
declares as future work, and doubles as the checkpoint/resume substrate
the north rule requires.

Layout under an index directory (all writes atomic: tmp + rename):

    segments/part-{part:05d}.parquet   postings for one
                                       (doc-segment, term-shard) pair;
                                       one row per term
    docmap/seg-{seg:05d}.parquet       doc metadata for one doc-segment,
                                       sorted by doc_id
    stats/term_stats.parquet           term -> global df
    stats/global.json                  N, total_tokens, avgdl, config
    _lineage/postings-{part:05d}.json  per-partition lineage
    _lineage/docmap-{seg:05d}.json
    manifest.json                      committed LAST — the atomic
                                       publish barrier (reference
                                       analogue: documentCount bump
                                       after postings are written,
                                       memorysegment.chpl:280-289)

A failed build leaves verified lineage records behind; the re-run
skips their partitions before the shuffle (see pipelines/build.py).
At multi-node scale the index dir must live on shared storage
(NFS/S3); in this sandbox it is a local path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import uuid
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from chearch_ray.config import EngineConfig
from chearch_ray.functions.codec import (EncodedPostings, concat_geometry, decode_tfs,
                                         unpack_position_blob, varint_decode)

#: 2: 64-bit postings hold docmap row ordinals, as wide ones always
#: did (version 1 stored the hashed external ids in 64-bit postings)
MANIFEST_VERSION = 2

#: terms kept in a positions cache (PostingsPartReader's decoded terms,
#: SegmentSearcher's first positions) before it is cleared
_POS_CACHE_MAX = 1024

POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("count", pa.uint64()),  # df of the term within this partition
        ("doc_blob", pa.binary()),
        ("tf_blob", pa.binary()),
        ("block_last", pa.list_(pa.uint64())),
        ("block_max_tf", pa.list_(pa.uint32())),
        ("block_doc_off", pa.list_(pa.int64())),
        ("block_tf_off", pa.list_(pa.int64())),
        # packed positions: per-term varint-delta blob; absent when
        # store_positions=False.  Parts written before this layout also
        # carry a per-skip-block byte offsets column, `pos_off`, which
        # the reader does not read.
        ("pos_blob", pa.binary()),
    ]
)

DOCMAP_SCHEMA = pa.schema(
    [
        ("doc_id", pa.uint64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("doc_len", pa.uint32()),
        ("content_sha", pa.string()),
    ]
)

#: doc_id_bits=128 docmap: external id = (doc_id_hi, doc_id); rows
#: sorted by (hi, lo) so the ROW ORDINAL is the segment-local posting
#: id (reference internal-docIndex/externalDocId split)
DOCMAP_SCHEMA_WIDE = pa.schema(
    [("doc_id_hi", pa.uint64())] + list(DOCMAP_SCHEMA)
)


# ------------------------------------------------------------ atomic IO
def atomic_write_table(table: pa.Table, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp-{uuid.uuid4().hex}"
    pq.write_table(table, tmp, compression="zstd")
    os.replace(tmp, path)


def atomic_write_json(obj: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp-{uuid.uuid4().hex}"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -------------------------------------------------------------- lineage
@dataclass
class LineageRecord:
    """Per-partition build provenance.  `content_sha` hashes the
    emitted file (not just row counts — resume must detect torn
    output, SURVEY.md §7 hard-part 4)."""

    kind: str  # "postings" | "docmap"
    part: int
    path: str  # relative to index dir
    rows: int
    n_postings: int
    content_sha: str
    input_fingerprint: str  # hash over the partition's input row keys
    #: postings only: `segment_fingerprint` of the doc keys the part's
    #: ordinals were mapped against; commit_manifest checks it against
    #: the docmap's input_fingerprint
    docmap_fingerprint: str = ""

    def save(self, index_dir: str) -> None:
        atomic_write_json(dataclasses.asdict(self), lineage_path(index_dir, self.kind, self.part))

    @classmethod
    def load(cls, index_dir: str, kind: str, part: int) -> "LineageRecord | None":
        p = lineage_path(index_dir, kind, part)
        if not os.path.exists(p):
            return None
        with open(p) as f:
            return cls(**json.load(f))

    def verify(self, index_dir: str) -> bool:
        """True iff the output file exists and hashes to the recorded
        sha — the partition can be skipped on resume.  A postings
        record must also name the docmap it was mapped against."""
        if self.kind == "postings" and not self.docmap_fingerprint:
            return False
        full = os.path.join(index_dir, self.path)
        return os.path.exists(full) and file_sha256(full) == self.content_sha


def lineage_path(index_dir: str, kind: str, part: int) -> str:
    return os.path.join(index_dir, "_lineage", f"{kind}-{part:05d}.json")


def completed_parts(index_dir: str, kind: str) -> set[int]:
    """Partitions whose lineage record verifies (resume set)."""
    lineage_dir = os.path.join(index_dir, "_lineage")
    done: set[int] = set()
    if not os.path.isdir(lineage_dir):
        return done
    for name in os.listdir(lineage_dir):
        if not name.startswith(f"{kind}-") or not name.endswith(".json"):
            continue
        part = int(name[len(kind) + 1 : -5])
        rec = LineageRecord.load(index_dir, kind, part)
        if rec is not None and rec.verify(index_dir):
            done.add(part)
    return done


def doc_keys(hi, lo) -> np.ndarray:
    """sortable keys of external doc ids: `lo` itself in 64-bit mode
    (hi None), key16(hi, lo) in wide mode.  A docmap's rows, and so the
    ordinals postings hold, are in key order."""
    lo = np.asarray(lo, dtype=np.uint64)
    if hi is None:
        return lo
    from chearch_ray.functions.hashing import key16

    return key16(np.asarray(hi, dtype=np.uint64), lo)


def segment_fingerprint(keys: np.ndarray) -> str:
    """sha256 of a doc-segment's sorted `doc_keys`: the docmap lineage's
    input_fingerprint, and the docmap_fingerprint of every postings part
    whose ordinals were mapped against those keys"""
    return hashlib.sha256(keys.tobytes()).hexdigest()


def checked_ordinals(ordinals: np.ndarray, n_rows: int) -> np.ndarray:
    """`ordinals` as rows of an `n_rows`-row docmap: an ordinal past the
    docmap means postings/docmap divergence (e.g. mixed stale
    segments), and indexing on would corrupt scores and projections."""
    if len(ordinals) and int(ordinals.max()) >= n_rows:
        raise ValueError("postings/docmap divergence: posting ordinal out of docmap range")
    return ordinals


# ------------------------------------------------------------- manifest
@dataclass
class Manifest:
    version: int
    config: dict
    num_docs: int
    total_tokens: int
    avgdl: float
    postings_parts: list[dict]  # [{part, path, rows, n_postings, sha}]
    docmap_parts: list[dict]
    term_stats_path: str = "stats/term_stats.parquet"
    extra: dict = field(default_factory=dict)

    @property
    def engine_config(self) -> EngineConfig:
        codec = self.config.get("codec", EngineConfig.codec)
        if codec != EngineConfig.codec:
            raise ValueError(
                f"index postings use codec {codec!r}, which this version cannot "
                f"read ({EngineConfig.codec!r} only); rebuild the index"
            )
        if self.version < 2 and self.config.get("doc_id_bits", 64) == 64:
            raise ValueError(
                f"index manifest version {self.version}: its 64-bit postings hold "
                "external ids, not docmap ordinals; rebuild the index"
            )
        valid = {f.name for f in dataclasses.fields(EngineConfig)}
        cfg = {k: v for k, v in self.config.items() if k in valid}
        cfg["input_columns"] = tuple(cfg.get("input_columns", ()))
        return EngineConfig(**cfg)

    def save(self, index_dir: str) -> None:
        atomic_write_json(dataclasses.asdict(self), os.path.join(index_dir, "manifest.json"))

    @classmethod
    def load(cls, index_dir: str) -> "Manifest":
        with open(os.path.join(index_dir, "manifest.json")) as f:
            return cls(**json.load(f))


def manifest_exists(index_dir: str) -> bool:
    return os.path.exists(os.path.join(index_dir, "manifest.json"))


# ---------------------------------------------------- postings file IO
def postings_rel_path(part: int) -> str:
    return os.path.join("segments", f"part-{part:05d}.parquet")


def docmap_rel_path(seg: int) -> str:
    return os.path.join("docmap", f"seg-{seg:05d}.parquet")


def _flat_column(col: "pa.ChunkedArray") -> tuple[np.ndarray, np.ndarray]:
    """(flat values, row offsets) of a binary or list column: row i is
    values[offsets[i]:offsets[i + 1]] (uint8 bytes for binary).  One
    chunk gives zero-copy views of the Arrow buffers; several chunks (a
    part written in several row groups) are combined once, with int64
    offsets, so the combined values may pass 2 GiB.  The views are
    read-only."""
    parts = []
    for c in col.chunks:
        if pa.types.is_binary(c.type) or pa.types.is_large_binary(c.type):
            width = np.int64 if pa.types.is_large_binary(c.type) else np.int32
            offs = np.frombuffer(c.buffers()[1], dtype=width)[c.offset : c.offset + len(c) + 1]
            data = c.buffers()[2]
            vals = np.empty(0, np.uint8) if data is None else np.frombuffer(data, dtype=np.uint8)
        else:
            offs = c.offsets.to_numpy()
            vals = c.values.to_numpy()
        parts.append((vals, offs))
    if len(parts) == 1:
        vals, offs = parts[0]
    else:
        vals = np.concatenate([v[o[0] : o[-1]] for v, o in parts])
        base = np.cumsum([0] + [int(o[-1] - o[0]) for _, o in parts])
        offs = np.concatenate(
            [np.zeros(1, np.int64)]
            + [o[1:].astype(np.int64) - o[0] + b for (_, o), b in zip(parts, base)])
    vals.flags.writeable = False
    return vals, offs


def _row(col: tuple[np.ndarray, np.ndarray], i: int) -> np.ndarray:
    """row i of a `_flat_column` pair, as a view"""
    vals, offs = col
    return vals[offs[i] : offs[i + 1]]


#: per-term columns a postings part holds as flat buffers
_FLAT_COLUMNS = ("doc_blob", "tf_blob", "block_last", "block_max_tf", "block_doc_off",
                 "block_tf_off", "pos_blob")


def _fuse_parts(tables: list[pa.Table], row_offsets: list[int], block_size: int):
    """One term shard's postings parts, one per segment in segment
    order, fused into one list per term over the group's row space ->
    (terms, counts, flat columns, flat block_first, flat block_base).

    A term's list is its segments' lists in segment order, values
    shifted by each segment's row offset.  No blob byte is rewritten:
    the parts' rows sort by (term, segment), one Arrow take gathers
    every column, and the interior row offsets drop.  `block_last`
    gains the row offset, and the per-block byte offsets are rebased
    past the earlier runs of their term.  No per-term Python loop."""
    import pyarrow.compute as pc

    big = pa.concat_tables(tables)
    enc = pc.dictionary_encode(big["term"].combine_chunks())
    codes = enc.indices.to_numpy()
    # parts are concatenated in segment order, so a stable sort by term
    # keeps each term's runs in segment order
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    run_start = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    run_len = np.diff(np.append(run_start, len(order)))
    terms = enc.dictionary.take(pa.array(codes[run_start])).to_numpy(
        zero_copy_only=False).tolist()
    names = [c for c in _FLAT_COLUMNS if c in big.column_names]
    # 64-bit blob offsets: a group's shard may pass 2 GiB
    taken = pa.table([big[c].cast(pa.large_binary()) if pa.types.is_binary(big[c].type)
                      else big[c] for c in names], names=names).take(pa.array(order))
    cols, row_offs = {}, {}
    for c in names:
        vals, row_offs[c] = _flat_column(taken[c])
        cols[c] = (vals, row_offs[c][np.append(run_start, len(order))])
    block_offs = cols["block_last"][1]
    n_blocks = np.diff(row_offs["block_last"])
    row_of_block = np.repeat(np.arange(len(order)), n_blocks)
    seg = np.repeat(np.arange(len(tables)), [len(t) for t in tables])[order]
    off = np.asarray(row_offsets, dtype=np.uint64)[seg]
    block_last = cols["block_last"][0] + off[row_of_block]
    cols["block_last"] = (block_last, block_offs)
    for c, blob in (("block_doc_off", "doc_blob"), ("block_tf_off", "tf_blob")):
        # where each taken row starts inside its term's fused blob
        offs = row_offs[blob]
        within = (offs[:-1] - np.repeat(offs[run_start], run_len)).astype(np.int64)
        cols[c] = (cols[c][0] + within[row_of_block], cols[c][1])
    counts = big["count"].to_numpy()[order].astype(np.int64)
    # each run's first posting index inside its term's list
    before = np.cumsum(counts) - counts
    first_post = before - np.repeat(before[run_start], run_len)
    first, base = concat_geometry(block_last, n_blocks, first_post, off, block_size)
    return (terms, np.add.reduceat(counts, run_start).astype(np.uint64), cols,
            (first, block_offs), (base, block_offs))


class PostingsPartReader:
    """Loads postings partition files into memory once (actor-side;
    reference analogue: the locale-resident term hash table,
    searchindex.chpl:25-53) and serves per-term EncodedPostings.

    One path serves one (doc-segment, term-shard) part.  Several paths
    — one term shard of several segments, with their docmap row
    offsets — serve the group's fused lists (`_fuse_parts`): each
    term's postings over the group's one row space, built once here.

    Every per-term column is held as one flat numpy buffer plus row
    offsets (`_flat_column`, the reference's flat pools addressed by
    pool index, memorysegment.chpl:86-122): serving a term is a few
    slices, with no Arrow scalar built on any query path.

    Positions have one route: `positions_rows_flat` decodes a term's
    whole blob once into one bounded cache and gathers rows from it
    (the reference reads positions from one flat operand pool,
    operands.chpl:5-22); merge re-ships the packed cells of the whole
    part (`positions_packed_column`)."""

    def __init__(self, path: str | list[str], cfg: EngineConfig,
                 row_offsets: list[int] | None = None):
        paths = [path] if isinstance(path, str) else list(path)
        tables = []
        for p in paths:
            # a file's own reader: read_table's dataset setup costs about
            # as much as the read for these small per-part files
            f = pq.ParquetFile(p)
            names = f.schema_arrow.names
            if "positions" in names and "pos_blob" not in names:
                raise ValueError(
                    f"{p} stores positions as a nested list column, a layout this "
                    "version cannot read; rebuild the index"
                )
            # only the served columns: older parts also hold `pos_off`,
            # and a group fusing one of them with a newer part would
            # otherwise concatenate two schemas
            tables.append(f.read(columns=[c for c in ("term", "count") + _FLAT_COLUMNS
                                          if c in names]))
        row_offsets = [0] * len(paths) if row_offsets is None else list(row_offsets)
        keep = [i for i, t in enumerate(tables) if len(t)] or [0]
        tables, row_offsets = [tables[i] for i in keep], [row_offsets[i] for i in keep]
        self._max_pos = cfg.max_positions_per_doc
        #: explicit block geometry of fused lists; None for one part
        self._block_first = self._block_base = None
        if len(tables) == 1 and (row_offsets[0] == 0 or len(tables[0]) == 0):
            table = tables[0]
            # via numpy: to_pylist boxes one Arrow scalar per term
            terms = table["term"].to_numpy(zero_copy_only=False).tolist()
            self._count = table["count"].to_numpy()
            cols = {c: _flat_column(table[c]) for c in _FLAT_COLUMNS
                    if c in table.column_names}
        else:
            terms, self._count, cols, self._block_first, self._block_base = _fuse_parts(
                tables, row_offsets, cfg.block_size)
        self._terms = dict(zip(terms, range(len(terms))))
        self._doc_blob = cols["doc_blob"]
        self._tf_blob = cols["tf_blob"]
        self._block_last = cols["block_last"]
        self._block_max_tf = cols["block_max_tf"]
        self._block_doc_off = cols["block_doc_off"]
        self._block_tf_off = cols["block_tf_off"]
        #: packed positions, one varint-delta blob per term (absent when
        #: the index stores no positions), and the one cache of decoded
        #: terms: term -> (int64 list offsets, int64 positions)
        self._pos_blob = cols.get("pos_blob")
        self._positions: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def __contains__(self, term: str) -> bool:
        return term in self._terms

    @property
    def terms(self) -> dict:
        return self._terms

    def df(self, term: str) -> int:
        i = self._terms.get(term)
        return 0 if i is None else int(self._count[i])

    def max_tf(self, term: str) -> int:
        """term-level tf upper bound from the skip-block metadata
        (max over block_max_tf) — no posting decode needed."""
        i = self._terms.get(term)
        if i is None:
            return 0
        blocks = _row(self._block_max_tf, i)
        return int(blocks.max()) if len(blocks) else 0

    def encoded(self, term: str) -> EncodedPostings | None:
        """the term's postings as views into the part's flat buffers"""
        i = self._terms.get(term)
        if i is None:
            return None
        return EncodedPostings(
            count=int(self._count[i]),
            doc_blob=_row(self._doc_blob, i),
            tf_blob=_row(self._tf_blob, i),
            block_last=_row(self._block_last, i),
            block_max_tf=_row(self._block_max_tf, i),
            block_doc_off=_row(self._block_doc_off, i),
            block_tf_off=_row(self._block_tf_off, i),
            block_first=None if self._block_first is None else _row(self._block_first, i),
            block_base=None if self._block_base is None else _row(self._block_base, i),
        )

    def positions_rows_flat(self, term: str, rows: np.ndarray):
        """(lengths int64, flat positions int64) of the given POSTING
        ROW indices, in `rows` order: the one positions read.  The
        term's whole pos_blob is decoded once (`unpack_position_blob`,
        one varint decode; each posting holds tf capped at
        max_positions_per_doc positions) and kept as (list offsets,
        positions) in one cache, cleared at _POS_CACHE_MAX terms; each
        call gathers its rows from that.  None when the term or stored
        positions are absent."""
        i = self._terms.get(term)
        if i is None or self._pos_blob is None:
            return None
        hit = self._positions.get(term)
        if hit is None:
            counts = decode_tfs(self.encoded(term)).astype(np.int64)
            if self._max_pos > 0:
                counts = np.minimum(counts, self._max_pos)
            flat, offsets = unpack_position_blob(_row(self._pos_blob, i), counts)
            hit = (offsets, flat.astype(np.int64))
            if len(self._positions) >= _POS_CACHE_MAX:
                self._positions.clear()
            self._positions[term] = hit
        off, flat = hit
        rows = np.asarray(rows, dtype=np.int64)
        lo = off[rows]
        lengths = off[rows + 1] - lo
        idx = (np.arange(int(lengths.sum()), dtype=np.int64)
               + np.repeat(lo - (np.cumsum(lengths) - lengths), lengths))
        return lengths, flat[idx]

    def positions_packed_column(self):
        """per-POSTING packed position cells (binary array, term-major
        file row order) — the merge path re-ships these bytes through
        the rebuild without re-encoding.  One pass over the part: its
        tf streams and its position blobs each concatenate into one
        stream, so one tf decode gives every posting's stored count and
        the varint ends of the one position buffer give every cell's
        bytes.  None when positions were not stored."""
        if self._pos_blob is None:
            return None
        # a single-chunk column is a view of the file's buffers: its
        # rows need not start at byte 0
        (tf_vals, tf_offs), (pos_vals, pos_offs) = self._tf_blob, self._pos_blob
        n = int(self._count.sum())
        counts = varint_decode(tf_vals[tf_offs[0]:tf_offs[-1]], n).astype(np.int64)
        if self._max_pos > 0:
            counts = np.minimum(counts, self._max_pos)
        blob = pos_vals[pos_offs[0]:pos_offs[-1]]
        # ends[j]: the byte end of the blob's first j varints; a cell
        # ends where its posting's last position does
        ends = np.concatenate([[0], np.flatnonzero(blob < 0x80) + 1])
        byte_off = ends[np.concatenate([[0], np.cumsum(counts)])]
        return pa.Array.from_buffers(
            pa.binary(), n,
            [None, pa.py_buffer(byte_off.astype(np.int32)), pa.py_buffer(blob)])


#: bytes one pa.string() array can address (32-bit offsets)
_MAX_STRING_BYTES = 2**31 - 1


def _string_view(col: "pa.LargeStringArray", off: int, n: int) -> "pa.Array | None":
    """rows [off, off+n) of a large_string array as a pa.string() array
    over the SAME data bytes, its offsets rebased to 32 bits.  None when
    those rows hold more bytes than 32-bit offsets can address."""
    import pyarrow.compute as pc

    start = col.offset + off
    offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[start:start + n + 1]
    base, end = int(offs[0]), int(offs[-1])
    if end - base > _MAX_STRING_BYTES:
        return None
    data = col.buffers()[2]
    data = pa.py_buffer(b"") if data is None else data.slice(base, end - base)
    valid = pc.is_valid(col.slice(off, n)).buffers()[1] if col.null_count else None
    return pa.Array.from_buffers(
        pa.string(), n, [valid, pa.py_buffer((offs - base).astype(np.int32)), data])


def _one_chunk(col: "pa.ChunkedArray") -> "pa.Array":
    """a column as ONE contiguous array (a take on a multi-chunk column
    concatenates every chunk per call).  Strings are combined with
    64-bit offsets, so no column overflows, then viewed back as
    pa.string() when they fit 32-bit offsets; a bigger one stays
    large_string."""
    if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
        return col.combine_chunks()
    big = col.cast(pa.large_string()).combine_chunks()
    view = _string_view(big, 0, len(big))
    return big if view is None else view


class DocmapReader:
    """The docmap of one doc-segment, or of a searcher group's segments
    (`concat`).  A segment's rows are sorted by external id (`doc_id`,
    or (`doc_id_hi`, `doc_id`) with doc_id_bits=128), and a doc's row
    is its ORDINAL, the value its postings hold (reference
    documentIndex vs externalDocId, documentid.chpl:20-42): mapping a
    posting value to its row is a bounds check, and `external_ids` /
    `ordinals_for` translate between rows and external ids.

    A group's rows are its segments' rows, segment-major, so they are
    not in external-id order across segments.  One argsort of the keys
    at open serves `ordinals_for` and `tie_rank`, each row's rank in
    external-key order (the identity for one segment)."""

    def __init__(self, path: str):
        self._load(pq.ParquetFile(path).read())

    @classmethod
    def concat(cls, readers: list["DocmapReader"]) -> "DocmapReader":
        """one reader over several docmaps, rows in reader order, every
        column one contiguous array (`_one_chunk`)"""
        if len(readers) == 1 and all(c.num_chunks == 1 for c in readers[0].table.columns):
            return readers[0]
        table = pa.concat_tables([r.table for r in readers])
        out = cls.__new__(cls)
        out._load(pa.table([_one_chunk(c) for c in table.columns], names=table.column_names),
                  readers[0].schema)
        return out

    def _load(self, table: pa.Table, schema: pa.Schema | None = None) -> None:
        self.table = table
        #: the docmap files' schema: results carry these column types
        #: even where a group holds a column as large_string
        self.schema = table.schema if schema is None else schema
        #: per column tuple: the held table's selection, and the files'
        #: schema to cast its taken rows to (None when the types agree)
        self._selections: dict[tuple, tuple[pa.Table, pa.Schema | None]] = {}
        self.doc_ids = table["doc_id"].to_numpy()
        self.doc_len = table["doc_len"].to_numpy().astype(np.float64)
        #: high words of wide external ids; None in 64-bit mode
        self.doc_hi = (table["doc_id_hi"].to_numpy()
                       if "doc_id_hi" in table.column_names else None)
        self._keys = self.key(self.doc_hi, self.doc_ids)
        if len(self._keys) < 2 or bool(np.all(self._keys[1:] >= self._keys[:-1])):
            self._order = self._rank = None
            self._sorted = self._keys
        else:
            self._order = np.argsort(self._keys, kind="stable")
            self._sorted = self._keys[self._order]
            self._rank = np.empty(len(self._order), dtype=np.int64)
            self._rank[self._order] = np.arange(len(self._order))

    def key(self, hi, lo) -> np.ndarray:
        """`doc_keys` of external ids in this docmap's mode: hi is
        ignored in 64-bit mode, and None means 0 in wide mode"""
        if self.doc_hi is None:
            return doc_keys(None, lo)
        return doc_keys(np.zeros(len(lo), np.uint64) if hi is None else hi, lo)

    def _indices_for(self, ordinals: np.ndarray) -> np.ndarray:
        return checked_ordinals(ordinals, len(self.doc_ids))

    def external_ids(self, ordinals: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        """(hi, lo) external ids of posting ordinals; hi is None in
        64-bit mode."""
        idx = self._indices_for(ordinals)
        hi = None if self.doc_hi is None else self.doc_hi[idx].astype(np.uint64)
        return hi, self.doc_ids[idx].astype(np.uint64)

    def ordinals_for(self, hi, lo) -> np.ndarray:
        """external (hi, lo) ids (hi None in 64-bit mode) -> ordinals;
        -1 where absent."""
        q = self.key(hi, lo)
        if len(self._keys) == 0:
            return np.full(len(q), -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self._sorted, q), len(self._keys) - 1)
        rows = pos if self._order is None else self._order[pos]
        return np.where(self._sorted[pos] == q, rows, -1).astype(np.int64)

    def tie_rank(self, ordinals: np.ndarray) -> np.ndarray:
        """each row's rank in external-key order: sorting rows by it
        sorts them by external id"""
        return ordinals if self._rank is None else self._rank[ordinals]

    def rank_cut(self, hi, lo) -> int:
        """how many rows have an external key <= (hi, lo): a row's key
        is greater exactly when its `tie_rank` is >= this"""
        return int(np.searchsorted(self._sorted, self.key(hi, lo), side="right")[0])

    def lengths_for(self, ordinals: np.ndarray) -> np.ndarray:
        return self.doc_len[self._indices_for(ordinals)]

    def meta_for(self, ordinals: np.ndarray, columns) -> pa.Table:
        """the result rows of `ordinals`: the docmap `columns` (id
        columns and metadata alike) in `columns` order and the files'
        types, from ONE take over the held (one-chunk) columns into
        fresh buffers"""
        columns = tuple(columns)
        sel = self._selections.get(columns)
        if sel is None:
            held = self.table.select(list(columns))
            want = pa.schema([self.schema.field(n) for n in columns])
            sel = self._selections[columns] = (
                held, None if held.schema.equals(want) else want)
        held, cast = sel
        # the ordinals' own integer type: a uint64 -> int64 conversion
        # in pa.array costs as much as the take of a few id columns
        t = held.take(pa.array(self._indices_for(ordinals)))
        return t if cast is None else t.cast(cast)

    def column_arrow_for(self, ordinals: np.ndarray,
                         column: str) -> "pa.ChunkedArray":
        """ONE metadata column's values for `ordinals` as Arrow
        (validated like meta_for) — aggregation paths hand it to
        Arrow group_by without materializing Python strings."""
        return self.meta_for(ordinals, (column,))[column]
