"""Posting-list codec: doc-id deltas + varint, fixed-size skip blocks
with block-max metadata.

North-star requirement: "docID deltas + varint/PForDelta compression,
skip blocks with block-max scores".  Canonical posting order is
ASCENDING doc id (SURVEY.md §2.6 O1 — the reference's newest-first
chain order, memorysegment.chpl:41-55, is an implementation artifact we
normalize; the conformance layer reverses where reference order
matters).

Layout per term:
  doc_blob  — varint stream of doc-id deltas (doc ids = docmap row
              ordinals of the segment).  Delta base restarts at
              each block boundary against the PREVIOUS block's last doc
              id, so any block can be decoded independently given the
              block_last array (the skip index).  A group's list
              concatenates its segments' lists, each block decoding
              against an explicit base (`EncodedPostings`).
  tf_blob   — varint stream of term frequencies, same block geometry.
  block_last    — uint64[] last doc id per block (skip pointers;
                  reference analogue: graduated pool blocks,
                  documentidpool.chpl:26-35).
  block_max_tf  — uint32[] max tf per block → block-max score upper
                  bounds for WAND/MaxScore pruning.
  block_doc_off / block_tf_off — byte offset of each block inside the
              blobs, enabling per-block skip decoding.

All encode/decode paths are numpy-vectorized (no per-value Python in
the hot path).  Varint decode is also loop-free over byte width: value
ends, per-byte shifts and one `bitwise_or.reduceat` assemble every value
in a fixed number of numpy calls, and a buffer of single-byte values
only (tf blobs, most position blobs) is returned as the bytes
themselves.  Doc ids here are segment-local docmap ordinals, so most
deltas take one or two bytes, and a query decodes many short blocks: a
per-call cost that does not grow with width is what makes posting,
skip-block and position decode cheap (the SIMD-style varint decoders of Lemire & Boytsov remove
per-byte branching the same way).  A stream that ends inside a value or
before the requested count raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_VARINT_BYTES = 10


def varint_encode(values: np.ndarray) -> bytes:
    """uint64 array -> LEB128 varint stream (vectorized)."""
    vals = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(vals)
    if n == 0:
        return b""
    # byte i of each value = bits [7i, 7i+7); needed while value >= 2^(7i)
    groups = np.empty((n, _MAX_VARINT_BYTES), dtype=np.uint8)
    needed = np.empty((n, _MAX_VARINT_BYTES), dtype=bool)
    shifted = vals.copy()
    for i in range(_MAX_VARINT_BYTES):
        groups[:, i] = (shifted & np.uint64(0x7F)).astype(np.uint8)
        needed[:, i] = shifted > 0 if i else np.ones(n, dtype=bool)
        shifted >>= np.uint64(7)
    # continuation bit on byte i iff byte i+1 is needed
    cont = np.zeros_like(needed)
    cont[:, :-1] = needed[:, 1:]
    groups |= cont.astype(np.uint8) << 7
    return groups[needed].tobytes()


def varint_byte_lengths(values: np.ndarray) -> np.ndarray:
    """encoded byte length of each value (for offset computation)."""
    vals = np.ascontiguousarray(values, dtype=np.uint64)
    lengths = np.ones(len(vals), dtype=np.int64)
    shifted = vals >> np.uint64(7)
    while shifted.any():
        lengths += (shifted > 0).astype(np.int64)
        shifted >>= np.uint64(7)
    return lengths


def _as_u8(buf: bytes | np.ndarray) -> np.ndarray:
    """a uint8 array as is; bytes wrapped without a copy"""
    return buf if isinstance(buf, np.ndarray) else np.frombuffer(buf, dtype=np.uint8)


def varint_decode(buf: bytes | np.ndarray, count: int | None = None) -> np.ndarray:
    """LEB128 varint stream -> uint64 array: the first `count` values,
    or every value when `count` is None.

    Loop-free: value ends are the bytes < 0x80; each byte's shift is
    7 * (its index - its value's start byte), and one
    `bitwise_or.reduceat` over the shifted 7-bit groups assembles every
    value at once, so the numpy call count does not grow with the byte
    width (64-bit doc-id deltas take 8-10 bytes).  Fast path: when the
    buffer is exactly `count` single-byte values (tf blobs, most
    position blobs) the values are the bytes themselves.

    Raises ValueError when the stream ends before `count` values (or,
    with count=None, ends inside a value)."""
    b = _as_u8(buf)
    n = len(b) if count is None else count
    if n == len(b) and (n == 0 or b.max() < 0x80):
        return b.astype(np.uint64)
    # ndarray methods and ufuncs directly: numpy's Python-level wrappers
    # (flatnonzero, repeat) cost as much as the work on a short block
    ends = (b < 0x80).nonzero()[0]
    if count is None:
        n = len(ends)
        complete = (int(ends[-1]) + 1 if n else 0) == len(b)
    else:
        complete = len(ends) >= n
    if not complete:
        raise ValueError(
            f"truncated varint stream: {len(b)} bytes hold {len(ends)} "
            f"complete values, {'all bytes' if count is None else n} wanted"
        )
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    ends = ends[:n]
    last = int(ends[-1])
    starts = np.empty(n, dtype=np.int64)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    shift = np.arange(last + 1, dtype=np.int64)
    shift -= starts.repeat(ends - starts + 1)
    shift *= 7
    groups = (b[: last + 1] & np.uint8(0x7F)).astype(np.uint64)
    return np.bitwise_or.reduceat(groups << shift.astype(np.uint64), starts)


@dataclass
class EncodedPostings:
    """One term's encoded postings.  The blobs are `bytes` from the
    encoders and read-only uint8 views into a part's flat buffers from
    `PostingsPartReader`; every decoder takes either.

    Block geometry: one segment's list is ONE run of `block_size`
    blocks (the last may be partial) whose deltas start from 0, and
    `block_first` / `block_base` are None.  A list concatenated from
    several segments' runs (a searcher group's row space) carries its
    geometry explicitly: each block's first-posting index and the
    value its first delta decodes against — a run's first block
    decodes against the run's row offset, not the previous block's
    last id, and each run's last block can be partial.  The block
    helpers below are the one place either geometry is read."""

    count: int
    doc_blob: bytes | np.ndarray  # varint doc-id deltas (uint8 if an array)
    tf_blob: bytes | np.ndarray  # varint tfs
    block_last: np.ndarray  # uint64, one per block
    block_max_tf: np.ndarray  # uint32
    block_doc_off: np.ndarray  # int64 byte offset of block start in doc_blob
    block_tf_off: np.ndarray  # int64
    block_first: np.ndarray | None = None  # int64 first posting index per block
    block_base: np.ndarray | None = None  # uint64 delta base per block


def block_span(enc: EncodedPostings, blocks: np.ndarray,
               block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(first posting index, posting count) of each of `blocks`"""
    blocks = np.asarray(blocks, dtype=np.int64)
    if enc.block_first is None:
        first = blocks * block_size
        return first, np.minimum(block_size, enc.count - first)
    first = enc.block_first[blocks]
    nxt = blocks + 1
    n_blocks = len(enc.block_first)
    end = np.where(nxt < n_blocks, enc.block_first[np.minimum(nxt, n_blocks - 1)], enc.count)
    return first, end - first


def block_bases(enc: EncodedPostings, blocks: np.ndarray) -> np.ndarray:
    """uint64 value each of `blocks` decodes its deltas against"""
    blocks = np.asarray(blocks, dtype=np.int64)
    if enc.block_base is not None:
        return enc.block_base[blocks]
    return np.where(blocks > 0, enc.block_last[np.maximum(blocks - 1, 0)],
                    np.uint64(0)).astype(np.uint64)


def concat_geometry(block_last: np.ndarray, run_blocks: np.ndarray,
                    run_first: np.ndarray, run_base: np.ndarray,
                    block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(block_first, block_base) of lists concatenated from single-run
    lists of `block_size` blocks: run r holds `run_blocks[r]` blocks of
    the flat `block_last` (already shifted), its first posting sits at
    index `run_first[r]` of its list, and its first delta decodes
    against `run_base[r]`.  Every other block decodes against the
    previous block's last id, as in one run."""
    run_blocks = np.asarray(run_blocks, dtype=np.int64)
    start = np.zeros(len(run_blocks), dtype=np.int64)
    np.cumsum(run_blocks[:-1], out=start[1:])
    run_of = np.repeat(np.arange(len(run_blocks)), run_blocks)
    within = np.arange(len(block_last), dtype=np.int64) - start[run_of]
    first = within * block_size + np.asarray(run_first, dtype=np.int64)[run_of]
    base = np.empty(len(block_last), dtype=np.uint64)
    base[1:] = block_last[:-1]
    base[start[run_blocks > 0]] = np.asarray(run_base, dtype=np.uint64)[run_blocks > 0]
    return first, base


def encode_postings(doc_ids: np.ndarray, tfs: np.ndarray, block_size: int = 128) -> EncodedPostings:
    """doc_ids must be strictly ascending uint64; tfs parallel uint64/32."""
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.uint64)
    tfs = np.ascontiguousarray(tfs, dtype=np.uint64)
    n = len(doc_ids)
    if n == 0:
        z64 = np.empty(0, dtype=np.uint64)
        z32 = np.empty(0, dtype=np.uint32)
        zi = np.empty(0, dtype=np.int64)
        return EncodedPostings(0, b"", b"", z64, z32, zi, zi)
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = doc_ids[0]
    deltas[1:] = doc_ids[1:] - doc_ids[:-1]
    # NB block-boundary deltas need no special restart: the consecutive
    # delta doc_ids[i]-doc_ids[i-1] at a block start is exactly "vs the
    # previous block's last doc id", which decode_block re-bases from
    # block_last[block-1].

    n_blocks = (n + block_size - 1) // block_size
    block_bounds = np.minimum(np.arange(1, n_blocks + 1) * block_size, n)
    block_last = doc_ids[block_bounds - 1]
    # per-block max tf
    block_max_tf = np.maximum.reduceat(tfs, np.arange(0, n, block_size)).astype(np.uint32)

    doc_lens = varint_byte_lengths(deltas)
    tf_lens = varint_byte_lengths(tfs)
    doc_cum = np.concatenate([[0], np.cumsum(doc_lens)])
    tf_cum = np.concatenate([[0], np.cumsum(tf_lens)])
    block_starts = np.arange(0, n, block_size)
    return EncodedPostings(
        count=n,
        doc_blob=varint_encode(deltas),
        tf_blob=varint_encode(tfs),
        block_last=block_last,
        block_max_tf=block_max_tf,
        block_doc_off=doc_cum[block_starts],
        block_tf_off=tf_cum[block_starts],
    )


def decode_postings(enc: EncodedPostings, block_size: int = 128) -> tuple[np.ndarray, np.ndarray]:
    """full decode -> (doc_ids ascending uint64, tfs uint64)."""
    if enc.count == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)
    deltas = varint_decode(enc.doc_blob, enc.count)
    tfs = varint_decode(enc.tf_blob, enc.count)
    if enc.block_base is not None:
        # one running sum over every run: each block's first delta is
        # moved from its own base onto the previous block's last id
        # (a no-op inside a run; uint64 wraparound-safe)
        prev = np.zeros(len(enc.block_last), dtype=np.uint64)
        prev[1:] = enc.block_last[:-1]
        deltas[enc.block_first] += enc.block_base - prev
    return deltas.cumsum(out=deltas), tfs


def encode_postings_bulk(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    term_bounds: np.ndarray,
    block_size: int = 128,
):
    """Encode ALL terms of a partition in one vectorized pass.

    doc_ids/tfs: the partition's postings sorted by (term, doc_id);
    term_bounds: int64 array of term boundaries (len = n_terms + 1).

    Returns a dict of arrays ready to become Parquet columns:
      doc_blob_offsets/tf_blob_offsets (int64, n_terms+1) into
      doc_blob_buf/tf_blob_buf (bytes) — build a zero-copy Arrow
      binary column via offsets+values; counts (uint64);
      block_* fields as Arrow list offsets + flat values.

    Semantically identical to per-term encode_postings (delta restart
    at term starts; per-term block geometry) — pinned by tests — but
    with no per-term Python loop: one varint pass over every delta,
    one over every tf, index arithmetic for block metadata.
    """
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.uint64)
    tfs = np.ascontiguousarray(tfs, dtype=np.uint64)
    term_bounds = np.ascontiguousarray(term_bounds, dtype=np.int64)
    n = len(doc_ids)
    n_terms = len(term_bounds) - 1
    starts = term_bounds[:-1]
    counts = np.diff(term_bounds)

    # global deltas with reset-to-absolute at each term start
    deltas = np.empty(n, dtype=np.uint64)
    if n:
        deltas[0] = doc_ids[0]
        deltas[1:] = doc_ids[1:] - doc_ids[:-1]
        deltas[starts] = doc_ids[starts]

    doc_lens = varint_byte_lengths(deltas)
    tf_lens = varint_byte_lengths(tfs)
    doc_cum = np.concatenate([[0], np.cumsum(doc_lens)])
    tf_cum = np.concatenate([[0], np.cumsum(tf_lens)])

    # ---- per-term block metadata, vectorized -------------------------
    n_blocks_per_term = (counts + block_size - 1) // block_size
    total_blocks = int(n_blocks_per_term.sum())
    block_list_offsets = np.concatenate([[0], np.cumsum(n_blocks_per_term)]).astype(np.int32)
    # index of each block within its term (0,1,2,... per term)
    block_term = np.repeat(np.arange(n_terms), n_blocks_per_term)
    block_idx_in_term = np.arange(total_blocks) - block_list_offsets[:-1][block_term]
    # posting index where each block starts / ends (global)
    blk_start = starts[block_term] + block_idx_in_term * block_size
    blk_end = np.minimum(blk_start + block_size, term_bounds[1:][block_term])
    block_last = doc_ids[blk_end - 1] if n else np.empty(0, dtype=np.uint64)
    # per-block max tf: reduceat over blk_start (strictly increasing)
    block_max_tf = (
        np.maximum.reduceat(tfs, blk_start).astype(np.uint32)
        if total_blocks
        else np.empty(0, dtype=np.uint32)
    )
    # byte offsets of each block inside its term's blob
    block_doc_off = doc_cum[blk_start] - doc_cum[starts[block_term]]
    block_tf_off = tf_cum[blk_start] - tf_cum[starts[block_term]]

    return {
        "counts": counts.astype(np.uint64),
        "doc_blob_buf": varint_encode(deltas),
        "tf_blob_buf": varint_encode(tfs),
        "doc_blob_offsets": doc_cum[term_bounds],
        "tf_blob_offsets": tf_cum[term_bounds],
        "block_list_offsets": block_list_offsets,
        "block_last": block_last,
        "block_max_tf": block_max_tf,
        "block_doc_off": block_doc_off.astype(np.int64),
        "block_tf_off": block_tf_off.astype(np.int64),
    }


def decode_block(
    enc: EncodedPostings, block: int, block_size: int = 128
) -> tuple[np.ndarray, np.ndarray]:
    """decode one skip block independently -> (doc_ids, tfs)."""
    n_blocks = len(enc.block_last)
    if not 0 <= block < n_blocks:
        raise IndexError(f"block {block} out of range ({n_blocks} blocks)")
    count = int(block_span(enc, [block], block_size)[1][0])
    doc_start = int(enc.block_doc_off[block])
    doc_end = int(enc.block_doc_off[block + 1]) if block + 1 < n_blocks else len(enc.doc_blob)
    tf_start = int(enc.block_tf_off[block])
    tf_end = int(enc.block_tf_off[block + 1]) if block + 1 < n_blocks else len(enc.tf_blob)
    deltas = varint_decode(enc.doc_blob[doc_start:doc_end], count)
    tfs = varint_decode(enc.tf_blob[tf_start:tf_end], count)
    doc_ids = block_bases(enc, [block])[0] + np.cumsum(deltas, dtype=np.uint64)
    return doc_ids, tfs


def decode_blocks(
    enc: EncodedPostings,
    blocks: np.ndarray,
    block_size: int = 128,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode ONLY the given skip blocks -> (doc_ids, tfs) concatenated
    in block order (ascending doc ids when `blocks` is sorted).

    This is the lazy block iteration of the reference's query model
    (memorysegment.chpl:41-55, documentidpool.chpl:84) — a selective
    probe against a hot term touches a handful of blocks instead of
    decoding the whole list: one vectorized varint pass over the
    gathered block bytes.
    """
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    if len(blocks) == 0 or enc.count == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)
    n_blocks = len(enc.block_last)
    counts = block_span(enc, blocks, block_size)[1].astype(np.int64)
    total = int(counts.sum())
    bases = block_bases(enc, blocks)

    doc_buf = _as_u8(enc.doc_blob)
    tf_buf = _as_u8(enc.tf_blob)

    def _ends(offs: np.ndarray, blob_len: int) -> np.ndarray:
        nxt = blocks + 1
        return np.where(nxt < n_blocks, offs[np.minimum(nxt, n_blocks - 1)], blob_len)

    doc_starts = enc.block_doc_off[blocks]
    doc_ends = _ends(enc.block_doc_off, len(doc_buf))
    tf_starts = enc.block_tf_off[blocks]
    tf_ends = _ends(enc.block_tf_off, len(tf_buf))

    doc_bytes = np.concatenate(
        [doc_buf[int(s) : int(e)] for s, e in zip(doc_starts, doc_ends)]
    )
    tf_bytes = np.concatenate(
        [tf_buf[int(s) : int(e)] for s, e in zip(tf_starts, tf_ends)]
    )
    deltas = varint_decode(doc_bytes, total)
    tfs = varint_decode(tf_bytes, total)

    # segment-wise cumsum: rebase each block's running sum onto its
    # delta base (uint64 wraparound-safe: values only grow within a
    # block)
    starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
    cs = np.cumsum(deltas, dtype=np.uint64)
    base_before = cs[starts] - deltas[starts]
    doc_ids = cs - np.repeat(base_before, counts) + np.repeat(bases.astype(np.uint64), counts)
    return doc_ids, tfs


# ------------------------------------------------------- positions codec
# Positions blob: per-occurrence token positions, delta+varint with a
# restart at each posting boundary (first position absolute, then
# in-posting diffs — positions are ascending within a posting).  The
# packed per-posting form is self-contained, so posting runs can be
# sliced/concatenated byte-wise through the shuffle and index merge
# without re-encoding.  (ROADMAP item 5: positions were 14% of
# shuffle-run bytes as parquet list<list<uint32>>.)

def pack_position_lists(pos_lists) -> "pa.Array":
    """Arrow list<uint32> (one list per posting) -> binary array (one
    packed varint-delta cell per posting), zero-copy assembled."""
    import pyarrow as pa

    if isinstance(pos_lists, pa.ChunkedArray):
        pos_lists = pos_lists.combine_chunks()
    n = len(pos_lists)
    offsets = np.asarray(pos_lists.offsets, dtype=np.int64)
    flat = np.asarray(pos_lists.values, dtype=np.uint64)
    # .values is the whole child array; offsets index into it absolutely
    flat = flat[offsets[0] : offsets[-1]]
    offsets = offsets - offsets[0]
    if len(flat) == 0:
        off32 = pa.py_buffer(np.zeros(n + 1, dtype=np.int32).tobytes())
        return pa.Array.from_buffers(pa.binary(), n, [None, off32, pa.py_buffer(b"")])
    counts = np.diff(offsets)
    starts = offsets[:-1][counts > 0]
    deltas = np.empty_like(flat)
    deltas[0] = flat[0]
    deltas[1:] = flat[1:] - flat[:-1]
    deltas[starts] = flat[starts]
    lens = varint_byte_lengths(deltas)
    cum = np.concatenate([[0], np.cumsum(lens)])
    byte_off = cum[offsets]
    if byte_off[-1] >= (1 << 31):
        raise ValueError("positions blob exceeds 2 GiB in one batch")
    off32 = pa.py_buffer(byte_off.astype(np.int32).tobytes())
    return pa.Array.from_buffers(
        pa.binary(), n, [None, off32, pa.py_buffer(varint_encode(deltas))]
    )


def unpack_position_blob(blob, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """packed positions blob of one term + per-posting occurrence
    counts -> (flat absolute positions uint64, int64 list offsets)."""
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.uint64), offsets
    deltas = varint_decode(blob, total)
    starts = offsets[:-1][counts > 0]
    cs = np.cumsum(deltas, dtype=np.uint64)
    base = cs[starts] - deltas[starts]
    out = cs - np.repeat(base, counts[counts > 0])
    return out, offsets


def decode_postings_any(
    enc: EncodedPostings, block_size: int = 128, codec: str = "varint"
) -> tuple[np.ndarray, np.ndarray]:
    """full decode for a caller that names its codec; varint is the only
    one."""
    if codec != "varint":
        raise ValueError(f"unknown codec {codec!r}: varint is the only postings codec")
    return decode_postings(enc, block_size)


def decode_tfs(enc: EncodedPostings) -> np.ndarray:
    """tf stream only: position counts need no doc ids, and the doc-id
    delta stream is the costly one to decode."""
    return varint_decode(enc.tf_blob, enc.count)
