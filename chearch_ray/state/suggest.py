"""SymSpell deletion-neighborhood index for did-you-mean suggestions.

The scan path (QueryEngine.suggest) runs the candidate-vectorized
Levenshtein DP over the whole vocabulary after a length prefilter —
fine to ~millions of terms, hopeless at a 10^12-doc vocabulary.  The
SymSpell observation (Garbe's symspell algorithm, public): if
lev(a, b) <= d then deleting at most d characters from EACH side
reaches a common string, so precomputing every term's deletion
variants turns candidate generation into exact key lookups.

Layout under <dir>/:
  dels/prefix=P/*.parquet   (dhash uint64 as int64 bits, term string)
      — one row per (variant, term); hive-partitioned on the top
      PREFIX_BITS of the variant hash and dhash-sorted within, so a
      lookup reads ONLY the probed prefix dirs and parquet row-group
      min/max statistics prune inside them (the files are written in
      global dhash order).
  meta.parquet              (max_distance, prefix_bits)

Lookup: hash the query's own deletion variants, group by prefix, read
each probed prefix dir with an `in` filter, union the candidate terms,
then EXACT-verify with the same vectorized DP the scan path uses —
hash collisions and SymSpell false positives (shared variant but
dist > d) only cost a verify, never a wrong result.  Output contract
is identical to the scan path: (suggestion, dist, df), ordered
(dist asc, df desc, term asc), top k.

The build is a Ray Data pipeline over the term-sorted stats parquet:
explode -> global dhash sort (ONE vocabulary-scale shuffle, index
build time only) -> hive-partitioned write.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

#: top bits of the variant hash that pick the hive partition
PREFIX_BITS = 6


def deletion_variants(term: str, max_distance: int) -> set[str]:
    """the term plus every string reachable by <= max_distance single-
    character deletions."""
    out = {term}
    frontier = {term}
    for _ in range(max_distance):
        nxt: set[str] = set()
        for t in frontier:
            for i in range(len(t)):
                nxt.add(t[:i] + t[i + 1 :])
        nxt -= out
        out |= nxt
        frontier = nxt
    return out


def variant_hash(s: str) -> int:
    """uint64 blake2b of the variant string (stable across runs)."""
    return int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "big")


def _explode_batch(batch: pa.Table, max_distance: int) -> pa.Table:
    terms = batch["term"].to_pylist()
    hs: list[int] = []
    ts: list[str] = []
    for t in terms:
        for v in deletion_variants(t, max_distance):
            hs.append(variant_hash(v))
            ts.append(t)
    h = np.array(hs, dtype=np.uint64)
    return pa.table(
        {
            # int64 bit pattern: Ray's sort/groupby overflows on
            # uint64 keys >= 2^63 (see stages/dedup.py)
            "dhash": pa.array(h.view(np.int64), type=pa.int64()),
            "prefix": pa.array(
                (h >> np.uint64(64 - PREFIX_BITS)).astype(np.int32), type=pa.int32()
            ),
            "term": pa.array(ts, type=pa.string()),
        }
    )


def build_suggest_index(stats_path: str, out_dir: str, max_distance: int = 2) -> None:
    """stats parquet (term, df) -> deletion-neighborhood index at
    out_dir.  Rebuild-safe: the dels tree is cleared first."""
    import shutil
    from functools import partial

    import ray.data

    shutil.rmtree(os.path.join(out_dir, "dels"), ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    ds = ray.data.read_parquet(stats_path, columns=["term"])
    (
        ds.map_batches(
            partial(_explode_batch, max_distance=max_distance),
            batch_format="pyarrow",
            batch_size=4096,
        )
        # one vocabulary-scale shuffle at build time: global dhash
        # order makes every written file a tight dhash range, so the
        # query-time `in` filter prunes to single row groups
        .sort("dhash")
        .write_parquet(os.path.join(out_dir, "dels"), partition_cols=["prefix"])
    )
    pq.write_table(
        pa.table(
            {
                "max_distance": pa.array([max_distance], type=pa.int64()),
                "prefix_bits": pa.array([PREFIX_BITS], type=pa.int64()),
            }
        ),
        os.path.join(out_dir, "meta.parquet.tmp"),
    )
    # tmp + rename: a crash mid-write must not leave a torn meta file
    os.replace(os.path.join(out_dir, "meta.parquet.tmp"),
               os.path.join(out_dir, "meta.parquet"))


def suggest_index_distance(out_dir: str) -> int | None:
    """built max_distance, or None when no valid index exists here."""
    meta = os.path.join(out_dir, "meta.parquet")
    if not os.path.exists(meta):
        return None
    try:
        t = pq.read_table(meta)
        if t["prefix_bits"][0].as_py() != PREFIX_BITS:
            return None
        return int(t["max_distance"][0].as_py())
    except Exception:
        # unreadable/torn meta == no index: suggest() falls back to
        # the vocabulary scan (identical results) instead of erroring
        return None


def candidate_terms(out_dir: str, term: str, max_distance: int) -> list[str]:
    """every vocabulary term sharing a deletion variant with `term` —
    a superset of the true <= max_distance neighborhood (SymSpell
    guarantee), read from ONLY the probed prefix partitions."""
    hs = np.array(
        sorted(variant_hash(v) for v in deletion_variants(term, max_distance)),
        dtype=np.uint64,
    )
    prefixes = np.unique(hs >> np.uint64(64 - PREFIX_BITS))
    out: set[str] = set()
    for p in prefixes.tolist():
        pdir = os.path.join(out_dir, "dels", f"prefix={p}")
        if not os.path.isdir(pdir):
            continue
        want = hs[(hs >> np.uint64(64 - PREFIX_BITS)) == p].view(np.int64)
        t = pq.read_table(
            pdir,
            columns=["term"],
            filters=[("dhash", "in", want.tolist())],
        )
        out.update(t["term"].to_pylist())
    return sorted(out)


def suggest_from_index(
    out_dir: str, stats_path: str, term: str, max_distance: int, k: int
) -> pa.Table:
    """index-backed did-you-mean with the scan path's exact contract:
    (suggestion, dist, df) ordered (dist asc, df desc, term asc).

    Candidates come from the deletion index; their dfs come from a
    term-predicate read of the term-sorted stats parquet (row-group
    pushdown reads only the candidates' groups); the final
    distances are EXACT (vectorized DP), so false candidates drop out."""
    from chearch_ray.functions.editdist import levenshtein_to

    empty = pa.table(
        {
            "suggestion": pa.array([], type=pa.string()),
            "dist": pa.array([], type=pa.int64()),
            "df": pa.array([], type=pa.int64()),
        }
    )
    cands = candidate_terms(out_dir, term, max_distance)
    if not cands:
        return empty
    dist = levenshtein_to(term, cands).astype(np.int64)
    ok = dist <= max_distance
    if not ok.any():
        return empty
    ct = [c for c, o in zip(cands, ok) if o]
    dist = dist[ok]
    stats = pq.read_table(
        stats_path, columns=["term", "df"], filters=[("term", "in", ct)]
    )
    df_of = dict(zip(stats["term"].to_pylist(), stats["df"].to_pylist()))
    cdf = np.array([int(df_of.get(c, 0)) for c in ct], dtype=np.int64)
    order = sorted(range(len(ct)), key=lambda i: (dist[i], -cdf[i], ct[i]))[:k]
    return pa.table(
        {
            "suggestion": pa.array([ct[i] for i in order], type=pa.string()),
            "dist": pa.array([int(dist[i]) for i in order], type=pa.int64()),
            "df": pa.array([int(cdf[i]) for i in order], type=pa.int64()),
        }
    )
