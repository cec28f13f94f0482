"""Reversed-term dictionary — the leading-wildcard (`*ing`) scale path.

The engine's resident sorted vocabulary makes trailing wildcards
(`mer*`) one bisect (engine.expand_prefix); a LEADING wildcard has no
such order to exploit, and a 10^12-doc vocabulary scan per query is
not a serving path.  The classic fix (Lucene's
ReversedWildcardFilter) is a second dictionary sorted by the REVERSED
term: `*ing` becomes the prefix range [`gni`, `gnj`) over `rterm`, so
parquet row-group statistics prune the read to the suffix's own row
groups no matter how large the vocabulary.

Build is vocabulary-sized (a Ray Data read → utf8_reverse → one
vocab-scale sort → parquet), the same weight class as the SymSpell
suggest sidecar (state/suggest.py) it is modelled on.  The reference
has no wildcard queries at all (engine extension, SURVEY §2.10 — the
CHASM opcode set chasm.chpl:10-13 is HALT/PUSH/AND/OR only), so
nothing appears on the wire: QueryEngine expands `ast.Suffix` into a
sorted Or chain over the matched terms BEFORE planning, exactly like
Prefix/Fuzzy.

Lifecycle: every vocabulary-changing operation (merge, compact,
upsert, streaming roll) produces a NEW index directory — the swap
drops this sidecar rather than carrying it, so it can never go stale.
Until an operator rebuilds it (CLI `suffix-dict`), expansions fall
back to a scan of the engine's resident vocabulary: identical
results, just without the row-group pruning.  In-place deletes only
tombstone docs (the term dictionary is untouched), so the sidecar
stays valid.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

#: bump when the on-disk layout changes; readers reject other versions
FORMAT_VERSION = 1


def build_suffix_dictionary(stats_path: str, out_dir: str) -> None:
    """stats parquet (term, ...) -> reversed-term dictionary at
    out_dir: rterms/ parquet sorted globally by `rterm` (one
    vocabulary-scale Ray sort — row-group statistics then bound every
    suffix lookup) + meta.parquet (format version).  Rebuild-safe:
    the rterms tree is cleared first, meta commits last."""
    import shutil

    import ray.data

    shutil.rmtree(os.path.join(out_dir, "rterms"), ignore_errors=True)
    meta = os.path.join(out_dir, "meta.parquet")
    if os.path.exists(meta):
        os.remove(meta)
    os.makedirs(out_dir, exist_ok=True)

    def add_rterm(batch: pa.Table) -> pa.Table:
        term = batch["term"]
        if isinstance(term, pa.ChunkedArray):
            term = term.combine_chunks()
        return pa.table({"rterm": pc.utf8_reverse(term), "term": term})

    (
        ray.data.read_parquet(stats_path, columns=["term"])
        .map_batches(add_rterm, batch_format="pyarrow", batch_size=65536)
        .sort("rterm")
        .write_parquet(os.path.join(out_dir, "rterms"))
    )
    # tmp + rename: a crash mid-write must not leave a torn meta file
    # (readers treat the sidecar as absent until this rename lands)
    tmp = meta + ".tmp"
    pq.write_table(
        pa.table({"format_version": pa.array([FORMAT_VERSION], type=pa.int64())}),
        tmp,
    )
    os.replace(tmp, meta)


def suffix_dictionary_exists(out_dir: str) -> bool:
    """True when a complete, version-compatible dictionary lives at
    out_dir (meta commits last, so its presence implies rterms/)."""
    meta = os.path.join(out_dir, "meta.parquet")
    if not os.path.exists(meta):
        return False
    try:
        t = pq.read_table(meta)
        return (
            "format_version" in t.column_names
            and t["format_version"][0].as_py() == FORMAT_VERSION
        )
    except Exception:
        # unreadable/torn meta (e.g. a crash left by an OLD writer, or
        # filesystem damage) == no dictionary: queries fall back to
        # the vocabulary scan instead of failing until manual cleanup
        return False


def terms_with_suffix(out_dir: str, suffix: str) -> list[str]:
    """Sorted vocabulary terms ending with `suffix`, via the reversed
    prefix range [rev, rev+1) over the rterm-sorted files — parquet
    row-group pushdown reads only the straddling groups.  The
    endswith post-filter is belt and braces for non-ascii tails."""
    import pyarrow.dataset as pads

    rev = suffix[::-1]
    upper = rev[:-1] + chr(ord(rev[-1]) + 1)
    t = pads.dataset(os.path.join(out_dir, "rterms"), format="parquet").to_table(
        columns=["term"],
        filter=(pads.field("rterm") >= rev) & (pads.field("rterm") < upper),
    )
    return sorted(s for s in t["term"].to_pylist() if s.endswith(suffix))
