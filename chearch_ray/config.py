"""Engine configuration.

Mirrors the reference's compile-time `config const` knobs
(memorysegment.chpl:5 termHashTableSize, search.chpl:17 partitionLimit,
synthdataindexer.chpl:6-10 corpus sizing) as a frozen dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class EngineConfig:
    # ---- partitioning -------------------------------------------------
    #: number of doc-hash segments (reference: one partition per locale,
    #: searchindex.chpl:25-28; docs routed by hash, README.md:17).  Each
    #: segment caps at ~2^24 docs like the reference (documentid.chpl:24);
    #: at 10^12 files this becomes ~6e4 segments on a real cluster.
    num_segments: int = 1
    #: per-segment doc capacity (reference MaxDocumentIndexCount = 2^24,
    #: documentid.chpl:24).  Builds that overfill a segment warn and
    #: record the overfull segments in manifest.extra — the caller
    #: under-sized num_segments for the corpus.
    segment_capacity: int = 1 << 24
    #: term shards *within* a segment — the postings for one segment are
    #: split into this many term-hash files so a query only decodes the
    #: files containing its terms.  (Reference analogue: the 32768-bucket
    #: term hash table, memorysegment.chpl:5.)
    num_term_shards: int = 4
    #: salt factor for hot-term skew (north rule).  1 = the posting
    #: build's run exchange is partitioned by part only.  >1: runs are
    #: sub-partitioned by salt = doc_id % build_salt, so a hot
    #: partition's runs are written by more tasks in smaller files;
    #: finalize reads the whole partition, so the index bytes do not
    #: depend on the salt.
    build_salt: int = 1
    #: parquet codec for the transient _shuffle run files.  "snappy"
    #: (default) is fastest when runs live on local/tmpfs storage;
    #: "zstd" (level 1) writes ~25% fewer bytes — pick it when runs go
    #: over the network to shared storage (the 100-TB deployment).
    run_compression: str = "snappy"

    # ---- tokenizer ----------------------------------------------------
    #: regex that *separates* tokens (code-aware default: keep
    #: [A-Za-z0-9_] runs).  Chosen to be expressible in DuckDB's
    #: regexp_split_to_array for the oracle SQL.
    token_split_regex: str = "[^a-z0-9_]+"
    lowercase: bool = True
    #: also split camelCase / snake_case identifiers into sub-tokens
    #: (SURVEY.md §2.8).  Off by default: the oracle SQL uses the plain
    #: split mode.
    split_subtokens: bool = False
    #: store per-posting position lists in the segment (the reference
    #: stores an 8-bit textLocation per posting, documentid.chpl:17-18;
    #: we store full uint32 token indexes, columnar).
    store_positions: bool = True
    #: cap on positions stored per (term, doc) pair; 0 = unlimited.
    max_positions_per_doc: int = 0

    #: external doc-id width: 64 (default, uint64 hash ids) or 128
    #: (two-column (hi, lo) external ids).  Either way posting lists
    #: store dense SEGMENT-LOCAL ORDINALS and the docmap, sorted by
    #: external id, maps ordinal -> external id — the reference's own
    #: internal-docIndex / externalDocId split, documentid.chpl:17-24.
    #: 128-bit mode kills the ~3e4 birthday collisions a 64-bit space
    #: expects at 10^12 docs (ROADMAP #6).  It requires build_salt=1.
    doc_id_bits: int = 64

    # ---- posting codec ------------------------------------------------
    #: the one postings codec (LEB128 doc-id deltas and tfs, see
    #: functions/codec.py); a constant, not an option.  Manifests record
    #: it, and an index whose manifest names another codec is rejected.
    codec: ClassVar[str] = "varint"
    #: postings per skip block; each block records (last_doc_id, max_tf)
    #: for skip + block-max pruning (north star).  Reference analogue:
    #: graduated pool blocks 2/16/128/2048 (documentidpool.chpl:26-35).
    block_size: int = 128

    # ---- BM25 ---------------------------------------------------------
    k1: float = 1.2
    b: float = 0.75

    #: exact MaxScore pruning for disjunctive top-k (term score upper
    #: bounds from the skip blocks' max tf); result-identical to the
    #: exhaustive scorer.
    use_maxscore: bool = True

    # ---- query --------------------------------------------------------
    #: per-partition result cap in boolean mode (reference partitionLimit,
    #: search.chpl:17).
    partition_limit: int = 2048
    default_k: int = 10

    # ---- execution ----------------------------------------------------
    #: map_batches batch size for the tokenize stage (rows = documents).
    tokenize_batch_size: int = 2048
    # ---- misc ---------------------------------------------------------
    input_columns: tuple = ("repo", "path", "commit", "lang", "content")

    def part_id(self, seg_id: int, term_shard: int) -> int:
        """Flattened build-partition key: one groupby key per
        (doc-segment, term-shard) pair."""
        return seg_id * self.num_term_shards + term_shard


DEFAULT_CONFIG = EngineConfig()
