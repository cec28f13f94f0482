"""Deterministic synthetic code corpus + driver-testdata adapters.

Reference mapping (SURVEY.md §2.1 S1): the per-locale synthetic
generator (synthdataindexer.chpl:8-73 — 1M docs/locale, uniform
16,384-term vocab, plus "locale-known" terms with exactly predictable
document frequency) becomes a pure deterministic (seed, row-index) ->
row function materialized as Parquet, read back via read_parquet.

Differences by design (FIXTURES.md §3): Zipf term skew instead of
uniform (code corpora are Zipfian — exercises the salted run
exchange), mixed-style identifiers to exercise sub-token
splitting, and per-step sentinel tokens `__known_{step}__` appearing
in exactly `step` documents (the analogue of the reference's
locale-known ranges, synthdataindexer.chpl:32-49).  Token
`__never_present__` is reserved and never emitted (missing-term
queries must return 0 rows, chearch.chpl:159-178).

Row content depends only on (seed, row index) — stable across corpus
sizes, so per-row sha256 invariants hold at every scale.
"""

from __future__ import annotations

import hashlib
import os
import string

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB_SIZE = 16384  # synthdataindexer.chpl:10 maxTermsIds
KNOWN_DF_STEPS = 128
NEVER_PRESENT = "__never_present__"
LANGS = ("py", "js", "java", "go", "c", "rs", "rb", "chpl")

_KEYWORDS = (
    "def return if else for while import class from with try except "
    "func var let const fn pub struct impl match case end begin"
).split()


def _build_vocab(seed: int = 42) -> list[str]:
    """16,384 deterministic mixed-style identifiers."""
    rng = np.random.default_rng(seed)
    vocab: list[str] = list(_KEYWORDS)
    syllables = ["".join(c) for c in zip(string.ascii_lowercase, "aeiouaeiouaeiouaeiouaeioua")]
    while len(vocab) < VOCAB_SIZE:
        n = len(vocab)
        parts = [syllables[int(x)] for x in rng.integers(0, len(syllables), size=2 + n % 3)]
        style = n % 4
        if style == 0:  # snake_case
            name = "_".join(parts)
        elif style == 1:  # camelCase
            name = parts[0] + "".join(p.capitalize() for p in parts[1:])
        elif style == 2:  # plain
            name = "".join(parts)
        else:  # suffixed
            name = "".join(parts) + str(n % 10)
        vocab.append(f"{name}_{n:x}" if name in _KEYWORDS else name)
    return vocab[:VOCAB_SIZE]


_VOCAB_CACHE: dict[int, list[str]] = {}


def vocab(seed: int = 42) -> list[str]:
    if seed not in _VOCAB_CACHE:
        _VOCAB_CACHE[seed] = _build_vocab(seed)
    return _VOCAB_CACHE[seed]


def _known_df_docs(n_files: int) -> dict[int, list[str]]:
    """row index -> sentinel tokens; token __known_{step}__ appears in
    exactly `step` docs (consecutive rows starting at a step-dependent
    offset), giving queries with exactly predictable df."""
    out: dict[int, list[str]] = {}
    for step in range(1, min(KNOWN_DF_STEPS, n_files) + 1):
        start = (step * step * 2654435761) % max(1, n_files - step)
        for j in range(step):
            out.setdefault(start + j, []).append(f"__known_{step}__")
    return out


def synth_row(i: int, seed: int = 42, min_lines: int = 1, max_lines: int = 10) -> dict:
    """Row `i` of the corpus — pure function of (seed, i)."""
    voc = vocab(seed)
    rng = np.random.default_rng((seed, i))
    n_lines = min_lines + int(rng.integers(0, max_lines - min_lines + 1))
    lines = []
    for _ in range(n_lines):
        n_tok = 3 + int(rng.integers(0, 8))
        idx = (rng.zipf(1.3, size=n_tok) - 1) % VOCAB_SIZE
        toks = [voc[int(t)] for t in idx]
        lines.append(" ".join(toks) + ";")
    repo = f"org{i % 97}/repo{i % 13}"
    path = f"src/pkg{i % 29}/mod_{i}.{LANGS[i % len(LANGS)]}"
    commit = hashlib.sha1(f"{repo}/{path}@{seed}".encode()).hexdigest()
    return {
        "repo": repo,
        "path": path,
        "commit": commit,
        "lang": LANGS[i % len(LANGS)],
        "content": "\n".join(lines),
    }


def synthetic_corpus(
    n_files: int,
    seed: int = 42,
    min_lines: int = 1,
    max_lines: int = 10,
    row_range: tuple[int, int] | None = None,
) -> pa.Table:
    """Rows [lo, hi) of the n_files-row corpus (whole corpus when
    row_range is None).  Row content is a pure function of (seed, i,
    n_files), so sharded generation concatenates to the same table."""
    lo, hi = row_range if row_range is not None else (0, n_files)
    known = _known_df_docs(n_files)
    rows = []
    for i in range(lo, hi):
        row = synth_row(i, seed, min_lines, max_lines)
        extra = known.get(i)
        if extra:
            row["content"] = row["content"] + "\n" + " ".join(extra) + ";"
        rows.append(row)
    return pa.Table.from_pylist(rows)


def write_corpus_parquet(
    out_dir: str,
    n_files: int,
    seed: int = 42,
    num_shards: int = 8,
    min_lines: int = 1,
    max_lines: int = 10,
) -> list[str]:
    """Materialize the corpus as `num_shards` parquet files (so
    read_parquet parallelizes); idempotent per (dir, params)."""
    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, f"_done-{n_files}-{seed}-{num_shards}-{min_lines}-{max_lines}")
    paths = [os.path.join(out_dir, f"corpus-{s:04d}.parquet") for s in range(num_shards)]
    if os.path.exists(marker):
        return paths
    per = (n_files + num_shards - 1) // num_shards
    ranges = [(s * per, min(n_files, (s + 1) * per)) for s in range(num_shards)]

    try:  # parallel generation when a Ray session exists
        import ray

        use_ray = ray.is_initialized()
    except ImportError:  # pragma: no cover
        use_ray = False
    if use_ray:
        import ray

        @ray.remote
        def _gen(path: str, rng: tuple[int, int]) -> None:
            t = synthetic_corpus(n_files, seed, min_lines, max_lines, row_range=rng)
            pq.write_table(t, path, compression="zstd")

        ray.get([_gen.remote(p, r) for p, r in zip(paths, ranges)])
    else:
        for path, rng in zip(paths, ranges):
            pq.write_table(
                synthetic_corpus(n_files, seed, min_lines, max_lines, row_range=rng),
                path,
                compression="zstd",
            )
    with open(marker, "w") as f:
        f.write("ok")
    return paths


def build_read_blocks(
    total_bytes: int,
    num_cpus: int | None = None,
    target_block_bytes: int = 128 << 20,
) -> int:
    """Read parallelism for an index-build corpus scan (pass as
    read_parquet(override_num_blocks=...)).

    Ray Data's default floors read splitting at ~200 blocks, so a
    small-to-medium corpus tokenizes into hundreds of tiny blocks and
    the partitioned shuffle writes one run file per (block x
    partition) — 15k ~29 KB files on the 215 MB bench corpus (ROADMAP
    #10), file-creation overhead dominating both shuffle sides.  One
    block per CPU keeps every core busy in a single wave while cutting
    run files 7x (measured: build 14.4 s -> ~10 s median at 32 cpus);
    the byte cap takes over once blocks would exceed
    `target_block_bytes` of COMPRESSED input (100 TB / 128 MB ≈ 8e5
    blocks — far above any cluster's core count, so big corpora are
    unaffected by the CPU term)."""
    if num_cpus is None:
        import ray

        num_cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(int(num_cpus), -(-int(total_bytes) // target_block_bytes), 1)


# ------------------------------------------------- driver testdata shim
def documents_batch_to_corpus(batch: pa.Table, content_column: str = "text") -> pa.Table:
    """documents(doc_id, text, lang, source, n_chars) -> engine corpus
    shape, keeping the original doc_id (FIXTURES.md §5 mapping).
    `content_column` picks which document column is indexed — a FIELD
    index (state/engine.FieldedEngine) builds one index per field over
    the same doc ids."""
    import pyarrow.compute as pc

    doc_id = batch["doc_id"]
    return pa.table(
        {
            "doc_id": doc_id.cast(pa.uint64()),
            "repo": batch["source"],
            "path": pc.binary_join_element_wise(
                pa.array(["doc"] * len(batch)), doc_id.cast(pa.string()), "/"
            ),
            "commit": doc_id.cast(pa.string()),
            "lang": batch["lang"],
            "content": batch[content_column].cast(pa.string()),
        }
    )


def read_documents_corpus(sf_dir: str, content_column: str = "text"):
    """ray Dataset over the driver `documents` table, in corpus shape."""
    from functools import partial

    import ray.data

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    return ds.map_batches(
        partial(documents_batch_to_corpus, content_column=content_column),
        batch_format="pyarrow",
    )


# ------------------------------------------------ generic corpus readers
def read_corpus(
    path_or_paths,
    fmt: str = "parquet",
    text_column: str | None = None,
    override_num_blocks: int | None = None,
):
    """Read a corpus into the engine's input shape from other source
    formats (SURVEY.md §2.1 — the reference has only a synthetic
    source; these are the practical ingestion paths):

    - parquet: columns used as-is (must include `content`, or map via
      text_column)
    - json / csv: same column contract
    - text: one document per line, repo/path synthesized from the file
      path and line ordinal

    For index builds pass override_num_blocks=build_read_blocks(...)
    so the partitioned shuffle writes one run file per (read block x
    partition) instead of Ray's ~200-block default floor (ROADMAP #10).
    """
    import pyarrow.compute as pc

    import ray.data

    readers = {
        "parquet": ray.data.read_parquet,
        "json": ray.data.read_json,
        "csv": ray.data.read_csv,
    }
    nb = {"override_num_blocks": override_num_blocks} if override_num_blocks else {}
    if fmt == "text":
        ds = ray.data.read_text(path_or_paths, **nb)

        def to_corpus(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table(
                {
                    "repo": pa.array(["textfile"] * n),
                    "path": pa.array([f"line/{i}" for i in range(n)]),
                    "commit": pa.array([""] * n),
                    "lang": pa.array(["txt"] * n),
                    "content": batch["text"],
                }
            )

        return ds.map_batches(to_corpus, batch_format="pyarrow")
    if fmt not in readers:
        raise ValueError(f"unsupported corpus format {fmt!r}")
    ds = readers[fmt](path_or_paths, **nb)
    if text_column and text_column != "content":
        def rename(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(
                ["content" if c == text_column else c for c in batch.column_names]
            )

        ds = ds.map_batches(rename, batch_format="pyarrow")
    return ds


def plan_partitions(n_docs: int, target_part_mb: int = 512, avg_doc_tokens: int = 300):
    """Partitioning plan for a corpus size (scale story): doc-hash
    segments capped at 2^24 docs each (the reference segment cap,
    documentid.chpl:24) and enough term shards that one partition's
    postings stay well under `target_part_mb` (keeps the per-partition
    finalize task memory bounded and the int32 blob offsets safe).

    At 10^12 files this yields ~6e4 segments x O(10) shards — the
    build's groupby key space — while the sandbox scales get 1-4
    segments."""
    max_docs_per_segment = 1 << 24
    num_segments = max(1, -(-n_docs // max_docs_per_segment))
    docs_per_segment = -(-n_docs // num_segments)
    # ~5 bytes per posting (delta varint + tf) at avg_doc_tokens/doc
    seg_postings_mb = docs_per_segment * avg_doc_tokens * 5 / 1e6
    num_term_shards = max(4, min(256, -(-int(seg_postings_mb) // target_part_mb) * 4))
    return num_segments, num_term_shards


def reference_shape_corpus(n_docs: int, seed: int = 17, num_shards: int = 16) -> "pa.Table":
    """The reference benchmark's corpus SHAPE (synthdataindexer.chpl:
    6-10): tiny docs with 1-10 terms drawn uniformly from the
    16,384-term vocab — tweet-sized rows, 1M per locale.  Fully
    vectorized generation (one rng for the whole table; tiny docs make
    per-row generators the bottleneck)."""
    import pyarrow.compute as pc

    rng = np.random.default_rng(seed)
    voc = pa.array(vocab(42))
    lens = rng.integers(1, 11, size=n_docs)
    total = int(lens.sum())
    tok_idx = rng.integers(0, VOCAB_SIZE, size=total)
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
    toks = voc.take(pa.array(tok_idx))
    lists = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), toks)
    content = pc.binary_join(lists, " ")
    ids = np.arange(n_docs)
    return pa.table(
        {
            "repo": pa.array([f"ref/r{int(i) % 64}" for i in ids]),
            "path": pa.array([f"t/{int(i)}" for i in ids]),
            "commit": pa.array([f"{int(i):040d}" for i in ids]),
            "lang": pa.array(["txt"] * n_docs),
            "content": content,
        }
    )


def clusterable_embeddings(n: int, dim: int = 64, n_clusters: int = 16,
                           seed: int = 123, noise: float = 0.08) -> pa.Table:
    """Mixture-of-Gaussians embedding fixture (same schema as the
    driver `embeddings` table: vec_id int64, embedding list<float32>,
    label int32 = the true cluster).

    The driver testdata embeddings are near-uniform noise — measured
    barely clusterable — so IVF recall on them says nothing about the
    index (VERDICT r4 #3).  This fixture has real cluster structure:
    unit-norm cluster centers with small isotropic noise, renormalized,
    so an IVF probe of the right centroid recovers a query's true
    neighbors.  Fully vectorized; content is a pure function of the
    parameters."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.integers(0, n_clusters, size=n)
    pts = centers[labels] + noise * rng.normal(size=(n, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    flat = pa.array(pts.astype(np.float32).ravel(), type=pa.float32())
    offsets = pa.array(np.arange(0, (n + 1) * dim, dim, dtype=np.int32))
    return pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.ListArray.from_arrays(offsets, flat),
            "label": pa.array(labels.astype(np.int32)),
        }
    )
