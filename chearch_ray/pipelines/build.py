"""Index build pipeline (Ray Data end to end).

    read_parquet(corpus)
      └─ map_batches(TokenizeCorpus)     # tokenize once: per-term sorted
         │                               # posting runs + docmap rows
         └─ write_parquet(_shuffle/, partition_cols=[part(, salt)])
            └─ one finalize task per part: sort, encode, write the
               postings or docmap file + lineage  # THE shuffle

then (tiny, metadata-sized):
      term_stats  = read postings parts (term,count columns) -> groupby sum
      global stats = docmap aggregate (N, total_tokens, avgdl)
      manifest.json committed LAST (atomic publish).

Resume: partitions with verified lineage are dropped from the shuffle
input (filter inside the tokenize stages), so a killed build re-runs
only missing partitions (north rule "resumable from checkpoint").

Scale notes (100 TB): the only all-to-all exchange is the partitioned
run exchange, keyed by the flattened (doc-segment, term-shard) id — pick
num_segments ~ N_docs/2^24 (reference segment cap, documentid.chpl:24)
and num_term_shards to bound each partition file.  Doc metadata never
enters the wide shuffle.  The corpus is read twice with column pruning
(postings pass needs content only; docmap pass needs meta + content);
trading a second pruned read for a ~2x smaller shuffle payload.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from chearch_ray.config import DEFAULT_CONFIG, EngineConfig
from functools import partial

from chearch_ray.stages.postings import write_unified_part
from chearch_ray.stages.tokenize import TokenizeCorpus
from chearch_ray.state import segment as seg_io
from chearch_ray.state.segment import LineageRecord, Manifest


def build_index(
    corpus: "ray.data.Dataset",
    index_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    resume: bool = True,
    dedup: str = "none",
) -> Manifest:
    """Build (or resume building) an index from a corpus Dataset with
    columns (repo, path, commit, lang, content) — or any subset
    including at least `content`, plus optionally a precomputed uint64
    `doc_id` column (driver testdata `documents` shape).

    dedup: "none" (default — row-for-row parity with the input, and
    the reference is append-only, search.chpl:38-39) or "exact"
    (sha256(content) dedup before indexing, min doc key wins)."""
    if cfg.doc_id_bits == 128 and cfg.build_salt > 1:
        raise ValueError(
            "doc_id_bits=128 requires build_salt=1 "
            "(the salted build route is 64-bit only)"
        )
    if resume and seg_io.manifest_exists(index_dir):
        return Manifest.load(index_dir)
    if not resume:
        # purge any previous build's state: stale lineage records would
        # otherwise verify and be merged into the new manifest by
        # commit_manifest (mixed-index hazard, e.g. OnlineIndexer.flush
        # reusing a directory)
        import shutil

        for sub in ("_lineage", "segments", "docmap", "stats", "_shuffle", "_control"):
            shutil.rmtree(os.path.join(index_dir, sub), ignore_errors=True)
        manifest_path = os.path.join(index_dir, "manifest.json")
        if os.path.exists(manifest_path):
            os.remove(manifest_path)
    os.makedirs(index_dir, exist_ok=True)
    if dedup == "exact":
        corpus = exact_dedup_corpus(corpus)
    elif dedup != "none":
        raise ValueError(f"unknown dedup mode {dedup!r}")

    done_postings = frozenset(seg_io.completed_parts(index_dir, "postings")) if resume else frozenset()
    done_docmap = frozenset(seg_io.completed_parts(index_dir, "docmap")) if resume else frozenset()
    n_parts = cfg.num_segments * cfg.num_term_shards

    # tokenize once; ONE shuffle routes both posting partitions and
    # docmap partitions
    done = frozenset(done_postings | {n_parts + seg for seg in done_docmap})
    unified = corpus.map_batches(
        TokenizeCorpus(cfg, done),
        batch_format="pyarrow",
        batch_size=cfg.tokenize_batch_size,
    )
    _partitioned_shuffle(unified, index_dir, cfg, done)

    return commit_manifest(index_dir, cfg)


def exact_dedup_corpus(corpus):
    """sha256(content) dedup over the corpus shape; the winner is the
    minimum doc key (doc_id if present, else (repo, path, commit)) so
    the result is deterministic regardless of block order."""
    from functools import partial

    from chearch_ray.stages.dedup import add_content_sha

    with_sha = corpus.map_batches(
        partial(add_content_sha, text_column="content"), batch_format="pyarrow"
    )
    return with_sha.groupby("content_sha").map_groups(
        _keep_min_doc_key, batch_format="pyarrow"
    )


def _keep_min_doc_key(group: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    if len(group) <= 1:
        return group.drop_columns(["content_sha"])
    keys = [c for c in ("doc_id", "repo", "path", "commit") if c in group.column_names]
    order = pc.sort_indices(group, sort_keys=[(c, "ascending") for c in keys])
    return group.take(order[:1]).drop_columns(["content_sha"])


def _partitioned_shuffle(unified, index_dir: str, cfg: EngineConfig, done: frozenset) -> None:
    """Explicit two-phase shuffle: stage 1 streams the unified rows into
    hive-partitioned parquet runs under <index>/_shuffle/part=N/
    (Ray Data's sort-based groupby is a full O(n log n) comparison
    sort of every posting row; partitioning by the 2-digit part key
    is O(n) and embarrassingly parallel).  Stage 2 finalizes each
    partition in its own task: read that partition's runs, sort
    within the partition, encode, write the segment file + lineage.

    The run directory is itself a checkpoint: it survives a stage-2
    crash, and completed partitions are skipped via lineage on
    resume.  It is removed after all partitions commit."""
    import glob
    import shutil

    import ray.data

    run_dir = os.path.join(index_dir, "_shuffle")
    marker = os.path.join(run_dir, "_runs_complete")
    if not os.path.exists(marker):
        shutil.rmtree(run_dir, ignore_errors=True)
        # run-file codec (cfg.run_compression): measured on the bench
        # corpus — zstd-1 writes 25% fewer bytes than snappy but costs
        # ~20% wall time when runs live on tmpfs (bytes free, CPU not);
        # on a real cluster with runs on shared storage the byte cut
        # wins, so pick per deployment.  parquet DELTA_BINARY_PACKED
        # measured WORSE: the runs carry hashed external doc ids (they
        # become ordinals only at finalize), full entropy, delta or not.
        comp = cfg.run_compression
        kwargs = {"compression_level": 1} if comp == "zstd" else {}
        # salted partitioned composition (ROADMAP #7): with
        # build_salt > 1 the salt becomes a SUB-partition of the hive
        # layout — a hot partition's runs spread across salt dirs
        # (parallel writers, smaller files); stage-2 finalize reads the
        # whole part dir (salt subdirs included) and is unchanged, so
        # output stays byte-identical to the unsalted build.  The
        # doc-segment capacity cap remains the primary skew guard.
        part_cols = ["part", "salt"] if cfg.build_salt > 1 else ["part"]
        unified.write_parquet(run_dir, partition_cols=part_cols, compression=comp, **kwargs)
        if os.environ.get("CHEARCH_RAY_BUILD_STATS"):
            print(unified.stats())
        # write_parquet of an EMPTY dataset (all partitions already
        # done on resume) creates no directory — the marker must still
        # land so the commit path proceeds
        os.makedirs(run_dir, exist_ok=True)
        with open(marker, "w") as f:
            f.write("ok")
    else:
        _check_resumed_runs(run_dir)

    items = []
    for d in glob.glob(os.path.join(run_dir, "part=*")):
        part = int(os.path.basename(d).split("=")[1])
        if part not in done:
            items.append({"part": part, "dir": d})
    # the small docmap partitions first, so a build killed mid-wave
    # has usually committed them
    n_posting_parts = cfg.num_segments * cfg.num_term_shards
    items.sort(key=lambda it: (it["part"] < n_posting_parts, it["part"]))

    if items:
        # one block per partition so each finalize runs as its own
        # task (from_items packs everything into one block otherwise).
        # Postings and docmap partitions finalize in the same wave: a
        # postings task reads its segment's doc ids from the docmap
        # partition's runs to map them to ordinals
        finalize_ds = ray.data.from_items(
            items, override_num_blocks=len(items)
        ).map_batches(
            partial(_finalize_from_runs, cfg=cfg, index_dir=index_dir),
            batch_format="pyarrow",
            batch_size=1,
            num_cpus=1,
        )
        finalize_ds.take_all()
        if os.environ.get("CHEARCH_RAY_BUILD_STATS"):
            print(finalize_ds.stats())
    if not os.environ.get("CHEARCH_RAY_KEEP_RUNS"):  # debugging / byte audits
        shutil.rmtree(run_dir, ignore_errors=True)


def _check_resumed_runs(run_dir: str) -> None:
    """A run dir kept from an earlier build must carry the per-posting
    position lengths (`pos_lens`) that finalize splits runs by."""
    import glob

    files = glob.glob(os.path.join(run_dir, "part=*", "**", "*.parquet"), recursive=True)
    if files and "pos_lens" not in pq.read_schema(files[0]).names:
        raise ValueError(
            f"run files under {run_dir} have no pos_lens column (written by an "
            "older build); delete that directory and rebuild"
        )


def _finalize_from_runs(batch, cfg: EngineConfig, index_dir: str):
    """Stage-2 task: one row = one partition to finalize."""
    import pyarrow.dataset as pads

    outs = []
    for row in batch.to_pylist():
        part, d = int(row["part"]), row["dir"]
        table = pads.dataset(d, format="parquet").to_table()
        if "part" in table.column_names:
            table = table.drop_columns(["part"])
        table = table.add_column(
            0, "part", pa.array([part] * len(table), type=pa.int32())
        )
        outs.append(write_unified_part(table, cfg=cfg, index_dir=index_dir))
    return pa.concat_tables(outs)


#: part count above which term-stats aggregation goes through Ray
#: instead of a sequential driver read loop: at the config's own
#: segment-cap scale note (~6e4 segments x shards) the loop would be
#: ~10^6 sequential pq.read_table calls on the driver
TERM_STATS_PARALLEL_PARTS = 64


def _aggregate_term_stats(index_dir: str, postings_parts: list[dict],
                          parallel_threshold: int = TERM_STATS_PARALLEL_PARTS) -> pa.Table:
    """(term, df) over the committed partition files — byte-identical
    output from either path:
      * <= threshold parts: sequential column-pruned reads + one local
        Arrow groupby (no Ray round-trips for small indexes);
      * above it: ray.data.read_parquet over all part files (parallel,
        column-pruned) -> per-block partial sums -> Ray groupby-sum,
        so the driver never loops over part files.
    Both sort by term and emit (term string, df uint64)."""
    if not postings_parts:
        return pa.table(
            {"term": pa.array([], type=pa.string()), "df": pa.array([], type=pa.uint64())}
        )
    paths = [os.path.join(index_dir, p["path"]) for p in postings_parts]
    if len(paths) <= parallel_threshold:
        all_counts = pa.concat_tables(
            pq.read_table(p, columns=["term", "count"]) for p in paths
        )
        return (
            all_counts.group_by("term", use_threads=False)
            .aggregate([("count", "sum")])
            .rename_columns(["term", "df"])
            .sort_by("term")
        )

    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(paths, columns=["term", "count"])
    # map-side combiner: the groupby shuffle carries per-block
    # vocabulary rows, not raw per-part posting-stat rows
    partials = ds.map_batches(_term_count_partial, batch_format="pyarrow")
    agg = partials.groupby("term").aggregate(Sum("count", alias_name="df"))
    tables = [t for t in agg.iter_batches(batch_size=None, batch_format="pyarrow") if len(t)]
    if not tables:
        return pa.table(
            {"term": pa.array([], type=pa.string()), "df": pa.array([], type=pa.uint64())}
        )
    merged = pa.concat_tables(tables).combine_chunks()
    return pa.table(
        {
            "term": merged["term"].cast(pa.string()),
            "df": merged["df"].cast(pa.uint64()),
        }
    ).sort_by("term")


def _term_count_partial(batch: pa.Table) -> pa.Table:
    agg = batch.group_by("term", use_threads=False).aggregate([("count", "sum")])
    return pa.table(
        {"term": agg["term"], "count": agg["count_sum"].cast(pa.uint64())}
    )


def commit_manifest(index_dir: str, cfg: EngineConfig) -> Manifest:
    """Derive term_stats + global stats from the committed partition
    files (resume-safe: inputs are the files themselves), then publish
    the manifest."""
    postings_parts, docmap_parts = [], []
    docmap_fp = {}
    for seg in sorted(seg_io.completed_parts(index_dir, "docmap")):
        rec = LineageRecord.load(index_dir, "docmap", seg)
        docmap_fp[seg] = rec.input_fingerprint
        docmap_parts.append(
            {
                "part": seg,
                "path": rec.path,
                "rows": rec.rows,
                "n_postings": rec.n_postings,
                "sha": rec.content_sha,
            }
        )
    for part in sorted(seg_io.completed_parts(index_dir, "postings")):
        rec = LineageRecord.load(index_dir, "postings", part)
        # ordinals depend on the segment's doc set: a part kept by
        # resume must have been mapped against the docmap committed now
        if rec.docmap_fingerprint != docmap_fp.get(part // cfg.num_term_shards):
            raise ValueError(
                f"postings/docmap divergence in part {part}: its ordinals were "
                "mapped against another docmap; rebuild the index"
            )
        postings_parts.append(
            {
                "part": part,
                "path": rec.path,
                "rows": rec.rows,
                "n_postings": rec.n_postings,
                "sha": rec.content_sha,
            }
        )

    # term -> global df (sum of per-partition df).  Column-pruned read
    # of the partition files; vocabulary-sized output.
    term_stats = _aggregate_term_stats(index_dir, postings_parts)
    seg_io.atomic_write_table(term_stats, os.path.join(index_dir, "stats", "term_stats.parquet"))

    num_docs = sum(p["rows"] for p in docmap_parts)
    total_tokens = sum(p["n_postings"] for p in docmap_parts)  # docmap lineage stores sum(doc_len)
    avgdl = (total_tokens / num_docs) if num_docs else 0.0

    from dataclasses import asdict

    cfg_dict = asdict(cfg)
    cfg_dict["input_columns"] = list(cfg.input_columns)
    cfg_dict["codec"] = cfg.codec  # a ClassVar, so asdict leaves it out
    # segment-capacity enforcement (reference MaxDocumentIndexCount =
    # 2^24, documentid.chpl:24): doc_id % num_segments can overfill a
    # segment when the caller under-sizes num_segments — surface it
    overfull = [
        {"seg": p["part"], "rows": p["rows"]}
        for p in docmap_parts
        if p["rows"] > cfg.segment_capacity
    ]
    if overfull:
        import warnings

        warnings.warn(
            f"{len(overfull)} segment(s) exceed segment_capacity="
            f"{cfg.segment_capacity} (worst: {max(o['rows'] for o in overfull)} docs); "
            f"rebuild with more num_segments (jobs/build_job.plan_partitions sizes this)",
            stacklevel=2,
        )

    manifest = Manifest(
        version=seg_io.MANIFEST_VERSION,
        config=cfg_dict,
        num_docs=num_docs,
        total_tokens=total_tokens,
        avgdl=avgdl,
        postings_parts=postings_parts,
        docmap_parts=docmap_parts,
        extra={"overfull_segments": overfull} if overfull else {},
    )
    manifest.save(index_dir)
    return manifest
