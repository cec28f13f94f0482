#!/usr/bin/env python
"""Cluster entrypoint for the index build — the `ray job submit` target
(north rule: "run via ray job submit on a fixed-size multi-node Ray
cluster").

    ray job submit --working-dir . -- \
        python jobs/build_job.py \
            --input  s3://bucket/corpus/           \
            --index  s3://bucket/index-v1/         \
            --num-docs-estimate 1000000000000      \
            [--resume] [--dedup exact]

In a cluster job, `ray.init()` with no address connects to the running
cluster; partitioning is sized from the corpus estimate via
plan_partitions (doc-segments capped at 2^24 docs, term shards sized to
bound partition files).  The index directory must be shared storage
(S3/NFS) so the partitioned shuffle's run files and the per-partition
lineage records are visible cluster-wide; a resubmitted job with
--resume skips verified partitions (mid-shuffle checkpoint).

This sandbox has no multi-node cluster; the same entrypoint runs
locally (ray.init falls back to a local cluster), and scaling evidence
comes from bench.py --scaling (see BASELINE.md).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True, help="parquet corpus path/dir (local or s3://)")
    ap.add_argument("--index", required=True, help="output index dir on SHARED storage")
    ap.add_argument("--num-docs-estimate", type=int, default=0,
                    help="corpus size estimate for partition planning (0 = count first)")
    ap.add_argument("--resume", action="store_true", default=True)
    ap.add_argument("--no-resume", dest="resume", action="store_false")
    ap.add_argument("--dedup", default="none", choices=["none", "exact"])
    ap.add_argument("--format", default="parquet", choices=["parquet", "json", "csv", "text"])
    ap.add_argument("--text-column", default=None,
                    help="rename this column to `content` (e.g. `text` for the documents table)")
    ap.add_argument("--segments", type=int, default=0,
                    help="override planned segment count (0 = auto from corpus "
                         "size; >1 lets small test corpora span searcher actors)")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        # inside `ray job submit` this connects to the hosting cluster;
        # standalone it starts a local one.  Workers spawned by a
        # pre-started cluster (`ray start`) do NOT inherit the driver's
        # sys.path, so ship the repo root via PYTHONPATH — on a real
        # multi-machine cluster submit.sh's --working-dir distributes
        # the code instead (env_vars still compose with it).
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        existing = os.environ.get("PYTHONPATH", "")
        pypath = f"{repo_root}:{existing}" if existing else repo_root
        ray.init(
            ignore_reinit_error=True,
            logging_level="ERROR",
            runtime_env={"env_vars": {"PYTHONPATH": pypath}},
        )
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.sources.corpus import build_read_blocks, plan_partitions, read_corpus

    # size read blocks so the partitioned shuffle writes one run file
    # per (read block x partition) rather than Ray's ~200-block floor
    total_bytes = 0
    try:
        if os.path.isdir(args.input):
            total_bytes = sum(
                os.path.getsize(os.path.join(r, f))
                for r, _, fnames in os.walk(args.input)
                for f in fnames
            )
        elif os.path.isfile(args.input):
            total_bytes = os.path.getsize(args.input)
        else:  # remote URI (s3:// etc.)
            import pyarrow.fs as pafs

            fs, fs_path = pafs.FileSystem.from_uri(args.input)
            infos = fs.get_file_info(pafs.FileSelector(fs_path, recursive=True))
            total_bytes = sum(i.size or 0 for i in infos)
    except Exception:
        total_bytes = 0
    corpus = read_corpus(
        args.input,
        fmt=args.format,
        text_column=args.text_column,
        override_num_blocks=build_read_blocks(total_bytes) if total_bytes else None,
    )
    n_est = args.num_docs_estimate or corpus.count()
    num_segments, num_term_shards = plan_partitions(n_est)
    if args.segments:
        num_segments = args.segments
    cfg = EngineConfig(num_segments=num_segments, num_term_shards=num_term_shards)
    print(f"building: ~{n_est} docs -> {num_segments} segments x {num_term_shards} shards")
    t0 = time.time()
    manifest = build_index(corpus, args.index, cfg, resume=args.resume, dedup=args.dedup)
    dt = time.time() - t0
    print(
        f"done: {manifest.num_docs} docs, {len(manifest.postings_parts)} posting partitions, "
        f"{manifest.num_docs / dt:.0f} docs/s -> {args.index}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
