"""Shared plumbing for the perfbench workloads: paths, the Ray session,
the seeded corpus cache, index helpers, sample summaries and checks."""

from __future__ import annotations

import math
import os
import shutil
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: everything a run writes (corpus cache, indexes, Ray session, run
#: records, spans) lives here, inside the checkout
WORK = ROOT / ".bench_work"

#: engine shape under test: the repo bench's 4-segment fan-out
ENGINE_KW = dict(num_segments=4, num_term_shards=16, tokenize_batch_size=1024)
#: synthetic code corpus shape (sources.corpus): 30-300 lines per doc
MIN_LINES, MAX_LINES = 30, 300
CORPUS_SHARDS = 4
#: Unix sockets live under Ray's temp dir; their paths must stay under
#: the 107-byte AF_UNIX limit, which leaves about this much for the dir
#: (a longer checkout path falls back to Ray's default temp dir)
_MAX_RAY_DIR = 40


def nproc() -> int:
    """What the `nproc` utility prints: OMP_NUM_THREADS when set, else
    the CPUs this process may run on."""
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return int(omp) if omp.isdigit() and int(omp) > 0 else len(os.sched_getaffinity(0))


def engine_config():
    from chearch_ray.config import EngineConfig

    return EngineConfig(**ENGINE_KW)


def start_ray() -> float:
    """Start the run's one Ray session (num_cpus = nproc); returns the
    init wall time in seconds.  Workers import the checkout's package
    through PYTHONPATH, and temp files go under WORK."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(ROOT) + (os.pathsep + old if old else "")
    os.environ["TMPDIR"] = str(tmp)
    import logging

    import ray

    kw = {}
    if len(str(_ray_dir())) <= _MAX_RAY_DIR:
        kw["_temp_dir"] = str(_ray_dir())
    t0 = time.perf_counter()
    ray.init(
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=256 << 20,
        **kw,
    )
    init_s = time.perf_counter() - t0
    from ray.data import DataContext

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    DataContext.get_current().enable_progress_bars = False
    return init_s


def pin_to_one_cpu() -> None:
    """Pin this process to one CPU; threads started later inherit it.

    Called after Ray is up, so Ray's daemons and workers keep every CPU.
    The client and the in-process TCP server hand each request between
    threads; across vCPUs every hand-off waits for a halted vCPU to be
    woken by the host, which made serve's hit latency swing 0.3-0.55 ms
    between runs on a shared 4-vCPU VM (0.19-0.20 ms pinned).  The GIL
    keeps one process's Python threads to one CPU at a time anyway."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _ray_dir() -> Path:
    """This run's Ray temp dir (per process, so runs never share one)."""
    return WORK / "ray" / str(os.getpid())


def stop_ray() -> None:
    """Shut the session down and drop its temp dir (logs, sockets)."""
    import ray

    ray.shutdown()
    shutil.rmtree(_ray_dir(), ignore_errors=True)


def ensure_corpus(seed: int, n_docs: int) -> tuple[list[str], float]:
    """Seeded corpus parquet shards, cached on disk by (seed, size).
    Returns (paths, seconds spent generating — ~0 on a cache hit)."""
    from chearch_ray.sources.corpus import write_corpus_parquet

    out = WORK / "corpus" / f"seed{seed}-docs{n_docs}"
    t0 = time.perf_counter()
    paths = write_corpus_parquet(str(out), n_docs, seed=seed, num_shards=CORPUS_SHARDS,
                                 min_lines=MIN_LINES, max_lines=MAX_LINES)
    return paths, time.perf_counter() - t0


def read_corpus(paths: list[str]):
    import pyarrow as pa
    import pyarrow.parquet as pq

    return pa.concat_tables([pq.read_table(p) for p in paths])


def content_bytes(corpus) -> int:
    import pyarrow.compute as pc

    return int(pc.sum(pc.binary_length(corpus["content"])).as_py())


def build(paths: list[str], index_dir: Path, cfg):
    """Fresh build_index over the corpus shards -> (manifest, wall s)."""
    import ray.data

    from chearch_ray.pipelines.build import build_index
    from chearch_ray.sources.corpus import build_read_blocks

    shutil.rmtree(index_dir, ignore_errors=True)
    file_bytes = sum(os.path.getsize(p) for p in paths)
    t0 = time.perf_counter()
    ds = ray.data.read_parquet(paths, override_num_blocks=build_read_blocks(file_bytes, nproc()))
    manifest = build_index(ds, str(index_dir), cfg, resume=False)
    return manifest, time.perf_counter() - t0


def index_bytes(index_dir: Path) -> dict[str, int]:
    """On-disk index bytes split by kind.  Postings files hold both the
    doc/tf blobs and the packed positions; the split between them comes
    from the parquet column-chunk sizes (`pos_*` columns = positions)."""
    import pyarrow.parquet as pq

    out = {"postings": 0, "positions": 0, "docmap": 0, "stats": 0}
    for path in sorted((index_dir / "segments").glob("*.parquet")):
        meta = pq.ParquetFile(path).metadata
        footer = path.stat().st_size
        for rg in range(meta.num_row_groups):
            group = meta.row_group(rg)
            for c in range(group.num_columns):
                col = group.column(c)
                kind = "positions" if col.path_in_schema.startswith("pos") else "postings"
                out[kind] += col.total_compressed_size
                footer -= col.total_compressed_size
        out["postings"] += footer  # footer + page headers outside the chunks
    for kind in ("docmap", "stats"):
        out[kind] = sum(p.stat().st_size for p in (index_dir / kind).glob("*.parquet"))
    return out


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def tail_percentile(n: int) -> float | None:
    """The highest of p99.9/p99/p95/p90 with at least ten of `n`
    samples beyond it, or None when even p90 has fewer."""
    for p in (99.9, 99.0, 95.0, 90.0):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return None


def summary(values: list[float], unit: str) -> dict:
    """Median plus the highest percentile with ten samples beyond it,
    with the sample count."""
    out = {"value": statistics.median(values), "unit": unit, "samples": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def pairs(table) -> list[tuple[int, float]]:
    """(doc_id, score) rows of a ranked result table."""
    if len(table) == 0:
        return []
    return list(zip(table["doc_id"].to_pylist(), table["score"].to_pylist()))


class Checker:
    """Counts answer checks.  With `inject_fault` the first answer it
    sees is corrupted before comparison, so a run proves that a wrong
    answer is caught and counted."""

    def __init__(self, inject_fault: bool = False):
        self._fault = inject_fault
        self.checked = 0

    def same(self, got, want) -> bool:
        if self._fault:
            self._fault = False
            got = list(got) + [("wrong answer", -1.0)]
        self.checked += 1
        return got == want


class Workload:
    """One benchmark workload.  `setup` is repeatable (each call rebuilds
    what the measured loop needs); `measure` runs untraced for about
    `seconds`; `layers` runs the traced per-layer suite."""

    name = ""
    DOCS = 1000

    def __init__(self, seed: int, docs: int | None = None, inject_fault: bool = False):
        self.seed = seed
        self.docs = docs or self.DOCS
        self.checker = Checker(inject_fault)
        self.cfg = engine_config()
        self.dir = WORK / self.name

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float):
        raise NotImplementedError

    def layers(self, tracer, seconds: float) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        """Release engines, servers and actors (before the next setup)."""

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class Outcome:
    """What an untraced measurement hands back to run.py."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: end-to-end metric name -> (value, unit, samples)
        self.metrics: dict[str, tuple[float, str, int]] = {}
        #: workload-specific detail for the run record
        self.detail: dict = {}
