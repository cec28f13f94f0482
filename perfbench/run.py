#!/usr/bin/env python3
"""chearch_ray benchmark: one workload per run.

    python3 perfbench/run.py --workload {ingest,query,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.  The line before it is the full run record (sample counts, the
per-workload named metrics, nproc, ray/pyarrow versions); the record, the
request stream and the spans are also written under .bench_work/runs/.

Load shape: one Ray session (num_cpus = nproc); one client, closed
loop, one request in flight, its process pinned to one CPU once Ray's
daemons are up; engine config num_segments=4,
num_term_shards=16; corpus, indexes and Ray temp files under
.bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

#: setups per run; setup_s is their median, so a one-off cost (corpus
#: generation on a cold cache) counts in one sample only.  Ray's own
#: init is recorded apart (ray_init_s): one sample per run that swings
#: 1-4 s with host load, and no change to this repo can move it.
SETUP_REPS = 3
#: seconds given to each workload's own traced suite is --seconds; the
#: two other suites run this long (and at least this many ops)
SIDE_SECONDS, SIDE_OPS = 2.0, 200

#: per-layer metric -> (end-to-end metric it should move, workload)
LAYER_TARGETS = {
    "tokenizer.": ("throughput_per_s", "ingest"),
    "stages.tokenize.": ("throughput_per_s", "ingest"),
    "build.": ("throughput_per_s", "ingest"),
    "codec.": ("index_bytes_per_corpus_byte", "ingest"),
    "segment.": ("index_bytes_per_corpus_byte", "ingest"),
    "merge.": ("latency_p50_ms", "ingest"),
    "queryparse.": ("latency_p50_ms", "query"),
    "engine.": ("latency_p50_ms", "query"),
    "searcher.": ("latency_p50_ms", "query"),
    "fanout.": ("(none: serve's misses are untimed)", "serve"),
    "serve.": ("latency_p50_ms", "serve"),
    "trace.": ("(tracing cost)", "all"),
}


def _workloads():
    from ingest import Ingest
    from query import Query
    from serve import Serve

    return {"ingest": Ingest, "query": Query, "serve": Serve}


def _versions() -> dict:
    import pyarrow
    import ray

    from common import nproc

    return {"nproc": nproc(), "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "python": sys.version.split()[0]}


def untraced(wl, init_s: float, seconds: float) -> tuple[dict, dict]:
    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t0)
    out = wl.measure(seconds)
    metrics = {"setup_s": (statistics.median(setup), "s", len(setup)), **out.metrics}
    record = {"attempted": out.attempted, "failed": out.failed,
              "fail_ratio": out.failed / max(out.attempted, 1),
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()},
              "setup_samples_s": setup, "ray_init_s": init_s, "detail": out.detail}
    return record, {k: (v, u) for k, (v, u, _) in metrics.items()}


def traced(name: str, wl, classes, args) -> tuple[dict, dict]:
    """The workload's own suite runs for --seconds; the other two
    suites run briefly so every per-layer metric is measured."""
    from spans import Tracer, accounted_share, self_by_name

    from common import WORK

    metrics: dict = {}
    spans: dict = {}
    attempted = failed = 0
    own_summary = None
    order = [name] + [n for n in classes if n != name]
    for suite in order:
        if suite != name:
            wl = classes[suite](args.seed, args.docs)
        wl.setup()
        tracer = Tracer()
        kw = {} if suite == "ingest" or suite == name else {"min_ops": SIDE_OPS}
        secs = args.seconds if suite == name else SIDE_SECONDS
        try:
            layer, summ = wl.layers(tracer, secs, **kw)
        finally:
            wl.close()
            wl.cleanup()
        metrics.update(layer)
        spans[suite] = tracer.spans
        attempted += summ["ops"]
        failed += summ["failed"]
        if suite == name:
            own_summary = summ
            own_spans = tracer.spans
    s = own_summary
    metrics["trace.overhead_ms"] = ((s["traced_s"] - s["untraced_s"]) / s["ops"] * 1e3, "ms")
    metrics["trace.accounted_share"] = (accounted_share(own_spans, s["root"]), "ratio")
    path = WORK / "runs" / f"{name}-seed{args.seed}-spans.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(spans, f)
    record = {"attempted": attempted, "failed": failed,
              "fail_ratio": failed / max(attempted, 1),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "self_time_s": self_by_name(own_spans),
              "traced_wall_s": s["traced_s"], "untraced_wall_s": s["untraced_s"],
              "spans": str(path.relative_to(WORK.parent))}
    return record, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("ingest", "query", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=None,
                    help="corpus size override (the smoke tests use a tiny corpus)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the first checked answer (proves failures are counted)")
    args = ap.parse_args(argv)
    try:
        import chearch_ray  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import chearch_ray from {ROOT}: {exc}", file=sys.stderr)
        return 2

    from common import WORK, pin_to_one_cpu, start_ray, stop_ray

    # a terminated run still unwinds through stop_ray (Ray's daemons)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    classes = _workloads()
    try:
        init_s = start_ray()
        pin_to_one_cpu()
        wl = classes[args.workload](args.seed, args.docs, args.inject_fault)
        if args.trace:
            record, metrics = traced(args.workload, wl, classes, args)
        else:
            try:
                record, metrics = untraced(wl, init_s, args.seconds)
            finally:
                wl.close()
                wl.cleanup()
    finally:
        stop_ray()
    versions = _versions()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **versions, **record,
              "load_shape": {"ray_sessions": 1, "num_cpus": versions["nproc"],
                             "clients": 1, "loop": "closed, one request in flight",
                             "client_cpus": 1,
                             "engine": "num_segments=4, num_term_shards=16"},
              "layer_targets": LAYER_TARGETS if args.trace else None}
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(record), flush=True)
    result = {"correct": record["failed"] == 0, "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
