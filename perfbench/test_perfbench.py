"""The benchmark's own tests: span self-time arithmetic, and per
workload a tiny-corpus smoke run that checks every BENCHMARK.json name
is emitted with its unit (and, untraced, its sample count) and that a
deliberately wrong answer is counted as failed.

    python3 -m pytest perfbench/test_perfbench.py -q

The smoke runs start a Ray session each and take a few minutes in all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import Tracer, accounted_share, per_request, self_by_name, self_times  # noqa: E402

WORKLOADS = ("ingest", "query", "serve")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    p = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--docs", "60", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _span(i, name, start, end, parent=None, request=1) -> dict:
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "request": request}


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),  # overlaps a: union is [1, 6]
        _span(3, "a", 8.0, 9.0, parent=0),
        _span(4, "leaf", 1.5, 2.0, parent=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[4] == pytest.approx(0.5)
    by_name = self_by_name(spans)
    assert by_name["a"] == pytest.approx(2.5 + 1.0)
    # self times sum to the root's wall time plus any sibling overlap
    assert sum(own.values()) == pytest.approx(10.0 + 1.0)
    assert accounted_share(spans, "root") == pytest.approx(0.6)


def test_tracer_records_nesting_and_requests():
    t = Tracer()
    t.new_request()
    with t.span("outer"):
        with t.span("inner"):
            pass
    t.new_request()
    with t.span("outer"):
        pass
    names = {(s["name"], s["request"]) for s in t.spans}
    assert names == {("outer", 1), ("inner", 1), ("outer", 2)}
    inner = next(s for s in t.spans if s["name"] == "inner")
    outer = next(s for s in t.spans if s["name"] == "outer" and s["request"] == 1)
    assert inner["parent"] == outer["id"]
    assert set(per_request(t.spans)) == {1, 2}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    record, result = _run(workload, 0)
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["samples"] >= 1 for v in record["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["nproc"] >= 1 and record["ray"] and record["pyarrow"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    record, result = _run(workload, 1)
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["failed"] == 0
    assert os.path.exists(os.path.join(ROOT, record["spans"]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_answer_is_counted_as_failed(workload):
    _, result = _run(workload, 0, "--inject-fault")
    assert result["failed"] >= 1 and not result["correct"]
