"""In-memory spans for the traced run.

A span records name, start, end, the span that caused it (parent) and
the request it belongs to.  Spans stay in memory and are written as one
JSON file when the run ends.  A span's self time is its duration minus
the part of its interval that its child spans cover."""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.request_id = 0

    def new_request(self) -> int:
        self.request_id += 1
        return self.request_id

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.id = t._next_id
        t._next_id += 1
        self.parent = t._stack[-1] if t._stack else None
        t._stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans.append({"id": self.id, "name": self.name, "start": self.start, "end": end,
                        "parent": self.parent, "request": t.request_id})


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """span id -> self time (seconds)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(s["start"], s["end"], children.get(s["id"], []))
            for s in spans}


def self_by_name(spans: list[dict]) -> dict[str, float]:
    """layer name -> total self time (seconds) over all spans."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += own[s["id"]]
    return dict(out)


def per_request(spans: list[dict], self_time: bool = False) -> dict[int, dict[str, float]]:
    """request id -> {span name: summed duration (or self time)}."""
    own = self_times(spans) if self_time else None
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        out[s["request"]][s["name"]] += own[s["id"]] if own else s["end"] - s["start"]
    return out


def accounted_share(spans: list[dict], root: str) -> float:
    """Share of the `root` spans' wall time that named child layers'
    self time accounts for (1.0 = no unattributed time in the roots)."""
    own = self_by_name(spans)
    roots = sum(s["end"] - s["start"] for s in spans if s["name"] == root)
    if roots <= 0:
        return 0.0
    return (roots - own.get(root, 0.0)) / roots
