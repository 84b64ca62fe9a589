"""In-memory spans and the self-time arithmetic of the traced run.

A span is ``(name, start, end, parent)``; spans opened while another is
open become its children. A span's self time is its duration minus the
part of that interval its child spans cover (overlapping children are
counted once). Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent})
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span; ``name`` is a string
        or a function of the call's arguments returning one."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans,
                                    "counts": self.counts}))


def covered(intervals: list[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


def self_times(spans: list[dict]) -> dict[str, float]:
    """Sum of self time per span name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        own = (s["end"] - s["start"]
               - covered(children.get(i, []), s["start"], s["end"]))
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out
