"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a package module, taken from outside the
package: name, start, end, parent span and run id. Spans stay in memory and
are written out once, when the run ends. Self time is a span's duration
minus the durations of its direct children; spans run on one thread and
never overlap their siblings, so the children's durations are exactly the
part of the parent's interval they cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Records nested spans; with ``enabled=False`` it only runs the calls."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, self.run_id))

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def span_cost(n: int = 20000) -> float:
    """Seconds an enabled span adds to one call, measured on ``n`` empty calls."""
    elapsed = []
    for enabled in (True, False):
        rec = Recorder("span-cost", enabled)
        start = perf_counter()
        for _ in range(n):
            rec.call("empty", int)
        elapsed.append(perf_counter() - start)
    return max(elapsed[0] - elapsed[1], 0.0) / n


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration - child_time.get(s.span_id, 0.0)
    return out


def write_spans(path: Path, spans: list[Span]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")
