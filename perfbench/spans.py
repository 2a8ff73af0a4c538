"""In-memory span recorder for the benchmark's traced runs.

A span is ``(name, start_ns, end_ns, parent_id, op_id, span_id)``.  Names
are ``<layer>.<call>`` (``manufacturing.fabricate``, ``tester.test``,
``gateway.lots``), the shape the program's own spans can reuse later, so
a layer is the part of the name before the first dot.  The parent link
and the op id travel in a context variable, which asyncio copies into
every task, so concurrent gateway calls keep separate span trees.

With tracing off the benchmark uses :data:`NULL_TRACER`, whose ``span``
returns one shared no-op context manager.
"""

from __future__ import annotations

import contextvars
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Iterable, NamedTuple

__all__ = ["NULL_TRACER", "Span", "Tracer", "layer_self_times"]


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: str | None
    span_id: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records spans in memory; :meth:`write` saves them when the run ends."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._next_id = 0
        self._current: contextvars.ContextVar[tuple[int, str | None] | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """Time the body as a child of the enclosing span.

        ``op`` starts a new op id; without it the span inherits its
        parent's.
        """
        parent = self._current.get()
        self._next_id += 1
        span_id = self._next_id
        op_id = op if op is not None else (parent[1] if parent else None)
        token = self._current.set((span_id, op_id))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append(
                Span(name, start, end, parent[0] if parent else None, op_id, span_id)
            )

    def named(self, name: str, op_prefix: str = "") -> list[Span]:
        """Spans called ``name`` whose op id starts with ``op_prefix``."""
        return [
            s for s in self.spans
            if s.name == name and (s.op or "").startswith(op_prefix)
        ]

    def write(self, path) -> None:
        with open(path, "w") as out:
            json.dump([s._asdict() for s in self.spans], out)


class _NullTracer:
    enabled = False
    spans: tuple = ()
    _null = nullcontext()

    def span(self, name: str, op: str | None = None):
        return self._null


NULL_TRACER = _NullTracer()


def _covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def layer_self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds of self time per layer.

    A span's self time is its duration minus the part of it that its
    child spans cover; a layer's is the sum over its spans.
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        own = s.end_ns - s.start_ns - _covered_ns(
            s.start_ns, s.end_ns, children.get(s.span_id, ())
        )
        totals[s.name.split(".", 1)[0]] += own / 1e9
    return dict(totals)
