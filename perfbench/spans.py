"""In-memory span recorder and the arithmetic the per-layer metrics use.

A span is ``(name, start, end, parent, overhead)``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``overhead`` is the tracer's own
bookkeeping time spent inside the span (counting tree nodes, for example),
which is excluded from the span's duration. Spans are kept in a list while
the program runs and written out once, when it ends.
"""

from __future__ import annotations

import functools
import inspect
import time

NAME, START, END, PARENT, OVERHEAD = range(5)


class Tracer:
    """Records one span per call of each wrapped function, plus counters."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._overhead = 0.0

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def maximum(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, value), value)

    def wrap(self, name: str, func, after=None):
        """Return ``func`` wrapped in a span named ``name``.

        ``after(tracer, result, arguments)`` runs once the span has closed;
        its time is booked as tracer overhead, not as work. ``arguments()``
        binds the call's arguments by name, so only a hook that reads them
        pays for the binding.
        """
        signature = inspect.signature(func) if after is not None else None
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(span)
            stack.append(index)
            overhead_before = self._overhead
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                span[OVERHEAD] = self._overhead - overhead_before
            if after is not None:
                began = clock()

                def arguments():
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    return bound.arguments

                after(self, result, arguments)
                self._overhead += clock() - began
            return result

        return traced


def durations(spans) -> list[float]:
    """Each span's end minus start, less the tracer overhead inside it."""
    return [s[END] - s[START] - s[OVERHEAD] for s in spans]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one process never overlap unless nested, so the children's
    durations are exactly the part of the parent they cover.
    """
    own = durations(spans)
    out = list(own)
    for span, duration in zip(spans, own):
        if span[PARENT] >= 0:
            out[span[PARENT]] -= duration
    return out


def busy(spans, name: str) -> float:
    """Time inside spans called ``name``, counting nested repeats once."""
    own = durations(spans)
    total = 0.0
    for index, span in enumerate(spans):
        if span[NAME] != name:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += own[index]
    return total


def self_time(spans, name: str) -> float:
    return sum(t for s, t in zip(spans, self_times(spans)) if s[NAME] == name)


def calls(spans, name: str) -> int:
    return sum(1 for s in spans if s[NAME] == name)


def unattributed(spans, wall: float) -> float:
    """Wall time that no top-level span covers.

    By construction ``sum(self_times(spans)) + unattributed(spans, wall)``
    equals ``wall``.
    """
    covered = sum(d for s, d in zip(spans, durations(spans)) if s[PARENT] < 0)
    return wall - covered


def high_percentile(values, tail_samples: int = 10):
    """The highest percentile with at least ``tail_samples`` values beyond it.

    Returns ``(percentile, value)`` with ``percentile`` in whole percent, or
    ``None`` when fewer than ``tail_samples + 1`` values exist. The value is
    the order statistic at that percentile (nearest rank).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= tail_samples:
        return None
    for percentile in range(99, 0, -1):
        rank = -(-percentile * n // 100)  # nearest rank, ceil(p * n / 100)
        if n - rank >= tail_samples:
            return percentile, ordered[rank - 1]
    return None
