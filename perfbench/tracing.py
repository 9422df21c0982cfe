"""Spans around the program's layer boundaries, recorded from outside.

The benchmark never edits the program. It replaces, inside its own process,
the module attributes that the program looks up at call time (for example
``rerand.inference.confidence_interval``) with wrappers that record a span
and then call the original. A span is (name, start, end, parent, unit); spans
stay in memory and are written out when the run ends.

A wrapped attribute that does not exist is recorded in ``Tracer.missing``
and skipped, so a later change that removes or merges a function leaves its
metrics absent instead of crashing the benchmark.

This module uses only the standard library.
"""

from __future__ import annotations

import functools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: object
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; owns the attribute patches it installs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.unit: object = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, unit: object = None, **tags):
        """Record one span; ``unit`` (when given) becomes the current unit id
        for this span and every span opened inside it."""
        outer_unit = self.unit
        if unit is not None:
            self.unit = unit
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, self.clock(), math.nan, parent, self.unit, tags)
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = self.clock()
            self._stack.pop()
            self.unit = outer_unit

    def wrap(self, owner, attr: str, name: str, tags=None, on_result=None, unit=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``tags(args, kwargs)`` returns span tags, ``unit(args, kwargs)`` a unit
        id, and ``on_result(span, result)`` may record more tags and returns
        the value handed back to the caller (so it can wrap a returned
        callable).
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            extra = tags(args, kwargs) if tags else {}
            unit_id = unit(args, kwargs) if unit else None
            with self.span(name, unit=unit_id, **extra) as rec:
                result = original(*args, **kwargs)
                return on_result(rec, result) if on_result else result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every attribute this tracer replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(asdict(rec), default=str) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for rec in spans:
        if rec.parent is not None:
            children.setdefault(rec.parent, []).append(rec)
    out = {}
    for rec in spans:
        clipped = [
            (max(c.start, rec.start), min(c.end, rec.end))
            for c in children.get(rec.id, ())
            if c.end > rec.start and c.start < rec.end
        ]
        out[rec.id] = rec.duration - _covered(clipped)
    return out


MIN_BEYOND = 10


def percentile(values, q: float) -> float | None:
    """Type-7 (linear) percentile, or None unless at least ``MIN_BEYOND``
    samples lie beyond it."""
    data = sorted(values)
    n = len(data)
    if n - math.ceil(q / 100.0 * n) < MIN_BEYOND:
        return None
    h = (n - 1) * q / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    return data[lo] + (h - lo) * (data[hi] - data[lo])
