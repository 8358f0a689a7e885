"""In-memory spans recorded around a program's public functions.

``Tracer.wrap("pkg.module.name", span_name)`` replaces the attribute
``name`` of module ``pkg.module`` (or of a class in it) with a wrapper
that records one span per call: its name, start, end, parent span and workload.  Wrapping the
binding a caller uses (``rulelab.cli.run_enumerative`` rather than
``rulelab.learner.run_enumerative``) times exactly the calls made through
it.  A name that no longer exists is listed in ``missing`` and skipped.
Spans stay in memory until ``write`` is called.  ``overhead`` sums the
time each wrapper spends outside the call it wraps: the tracing cost.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        inside = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.span_id, [])
            if end > span.start and start < span.end
        ]
        out[span.span_id] = span.duration - covered(inside)
    return out


def _resolve(target: str):
    """(owner, attribute) for a dotted name: a module attribute or a class
    attribute inside a module."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        getattr(owner, parts[-1])
        return owner, parts[-1]
    raise ImportError(target)


class Tracer:
    def __init__(self, workload: str, clock: Callable[[], float] = time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.overhead = 0.0
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, self.workload)
        self.spans.append(span)
        self._stack.append(span.span_id)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(
        self,
        target: str,
        name: str,
        describe: Callable[[tuple, dict, Any], dict] | None = None,
        before: Callable[[tuple, dict], dict] | None = None,
    ) -> None:
        """Record a span around every call through ``target``.

        ``before(args, kwargs)`` and ``describe(args, kwargs, result)`` may
        return attributes (counts) to store on the span; they run outside
        the span's interval.
        """
        try:
            owner, attribute = _resolve(target)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        original = getattr(owner, attribute)

        def wrapper(*args, **kwargs):
            entered = self.clock()
            attrs = before(args, kwargs) if before is not None else {}
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                attrs.update(describe(args, kwargs, result))
            span.attrs = attrs
            self.overhead += (span.start - entered) + (self.clock() - span.end)
            return result

        setattr(owner, attribute, wrapper)
        self._restore.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.spans if span.name == name)

    def self_total(self, name: str) -> float:
        selfs = self_times(self.spans)
        return sum(selfs[span.span_id] for span in self.spans if span.name == name)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in self.spans if span.name == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def write(self, path: str | Path) -> None:
        doc = {
            "workload": self.workload,
            "missing": self.missing,
            "spans": [asdict(span) for span in self.spans],
        }
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(doc) + "\n")
