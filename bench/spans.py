"""Spans recorded from outside the program by wrapping its public callables.

A :class:`Recorder` keeps every span in memory: name, start, end, the span
that caused it (parent id) and a group id (the batcher window of a replay,
the trial of a sweep).  Leaf calls that happen too often for one span each
are *aggregated* instead: a count, total and self time, and a log2
histogram of durations.  :func:`install` wraps each :class:`Target` of a
table of dotted paths and returns an :class:`Installation` that puts the
originals back; a path that no longer resolves is reported, never raised,
so a refactor of the program cannot crash the benchmark.

Self time is a call's duration minus the part of it covered by wrapped
child calls.  Calls are synchronous and nest, so that part is the sum of
the children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    group: int
    self_time: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Aggregate:
    """Count, total, self time and a log2-nanosecond histogram of one leaf layer."""

    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0
    histogram: dict[int, int] = field(default_factory=dict)

    def add(self, duration: float, self_time: float) -> None:
        self.calls += 1
        self.total += duration
        self.self_total += self_time
        bucket = max(0, int(duration * 1e9)).bit_length()
        self.histogram[bucket] = self.histogram.get(bucket, 0) + 1


class Recorder:
    """In-memory span and aggregate store with an injectable clock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.group = 0
        self.spans: list[Span] = []
        self.aggregates: dict[str, Aggregate] = {}
        #: Per-layer sums of the values the targets' ``observe`` hooks return.
        self.observed: dict[str, dict[str, float]] = {}
        #: Layers whose ``observe`` hook raised, with the error.
        self.observe_failures: dict[str, str] = {}
        # Open calls, innermost last: [child_time, span_id, parent_frame, start].
        self._stack: list[list] = []
        self._open_layers: set[str] = set()
        self._next_id = 0

    def is_open(self, name: str) -> bool:
        return name in self._open_layers

    def _open(self, name: str, aggregate: bool) -> list:
        parent = self._stack[-1] if self._stack else None
        if aggregate:
            # Aggregated calls have no span; anything under one hangs off
            # the enclosing span.
            span_id = parent[1] if parent else None
        else:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id, parent, 0.0]
        self._stack.append(frame)
        self._open_layers.add(name)
        frame[3] = self.clock()
        return frame

    def _close(self, name: str, frame: list, aggregate: bool) -> None:
        end = self.clock()
        self._stack.pop()
        self._open_layers.discard(name)
        child, span_id, parent, start = frame
        duration = end - start
        if parent is not None:
            parent[0] += duration
        if aggregate:
            self.aggregates.setdefault(name, Aggregate()).add(duration, duration - child)
        else:
            self.spans.append(Span(
                span_id, name, start, end, parent[1] if parent else None,
                self.group, duration - child,
            ))

    def call(self, name: str, aggregate: bool, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` as one call of layer ``name``."""
        frame = self._open(name, aggregate)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, frame, aggregate)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span of ``name``."""
        frame = self._open(name, False)
        try:
            yield
        finally:
            self._close(name, frame, False)

    def observe(self, name: str, values: dict[str, float]) -> None:
        sums = self.observed.setdefault(name, {})
        for key, value in values.items():
            sums[key] = sums.get(key, 0.0) + value

    def top_level_time(self) -> float:
        """Summed duration of the spans no other recorded call encloses."""
        return sum(s.duration for s in self.spans if s.parent is None)

    def write_spans(self, handle, label: str) -> None:
        """Append one JSON object per span, in close order, tagged ``label``."""
        for s in self.spans:
            handle.write(json.dumps({
                "pass": label, "id": s.id, "name": s.name,
                "start": s.start, "end": s.end, "parent": s.parent,
                "group": s.group,
            }) + "\n")


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``path`` is ``"module:Qualified.attribute"``.

    ``aggregate`` records counts and a histogram instead of spans;
    ``observe(args, kwargs, result)`` returns values summed per layer;
    ``new_group`` starts a new group id before each call.
    """

    layer: str
    path: str
    aggregate: bool = False
    observe: Callable | None = None
    new_group: bool = False


@dataclass
class Installation:
    patches: list[tuple[object, str, object]]
    unresolved: list[str]

    def restore(self) -> None:
        """Put every original back, last-installed first."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)


def resolve(path: str) -> tuple[object, str, object]:
    """``(owner, attribute, raw value)`` of a ``module:Qual.attr`` path.

    For classes the raw value comes from the class ``__dict__`` so that a
    ``classmethod`` survives the round trip.  Raises ``LookupError`` when
    the path does not resolve to something callable.
    """
    module_name, _, qualname = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = qualname.split(".")
        for name in parents:
            owner = getattr(owner, name)
        raw = vars(owner)[attr]
    except (ImportError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise LookupError(f"{path}: {exc!r}") from None
    if not callable(raw) and not isinstance(raw, (classmethod, staticmethod)):
        raise LookupError(f"{path}: not callable")
    return owner, attr, raw


def install(recorder: Recorder, targets) -> Installation:
    """Wrap every resolvable target; unresolvable ones are listed, not raised."""
    installation = Installation(patches=[], unresolved=[])
    for target in targets:
        try:
            owner, attr, raw = resolve(target.path)
        except LookupError:
            installation.unresolved.append(target.path)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_wrap(recorder, target, raw.__func__))
        else:
            wrapped = _wrap(recorder, target, raw)
        setattr(owner, attr, wrapped)
        installation.patches.append((owner, attr, raw))
    return installation


def _wrap(recorder: Recorder, target: Target, fn):
    layer, aggregate, observe, new_group = (
        target.layer, target.aggregate, target.observe, target.new_group
    )

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.is_open(layer):
            # Re-entry into an open layer (one entry point delegating to a
            # sibling) is part of the outer call.
            return fn(*args, **kwargs)
        if new_group:
            recorder.group += 1
        result = recorder.call(layer, aggregate, fn, args, kwargs)
        if observe is not None:
            try:
                values = observe(args, kwargs, result)
            except Exception as exc:  # a changed signature must not crash the run
                recorder.observe_failures[layer] = repr(exc)
            else:
                recorder.observe(layer, values)
        return result

    return wrapper
