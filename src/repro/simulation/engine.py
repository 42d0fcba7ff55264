"""A minimal discrete-event engine: time-ordered event queue.

Deliberately tiny -- a binary heap of ``(time, sequence, payload)`` with
stable FIFO ordering among simultaneous events.  It is the one event queue
of the package: the chain simulator, the resilience stream and its failure
injector, the chaos campaign and the admission service's trace replay all
push onto it.  No process framework is needed at this scale, and keeping
the engine dumb makes its behaviour trivially testable.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.util.errors import ValidationError


def stable_event_key(time: float, payload: Any) -> tuple:
    """Total order for batches of events scheduled together.

    Ties at the same timestamp are broken by the payload's event kind and
    then by the repr of its identifying fields -- a pure function of the
    event's *content*, never of dict/set iteration order or the Python
    hash seed.  Scheduling a batch in this order makes the queue's FIFO
    tie-break (insertion sequence) reproducible bit-for-bit across
    processes and ``PYTHONHASHSEED`` values.
    """
    if isinstance(payload, tuple) and payload:
        kind = str(payload[0])
        rest = tuple(repr(part) for part in payload[1:])
    else:  # pragma: no cover - batched payloads are tuples everywhere in this repo
        kind = type(payload).__name__
        rest = (repr(payload),)
    return (time, kind, rest)


@dataclass(order=True, frozen=True)
class ScheduledEvent:
    """One queued event: fires at ``time``; FIFO among equal times."""

    time: float
    sequence: int
    payload: Any = field(compare=False)


class EventQueue:
    """Time-ordered event queue with monotonicity checking.

    Popping returns events in non-decreasing time order; scheduling an
    event before the last popped time raises (a causality bug in the
    caller, better loud than silent).
    """

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Time of the most recently popped event (0.0 initially)."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, payload: Any) -> ScheduledEvent:
        """Queue ``payload`` to fire at ``time`` (>= current time)."""
        if time < self._now - 1e-12:
            raise ValidationError(
                f"cannot schedule at t={time} before current time {self._now}"
            )
        event = ScheduledEvent(time, next(self._counter), payload)
        heapq.heappush(self._heap, event)
        return event

    def schedule_batch(
        self, events: Iterable[tuple[float, Any]]
    ) -> list[ScheduledEvent]:
        """Schedule several ``(time, payload)`` pairs in a stable order.

        The batch is sorted by :func:`stable_event_key` before insertion,
        so events sharing a timestamp acquire a deterministic FIFO order
        regardless of the order the caller produced them in (e.g. from a
        dict or set).  Use this whenever more than one event is scheduled
        at once and any two could share a timestamp.
        """
        ordered = sorted(events, key=lambda ev: stable_event_key(ev[0], ev[1]))
        return [self.push(time, payload) for time, payload in ordered]

    def pop(self) -> ScheduledEvent:
        """Remove and return the earliest event, advancing ``now``."""
        if not self._heap:
            raise ValidationError("pop from an empty event queue")
        event = heapq.heappop(self._heap)
        self._now = event.time
        return event

    def drain_until(self, horizon: float) -> Iterator[ScheduledEvent]:
        """Yield events in order while their time is <= ``horizon``."""
        while self._heap and self._heap[0].time <= horizon:
            yield self.pop()
