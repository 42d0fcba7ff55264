"""Replay driver and asyncio front-end of the streaming admission service.

Two entry points share the :class:`~repro.service.batch.BatchAdmissionEngine`:

* :func:`replay_trace` -- the synchronous driver the benchmark and CLI use.
  It walks a trace on a virtual clock, coalesces the arrivals of each
  admission *window* into one batch, fires the departures due before each
  window from a :class:`~repro.simulation.engine.EventQueue`, samples
  queue depth, records per request the wall time of the ``admit_batch``
  call that decided it, and runs the per-node ledger refold audit every
  ``audit_every`` batches.
* :class:`AdmissionService` -- a long-running asyncio service: a bounded
  admission queue applies backpressure (a full queue sheds the arrival and
  bumps the shed counter), a batcher task drains whatever is queued each
  window into one ``admit_batch`` call, and departures are scheduled with
  ``call_later`` (a failing departure reaches the event loop's exception
  handler).  Results are delivered through futures.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.chaos.audit import audit_sharded
from repro.netmodel.vnf import Request
from repro.resilience.metrics import MetricsTracker, RequestOutcome
from repro.service.batch import AdmissionRecord, BatchAdmissionEngine
from repro.simulation.engine import EventQueue
from repro.util.errors import ValidationError


@dataclass
class ReplayStats:
    """What one trace replay measured (the benchmark's raw material)."""

    requests: int = 0
    admitted: int = 0
    shed: int = 0
    windows: int = 0
    audits: int = 0
    wall_seconds: float = 0.0
    #: Per non-shed request, by phase label: the wall time of the
    #: ``admit_batch`` call that decided its window.
    latencies: dict[str, list[float]] = field(default_factory=dict)
    records: list[AdmissionRecord] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return self.requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0


def replay_trace(
    engine: BatchAdmissionEngine,
    trace: Iterable[tuple[float, Request, float, str]],
    window: float = 1.0,
    metrics: MetricsTracker | None = None,
    audit_every: int = 0,
    keep_records: bool = False,
) -> ReplayStats:
    """Replay a trace through the engine on a virtual clock.

    Arrivals whose timestamps fall in the same ``window``-sized bucket
    (``floor(t / window)``) form one admission batch -- the coalescing a
    live service gets from its batcher tick.  Departures fire, in
    deterministic queue order, before the first window they precede.  A
    request's departure is scheduled at ``max(batch_close_time, arrival +
    holding)`` so capacity is never released before the admission that
    consumed it is decided.

    ``audit_every > 0`` runs :func:`repro.chaos.audit.audit_sharded` every
    that-many batches (raising on any refold divergence).  A request's
    latency is the wall time (``perf_counter``) of the ``admit_batch`` call
    that decided its window, per phase label: it excludes the departures
    fired before that call and the virtual-clock wait for the window to
    close.  Shed requests record no latency (they were never solved).
    """
    if window <= 0:
        raise ValidationError(f"window must be > 0, got {window}")
    stats = ReplayStats()
    queue = EventQueue()
    started = time.perf_counter()

    def fire_departures(until: float) -> None:
        for event in queue.drain_until(until):
            engine.depart(event.payload)

    pending: list[tuple[float, Request, float, str]] = []
    window_id: int | None = None

    def flush() -> None:
        nonlocal pending
        if not pending:
            return
        stats.windows += 1
        window_start = pending[0][0] - math.fmod(pending[0][0], window)
        fire_departures(window_start)
        if metrics is not None:
            metrics.on_queue_depth(len(pending))
        batch_started = time.perf_counter()
        records = engine.admit_batch([req for _, req, _, _ in pending])
        latency = time.perf_counter() - batch_started
        close_time = max(t for t, _, _, _ in pending)
        for (arrived, request, holding, label), record in zip(pending, records):
            stats.requests += 1
            if record.rejected_reason == "shed":
                stats.shed += 1
                if metrics is not None:
                    metrics.on_shed()
                continue
            stats.latencies.setdefault(label, []).append(latency)
            if metrics is not None:
                metrics.on_admission_latency(latency)
                metrics.on_outcome(
                    RequestOutcome(
                        name=record.name,
                        arrived_at=arrived,
                        admitted=record.admitted,
                        reliability=record.reliability,
                        expectation=request.expectation,
                        expectation_met=record.expectation_met,
                        backups=record.backups,
                        fallback_tier=None,
                        fallback_algorithm=None,
                    )
                )
            if record.admitted:
                stats.admitted += 1
                queue.push(max(close_time, arrived + holding), record.name)
        if keep_records:
            stats.records.extend(records)
        pending = []
        if audit_every and stats.windows % audit_every == 0:
            stats.audits += 1
            audit_sharded(engine.ledger, now=close_time)

    for arrived, request, holding, label in trace:
        bucket = int(arrived // window)
        if window_id is not None and bucket != window_id:
            flush()
        window_id = bucket
        pending.append((arrived, request, holding, label))
    flush()
    if audit_every:
        # Fire the remaining departures so the final audit also covers the
        # release path, then refold one last time.
        fire_departures(float("inf"))
        stats.audits += 1
        audit_sharded(engine.ledger, now=queue.now)

    stats.wall_seconds = time.perf_counter() - started
    return stats


class AdmissionService:
    """Asyncio admission front-end over one :class:`BatchAdmissionEngine`.

    Parameters
    ----------
    engine:
        The admission core (owns the ledger, RNG, and matching state).
    window:
        Batcher tick in seconds: all arrivals queued when the tick fires
        are admitted in one batch.
    queue_size:
        Bound of the admission queue.  :meth:`submit` on a full queue sheds
        the request immediately (backpressure) instead of blocking the
        event loop.
    metrics:
        Optional tracker receiving shed / queue-depth / latency samples.
    """

    def __init__(
        self,
        engine: BatchAdmissionEngine,
        window: float = 0.01,
        queue_size: int = 1024,
        metrics: MetricsTracker | None = None,
    ):
        if window <= 0:
            raise ValidationError(f"window must be > 0, got {window}")
        if queue_size < 1:
            raise ValidationError(f"queue_size must be >= 1, got {queue_size}")
        self.engine = engine
        self.window = window
        self.metrics = metrics
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self._task: asyncio.Task | None = None
        self._closing = False
        self.shed_count = 0

    # -- lifecycle --------------------------------------------------------------
    async def start(self) -> None:
        if self._task is not None:
            raise ValidationError("service already started")
        self._closing = False
        self._task = asyncio.get_running_loop().create_task(self._batcher())

    async def stop(self) -> None:
        """Drain the queue, then cancel the batcher."""
        if self._task is None:
            return
        self._closing = True
        await self._drain()
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    # -- submission -------------------------------------------------------------
    def submit(
        self, request: Request, holding: float | None = None
    ) -> "asyncio.Future[AdmissionRecord]":
        """Enqueue one arrival; resolve with its :class:`AdmissionRecord`.

        A full queue sheds immediately: the future resolves with a
        ``rejected_reason="shed"`` record and the shed counter (and
        metrics) are bumped -- the bounded-queue backpressure contract.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if self._closing:
            raise ValidationError("service is stopping")
        entry = (time.perf_counter(), request, holding, future)
        try:
            self._queue.put_nowait(entry)
        except asyncio.QueueFull:
            self.shed_count += 1
            if self.metrics is not None:
                self.metrics.on_shed()
            future.set_result(AdmissionRecord.rejected(request.name, "shed"))
        return future

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    # -- internals --------------------------------------------------------------
    def _drain_queue_nowait(self) -> list[tuple]:
        entries = []
        while True:
            try:
                entries.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                return entries

    async def _drain(self) -> None:
        while not self._queue.empty():
            self._admit_pending()
            await asyncio.sleep(0)

    def _admit_pending(self) -> None:
        entries = self._drain_queue_nowait()
        if not entries:
            return
        if self.metrics is not None:
            self.metrics.on_queue_depth(len(entries))
        records = self.engine.admit_batch([req for _, req, _, _ in entries])
        now = time.perf_counter()
        loop = asyncio.get_running_loop()
        for (enqueued, _req, holding, future), record in zip(entries, records):
            if self.metrics is not None and record.rejected_reason != "shed":
                self.metrics.on_admission_latency(now - enqueued)
            if record.admitted and holding is not None:
                loop.call_later(holding, self.engine.depart, record.name)
            if not future.done():
                future.set_result(record)

    async def _batcher(self) -> None:
        while True:
            await asyncio.sleep(self.window)
            self._admit_pending()
