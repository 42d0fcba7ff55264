"""Streaming admission service for the request stream (ROADMAP north star).

Turns the offline request-stream controller into a long-running admission
service: arrivals and departures are driven on a clock through a
deterministic event queue (:mod:`repro.service.events`), concurrent
arrivals are coalesced into admission batches whose neighborhood-disjoint
waves share one warm-started round loop
(:meth:`repro.algorithms.heuristic.MatchingHeuristic.solve_wave`, called
from :mod:`repro.service.batch`), capacity lives in one
:class:`~repro.netmodel.capacity.CapacityLedger` whose per-node journals
make a departure cost O(its allocations), and
the replay driver / asyncio front-end live in :mod:`repro.service.server`.

The core contract is *bit-identity*: batched admission produces exactly
the same outcomes (admit/reject decisions, placements, per-node ledger
state) as admitting the same requests one at a time in arrival order.
"""

from repro.service.batch import SERVICE_COST_CAP, AdmissionRecord, BatchAdmissionEngine
from repro.service.events import ARRIVE, DEPART, ServiceEvent, ServiceEventQueue
from repro.service.server import AdmissionService, ReplayStats, replay_trace
from repro.service.trace import TracePhase, flash_crowd_phases, synthetic_trace

__all__ = [
    "ARRIVE",
    "DEPART",
    "AdmissionRecord",
    "AdmissionService",
    "BatchAdmissionEngine",
    "ReplayStats",
    "SERVICE_COST_CAP",
    "ServiceEvent",
    "ServiceEventQueue",
    "TracePhase",
    "flash_crowd_phases",
    "replay_trace",
    "synthetic_trace",
]
