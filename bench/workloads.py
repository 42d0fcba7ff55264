"""The four workloads: two admission-service replays and two paper sweeps.

A workload is set up once per run (:meth:`setup`, timed as ``setup_s``) and
then repeated (:meth:`run`, one *repetition*) until the run's measuring
time is used up.  Repetition ``i`` of seed ``s`` draws its inputs from
``(s, i)`` alone, so every run of one seed sees the same inputs in the same
order, and repetition 0 -- the one whose decisions are fingerprinted in
``digests.json`` -- is the same work on every run.

The program receives only generated inputs: a topology, a materialised
arrival trace and an engine for the replays; settings, algorithms and a
seed for the sweeps.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from bench.layers import REPLAY_ROOT, SPLIT_PASSES, SWEEP_ROOT
from bench.measure import Digest
from bench.spans import resolve

#: Reference GT-ITM density (100 APs at Waxman alpha 0.4, mean degree ~6),
#: kept at any size by scaling alpha by 100 / APs, as the 1M-request
#: admission bench does: at default density every radius-1 domain overlaps
#: and no wave coalesces.
_REFERENCE_NODES = 100
_REFERENCE_ALPHA = 0.4

#: The service configuration both replays use.
QUEUE_LIMIT = 4096
AUDIT_EVERY = 20

#: Requests admitted on a throw-away engine during set-up, so the lazily
#: built per-network caches exist before the first timed repetition.
WARMUP_REQUESTS = 64

#: The sweeps' set-up warm-up: this many trials of the first grid point,
#: from a fixed seed, so set-up does the same work on every seed.
WARMUP_TRIALS = 4
WARMUP_SEED = 0


@dataclass
class RepResult:
    """What one repetition measured and checked."""

    wall: float
    attempted: int
    failed: int
    digest: str
    #: Latency samples as ``(seconds, weight)``.
    latencies: list[tuple[float, int]]
    counts: dict[str, float] = field(default_factory=dict)
    accounting: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def worker_count() -> int:
    """Two pool workers, or fewer on a host with fewer usable CPUs."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


# -- replays -------------------------------------------------------------------


class WindowClock:
    """Times each batcher window through the engine's two public entry points.

    A window's time is the wall spent in the ``depart`` calls fired since the
    previous ``admit_batch`` plus that ``admit_batch``; each non-shed request
    of the window is one sample of it.  The returned records are kept, in
    order, for the digest and the accounting.
    """

    def __init__(self, engine, recorder=None):
        self.samples: list[tuple[float, int]] = []
        self.records: list = []
        self._departing = 0.0
        admit, depart = engine.admit_batch, engine.depart

        def timed_depart(name):
            start = time.perf_counter()
            try:
                return depart(name)
            finally:
                self._departing += time.perf_counter() - start

        def timed_admit(requests):
            start = time.perf_counter()
            records = admit(requests)
            elapsed = time.perf_counter() - start
            served = sum(1 for r in records if r.rejected_reason != "shed")
            if served:
                self.samples.append((self._departing + elapsed, served))
            self._departing = 0.0
            self.records.extend(records)
            if recorder is not None:
                recorder.group += 1
            return records

        engine.depart = timed_depart
        engine.admit_batch = timed_admit


@dataclass
class ReplayState:
    seed: int
    network: object
    catalog: object
    settings: object
    traces: dict[int, list] = field(default_factory=dict)


@dataclass(frozen=True)
class Replay:
    """An open-loop arrival trace replayed through the batched warm engine.

    Arrivals run on a virtual clock as fast as the service runs.  The
    ledger is a plain ``CapacityLedger`` and ``replay_trace`` audits it
    every 20 windows and once more after the final drain.
    """

    name: str
    why: str
    num_aps: int
    requests: int
    rate: float
    holding: float
    window: float
    #: ``None``: one Poisson phase; otherwise ``flash_crowd_phases``.
    flash_multiplier: float | None = None

    #: One traced pass per repetition, supplying every layer.
    traced_variants = ((None, None),)

    def phases(self):
        from repro.service.trace import TracePhase, flash_crowd_phases

        if self.flash_multiplier is None:
            return (TracePhase(self.requests, self.rate, "poisson"),)
        return flash_crowd_phases(
            self.requests, base_rate=self.rate, flash_multiplier=self.flash_multiplier
        )

    def setup(self, seed: int) -> ReplayState:
        from repro.experiments.settings import ExperimentSettings
        from repro.netmodel.vnf import VNFCatalog
        from repro.topology.gtitm import WaxmanParameters, generate_gtitm_topology
        from repro.topology.placement import CloudletPlacementConfig, build_mec_network

        rng = np.random.default_rng(seed)
        graph = generate_gtitm_topology(
            self.num_aps,
            params=WaxmanParameters(alpha=_REFERENCE_ALPHA * _REFERENCE_NODES / self.num_aps),
            rng=rng,
        )
        network = build_mec_network(
            graph,
            config=CloudletPlacementConfig(cloudlet_fraction=0.10, capacity_range=(4000, 8000)),
            rng=rng,
        )
        state = ReplayState(
            seed=seed,
            network=network,
            catalog=VNFCatalog.random(rng=rng),
            settings=ExperimentSettings(
                num_aps=self.num_aps, capacity_range=(4000, 8000), sfc_length_range=(3, 5)
            ),
        )
        trace = self.trace(state, 0)
        warm = self.engine(state, np.random.default_rng([seed, 0, 3]))
        warm.admit_batch([request for _, request, _, _ in trace[:WARMUP_REQUESTS]])
        return state

    def trace(self, state: ReplayState, rep: int) -> list:
        """Repetition ``rep``'s materialised trace (built once, outside any timing)."""
        from repro.service.trace import synthetic_trace

        if rep not in state.traces:
            state.traces.clear()
            state.traces[rep] = list(synthetic_trace(
                self.phases(), state.catalog, state.settings,
                rng=np.random.default_rng([state.seed, rep, 1]), holding_time=self.holding,
            ))
        return state.traces[rep]

    def engine(self, state: ReplayState, rng):
        from repro.netmodel.capacity import CapacityLedger
        from repro.service.batch import BatchAdmissionEngine

        network = state.network
        return BatchAdmissionEngine(
            network,
            ledger=CapacityLedger({v: network.capacity(v) for v in network.cloudlets}),
            backend="warm",
            mode="batched",
            queue_limit=QUEUE_LIMIT,
            rng=rng,
        )

    def run(self, state: ReplayState, rep: int, recorder=None, variant=None) -> RepResult:
        from repro.service.server import replay_trace

        trace = self.trace(state, rep)
        engine = self.engine(state, np.random.default_rng([state.seed, rep, 2]))
        clock = WindowClock(engine, recorder)
        root = recorder.span(REPLAY_ROOT) if recorder is not None else contextlib.nullcontext()
        start = time.perf_counter()
        with root:
            replay_trace(engine, trace, window=self.window, audit_every=AUDIT_EVERY)
        wall = time.perf_counter() - start
        return self._check(engine, trace, clock, wall)

    def _check(self, engine, trace, clock: WindowClock, wall: float) -> RepResult:
        records = clock.records
        problems: list[str] = []
        if [r.name for r in records] != [request.name for _, request, _, _ in trace]:
            problems.append(
                f"{len(records)} records for {len(trace)} requests, or out of arrival order"
            )
        ledger = engine.ledger
        if engine.live_requests or any(ledger.used(v) != 0.0 for v in ledger.nodes):
            problems.append("capacity still held after every departure was fired")
        digest = Digest()
        for record in records:
            digest.add(record.identity_key())
        shed = sum(1 for r in records if r.rejected_reason == "shed")
        unprocessed = max(0, len(trace) - len(records))
        return RepResult(
            wall=wall,
            attempted=len(trace),
            failed=shed + unprocessed,
            digest=digest.hexdigest(),
            latencies=clock.samples,
            counts=_service_counts(engine, records),
            accounting=self._accounting(records),
            problems=problems,
        )

    def _accounting(self, records) -> list[str]:
        """Per trace phase: requests sent, admitted, rejected by reason, shed."""
        lines = []
        start = 0
        for index, phase in enumerate(self.phases()):
            chunk = records[start:start + phase.requests]
            start += phase.requests
            reasons = _rejections(chunk)
            admitted = len(chunk) - sum(reasons.values())
            shed = reasons.pop("shed", 0)
            rejected = " ".join(f"{k} {v}" for k, v in sorted(reasons.items())) or "none"
            lines.append(
                f"phase {index} {phase.label}: sent {phase.requests} admitted {admitted} "
                f"shed {shed} rejected: {rejected}"
            )
        return lines


def _rejections(records) -> dict[str, int]:
    """Rejected records counted by ``rejected_reason``."""
    reasons: dict[str, int] = {}
    for record in records:
        if not record.admitted:
            reasons[record.rejected_reason] = reasons.get(record.rejected_reason, 0) + 1
    return reasons


def _service_counts(engine, records) -> dict[str, float]:
    stats = getattr(engine, "stats", None) or {}
    waves = stats.get("waves", 0)
    members = stats.get("union_members", 0)
    reasons = _rejections(records)
    known = {"primary-infeasible", "cost-cap", "shed"}
    return {
        "service.members_per_wave": members / waves if waves else 0.0,
        "service.amortized_frac": stats.get("amortized_waves", 0) / waves if waves else 0.0,
        "service.rounds_per_member": stats.get("rounds", 0) / members if members else 0.0,
        "service.admitted": len(records) - sum(reasons.values()),
        "service.reject.primary_infeasible": reasons.get("primary-infeasible", 0),
        "service.reject.cost_cap": reasons.get("cost-cap", 0),
        "service.reject.shed": reasons.get("shed", 0),
        "service.reject.other": sum(v for k, v in reasons.items() if k not in known),
    }


# -- sweeps --------------------------------------------------------------------


@dataclass
class SweepState:
    seed: int
    algorithms: list
    jobs: int


@dataclass(frozen=True)
class Sweep:
    """One of the paper's figure sweeps at Section 7.1 defaults, validation on.

    A repetition is one whole sweep with ``trials`` trials per point.  Each
    ``run_point`` call is one latency sample.
    """

    name: str
    why: str
    figure: str  # "fig1" or "fig2"
    trials: int
    heuristic_only: bool
    parallel: bool
    #: Traced passes per repetition as ``(variant, keep)``; see ``layers.SPLIT_PASSES``.
    traced_variants: tuple = ((None, None),)

    def _run_figure(self, algorithms, trials, rng, jobs, warmup=False):
        from repro.experiments.figures import (
            FIG1_SFC_LENGTHS,
            FIG2_RELIABILITY_INTERVALS,
            run_figure1,
            run_figure2,
        )

        if self.figure == "fig1":
            grid = FIG1_SFC_LENGTHS[:1] if warmup else FIG1_SFC_LENGTHS
            return run_figure1(sfc_lengths=grid, algorithms=algorithms, trials=trials,
                               rng=rng, validate=True, jobs=jobs)
        grid = FIG2_RELIABILITY_INTERVALS[:1] if warmup else FIG2_RELIABILITY_INTERVALS
        return run_figure2(intervals=grid, algorithms=algorithms, trials=trials,
                           rng=rng, validate=True, jobs=jobs)

    def setup(self, seed: int) -> SweepState:
        from repro.algorithms.heuristic import MatchingHeuristic
        from repro.experiments.figures import default_algorithms
        from repro.parallel.executor import shutdown_executors

        # Each set-up starts its own worker pool, as a fresh sweep process would.
        shutdown_executors()
        jobs = worker_count() if self.parallel else 1
        algorithms = [MatchingHeuristic()] if self.heuristic_only else default_algorithms()
        # A small sweep on fixed inputs finishes the lazy set-up (imports,
        # solver start-up and, with jobs > 1, the pool and its imports).
        self._run_figure(algorithms, WARMUP_TRIALS, np.random.default_rng(WARMUP_SEED), jobs,
                         warmup=True)
        return SweepState(seed=seed, algorithms=algorithms, jobs=jobs)

    def run(self, state: SweepState, rep: int, recorder=None, variant=None) -> RepResult:
        jobs = 1 if variant == "inline" else state.jobs
        owner, attr, run_point = resolve("repro.experiments.figures:run_point")
        points: list[float] = []

        def timed_point(*args, **kwargs):
            start = time.perf_counter()
            try:
                return run_point(*args, **kwargs)
            finally:
                points.append(time.perf_counter() - start)

        root = recorder.span(SWEEP_ROOT) if recorder is not None else contextlib.nullcontext()
        setattr(owner, attr, timed_point)
        try:
            start = time.perf_counter()
            with root:
                series = self._run_figure(
                    state.algorithms, self.trials, np.random.default_rng([state.seed, rep]), jobs
                )
            wall = time.perf_counter() - start
        finally:
            setattr(owner, attr, run_point)
        return self._check(series, wall, points)

    def _check(self, series, wall: float, points: list[float]) -> RepResult:
        from repro.experiments.runner import AggregateStats

        problems: list[str] = []
        digest = Digest()
        compared = [f.name for f in fields(AggregateStats) if f.name != "runtime_sum"]
        for x, point in zip(series.x_values, series.points):
            digest.add(x)
            for name, aggregate in point.items():
                digest.add((name, tuple(getattr(aggregate, f) for f in compared)))
                if aggregate.trials != self.trials:
                    problems.append(f"{name} at {x}: {aggregate.trials} trials, not {self.trials}")
        if len(points) != len(series.points):
            problems.append(f"timed {len(points)} points of {len(series.points)}")
        return RepResult(
            wall=wall,
            attempted=self.trials * len(series.points),
            failed=0,
            digest=digest.hexdigest(),
            latencies=[(seconds, 1) for seconds in points],
            problems=problems,
        )


#: Full-size workloads, in the order the benchmark runs them.
WORKLOADS: dict[str, Replay | Sweep] = {
    w.name: w
    for w in (
        Replay(
            name="replay-churn",
            why="Departures against a large live journal dominate; about half the requests "
                "are rejected primary-infeasible. Ledger release and rollback changes show here.",
            num_aps=4096, requests=2000, rate=600.0, holding=2.0, window=0.1,
        ),
        Replay(
            name="replay-flash",
            why="A flash crowd that is nearly all admitted: item generation and wide "
                "union solves dominate. Round-loop, item and matching changes show here.",
            num_aps=4096, requests=2000, rate=600.0, holding=0.02, window=0.05,
            flash_multiplier=4.0,
        ),
        Sweep(
            name="sweep-fig2",
            why="The paper's Figure 2 comparison (ILP, Randomized, Heuristic); it never "
                "touches the admission service, so service changes predict no change.",
            figure="fig2", trials=5, heuristic_only=False, parallel=False,
        ),
        Sweep(
            name="sweep-heuristic",
            why="Figure 1 grid, heuristic only, on a two-worker pool: instance generation, "
                "the solo round loop, and the parallel publish/dispatch/fold layer.",
            figure="fig1", trials=25, heuristic_only=True, parallel=True,
            traced_variants=SPLIT_PASSES,
        ),
    )
}

#: ``--quick`` sizes: the same four workloads scaled down.
QUICK: dict[str, Replay | Sweep] = {
    "replay-churn": replace(WORKLOADS["replay-churn"], num_aps=1024, requests=600, rate=150.0),
    "replay-flash": replace(WORKLOADS["replay-flash"], num_aps=1024, requests=800, rate=150.0),
    "sweep-fig2": replace(WORKLOADS["sweep-fig2"], trials=1),
    "sweep-heuristic": replace(WORKLOADS["sweep-heuristic"], trials=4),
}
