"""The layers the traced run times, and the per-layer metrics derived from them.

Every wrapper target is a public callable of one ``repro`` module, named
in :data:`TARGETS` by a ``module:Qualified.attribute`` path.  Two layers
are not wrappers but blocks the workloads open around their own timed
call: :data:`REPLAY_ROOT` around ``replay_trace`` and :data:`SWEEP_ROOT`
around ``run_figure1`` / ``run_figure2``.

Each per-layer metric is reported by every workload; a layer a workload
never reaches reads 0.  Times are shares of the traced wall (``%``) and
call counts are taken from the first repetition only, so two traced runs
with one seed report identical counts.
"""

from __future__ import annotations

import numpy as np

from bench.measure import weighted_percentile
from bench.spans import Recorder, Target

REPLAY_ROOT = "service.replay"
SWEEP_ROOT = "experiments.sweep"


def _warm_round(args, kwargs, result):
    # DualReusingSolver.solve_round[_delta](self, rows, cols, edge_rows, edge_cols, edge_costs)
    return {"rows": len(args[1]), "edges": len(args[5])}


def _array_round(args, kwargs, result):
    # min_cost_max_matching_arrays(n_rows, n_cols, edge_rows, edge_cols, edge_costs, ...)
    return {"rows": int(args[0]), "edges": len(args[4])}


def _items(args, kwargs, result):
    return {"items": len(result[0])}


def _heuristic_rounds(args, kwargs, result):
    return {"rounds": int(result.meta.get("rounds", 0))}


def _dispatch(args, kwargs, result):
    # ParallelExecutor.map_ordered(self, worker, tasks); last_payload is set
    # only when the call went to the pool.
    payload = getattr(args[0], "last_payload", None)
    return {"chunks": len(args[2]), "task_bytes": payload.total_bytes if payload else 0}


_LEDGER = "repro.netmodel.capacity:CapacityLedger"

#: Every wrapper the traced run installs (one table; see module docstring).
TARGETS: tuple[Target, ...] = (
    # The admission service.
    Target("service.admit_batch", "repro.service.batch:BatchAdmissionEngine.admit_batch"),
    Target("service.depart", "repro.service.batch:BatchAdmissionEngine.depart"),
    Target("audit.refold", "repro.service.server:audit_sharded"),
    Target("events", "repro.service.events:ServiceEventQueue.push", aggregate=True),
    Target("events", "repro.service.events:ServiceEventQueue.pop", aggregate=True),
    # The capacity ledger (service and solvers alike).
    Target("capacity.release_many", f"{_LEDGER}.release_many"),
    Target("capacity.rollback", f"{_LEDGER}.rollback"),
    Target("capacity.residuals", f"{_LEDGER}.residuals"),
    Target("capacity.allocate", f"{_LEDGER}.allocate", aggregate=True),
    Target("capacity.fits", f"{_LEDGER}.fits", aggregate=True),
    Target("capacity.checkpoint", f"{_LEDGER}.checkpoint", aggregate=True),
    # Item generation and matching rounds (service and heuristic alike).
    Target("items.generate", "repro.service.batch:generate_items_with_plan", observe=_items),
    Target("items.generate", "repro.core.problem:generate_items_with_plan", observe=_items),
    Target("matching.round", "repro.matching.warmstart:DualReusingSolver.solve_round_delta",
           observe=_warm_round),
    Target("matching.round", "repro.matching.warmstart:DualReusingSolver.solve_round",
           observe=_warm_round),
    Target("matching.round", "repro.algorithms.heuristic:min_cost_max_matching_arrays",
           observe=_array_round),
    # The sweep runner.
    Target("experiments.point", "repro.experiments.figures:run_point"),
    Target("experiments.make_trial", "repro.experiments.runner:make_trial", new_group=True),
    Target("topology.generate", "repro.experiments.workload:generate_gtitm_topology"),
    Target("topology.place", "repro.experiments.workload:build_mec_network"),
    Target("problem.build", "repro.core.problem:AugmentationProblem.build"),
    Target("algorithms.ILP", "repro.algorithms.ilp_exact:ILPAlgorithm.solve"),
    Target("algorithms.Randomized", "repro.algorithms.randomized:RandomizedRounding.solve"),
    Target("algorithms.Heuristic", "repro.algorithms.heuristic:MatchingHeuristic.solve",
           observe=_heuristic_rounds),
    Target("validation.check", "repro.experiments.runner:check_solution"),
    Target("parallel.publish", "repro.parallel.shm:publish_sweep"),
    Target("parallel.map", "repro.parallel.executor:ParallelExecutor.map_ordered",
           observe=_dispatch, new_group=True),
    Target("parallel.fold", "repro.experiments.runner:AggregateStats.merge", aggregate=True),
)

#: Layers whose numbers come from the parent process of a parallel sweep.
PARENT_LAYERS = frozenset(
    {SWEEP_ROOT, "experiments.point", "parallel.publish", "parallel.map", "parallel.fold"}
)

#: Traced passes of a parallel sweep, as ``(variant, keep)``: wrappers cannot
#: reach spawned workers, so the pool pass supplies the parent-side layers
#: and an inline pass over the same inputs supplies the solve-side split.
SPLIT_PASSES = (
    ("parallel", PARENT_LAYERS.__contains__),
    ("inline", lambda layer: layer not in PARENT_LAYERS),
)

# Which layers report calls, a busy share (inclusive time), a self share
# (wrapped children excluded) and per-call percentiles.  Percentiles are
# kept to layers every workload reaches.
_CALLS = (
    "service.admit_batch", "service.depart", "capacity.release_many",
    "capacity.rollback", "capacity.residuals", "capacity.allocate", "capacity.fits",
    "capacity.checkpoint", "items.generate", "matching.round", "audit.refold",
    "events", "experiments.make_trial", "validation.check",
)
_BUSY = (
    "service.admit_batch", "service.depart", "capacity.release_many",
    "capacity.rollback", "capacity.residuals", "capacity.allocate", "capacity.fits",
    "capacity.checkpoint", "items.generate", "matching.round", "audit.refold",
    "events", "experiments.make_trial", "topology.generate", "topology.place",
    "problem.build", "algorithms.ILP", "algorithms.Randomized", "algorithms.Heuristic",
    "validation.check", "parallel.publish", "parallel.map", "parallel.fold",
)
_SELF = (REPLAY_ROOT, "service.admit_batch", "service.depart", SWEEP_ROOT,
         "experiments.point", "algorithms.Heuristic")
_PERCENTILES = ("items.generate", "matching.round")

#: Counts the workloads report from the admission records and engine stats.
SERVICE_COUNTS = (
    ("service.members_per_wave", "count"),
    ("service.amortized_frac", "ratio"),
    ("service.rounds_per_member", "count"),
    ("service.admitted", "count"),
    ("service.reject.primary_infeasible", "count"),
    ("service.reject.cost_cap", "count"),
    ("service.reject.shed", "count"),
    ("service.reject.other", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units: dict[str, str] = {}
    for layer in _CALLS:
        units[f"{layer}.calls"] = "count"
    units["items.generate.items_mean"] = "count"
    units["matching.round.rows_mean"] = "count"
    units["matching.round.edges_mean"] = "count"
    units["algorithms.Heuristic.rounds_mean"] = "count"
    units["parallel.chunks"] = "count"
    units["parallel.task_bytes_mean"] = "B"
    units.update(dict(SERVICE_COUNTS))
    for layer in _BUSY:
        units[f"{layer}.busy_pct"] = "%"
    for layer in _SELF:
        units[f"{layer}.self_pct"] = "%"
    for layer in _PERCENTILES:
        units[f"{layer}.p50_us"] = "us"
        units[f"{layer}.p90_us"] = "us"
    units["trace.unattributed_pct"] = "%"
    units["trace.overhead_frac"] = "ratio"
    return units


class LayerTotals:
    """Per-layer calls, busy and self seconds, observed sums and span durations."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.observed: dict[str, dict[str, float]] = {}
        self.durations: dict[str, list[float]] = {}
        self.wall = 0.0
        self.unattributed = 0.0

    def add_pass(self, recorder: Recorder, wall: float) -> None:
        """Fold one traced pass of ``wall`` seconds in."""
        for span in recorder.spans:
            self._add(span.name, 1, span.duration, span.self_time)
            self.durations.setdefault(span.name, []).append(span.duration)
        for name, agg in recorder.aggregates.items():
            self._add(name, agg.calls, agg.total, agg.self_total)
        for name, sums in recorder.observed.items():
            mine = self.observed.setdefault(name, {})
            for key, value in sums.items():
                mine[key] = mine.get(key, 0.0) + value
        self.wall += wall
        self.unattributed += wall - recorder.top_level_time()

    def _add(self, name: str, calls: int, busy: float, self_time: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + calls
        self.busy[name] = self.busy.get(name, 0.0) + busy
        self.self_time[name] = self.self_time.get(name, 0.0) + self_time

    def unattributed_frac(self) -> float:
        return self.unattributed / self.wall if self.wall > 0 else 0.0


def _mean(totals: LayerTotals, layer: str, key: str) -> float:
    count = totals.calls.get(layer, 0)
    return totals.observed.get(layer, {}).get(key, 0.0) / count if count else 0.0


def layer_metrics(sources) -> dict[str, float]:
    """Per-layer metric values from ``sources``, a list of ``(keep, first, pooled)``.

    Each source is one kind of traced pass: ``keep(layer)`` says whether it
    supplies that layer (``None``: every layer), ``first`` holds its
    repetition-0 totals and ``pooled`` its totals over every repetition.
    Counts come from ``first`` so they repeat exactly; shares and
    percentiles come from ``pooled``, relative to that pass kind's wall.
    The service counts and ``trace.overhead_frac`` are filled in by the
    caller, which owns the admission records and the untraced walls.
    """

    def pick(layer: str) -> tuple[LayerTotals, LayerTotals]:
        for keep, first, pooled in sources:
            if keep is None or keep(layer):
                return first, pooled
        raise KeyError(layer)

    values: dict[str, float] = {}
    for layer in _CALLS:
        values[f"{layer}.calls"] = pick(layer)[0].calls.get(layer, 0)
    for metric, layer, key in (
        ("items.generate.items_mean", "items.generate", "items"),
        ("matching.round.rows_mean", "matching.round", "rows"),
        ("matching.round.edges_mean", "matching.round", "edges"),
        ("algorithms.Heuristic.rounds_mean", "algorithms.Heuristic", "rounds"),
    ):
        values[metric] = _mean(pick(layer)[0], layer, key)
    dispatch = pick("parallel.map")[0].observed.get("parallel.map", {})
    chunks = dispatch.get("chunks", 0.0)
    values["parallel.chunks"] = chunks
    values["parallel.task_bytes_mean"] = dispatch.get("task_bytes", 0.0) / chunks if chunks else 0.0
    for layer in _BUSY:
        pooled = pick(layer)[1]
        values[f"{layer}.busy_pct"] = 100.0 * pooled.busy.get(layer, 0.0) / pooled.wall
    for layer in _SELF:
        pooled = pick(layer)[1]
        values[f"{layer}.self_pct"] = 100.0 * pooled.self_time.get(layer, 0.0) / pooled.wall
    for layer in _PERCENTILES:
        durations = pick(layer)[1].durations.get(layer)
        for q in (50, 90):
            values[f"{layer}.p{q}_us"] = (
                weighted_percentile(durations, np.ones(len(durations)), q) * 1e6
                if durations else 0.0
            )
    values["trace.unattributed_pct"] = 100.0 * max(
        pooled.unattributed_frac() for _, _, pooled in sources
    )
    return values
