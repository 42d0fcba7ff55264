"""Matching backends: cross-check, consume replay, and online delta replay.

Algorithm 2's inner loop is a min-cost maximum matching; this bench covers
the three backends of :mod:`repro.matching.mincost` three ways:

* **cross-check grid** -- every backend solves the same heuristic-shaped
  instances; cardinality and total cost must agree exactly (the exactness
  contract -- pairings may permute within equal-cost matchings).  The
  per-backend timings double as the *cold single-shot* record: summed over
  the grid the warm solver must be no slower than the dense scipy
  reduction (it skips the ``(n + m)^2`` big-M padding).
* **fig3-shape consume replay** -- the round-graph *sequence* a real
  Algorithm 2 solve produces on Figure-3-shaped instances is captured
  once (from the incremental engine under the dense reference backend),
  each backend's identity is asserted on every captured graph, and only
  then are the raw matchers timed over the whole sequence.  Passes are
  cache-cold: a fresh workspace (dense) or a fresh dual store (warm) per
  pass, min-of-reps reported.  This is the sparse backend's home turf:
  every real-matched row re-augments every round (matched items are
  consumed), so the delta keeps almost nothing and scipy/sparse C kernels
  win on wall-clock -- recorded honestly below.
* **online perturbation replay** -- the workload the delta core exists
  for: one base round graph followed by a stream of small events
  (cloudlet failures, placed-instance failures, recovered capacity
  returning items and rows) re-solved after each event.  The warm solver
  keeps almost every pair and re-augments a handful of orphans per event
  while scipy/sparse pay a full solve; here ``warm`` must beat both.
  Serving semantics: the base-round solve is each pass's *untimed*
  bootstrap (a deployed system already holds the current matching when an
  event arrives) and only the event re-solves are timed, for every
  backend; warm reps restart from a ``snapshot()`` of the bootstrapped
  state so each rep reconciles identical warm state.
  Identity is asserted against the dense reference on every event graph
  before timing, and the solver's :class:`~repro.matching.warmstart.WarmStats`
  counters (rows kept / re-augmented, quick matches, heap pops, dual
  repairs) are printed and recorded alongside the timings.

Run standalone for a quick smoke check (used by CI)::

    python benchmarks/bench_matching.py --quick
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # standalone: bootstrap repo + src onto the path
    _root = Path(__file__).resolve().parent.parent
    for entry in (str(_root), str(_root / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR, emit, emit_json
from repro.algorithms.heuristic import MatchingHeuristic
from repro.experiments.instances import InstanceSpec, build_instance
from repro.matching.incremental import RoundState, warm_solver_for
from repro.matching.mincost import (
    BACKENDS,
    MatchingWorkspace,
    min_cost_max_matching,
    min_cost_max_matching_arrays,
)
from repro.util.tables import format_table


def _heuristic_shaped_edges(n_rows: int, n_cols: int, seed: int):
    rng = np.random.default_rng(seed)
    return {
        (r, c): float(rng.uniform(0.5, 6.0))
        for r in range(n_rows)
        for c in range(n_cols)
        if rng.uniform() < 0.3
    }


@pytest.mark.parametrize("backend", list(BACKENDS))
def bench_mincost_heuristic_shape(benchmark, backend):
    """10 cloudlets x 150 items at 30% edge density (one Algorithm 2 round)."""
    edges = _heuristic_shaped_edges(10, 150, seed=5)
    result = benchmark(min_cost_max_matching, 10, 150, edges, backend)
    assert len(result) == 10  # every cloudlet matched at this density


# -- cross-check grid --------------------------------------------------------------

#: (rows, cols, seed) instances for the backend cross-check.
CROSSCHECK_GRID = [(10, 100, 1), (10, 300, 2), (20, 200, 3)]

#: Timed calls per backend per instance; the minimum is recorded.
TIMING_REPS = 3


def _timed_solve(n_rows, n_cols, edges, backend):
    """Solve once per rep and return (result, best_seconds)."""
    best = float("inf")
    result = None
    for _ in range(TIMING_REPS):
        start = time.perf_counter()
        result = min_cost_max_matching(n_rows, n_cols, edges, backend=backend)
        best = min(best, time.perf_counter() - start)
    return result, best


def run_crosscheck():
    """Every backend on every grid instance; exact cardinality/cost agreement."""
    points = []
    for n_rows, n_cols, seed in CROSSCHECK_GRID:
        edges = _heuristic_shaped_edges(n_rows, n_cols, seed)
        point: dict[str, object] = {"instance": f"{n_rows}x{n_cols}", "seed": seed}
        reference = None
        for backend in BACKENDS:
            result, seconds = _timed_solve(n_rows, n_cols, edges, backend)
            summary = (len(result), round(sum(e.cost for e in result), 9))
            point[f"cardinality_{backend}"] = summary[0]
            point[f"cost_{backend}"] = summary[1]
            point[f"{backend}_seconds"] = seconds
            if reference is None:
                reference = summary
            else:
                assert summary == reference, (backend, summary, reference)
        points.append(point)
    return points


def cold_single_shot(crosscheck_points):
    """Aggregate cold single-shot record: warm vs the dense scipy reduction.

    Summed over the cross-check grid (min-of-reps per instance), a cold
    warm-solver solve must be no slower than the dense reduction -- it
    solves the same CSR problem without materialising the ``(n + m)^2``
    big-M padding.
    """
    scipy_total = sum(p["scipy_seconds"] for p in crosscheck_points)
    warm_total = sum(p["warm_seconds"] for p in crosscheck_points)
    return {
        "workload": "cold single-shot solves summed over the cross-check grid",
        "scipy_seconds": scipy_total,
        "warm_seconds": warm_total,
        "warm_vs_scipy": scipy_total / warm_total,
    }


# -- fig3-shape round replay -------------------------------------------------------

#: Figure-3-shaped instances (radius-1 locality => ~10%-dense round graphs).
#: Labels name the fig3 x-axis point (network size |V|).
FIG3_SHAPES = [
    (
        "V=1000",
        InstanceSpec(
            seed=9202, family="waxman", num_nodes=1000, cloudlet_count=100,
            chain_length=16, radius=1, residual_scale=1.0, max_backups=50,
        ),
    ),
    (
        "V=1200",
        InstanceSpec(
            seed=9203, family="waxman", num_nodes=1200, cloudlet_count=120,
            chain_length=16, radius=1, residual_scale=1.0, max_backups=60,
        ),
    ),
    (
        "V=1500",
        InstanceSpec(
            seed=9204, family="waxman", num_nodes=1500, cloudlet_count=150,
            chain_length=16, radius=1, residual_scale=1.0, max_backups=70,
        ),
    ),
]

#: Timed passes per backend per instance in the replay; minimum reported.
REPLAY_REPS = 5

def capture_round_graphs(problem):
    """The round-graph sequence of one Algorithm 2 solve, as copies.

    Wraps :meth:`RoundState.build_edges` for the duration of a single
    dense-backend solve (restored in ``finally``), snapshotting each
    round's ``(rows, cols, edge_rows, edge_cols, edge_costs, edge_idx)``
    before the engine consumes it (``edge_idx`` is the round's universe
    positions, which the delta path filters its CSR layout from).
    ``stop_at_expectation=False`` packs until no edge remains -- the
    resource-exhaustion regime whose round count Figure 3's
    scarce-capacity points hit.
    """
    captured = []
    original = RoundState.build_edges

    def recording(self):
        rows, cols, edge_rows, edge_cols, edge_costs = original(self)
        captured.append(
            (list(rows), cols.copy(), edge_rows.copy(), edge_cols.copy(),
             list(edge_costs), self.last_edge_idx.copy())
        )
        return rows, cols, edge_rows, edge_cols, edge_costs

    RoundState.build_edges = recording
    try:
        MatchingHeuristic(backend="scipy", stop_at_expectation=False).solve(problem)
    finally:
        RoundState.build_edges = original
    return captured


def _replay_dense(sequence, backend):
    """One cache-cold pass: a fresh workspace, every captured round in order."""
    workspace = MatchingWorkspace()
    return [
        min_cost_max_matching_arrays(
            len(rows), len(cols), edge_rows, edge_cols, edge_costs,
            backend=backend, workspace=workspace,
        )
        for rows, cols, edge_rows, edge_cols, edge_costs, _ in sequence
    ]


def _replay_warm(problem, sequence, delta=False, solver=None):
    """One pass over ``sequence`` on a warm solver, duals carried across rounds.

    With ``delta=True`` the persistent matching is carried too
    (:meth:`~repro.matching.warmstart.DualReusingSolver.solve_round_delta`
    with each round's universe ``edge_idx``); the solver is returned next
    to the matchings so callers can read its ``stats`` counters.  By default
    the pass is cache-cold (a fresh dual+matching store); passing ``solver``
    continues from that solver's live state instead -- the online-serving
    replay uses this with :meth:`snapshot`/:meth:`restore` to re-run the
    event stream from an identical warm checkpoint every rep.
    """
    if solver is None:
        solver = warm_solver_for(problem, problem.ledger())
    if delta:
        matchings = [
            solver.solve_round_delta(
                rows, cols, edge_rows, edge_cols, edge_costs, edge_idx=edge_idx
            )
            for rows, cols, edge_rows, edge_cols, edge_costs, edge_idx in sequence
        ]
    else:
        matchings = [
            solver.solve_round(rows, cols, edge_rows, edge_cols, edge_costs)
            for rows, cols, edge_rows, edge_cols, edge_costs, _ in sequence
        ]
    return matchings, solver


def _matching_summary(matchings):
    """Per-round (cardinality, total cost) -- the exactness invariant."""
    out = []
    for matching in matchings:
        cost = sum(e[2] if isinstance(e, tuple) else e.cost for e in matching)
        out.append((len(matching), round(cost, 9)))
    return out


def run_replay(shapes=FIG3_SHAPES, reps=REPLAY_REPS):
    """Capture, identity-check, then time each backend over the sequence.

    ``warm`` times the production path -- the delta engine with universe
    ``edge_idx`` -- even though the consume workload orphans every
    real-matched row each round (matched items are consumed), so the delta
    keeps only dummy-matched rows here.
    """
    points = []
    for label, spec in shapes:
        problem = build_instance(spec)
        sequence = capture_round_graphs(problem)
        timed = [g for g in sequence if g[4]]  # a final empty graph times nothing
        n_rows, n_cols, n_edges = (
            len(timed[0][0]), len(timed[0][1]), len(timed[0][4])
        )

        # Identity before timing: every backend, every captured round graph
        # (the warm solver in both its cold and delta modes).
        reference = _matching_summary(_replay_dense(timed, "scipy"))
        assert _matching_summary(_replay_dense(timed, "sparse")) == reference
        assert _matching_summary(_replay_warm(problem, timed)[0]) == reference
        warm_matchings, warm_solver = _replay_warm(problem, timed, delta=True)
        assert _matching_summary(warm_matchings) == reference

        seconds: dict[str, float] = {}
        for backend in BACKENDS:
            best = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                if backend == "warm":
                    _replay_warm(problem, timed, delta=True)
                else:
                    _replay_dense(timed, backend)
                best = min(best, time.perf_counter() - start)
            seconds[backend] = best

        points.append(
            {
                "instance": label,
                "seed": spec.seed,
                "rounds": len(timed),
                "round0_rows": n_rows,
                "round0_cols": n_cols,
                "round0_edges": n_edges,
                "round0_density": round(n_edges / (n_rows * n_cols), 4),
                "scipy_seconds": seconds["scipy"],
                "sparse_seconds": seconds["sparse"],
                "warm_seconds": seconds["warm"],
                "sparse_speedup": seconds["scipy"] / seconds["sparse"],
                "warm_speedup": seconds["scipy"] / seconds["warm"],
                "warm_stats": warm_solver.stats.as_dict(),
            }
        )
    return points


# -- online perturbation replay ----------------------------------------------------

#: Perturbation events per shape in the online replay.
ONLINE_EVENTS = 60

#: (weights sum to 1) event mix: placed-instance failures dominate, with
#: cloudlet failures and capacity recovery (items / rows returning) mixed in.
_EVENT_KINDS = ("fail_cols", "fail_row", "return_cols", "return_row")
_EVENT_WEIGHTS = (0.45, 0.15, 0.3, 0.1)


def build_online_sequence(base_round, n_events, seed):
    """A deterministic stream of perturbed round graphs from one base round.

    Starting from the captured base graph, each event either *fails* a
    cloudlet row, *fails* 1-3 currently-placed (matched) item columns,
    or *returns* previously failed columns / rows -- the lifecycle
    re-embedding and failure-recovery workload from the paper's mobile
    edge-cloud setting.  Matched columns are tracked with the dense scipy
    reference so the stream is backend-independent; every graph keeps the
    6-tuple shape of :func:`capture_round_graphs` (``edge_idx`` filtered
    from the base round's universe positions).
    """
    rows0, cols0, er0, ec0, costs0, eidx0 = base_round
    costs0 = np.asarray(costs0, dtype=float)
    rng = np.random.default_rng(seed)
    n0, m0 = len(rows0), len(cols0)
    row_alive = np.ones(n0, dtype=bool)
    col_alive = np.ones(m0, dtype=bool)
    workspace = MatchingWorkspace()

    def snapshot():
        row_map = np.cumsum(row_alive) - 1
        col_map = np.cumsum(col_alive) - 1
        mask = row_alive[er0] & col_alive[ec0]
        return (
            [g for g, a in zip(rows0, row_alive) if a],
            cols0[col_alive],
            row_map[er0[mask]].astype(np.intp),
            col_map[ec0[mask]].astype(np.intp),
            costs0[mask].tolist(),
            eidx0[mask],
        )

    sequence = [snapshot()]
    matched_cols: set[int] = set()

    def track(graph):
        rows, cols, er, ec, costs, _ = graph
        result = min_cost_max_matching_arrays(
            len(rows), len(cols), er, ec, costs,
            backend="scipy", workspace=workspace,
        )
        matched_cols.clear()
        matched_cols.update(int(cols[e.col]) for e in result)

    track(sequence[0])
    col_pos = {int(j): p for p, j in enumerate(cols0)}
    for _ in range(n_events - 1):
        kind = rng.choice(_EVENT_KINDS, p=_EVENT_WEIGHTS)
        if kind == "fail_cols":
            pool = [col_pos[j] for j in sorted(matched_cols) if col_alive[col_pos[j]]]
            if not pool:
                kind = "return_cols"
            else:
                take = rng.choice(pool, size=min(len(pool), int(rng.integers(1, 4))),
                                  replace=False)
                col_alive[take] = False
        if kind == "fail_row":
            pool = np.nonzero(row_alive)[0]
            if pool.size <= max(2, n0 // 2):  # keep the instance meaningfully alive
                kind = "return_row"
            else:
                row_alive[int(rng.choice(pool))] = False
        if kind == "return_cols":
            pool = np.nonzero(~col_alive)[0]
            if pool.size:
                back = rng.choice(pool, size=min(pool.size, int(rng.integers(1, 4))),
                                  replace=False)
                col_alive[back] = True
        if kind == "return_row":
            pool = np.nonzero(~row_alive)[0]
            if pool.size:
                row_alive[int(rng.choice(pool))] = True
        graph = snapshot()
        if not graph[4]:  # a graph with no edges times nothing; skip the event
            continue
        sequence.append(graph)
        track(graph)
    return sequence


def run_online_replay(shapes=FIG3_SHAPES, reps=REPLAY_REPS, n_events=ONLINE_EVENTS):
    """Identity-check, then time each backend over the perturbation stream.

    Online-serving semantics: a deployed system already holds the base
    round's matching when an event arrives, so the base solve is each
    pass's *untimed* bootstrap and only the event re-solves are timed --
    for every backend.  scipy/sparse carry no state across rounds (their
    per-event cost is the same either way); the warm solver bootstraps
    once, then every timed rep is :meth:`restore`\\ d to that
    :meth:`snapshot` so it reconciles the same event stream from the same
    warm state.
    """
    points = []
    for label, spec in shapes:
        problem = build_instance(spec)
        base = capture_round_graphs(problem)[0]
        sequence = build_online_sequence(base, n_events, seed=spec.seed + 17)
        events = sequence[1:]

        # Identity before timing, per event graph, against the dense
        # reference -- this is where resurrection events prove the delta
        # engine's repair path exact, not just fast.  Checked on the full
        # stream (covering warm's cold first delta round) and again on the
        # snapshot/restore serving path that the timing loop uses.
        reference = _matching_summary(_replay_dense(sequence, "scipy"))
        assert _matching_summary(_replay_dense(sequence, "sparse")) == reference
        warm_matchings, _ = _replay_warm(problem, sequence, delta=True)
        assert _matching_summary(warm_matchings) == reference

        warm_solver = warm_solver_for(problem, problem.ledger())
        _replay_warm(problem, sequence[:1], delta=True, solver=warm_solver)
        state = warm_solver.snapshot()
        warm_solver.stats.reset()  # count event-serving work only
        served, _ = _replay_warm(problem, events, delta=True, solver=warm_solver)
        assert _matching_summary(served) == reference[1:]
        stats = warm_solver.stats.as_dict()

        seconds: dict[str, float] = {}
        for backend in BACKENDS:
            best = float("inf")
            for _ in range(reps):
                if backend == "warm":
                    warm_solver.restore(state)
                start = time.perf_counter()
                if backend == "warm":
                    _replay_warm(problem, events, delta=True, solver=warm_solver)
                else:
                    _replay_dense(events, backend)
                best = min(best, time.perf_counter() - start)
            seconds[backend] = best

        points.append(
            {
                "instance": label,
                "seed": spec.seed,
                "events": len(events),
                "base_rows": len(base[0]),
                "base_cols": len(base[1]),
                "base_edges": len(base[4]),
                "scipy_seconds": seconds["scipy"],
                "sparse_seconds": seconds["sparse"],
                "warm_seconds": seconds["warm"],
                "warm_speedup": seconds["scipy"] / seconds["warm"],
                "warm_vs_sparse": seconds["sparse"] / seconds["warm"],
                "warm_stats": stats,
            }
        )
    return points


def render_replay_table(points):
    rows = [
        [
            p["instance"],
            p["rounds"],
            f"{p['round0_rows']}x{p['round0_cols']}",
            f"{p['round0_density']:.0%}",
            f"{p['scipy_seconds'] * 1e3:.2f}",
            f"{p['sparse_seconds'] * 1e3:.2f}",
            f"{p['warm_seconds'] * 1e3:.2f}",
            f"{p['sparse_speedup']:.2f}x",
            f"{p['warm_speedup']:.2f}x",
        ]
        for p in points
    ]
    return format_table(
        ["instance", "rounds", "round0", "density", "scipy ms", "sparse ms",
         "warm ms", "sparse", "warm"],
        rows,
        title="Fig3-shape consume replay: per-backend wall-clock (min of reps)",
    )


def _hit_rate(stats):
    reaug = stats["rows_reaugmented"]
    return stats["quick_matches"] / reaug if reaug else 1.0


def render_online_table(points):
    rows = [
        [
            p["instance"],
            p["events"],
            f"{p['base_rows']}x{p['base_cols']}",
            f"{p['scipy_seconds'] * 1e3:.2f}",
            f"{p['sparse_seconds'] * 1e3:.2f}",
            f"{p['warm_seconds'] * 1e3:.2f}",
            f"{p['warm_speedup']:.2f}x",
            f"{p['warm_vs_sparse']:.2f}x",
            f"{p['warm_stats']['rows_kept']}/{p['warm_stats']['rows_total']}",
            f"{_hit_rate(p['warm_stats']):.0%}",
            p["warm_stats"]["heap_pops"],
            p["warm_stats"]["dual_repairs"],
        ]
        for p in points
    ]
    return format_table(
        ["instance", "events", "base", "scipy ms", "sparse ms", "warm ms",
         "vs scipy", "vs sparse", "kept", "quick", "pops", "repairs"],
        rows,
        title=("Online perturbation replay: delta re-solve vs full solves "
               "per event (base solve untimed)"),
    )


def emit_replay(results_dir, points, online_points, cold, reps):
    emit(
        results_dir,
        "matching_replay",
        render_replay_table(points) + "\n\n" + render_online_table(online_points),
    )
    emit_json(
        results_dir,
        "BENCH_matching_backends",
        config={
            "workload": (
                "online perturbation replay on Figure-3-shaped instances "
                "(waxman, radius-1 locality): one Algorithm 2 base round "
                "graph + a seeded stream of cloudlet/instance failures and "
                "recoveries, re-solved after every event"
            ),
            "shapes": [
                {
                    "instance": label,
                    "seed": spec.seed,
                    "num_nodes": spec.num_nodes,
                    "cloudlet_count": spec.cloudlet_count,
                    "chain_length": spec.chain_length,
                    "radius": spec.radius,
                    "max_backups": spec.max_backups,
                }
                for label, spec in FIG3_SHAPES
            ],
            "events_per_shape": ONLINE_EVENTS,
            "reps_per_backend": reps,
            "timing": (
                "online serving: the base-round solve is untimed bootstrap "
                "(a live system already holds the current matching when an "
                "event arrives); min-of-reps of the raw matchers over the "
                "event re-solves only, every backend alike -- scipy/sparse "
                "carry no cross-round state, warm reps restore a snapshot "
                "of the bootstrapped dual+matching store.  Identity "
                "(cardinality + total cost per graph) asserted across "
                "backends, on the full stream and on the snapshot/restore "
                "serving path, before any timing"
            ),
        },
        points=online_points,
        extra={
            "consume_replay": {
                "workload": (
                    "full Algorithm 2 round-graph replay, "
                    "stop_at_expectation=False (every real-matched row "
                    "re-augments each round because matched items are "
                    "consumed -- the delta keeps only dummy-matched rows, "
                    "so the C-kernel backends win here; recorded honestly)"
                ),
                "points": points,
            },
            "cold_single_shot": cold,
            "note": (
                f"measured on cpu_count={os.cpu_count()}; matchers are "
                "single-threaded, so speedup is backend-vs-backend on one "
                "core.  The delta core's contract: no slower than the dense "
                "reduction cold, and faster than every full re-solve -- "
                "including sparse -- on the online perturbation workload."
            ),
        },
    )


def bench_matching_report(benchmark, results_dir):
    """Cross-check table plus the consume- and online-replay records."""

    def run():
        return run_crosscheck(), run_replay(), run_online_replay()

    crosscheck, replay, online = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [p["instance"]]
        + [p[f"cardinality_{b}"] for b in BACKENDS]
        + [p[f"cost_{b}"] for b in BACKENDS]
        for p in crosscheck
    ]
    emit(
        results_dir,
        "matching_backends",
        format_table(
            ["instance"]
            + [f"card({b})" for b in BACKENDS]
            + [f"cost({b})" for b in BACKENDS],
            rows,
            title="Matching backends agree on cardinality and cost",
        ),
    )
    emit_json(
        results_dir,
        "BENCH_matching_crosscheck",
        config={
            "workload": "heuristic-shaped mincost matching, 30% edge density",
            "grid": [list(point) for point in CROSSCHECK_GRID],
            "backends": list(BACKENDS),
            "reps_per_backend": TIMING_REPS,
            "timing": "min-of-reps per backend per instance",
        },
        points=crosscheck,
    )
    emit_replay(results_dir, replay, online, cold_single_shot(crosscheck), REPLAY_REPS)
    _assert_replay_records(crosscheck, replay, online)


def _assert_replay_records(crosscheck, replay, online):
    """The recorded performance contract, shared by report and standalone runs.

    * sparse clearly beats the dense reduction on the consume replay;
    * cold single-shots: warm is no slower than the dense reduction
      (aggregate over the cross-check grid);
    * online perturbation replay: warm beats scipy everywhere and beats
      sparse on at least two of the three shapes (per-event full C solves
      cannot keep up with re-augmenting a handful of orphans).
    """
    for point in replay:
        assert point["sparse_speedup"] > 1.3, point
    assert max(p["sparse_speedup"] for p in replay) >= 1.5, replay
    cold = cold_single_shot(crosscheck)
    assert cold["warm_vs_scipy"] >= 1.0, cold
    for point in online:
        assert point["warm_speedup"] > 1.0, point
    beats_sparse = sum(p["warm_vs_sparse"] > 1.0 for p in online)
    assert beats_sparse >= min(2, len(online)), online


def main(argv):
    unknown = [a for a in argv if a != "--quick"]
    if unknown:
        print(f"usage: bench_matching.py [--quick] (got {unknown})")
        return 2
    quick = "--quick" in argv
    crosscheck = run_crosscheck()  # exactness across all three backends
    cold = cold_single_shot(crosscheck)
    assert cold["warm_vs_scipy"] >= 1.0, cold
    if quick:
        points = run_replay(shapes=FIG3_SHAPES[:1], reps=2)
        online = run_online_replay(shapes=FIG3_SHAPES[:1], reps=2, n_events=30)
        print(render_replay_table(points))
        print(render_online_table(online))
        # smoke: identity (asserted in the runners) plus a sane sparse win
        # on the consume rounds and a warm replay win on the online stream
        # (noise headroom below the recorded figures)
        assert all(p["sparse_speedup"] > 1.2 for p in points), points
        assert all(p["warm_speedup"] > 1.0 for p in online), online
        assert all(p["warm_vs_sparse"] > 1.0 for p in online), online
    else:
        points = run_replay()
        online = run_online_replay()
        print(render_replay_table(points))
        print(render_online_table(online))
        RESULTS_DIR.mkdir(exist_ok=True)
        emit_replay(RESULTS_DIR, points, online, cold, REPLAY_REPS)
        _assert_replay_records(crosscheck, points, online)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
