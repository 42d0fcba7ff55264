"""Matching backends: cross-check and consume replay.

Algorithm 2's inner loop is a min-cost maximum matching; this bench covers
the three backends of :mod:`repro.matching.mincost` two ways:

* **cross-check grid** -- every backend solves the same heuristic-shaped
  instances; cardinality and total cost must agree exactly (the exactness
  contract -- pairings may permute within equal-cost matchings).  The
  per-backend timings double as the *cold single-shot* record: summed over
  the grid the warm solver must be no slower than the dense scipy
  reduction (it skips the ``(n + m)^2`` big-M padding).  Each backend's
  time is the minimum of ``TIMING_REPS`` solves, with the backends taking
  turns in a rotating order within each rep.
* **fig3-shape consume replay** -- the round-graph *sequence* a real
  Algorithm 2 solve produces on Figure-3-shaped instances is captured
  once (from the incremental engine under the dense reference backend),
  each backend's identity is asserted on every captured graph, and only
  then are the raw matchers timed over the whole sequence.  Passes are
  cache-cold: a fresh workspace (dense) or a fresh dual store (warm) per
  pass, min-of-reps reported.  This is the sparse backend's home turf:
  every real-matched row re-augments every round (matched items are
  consumed), so the delta keeps almost nothing and scipy/sparse C kernels
  win on wall-clock -- recorded honestly below.  The warm solver's
  :class:`~repro.matching.warmstart.WarmStats` counters (rows kept /
  re-augmented, quick matches, heap pops, free-row cuts) are recorded
  alongside the timings.

The warm solver takes only shrinking round sequences (a grown round
raises), which is what Algorithm 2 produces and what the replay feeds it.

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

#: Timed calls per backend per instance; the minimum is recorded.  A
#: cold solve on this grid takes about a millisecond, so a few reps leave
#: the minimum inside host noise.
TIMING_REPS = 25


def _timed_solves(n_rows, n_cols, edges):
    """Every backend once per rep; ``{backend: (result, best_seconds)}``.

    The backends take turns within each rep, and each rep starts from the
    next backend, so none always runs first on an instance and host drift
    lands on all of them alike.
    """
    order = list(BACKENDS)
    best = dict.fromkeys(order, float("inf"))
    results = {}
    for rep in range(TIMING_REPS):
        shift = rep % len(order)
        for backend in order[shift:] + order[:shift]:
            start = time.perf_counter()
            results[backend] = min_cost_max_matching(
                n_rows, n_cols, edges, backend=backend
            )
            best[backend] = min(best[backend], time.perf_counter() - start)
    return {backend: (results[backend], best[backend]) for backend in order}


def run_crosscheck():
    """Every backend on every grid instance; exact cardinality/cost agreement."""
    points = []
    for n_rows, n_cols, seed in CROSSCHECK_GRID:
        edges = _heuristic_shaped_edges(n_rows, n_cols, seed)
        point: dict[str, object] = {"instance": f"{n_rows}x{n_cols}", "seed": seed}
        reference = None
        solves = _timed_solves(n_rows, n_cols, edges)
        for backend in BACKENDS:
            result, seconds = solves[backend]
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
    round before the engine consumes it in both representations: the
    dense backends' ``(rows, cols, edge_rows, edge_cols, edge_costs)``
    and, from :meth:`RoundState.build_csr` on the same state, the warm
    solver's ``(rows, cols, indptr, edge_cols, edge_costs)``.
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
             list(edge_costs), self.build_csr())
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


def _replay_warm(problem, sequence, delta=False):
    """One cache-cold pass over ``sequence`` on a fresh warm solver.

    Duals are carried across rounds; with ``delta=True`` the persistent
    matching is carried too
    (:meth:`~repro.matching.warmstart.DualReusingSolver.solve_round_delta`).
    Each round is the captured CSR form.  The solver is returned next to
    the matchings so callers can read its ``stats`` counters.
    """
    solver = warm_solver_for(problem, problem.ledger())
    solve = solver.solve_round_delta if delta else solver.solve_round
    matchings = [solve(*graph[5]) for graph in sequence]
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

    ``warm`` times the production path -- the delta engine on the CSR
    rounds -- even though the consume workload orphans every
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


def render_crosscheck_table(crosscheck):
    rows = [
        [p["instance"]]
        + [p[f"cardinality_{b}"] for b in BACKENDS]
        + [p[f"cost_{b}"] for b in BACKENDS]
        for p in crosscheck
    ]
    return format_table(
        ["instance"]
        + [f"card({b})" for b in BACKENDS]
        + [f"cost({b})" for b in BACKENDS],
        rows,
        title="Matching backends agree on cardinality and cost",
    )


def emit_records(results_dir, crosscheck, points, reps):
    """Write the cross-check table, the replay table and their JSON record."""
    emit(results_dir, "matching_backends", render_crosscheck_table(crosscheck))
    emit(results_dir, "matching_replay", render_replay_table(points))
    emit_json(
        results_dir,
        "BENCH_matching_backends",
        config={
            "workload": (
                "Algorithm 2 round-graph replay on Figure-3-shaped instances "
                "(waxman, radius-1 locality), stop_at_expectation=False: "
                "every real-matched row re-augments each round because "
                "matched items are consumed, so the delta keeps only "
                "dummy-matched rows and the C-kernel backends win here"
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
            "reps_per_backend": reps,
            "timing": (
                "min-of-reps of the raw matchers over the captured round "
                "graphs, cache-cold per pass (a fresh workspace or a fresh "
                "warm solver); warm times its delta path.  Identity "
                "(cardinality + total cost per graph) asserted across "
                "backends before any timing"
            ),
        },
        points=points,
        extra={
            "cold_single_shot": cold_single_shot(crosscheck),
            "note": (
                f"measured on cpu_count={os.cpu_count()}; matchers are "
                "single-threaded, so speedup is backend-vs-backend on one "
                "core.  The warm core's contract here: no slower than the "
                "dense reduction on cold single shots."
            ),
        },
    )


def bench_matching_report(benchmark, results_dir):
    """Cross-check table plus the consume-replay record."""

    def run():
        return run_crosscheck(), run_replay()

    crosscheck, replay = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_json(
        results_dir,
        "BENCH_matching_crosscheck",
        config={
            "workload": "heuristic-shaped mincost matching, 30% edge density",
            "grid": [list(point) for point in CROSSCHECK_GRID],
            "backends": list(BACKENDS),
            "reps_per_backend": TIMING_REPS,
            "timing": (
                "min-of-reps per backend per instance; the backends take "
                "turns within each rep, in an order rotated every rep"
            ),
        },
        points=crosscheck,
    )
    emit_records(results_dir, crosscheck, replay, REPLAY_REPS)
    _assert_replay_records(crosscheck, replay)


def _assert_replay_records(crosscheck, replay):
    """The recorded performance contract, shared by report and standalone runs.

    * sparse clearly beats the dense reduction on the consume replay;
    * cold single-shots: warm is no slower than the dense reduction
      (aggregate over the cross-check grid).
    """
    for point in replay:
        assert point["sparse_speedup"] > 1.3, point
    assert max(p["sparse_speedup"] for p in replay) >= 1.5, replay
    cold = cold_single_shot(crosscheck)
    assert cold["warm_vs_scipy"] >= 1.0, cold


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
        print(render_replay_table(points))
        # smoke: identity (asserted in the runners) plus a sane sparse win
        # on the consume rounds (noise headroom below the recorded figures)
        assert all(p["sparse_speedup"] > 1.2 for p in points), points
    else:
        points = run_replay()
        print(render_replay_table(points))
        RESULTS_DIR.mkdir(exist_ok=True)
        emit_records(RESULTS_DIR, crosscheck, points, REPLAY_REPS)
        _assert_replay_records(crosscheck, points)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
