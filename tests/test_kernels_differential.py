"""Differential proof that the array kernels are bit-identical to the code
they replace.

Three layers, each compared with *exact* float equality (no tolerances):

* ladders -- :func:`cost_ladder_array` / :func:`gain_ladder_array` against
  the scalar :func:`paper_cost_ladder` / :func:`gain_ladder`;
* generation -- kernel-built vs legacy-built problems over the canonical
  differential stream plus figure-scale specs (items, bins, gains, costs);
* solves -- the full matching heuristic, kernel+arena on vs everything off.

The legacy paths are selected with ``REPRO_KERNELS=0`` (the kill switch the
production code honours), so these tests also pin the switch itself.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.algorithms.heuristic import MatchingHeuristic
from repro.core.items import gain_ladder, paper_cost_ladder
from repro.experiments.instances import InstanceSpec, build_instance, differential_suite
from repro.kernels import clear_kernel_caches, kernels_enabled
from repro.kernels.arena import MatrixArena, thread_arena
from repro.kernels.items import (
    cost_ladder_array,
    cost_tuple,
    gain_ladder_array,
    gain_tuple,
    plan_of,
)
#: The canonical stream (25+) plus figure-scale settings: Fig. 1/2 use
#: |V| = 100 APs with 10% cloudlets and l = 1; Fig. 3 sweeps the residual
#: fraction (0.25 default) over the same topology.
SPECS = list(differential_suite(30)) + [
    InstanceSpec(family="waxman", num_nodes=100, cloudlet_count=10,
                 chain_length=6, radius=1, residual_scale=0.25, seed=9100),
    InstanceSpec(family="waxman", num_nodes=100, cloudlet_count=10,
                 chain_length=10, radius=1, residual_scale=0.125, seed=9101),
    InstanceSpec(family="er", num_nodes=100, cloudlet_count=10,
                 chain_length=3, radius=1, residual_scale=1.0, seed=9102),
    InstanceSpec(family="ba", num_nodes=100, cloudlet_count=10,
                 chain_length=8, radius=2, residual_scale=0.25, seed=9103),
]


@pytest.fixture()
def kernels_off(monkeypatch):
    """Context selecting the legacy scalar paths (and back on exit)."""
    def off():
        monkeypatch.setenv("REPRO_KERNELS", "0")
        clear_kernel_caches()

    def on():
        monkeypatch.setenv("REPRO_KERNELS", "1")
        clear_kernel_caches()

    yield off, on
    on()


def _item_tuples(problem):
    return [
        (it.position, it.k, it.function_name, it.demand, it.gain, it.cost, it.bins)
        for it in problem.items
    ]


# -- ladders -------------------------------------------------------------------


@pytest.mark.parametrize(
    "r", [1e-9, 0.01, 0.1, 0.25, 0.5, 0.5 + 1e-16, 0.85, 0.9, 0.98, 0.999, 1.0]
)
def test_cost_ladder_array_bit_identical(r):
    array = cost_ladder_array(r, 40)
    scalar = paper_cost_ladder(r, 40)
    assert array.shape == (40,)
    for k in range(40):
        # exact equality, not approx: same IEEE-754 operations by design
        assert array[k] == scalar[k] or (np.isinf(array[k]) and np.isinf(scalar[k]))


@pytest.mark.parametrize("r", [0.01, 0.1, 0.5, 0.85, 0.98, 1.0])
def test_gain_ladder_array_bit_identical(r):
    array = gain_ladder_array(r, 40)
    scalar = gain_ladder(r, 40)
    assert array.tolist() == list(scalar)


def test_ladder_tuples_memoized_and_grown():
    a = cost_tuple(0.7, 5)
    assert cost_tuple(0.7, 3) is a  # served from the memo, no copy
    longer = cost_tuple(0.7, 30)
    assert len(longer) >= 30 and longer[:len(a)] == a
    g = gain_tuple(0.7, 5)
    assert gain_tuple(0.7, 2) is g


def test_ladders_of_instance_reliabilities_bit_identical():
    """Every reliability actually drawn by the differential stream."""
    for spec in SPECS[:10]:
        problem = build_instance(spec)
        for r in problem.reliabilities:
            assert cost_ladder_array(r, 25).tolist() == list(paper_cost_ladder(r, 25))
            assert gain_ladder_array(r, 25).tolist() == list(gain_ladder(r, 25))


# -- generation ----------------------------------------------------------------


def test_generation_bit_identical_across_suite(kernels_off):
    """Kernel-built and legacy-built problems carry the same items: same
    ordering, same bins, same gain/cost floats -- across 34 seeded specs
    spanning every topology family, chain lengths 1..10, radii 0..3, and
    the figure-scale settings."""
    off, on = kernels_off
    exercised = 0
    for spec in SPECS:
        on()
        kernel_problem = build_instance(spec)
        assert plan_of(kernel_problem) is not None
        off()
        legacy_problem = build_instance(spec)
        assert plan_of(legacy_problem) is None
        assert _item_tuples(kernel_problem) == _item_tuples(legacy_problem)
        if kernel_problem.items:
            exercised += 1
    on()
    assert exercised >= 25  # the comparison must not be vacuous


def test_kernel_on_domain_residuals_bit_identical_to_legacy():
    """The admission service hands item generation a residual map of the
    request's domain only (the cloudlets of its primaries' ``l``-hop
    neighborhoods).  On such a map the kernel and the legacy loop must emit
    the items legacy emits on the full map, and the kernel the same edge
    plan as on the full map."""
    from repro.core.items import _generate_items_legacy
    from repro.experiments.instances import build_inputs
    from repro.kernels.csr import neighborhood_kernel
    from repro.kernels.items import generate_items_vectorized
    from repro.netmodel.neighborhoods import NeighborhoodIndex

    def tuples(items):
        return [
            (it.position, it.k, it.function_name, it.demand, it.gain, it.cost, it.bins)
            for it in items
        ]

    def plan_arrays(plan):
        return (
            plan.edge_item.tolist(), plan.edge_node.tolist(),
            plan.edge_cost.tolist(), plan.edge_demand.tolist(),
        )

    exercised = restricted = 0
    for spec in SPECS:
        inp = build_inputs(spec)
        # Explicit kernel: this test targets the vectorized entry point
        # directly and must work regardless of the REPRO_KERNELS default.
        graph = inp.network.graph
        nbhd = NeighborhoodIndex(
            graph,
            inp.radius,
            cloudlets=inp.network.cloudlets,
            kernel=neighborhood_kernel(graph, inp.radius),
        )
        domain = set().union(*(nbhd.closed_cloudlets(v) for v in inp.primary_placement))
        local = {v: c for v, c in inp.residuals.items() if v in domain}
        restricted += len(local) < len(inp.residuals)

        legacy = tuples(
            _generate_items_legacy(
                inp.request, inp.primary_placement, nbhd, inp.residuals,
                inp.item_config,
            )
        )
        assert tuples(
            _generate_items_legacy(
                inp.request, inp.primary_placement, nbhd, local, inp.item_config
            )
        ) == legacy, spec
        outs = [
            generate_items_vectorized(
                inp.request, inp.primary_placement, nbhd, residuals, inp.item_config
            )
            for residuals in (local, inp.residuals)
        ]
        (items, plan), (_, full_plan) = outs
        assert tuples(items) == legacy, spec
        assert plan is not None and full_plan is not None
        assert plan_arrays(plan) == plan_arrays(full_plan), spec
        if legacy:
            exercised += 1
    assert exercised >= 25
    assert restricted >= 15  # the domain must actually drop cloudlets


def test_plan_matches_statics_edge_universe(kernels_off):
    """The generation-time ItemPlan equals the edge arrays _ProblemStatics
    would derive from the items (the engine adopts the plan verbatim)."""
    _off, on = kernels_off
    on()  # plans only exist on the kernel path, whatever the ambient env
    for spec in SPECS:
        problem = build_instance(spec)
        plan = plan_of(problem)
        assert plan is not None
        # Re-derive the arrays the way _ProblemStatics' fallback loop does.
        edge_item, edge_node, edge_cost, edge_demand = [], [], [], []
        for idx, item in enumerate(problem.items):
            for u in item.bins:
                edge_item.append(idx)
                edge_node.append(u)
                edge_cost.append(item.cost)
                edge_demand.append(item.demand)
        assert plan.edge_item.tolist() == edge_item
        assert plan.edge_node.tolist() == edge_node
        assert plan.edge_cost.tolist() == edge_cost
        assert plan.edge_demand.tolist() == edge_demand
        assert plan.max_node == max(edge_node, default=-1)
        assert plan.min_node == min(edge_node, default=0)


# -- solves --------------------------------------------------------------------


def _solve_signature(problem, **kwargs):
    result = MatchingHeuristic(record_trace=True, **kwargs).solve(problem)
    solution = result.solution
    return (
        tuple(sorted((p.position, p.k, p.bin) for p in solution.placements)),
        result.reliability,
        solution.total_cost,
        result.meta.get("rounds"),
        tuple(
            (t["placed"], t["paper_cost"], t["reliability"])
            for t in result.meta.get("round_trace", ())
        ),
    )


def test_solves_bit_identical_kernels_vs_legacy(kernels_off):
    """End to end: same placements, same reliability and paper-cost floats,
    same per-round trace, with kernels+arena on vs off."""
    off, on = kernels_off
    for spec in SPECS:
        on()
        with_kernels = _solve_signature(build_instance(spec))
        off()
        without = _solve_signature(build_instance(spec))
        assert with_kernels == without, spec
    on()


def test_arena_on_off_bit_identical():
    """The arena only changes where scratch memory lives, never results --
    including back-to-back solves reusing the same thread arena."""
    for spec in SPECS[:12]:
        problem = build_instance(spec)
        base = _solve_signature(problem, use_arena=False)
        assert _solve_signature(problem, use_arena=True) == base
        assert _solve_signature(problem, use_arena=True) == base  # reused pools


# -- arena contract ------------------------------------------------------------


def test_thread_arena_is_per_thread():
    import threading

    mine = thread_arena()
    assert thread_arena() is mine
    other: list[MatrixArena] = []
    t = threading.Thread(target=lambda: other.append(thread_arena()))
    t.start()
    t.join()
    assert other[0] is not mine


def test_arena_refuses_to_pickle():
    with pytest.raises(TypeError, match="never be pickled"):
        pickle.dumps(MatrixArena())


def test_arena_take_grows_and_reuses():
    arena = MatrixArena()
    a = arena.take("x", 8, np.float64)
    assert arena.take("x", 4, np.float64).base is a.base
    big = arena.take("x", 100, np.float64)
    assert big.size == 100
    ar = arena.arange(10)
    assert ar.tolist() == list(range(10))


def test_kernels_enabled_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    assert kernels_enabled()
    monkeypatch.setenv("REPRO_KERNELS", "0")
    assert not kernels_enabled()
    monkeypatch.setenv("REPRO_KERNELS", "1")
    assert kernels_enabled()
