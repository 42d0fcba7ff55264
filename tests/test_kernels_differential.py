"""Differential proof that the array kernels are bit-identical to the code
they replaced.

Three layers, each compared with *exact* float equality (no tolerances):

* ladders -- :func:`cost_tuple` / :func:`gain_tuple` against the scalar
  :func:`paper_cost_ladder` / :func:`gain_ladder`;
* generation -- kernel-built problems vs the scalar reference loop of
  ``tests/reference/items.py`` over the canonical differential stream plus
  figure-scale specs (items, bins, gains, costs);
* solves -- the full matching heuristic (kernel items, edge plan,
  incremental rounds) vs scalar items solved by the rebuild reference loop
  of ``tests/reference/rebuild.py`` (no plan, no round state).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.heuristic import MatchingHeuristic
from repro.core import items as core_items
from repro.core.items import gain_ladder, paper_cost_ladder, reliability_ladder
from repro.core.problem import AugmentationProblem
from repro.experiments.instances import (
    InstanceSpec,
    build_inputs,
    build_instance,
    differential_suite,
)
from repro.kernels import items as kernel_items
from repro.kernels.items import (
    cost_tuple,
    gain_tuple,
    generate_items_vectorized,
    plan_of,
)
from repro.netmodel.neighborhoods import NeighborhoodIndex
from tests.reference.items import generate_items_scalar
from tests.reference.rebuild import RebuildHeuristic

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


def _tuples(items):
    return [
        (it.position, it.k, it.function_name, it.demand, it.gain, it.cost, it.bins)
        for it in items
    ]


def _reference_problem(spec):
    """The spec's problem with the scalar loop's items and no edge plan."""
    inp = build_inputs(spec)
    neighborhoods = inp.network.neighborhoods(inp.radius)
    residuals = dict(inp.residuals)
    items = generate_items_scalar(
        inp.request, inp.primary_placement, neighborhoods, residuals, inp.item_config
    )
    return AugmentationProblem.from_items(
        inp.network, inp.request, inp.primary_placement, inp.radius, residuals,
        neighborhoods, items, None,
    )


# -- ladders -------------------------------------------------------------------


@pytest.mark.parametrize(
    "r", [1e-9, 0.01, 0.1, 0.25, 0.5, 0.5 + 1e-16, 0.85, 0.9, 0.98, 0.999, 1.0]
)
def test_cost_ladder_array_bit_identical(r):
    ladder = cost_tuple(r, 40)[:40]
    scalar = paper_cost_ladder(r, 40)
    assert len(ladder) == 40
    for k in range(40):
        # exact equality, not approx: same IEEE-754 operations by design
        assert ladder[k] == scalar[k] or (np.isinf(ladder[k]) and np.isinf(scalar[k]))


@pytest.mark.parametrize("r", [0.01, 0.1, 0.5, 0.85, 0.98, 1.0])
def test_gain_ladder_array_bit_identical(r):
    assert gain_tuple(r, 40)[:40] == gain_ladder(r, 40)


def test_ladder_tuples_memoized_and_grown():
    a = cost_tuple(0.7, 5)
    assert cost_tuple(0.7, 3) is a  # served from the memo, no copy
    longer = cost_tuple(0.7, 30)
    assert len(longer) >= 30 and longer[:len(a)] == a
    g = gain_tuple(0.7, 5)
    assert gain_tuple(0.7, 2) is g


def test_ladder_memos_bounded():
    """Each ladder memo empties itself at the limit instead of growing, and
    a ladder recomputed after the clear equals the one memoized before."""
    limit = core_items._LADDER_MEMO_LIMIT
    r0 = 0.6180339887

    def ladders():
        return (
            paper_cost_ladder(r0, 12),
            gain_ladder(r0, 12),
            reliability_ladder(r0, 12),
            cost_tuple(r0, 12)[:12],
            gain_tuple(r0, 12)[:12],
        )

    before = ladders()
    for i in range(limit + 1):
        r = 0.3 + i * 1e-6
        reliability_ladder(r, 4)
        cost_tuple(r, 4)
        gain_tuple(r, 4)
    memos = [
        *core_items._LADDER_CACHES.values(),
        kernel_items._COST_TUPLES,
        kernel_items._GAIN_TUPLES,
    ]
    assert all(len(memo) <= limit for memo in memos)
    assert all(r0 not in memo for memo in memos)  # cleared, so recomputed
    assert ladders() == before


def test_ladders_of_instance_reliabilities_bit_identical():
    """Every reliability actually drawn by the differential stream."""
    for spec in SPECS[:10]:
        problem = build_instance(spec)
        for r in problem.reliabilities:
            assert cost_tuple(r, 25)[:25] == paper_cost_ladder(r, 25)
            assert gain_tuple(r, 25)[:25] == gain_ladder(r, 25)


# -- generation ----------------------------------------------------------------


def test_generation_bit_identical_across_suite():
    """Kernel-built problems carry the scalar reference loop's items: same
    ordering, same bins, same gain/cost floats -- across 34 seeded specs
    spanning every topology family, chain lengths 1..10, radii 0..3, and
    the figure-scale settings."""
    exercised = 0
    for spec in SPECS:
        kernel_problem = build_instance(spec)
        assert plan_of(kernel_problem) is not None
        reference = _reference_problem(spec)
        assert _tuples(kernel_problem.items) == _tuples(reference.items), spec
        if kernel_problem.items:
            exercised += 1
    assert exercised >= 25  # the comparison must not be vacuous


def test_kernel_on_domain_residuals_bit_identical_to_legacy():
    """The admission service hands item generation a residual map of the
    request's domain only (the cloudlets of its primaries' ``l``-hop
    neighborhoods).  On such a map the kernel and the scalar reference loop
    must emit the items the reference emits on the full map, and the
    kernel the same edge plan as on the full map."""

    def plan_arrays(plan):
        return (
            plan.edge_item.tolist(), plan.edge_node.tolist(),
            plan.edge_cost.tolist(), plan.edge_demand.tolist(),
        )

    exercised = restricted = 0
    for spec in SPECS:
        inp = build_inputs(spec)
        nbhd = NeighborhoodIndex(
            inp.network.graph, inp.radius, cloudlets=inp.network.cloudlets
        )
        domain = set().union(*(nbhd.closed_cloudlets(v) for v in inp.primary_placement))
        local = {v: c for v, c in inp.residuals.items() if v in domain}
        restricted += len(local) < len(inp.residuals)

        legacy = _tuples(
            generate_items_scalar(
                inp.request, inp.primary_placement, nbhd, inp.residuals,
                inp.item_config,
            )
        )
        assert _tuples(
            generate_items_scalar(
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
        assert _tuples(items) == legacy, spec
        assert plan is not None and full_plan is not None
        assert plan_arrays(plan) == plan_arrays(full_plan), spec
        if legacy:
            exercised += 1
    assert exercised >= 25
    assert restricted >= 15  # the domain must actually drop cloudlets


def test_plan_matches_statics_edge_universe():
    """The generation-time ItemPlan equals the edge arrays _ProblemStatics
    would derive from the items (the engine adopts the plan verbatim)."""
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


def _solve_signature(problem, algorithm=MatchingHeuristic):
    result = algorithm(record_trace=True).solve(problem)
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


def test_solves_bit_identical_kernels_vs_legacy():
    """End to end: same placements, same reliability and paper-cost floats,
    same per-round trace, for kernel items + edge plan + incremental
    rounds and for scalar reference items solved by the rebuild reference
    loop."""
    for spec in SPECS:
        with_kernels = _solve_signature(build_instance(spec))
        reference = _solve_signature(_reference_problem(spec), RebuildHeuristic)
        assert with_kernels == reference, spec


def test_arena_on_off_bit_identical():
    """Back-to-back solves of one problem share no state: each equals the
    rebuild reference loop, which rebuilds every round from the ledger."""
    for spec in SPECS[:12]:
        problem = build_instance(spec)
        base = _solve_signature(problem, RebuildHeuristic)
        assert _solve_signature(problem) == base
        assert _solve_signature(problem) == base  # the same problem again
