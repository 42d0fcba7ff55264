"""The warm backend's round builder against the NumPy one, and the statics.

* :meth:`RoundState.build_csr` (per-node item lists pruned in place, the
  warm solver's row-major CSR) and :meth:`RoundState.build_edges` (the
  flattened NumPy universe the dense and sparse backends read) describe
  the same round graph after any sequence of ``allocate`` / ``retire`` /
  ``apply_round`` deltas, on solo and wave states, whichever is built
  first: the same rows, the same columns, the same edges in row-major
  order, and the same stalled problems.
* The edge-cost sum is ``np.sum`` over the item-major float64 cost array,
  computed without flattening the universe.
* Nothing cached on a problem keeps it alive: after a wave solve and a
  dense solve, every problem is collected.
"""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
from hypothesis import assume, given, settings as hsettings
from hypothesis import strategies as st

from repro.algorithms.heuristic import MatchingHeuristic
from repro.experiments.instances import build_instance, differential_suite
from repro.kernels.items import plan_of
from repro.matching.incremental import RoundState, edge_cost_sum
from repro.service.batch import SERVICE_COST_CAP
from tests.test_heuristic_wave import disjoint_problems

STEP = st.tuples(
    st.sampled_from(["allocate", "empty", "near", "retire", "apply"]),
    st.integers(min_value=0, max_value=2**20),
    st.floats(min_value=0.0, max_value=1.0),
)


def _csr_edges(rows, indptr, edge_cols, edge_costs):
    return [
        (r, edge_cols[p], edge_costs[p])
        for r in range(len(rows))
        for p in range(indptr[r], indptr[r + 1])
    ]


def _same_round(state, warm_first):
    """Build both representations of the current round and compare them."""
    if warm_first:
        csr = state.build_csr()
        csr_stalled = state.stalled()
        dense = state.build_edges()
        dense_stalled = state.stalled()
    else:
        dense = state.build_edges()
        dense_stalled = state.stalled()
        csr = state.build_csr()
        csr_stalled = state.stalled()
    rows, cols, indptr, edge_cols, edge_costs = csr
    d_rows, d_cols, d_erow, d_ecol, d_costs = dense
    assert rows == d_rows
    assert cols == d_cols.tolist()
    assert len(indptr) == len(rows) + 1
    dense_edges = sorted(zip(d_erow.tolist(), d_ecol.tolist(), d_costs))
    # Row-major with ascending columns: equal to the sorted dense edge set.
    assert _csr_edges(rows, indptr, edge_cols, edge_costs) == dense_edges
    assert csr_stalled == dense_stalled


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=1, max_value=4),
    radius=st.integers(min_value=0, max_value=1),
    scale=st.floats(min_value=0.05, max_value=1.0),
    steps=st.lists(STEP, max_size=30),
    first_check=st.integers(min_value=0, max_value=6),
    warm_first=st.booleans(),
)
@hsettings(max_examples=80, deadline=None)
def test_csr_and_build_edges_describe_the_same_round(
    seed, count, radius, scale, steps, first_check, warm_first
):
    problems, residuals = disjoint_problems(seed, count, radius, scale)
    problems = [p for p in problems if p.items]
    assume(problems)
    state = RoundState(problems)
    nodes = list(residuals)
    owners = state.owners or [0] * len(state.items)
    alive = set(range(len(state.items)))
    for step, (kind, pick, frac) in enumerate(steps):
        if step >= first_check:
            _same_round(state, warm_first)
        rng = random.Random(pick)
        if kind in ("allocate", "empty"):
            v = nodes[pick % len(nodes)]
            residual = state.residual(v)
            if residual > 0.0:
                # A part of the residual drops the node below some demands
                # first; all of it takes the node out of the rows.
                state.allocate(v, residual * frac if kind == "allocate" else residual)
        elif kind == "near":
            # The fit test's boundary: the node's residual lands within two
            # units at or below the demand of an item it could still hold.
            v = nodes[pick % len(nodes)]
            residual = state.residual(v)
            demands = sorted(
                {item.demand for item in state.items if v in item.bins and item.demand < residual}
            )
            if demands:
                demand = demands[pick % len(demands)]
                state.allocate(v, min(residual, residual - demand + 2.0 * frac))
        elif kind == "retire":
            if state.active:
                member = state.active[pick % len(state.active)]
                state.retire(member)
                alive -= {g for g in alive if owners[g] == member}
        elif alive:
            matched = sorted(rng.sample(sorted(alive), max(1, int(len(alive) * frac))))
            state.apply_round(matched)
            alive -= set(matched)
    _same_round(state, warm_first)


def test_cost_sum_is_the_item_major_numpy_sum_without_the_universe():
    checked = 0
    for spec in differential_suite(40):
        problem = build_instance(spec)
        plan = plan_of(problem)
        assert plan is not None and plan._arrays is None
        cost_sum = edge_cost_sum(problem)
        # Read without flattening the universe ...
        assert plan._arrays is None
        # ... and equal to the sum over the flattened cost array, bit for bit.
        assert cost_sum.hex() == float(np.sum(plan.edge_cost)).hex()
        checked += bool(problem.items)
    assert checked >= 20


def test_solves_leave_no_problem_alive():
    """The statics and plans are keyed weakly by their problem; a value
    that held its key would keep every problem (and its network slice)
    alive for the life of the process."""
    problems, _ = disjoint_problems(5, 4, 1, 0.5)
    problems = [p for p in problems if p.items]
    assert len(problems) > 1
    refs = [weakref.ref(p) for p in problems]
    heuristic = MatchingHeuristic(backend="warm", universe_cost_sum=SERVICE_COST_CAP)
    assert any(outcome.rounds for outcome in heuristic.solve_wave(problems))
    # The dense backend's flattened universe, and a solo warm solve.
    MatchingHeuristic(backend="scipy").solve(problems[0])
    MatchingHeuristic(backend="warm").solve(problems[1])
    del problems
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
