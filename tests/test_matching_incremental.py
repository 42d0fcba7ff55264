"""Differential suite: the incremental round engine is exactly the rebuild.

The incremental engine of :mod:`repro.matching.incremental` claims
*bit-for-bit* equivalence with the full-rebuild round loop kept in
``tests/reference/rebuild.py`` -- not statistical closeness.  These tests
hold it to that claim on the canonical 50-instance stream of
:func:`repro.experiments.instances.differential_suite` (topology family,
SFC length, radius, and residual scale all vary), comparing:

* the final placements, placement by placement (``==`` on tuples);
* the paper-cost total ``c(S)`` reported in the result metadata;
* the per-round trace -- what was placed, the round's paper cost, and the
  achieved reliability after the round -- via ``record_trace=True``.

The array-based matcher entry point is checked against the mapping-based
one directly on random bipartite graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.heuristic import MatchingHeuristic
from repro.experiments.instances import differential_suite
from repro.matching.mincost import (
    MatchingWorkspace,
    matching_cardinality_and_cost,
    min_cost_max_matching,
    min_cost_max_matching_arrays,
)
from tests.reference.rebuild import RebuildHeuristic

SPECS = list(differential_suite(50))
SPEC_IDS = [f"{s.family}-L{s.chain_length}-l{s.radius}-seed{s.seed}" for s in SPECS]


def _solve_both(problem, **kwargs):
    incremental = MatchingHeuristic(record_trace=True, **kwargs)
    rebuild = RebuildHeuristic(record_trace=True, **kwargs)
    return incremental.solve(problem), rebuild.solve(problem)


def _assert_identical(inc, reb, context):
    if "early_exit" in inc.meta or "no_items" in inc.meta:
        # Degenerate instances (baseline meets rho_j, or no generable item)
        # never reach an engine; both paths must report the same degenerate
        # result.  48 of the 50 canonical specs do exercise the engines.
        assert inc.meta == reb.meta, context
        assert inc.solution.placements == () == reb.solution.placements, context
        assert inc.reliability == reb.reliability, context
        return
    assert inc.solution.placements == reb.solution.placements, context
    assert inc.meta["rounds"] == reb.meta["rounds"], context
    assert inc.meta["paper_cost_total"] == reb.meta["paper_cost_total"], context
    assert inc.reliability == reb.reliability, context
    inc_trace, reb_trace = inc.meta["round_trace"], reb.meta["round_trace"]
    assert len(inc_trace) == len(reb_trace), context
    for round_index, (a, b) in enumerate(zip(inc_trace, reb_trace)):
        assert a["placed"] == b["placed"], (context, round_index)
        assert a["paper_cost"] == b["paper_cost"], (context, round_index)
        assert a["reliability"] == b["reliability"], (context, round_index)


class TestDifferentialSuite:
    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_engines_identical(self, spec, instance_factory):
        problem = instance_factory(spec)
        inc, reb = _solve_both(problem)
        _assert_identical(inc, reb, spec)

    @pytest.mark.parametrize("spec", SPECS[::5], ids=SPEC_IDS[::5])
    def test_engines_identical_max_fill(self, spec, instance_factory):
        """No expectation stop: the engines pack until no edge remains."""
        problem = instance_factory(spec)
        inc, reb = _solve_both(problem, stop_at_expectation=False)
        _assert_identical(inc, reb, spec)


class TestArrayMatcherEquivalence:
    """min_cost_max_matching_arrays == min_cost_max_matching, same inputs."""

    def _random_graph(self, rng, n_rows, n_cols, density):
        edges = {}
        order = []  # insertion order for the array form
        for r in range(n_rows):
            for c in range(n_cols):
                if rng.random() < density:
                    cost = float(rng.uniform(0.1, 5.0))
                    edges[(r, c)] = cost
                    order.append((r, c, cost))
        return edges, order

    @pytest.mark.parametrize("backend", ["scipy"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_mapping_entry_point(self, backend, seed):
        rng = np.random.default_rng(seed)
        n_rows = int(rng.integers(1, 8))
        n_cols = int(rng.integers(1, 10))
        edges, order = self._random_graph(rng, n_rows, n_cols, density=0.4)
        if not edges:
            return
        reference = min_cost_max_matching(n_rows, n_cols, edges, backend=backend)
        workspace = MatchingWorkspace()
        arrays = min_cost_max_matching_arrays(
            n_rows,
            n_cols,
            [r for r, _, _ in order],
            [c for _, c, _ in order],
            [cost for _, _, cost in order],
            backend=backend,
            workspace=workspace,
        )
        assert matching_cardinality_and_cost(arrays) == pytest.approx(
            matching_cardinality_and_cost(reference)
        )
        assert {(e.row, e.col) for e in arrays} <= set(edges)

    def test_workspace_reuse_across_shrinking_rounds(self):
        """One workspace across differently-sized calls never leaks state."""
        workspace = MatchingWorkspace()
        for size_rows, size_cols in [(6, 9), (4, 5), (2, 3), (5, 8)]:
            rng = np.random.default_rng(size_rows * 31 + size_cols)
            edges, order = self._random_graph(rng, size_rows, size_cols, 0.5)
            if not edges:
                continue
            fresh = min_cost_max_matching_arrays(
                size_rows,
                size_cols,
                [r for r, _, _ in order],
                [c for _, c, _ in order],
                [cost for _, _, cost in order],
            )
            reused = min_cost_max_matching_arrays(
                size_rows,
                size_cols,
                [r for r, _, _ in order],
                [c for _, c, _ in order],
                [cost for _, _, cost in order],
                workspace=workspace,
            )
            assert fresh == reused

    def test_negative_costs_use_abs_pad(self):
        """The pad value falls back to the abs-sum for negative costs."""
        matching = min_cost_max_matching_arrays(
            2, 2, [0, 0, 1], [0, 1, 1], [-2.0, 1.0, -3.0]
        )
        assert {(e.row, e.col) for e in matching} == {(0, 0), (1, 1)}
        assert matching_cardinality_and_cost(matching)[1] == pytest.approx(-5.0)

    def test_empty_inputs(self):
        assert min_cost_max_matching_arrays(0, 5, [], [], []) == []
        assert min_cost_max_matching_arrays(5, 0, [], [], []) == []
        assert min_cost_max_matching_arrays(3, 3, [], [], []) == []
