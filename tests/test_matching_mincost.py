"""Tests for min-cost maximum matching with forbidden edges."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.mincost import (
    BACKENDS,
    MatchEdge,
    matching_cardinality_and_cost,
    min_cost_max_matching,
)
from repro.util.errors import ValidationError


def brute_force_mcmm(n_rows, n_cols, edges):
    """Exhaustive min-cost maximum matching for tiny graphs."""
    best_card, best_cost = 0, 0.0
    edge_list = list(edges.items())
    # No matching is larger than the smaller side the edges touch, so the
    # search starts there instead of at every edge subset.
    rows = {r for (r, _c) in edges}
    cols = {c for (_r, c) in edges}
    for size in range(min(len(rows), len(cols)), -1, -1):
        found = False
        best_for_size = np.inf
        for subset in itertools.combinations(edge_list, size):
            rows = [r for (r, _c), _ in subset]
            cols = [c for (_r, c), _ in subset]
            if len(set(rows)) == len(rows) and len(set(cols)) == len(cols):
                found = True
                best_for_size = min(best_for_size, sum(cost for _, cost in subset))
        if found:
            best_card, best_cost = size, best_for_size
            break
    return best_card, best_cost


class TestBasics:
    def test_simple_matching(self):
        edges = {(0, 0): 1.0, (1, 1): 2.0}
        matching = min_cost_max_matching(2, 2, edges)
        assert matching_cardinality_and_cost(matching) == (2, 3.0)

    def test_prefers_cardinality_over_cost(self):
        # matching both edges costs 100; a single cheap edge only 1 --
        # maximum matching must still take two.
        edges = {(0, 0): 1.0, (0, 1): 50.0, (1, 0): 50.0}
        matching = min_cost_max_matching(2, 2, edges)
        card, cost = matching_cardinality_and_cost(matching)
        assert card == 2
        assert cost == pytest.approx(100.0)

    def test_min_cost_among_max(self):
        edges = {(0, 0): 5.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 5.0}
        matching = min_cost_max_matching(2, 2, edges)
        card, cost = matching_cardinality_and_cost(matching)
        assert (card, cost) == (2, 2.0)

    def test_forbidden_edges_respected(self):
        edges = {(0, 0): 1.0}  # (1, 1) absent
        matching = min_cost_max_matching(2, 2, edges)
        assert matching_cardinality_and_cost(matching)[0] == 1
        assert matching[0] == MatchEdge(0, 0, 1.0)

    def test_empty_graph(self):
        assert min_cost_max_matching(3, 3, {}) == []
        assert min_cost_max_matching(0, 3, {}) == []

    def test_negative_costs(self):
        edges = {(0, 0): -4.0, (0, 1): -1.0}
        matching = min_cost_max_matching(1, 2, edges)
        assert matching[0].cost == -4.0

    def test_rectangular_more_items_than_bins(self):
        edges = {(0, c): float(c) for c in range(5)}
        matching = min_cost_max_matching(1, 5, edges)
        assert matching_cardinality_and_cost(matching) == (1, 0.0)

    def test_sorted_by_row(self):
        edges = {(2, 0): 1.0, (0, 1): 1.0, (1, 2): 1.0}
        matching = min_cost_max_matching(3, 3, edges)
        assert [e.row for e in matching] == [0, 1, 2]


class TestValidation:
    def test_unknown_backend(self):
        for backend in ("bogus", "own"):
            with pytest.raises(ValidationError):
                min_cost_max_matching(1, 1, {(0, 0): 1.0}, backend=backend)

    def test_out_of_range_edge(self):
        with pytest.raises(ValidationError):
            min_cost_max_matching(1, 1, {(0, 5): 1.0})

    def test_non_finite_cost(self):
        with pytest.raises(ValidationError):
            min_cost_max_matching(1, 1, {(0, 0): float("inf")})

    def test_negative_dimensions(self):
        with pytest.raises(ValidationError):
            min_cost_max_matching(-1, 2, {})


class TestBackendsAgree:
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        density=st.floats(0.2, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_backends_equal_brute_force(self, n, m, seed, density):
        rng = np.random.default_rng(seed)
        edges = {
            (r, c): float(rng.uniform(-10, 10))
            for r in range(n)
            for c in range(m)
            if rng.uniform() < density
        }
        reference = brute_force_mcmm(n, m, edges)
        for backend in BACKENDS:
            matching = min_cost_max_matching(n, m, edges, backend=backend)
            card, cost = matching_cardinality_and_cost(matching)
            assert card == reference[0]
            if card:
                assert cost == pytest.approx(reference[1])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matching_is_valid(self, backend):
        rng = np.random.default_rng(3)
        edges = {
            (r, c): float(rng.uniform(0, 5))
            for r in range(8)
            for c in range(12)
            if rng.uniform() < 0.4
        }
        matching = min_cost_max_matching(8, 12, edges, backend=backend)
        rows = [e.row for e in matching]
        cols = [e.col for e in matching]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)
        assert all((e.row, e.col) in edges for e in matching)
