"""The sparse/warm matching backends: exactness, selection, and big-M limits.

Covers the matching-core additions of :mod:`repro.matching.sparse` and
:mod:`repro.matching.warmstart` behind the :mod:`repro.matching.mincost`
interface:

* property tests asserting **identical cardinality and total cost** across
  all three backends on seeded random bipartite graphs, including the
  degenerate shapes (no edges, a single edge, isolated right nodes,
  duplicate/tie-heavy costs, zero-cost edges);
* big-M hardening regressions for ``_padded_matrix`` and both entry
  points: float overflow and precision saturation must raise, never
  silently mis-rank cardinality;
* backend resolution/selection plumbing (unknown names, the ``auto``
  cutoff);
* the warm solver's dual-sign regression: zero-started column potentials
  are required for the *unbalanced* assignment LP (free columns need
  ``v <= 0``) -- a cost-biased init keeps cardinality but loses cost
  optimality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.mincost import (
    BACKENDS,
    SPARSE_CUTOFF,
    _padded_matrix,
    matching_cardinality_and_cost,
    min_cost_max_matching,
    min_cost_max_matching_arrays,
    resolve_backend,
    select_backend,
)
from repro.matching.sparse import sparse_min_cost_max_matching
from repro.matching.warmstart import DualReusingSolver, warm_min_cost_max_matching
from repro.util.errors import ValidationError

from tests.test_matching_mincost import brute_force_mcmm


def _assert_valid(matching, n_rows, n_cols, edges):
    rows = [e.row for e in matching]
    cols = [e.col for e in matching]
    assert len(set(rows)) == len(rows)
    assert len(set(cols)) == len(cols)
    for e in matching:
        assert 0 <= e.row < n_rows and 0 <= e.col < n_cols
        assert edges[(e.row, e.col)] == e.cost  # original float, by identity


class TestAllBackendsAgree:
    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        density=st.floats(0.2, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_against_brute_force(self, n, m, seed, density):
        rng = np.random.default_rng(seed)
        edges = {
            (r, c): float(rng.uniform(-10, 10))
            for r in range(n)
            for c in range(m)
            if rng.uniform() < density
        }
        if not edges:
            for backend in BACKENDS:
                assert min_cost_max_matching(n, m, edges, backend=backend) == []
            return
        reference = brute_force_mcmm(n, m, edges)
        for backend in BACKENDS:
            matching = min_cost_max_matching(n, m, edges, backend=backend)
            _assert_valid(matching, n, m, edges)
            card, cost = matching_cardinality_and_cost(matching)
            assert card == reference[0], backend
            assert cost == pytest.approx(reference[1]), backend

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_tie_heavy_duplicate_costs(self, seed):
        """Rampant ties (Algorithm 2's per-item-constant costs) never break
        the cardinality/cost agreement, only permute the pairing."""
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        palette = [-2.0, 0.0, 0.5, 0.5, 1.0, 3.0]
        edges = {
            (r, c): float(rng.choice(palette))
            for r in range(n)
            for c in range(m)
            if rng.uniform() < 0.5
        }
        if not edges:
            return
        summaries = set()
        for backend in BACKENDS:
            matching = min_cost_max_matching(n, m, edges, backend=backend)
            _assert_valid(matching, n, m, edges)
            card, cost = matching_cardinality_and_cost(matching)
            summaries.add((card, round(cost, 9)))
        assert len(summaries) == 1, summaries

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_edge(self, backend):
        matching = min_cost_max_matching(3, 4, {(1, 2): 7.5}, backend=backend)
        assert [(e.row, e.col, e.cost) for e in matching] == [(1, 2, 7.5)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_edges(self, backend):
        assert min_cost_max_matching(3, 4, {}, backend=backend) == []
        assert min_cost_max_matching(0, 4, {}, backend=backend) == []
        assert min_cost_max_matching(3, 0, {}, backend=backend) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_isolated_right_nodes(self, backend):
        """Columns without any incident edge must simply stay unmatched."""
        edges = {(0, 0): 2.0, (1, 0): 1.0, (2, 4): 3.0}  # cols 1..3 isolated
        matching = min_cost_max_matching(3, 5, edges, backend=backend)
        card, cost = matching_cardinality_and_cost(matching)
        assert (card, cost) == (2, 4.0)
        assert {e.col for e in matching} == {0, 4}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_cost_edges_are_real(self, backend):
        """A zero-cost edge is still an edge (the sparse backend's stored-
        zero hazard): cardinality must count it."""
        edges = {(0, 0): 0.0, (1, 1): 0.0, (1, 0): 5.0}
        matching = min_cost_max_matching(2, 2, edges, backend=backend)
        assert matching_cardinality_and_cost(matching) == (2, 0.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cardinality_beats_cost(self, backend):
        edges = {(0, 0): 1.0, (0, 1): 50.0, (1, 0): 50.0}
        matching = min_cost_max_matching(2, 2, edges, backend=backend)
        assert matching_cardinality_and_cost(matching)[0] == 2

    def test_arrays_entry_point_agrees(self):
        rng = np.random.default_rng(19)
        n, m = 7, 11
        triples = [
            (r, c, float(rng.uniform(-3, 3)))
            for r in range(n)
            for c in range(m)
            if rng.uniform() < 0.4
        ]
        edges = {(r, c): cost for r, c, cost in triples}
        summaries = set()
        for backend in BACKENDS:
            matching = min_cost_max_matching_arrays(
                n,
                m,
                [t[0] for t in triples],
                [t[1] for t in triples],
                [t[2] for t in triples],
                backend=backend,
            )
            card, cost = matching_cardinality_and_cost(matching)
            summaries.add((card, round(cost, 9)))
        assert len(summaries) == 1, summaries


class TestBigMHardening:
    """S2: ``B`` must strictly dominate the cost sum *as a float*."""

    def test_overflow_raises(self):
        edges = {(0, 0): 1e308, (0, 1): 1e308}  # sum overflows to inf
        with pytest.raises(ValidationError):
            min_cost_max_matching(1, 2, edges, backend="scipy")

    def test_precision_saturation_raises(self):
        # 2**53: adding 1.0 is a no-op, so B == sum and dominance is lost.
        edges = {(0, 0): float(2**53)}
        with pytest.raises(ValidationError):
            min_cost_max_matching(1, 1, edges, backend="scipy")

    def test_arrays_entry_point_raises_too(self):
        with pytest.raises(ValidationError):
            min_cost_max_matching_arrays(1, 1, [0], [0], [float(2**53)])
        with pytest.raises(ValidationError):
            min_cost_max_matching_arrays(1, 2, [0, 0], [0, 1], [1e308, 1e308])

    @pytest.mark.parametrize("backend", ["sparse", "warm"])
    def test_sparse_backends_raise_too(self, backend):
        with pytest.raises(ValidationError):
            min_cost_max_matching(1, 1, {(0, 0): float(2**53)}, backend=backend)

    def test_padded_matrix_zero_edges(self):
        matrix, big = _padded_matrix(2, 3, {})
        assert big == 1.0
        assert matrix.shape == (5, 5)
        assert (matrix[2:, 3:] == 0.0).all()
        assert (matrix[:2, :] == 1.0).all()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_padded_matrix_one_side_empty(self, shape):
        n_rows, n_cols = shape
        matrix, big = _padded_matrix(n_rows, n_cols, {})
        size = n_rows + n_cols
        assert matrix.shape == (size, size)
        assert (matrix[n_rows:, n_cols:] == 0.0).all()

    def test_padded_matrix_saturation(self):
        with pytest.raises(ValidationError):
            _padded_matrix(1, 1, {(0, 0): float(2**53)})

    def test_just_below_saturation_is_fine(self):
        matching = min_cost_max_matching(1, 1, {(0, 0): 1e15}, backend="scipy")
        assert matching_cardinality_and_cost(matching) == (1, 1e15)


class TestBackendSelection:
    def test_resolve_aliases_and_empty(self):
        assert resolve_backend(None) == "auto"
        assert resolve_backend("") == "auto"
        assert resolve_backend("auto") == "auto"
        for backend in BACKENDS:
            assert resolve_backend(backend) == backend

    def test_resolve_unknown_raises(self):
        for backend in ("bogus", "own", "dense"):
            with pytest.raises(ValidationError):
                resolve_backend(backend)

    def test_select_cutoff(self):
        assert select_backend("auto", 10, SPARSE_CUTOFF - 11) == "scipy"
        assert select_backend("auto", 10, SPARSE_CUTOFF - 10) == "sparse"
        assert select_backend("warm", 10, 10_000) == "warm"
        assert select_backend("scipy", 10, 10_000) == "scipy"

    def test_auto_matches_dense_below_cutoff(self):
        rng = np.random.default_rng(5)
        edges = {
            (r, c): float(rng.uniform(0, 4))
            for r in range(6)
            for c in range(9)
            if rng.uniform() < 0.5
        }
        assert min_cost_max_matching(6, 9, edges, backend="auto") == (
            min_cost_max_matching(6, 9, edges, backend="scipy")
        )

    def test_auto_goes_sparse_above_cutoff(self):
        rng = np.random.default_rng(6)
        n, m = 8, SPARSE_CUTOFF
        edges = {
            (r, c): float(rng.uniform(0, 4))
            for r in range(n)
            for c in range(m)
            if rng.uniform() < 0.05
        }
        via_auto = min_cost_max_matching(n, m, edges, backend="auto")
        via_sparse = min_cost_max_matching(n, m, edges, backend="sparse")
        assert via_auto == via_sparse


def _csr(n_rows, edges):
    """``(indptr, edge_cols, edge_costs)`` of ``(row, col, cost)`` triples,
    row-major with ascending columns: the warm solver's round layout."""
    edges = sorted(edges)
    indptr = [sum(1 for e in edges if e[0] < r) for r in range(n_rows + 1)]
    return indptr, [e[1] for e in edges], [e[2] for e in edges]


class TestWarmSolver:
    def test_negative_round_costs_rejected(self):
        solver = DualReusingSolver(2, 2, universe_cost_sum=10.0)
        with pytest.raises(ValidationError, match="non-negative"):
            solver.solve_round([0, 1], [0, 1], *_csr(2, [(0, 0, -1.0)]))

    def test_saturated_universe_sum_rejected(self):
        with pytest.raises(ValidationError):
            DualReusingSolver(1, 1, universe_cost_sum=float(2**53))
        with pytest.raises(ValidationError):
            DualReusingSolver(1, 1, universe_cost_sum=float("inf"))

    def test_negative_spaces_rejected(self):
        with pytest.raises(ValidationError):
            DualReusingSolver(-1, 1, universe_cost_sum=1.0)

    def test_unbalanced_dual_sign_regression(self):
        """The 1x3 case that breaks any positive free-column potential
        (e.g. JV column reduction): the cheapest column must win."""
        edges = {(0, 0): 1.0, (0, 1): -2.0, (0, 2): 0.0}
        matching = min_cost_max_matching(1, 3, edges, backend="warm")
        assert [(e.row, e.col, e.cost) for e in matching] == [(0, 1, -2.0)]

    def test_duals_persist_across_shrinking_rounds(self):
        """A two-round shrinking sequence stays exact while reusing duals."""
        solver = DualReusingSolver(3, 5, universe_cost_sum=30.0)
        # round 0: all three rows, items 0..4
        edges0 = [
            (0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0), (1, 2, 4.0),
            (2, 3, 2.0), (2, 4, 1.0),
        ]
        round0 = solver.solve_round([0, 1, 2], list(range(5)), *_csr(3, edges0))
        assert len(round0) == 3
        # round 1: items 0, 1, 4 matched and gone; cols compact to [2, 3]
        edges1 = [(1, 0, 4.0), (2, 1, 2.0)]
        round1 = solver.solve_round([0, 1, 2], [2, 3], *_csr(3, edges1))
        assert sorted((r, c) for r, c, _ in round1) == [(1, 0), (2, 1)]
        assert sum(cost for _, _, cost in round1) == pytest.approx(6.0)

    def test_cold_entry_negative_shift_exact(self):
        edges = {(0, 0): -5.0, (0, 1): -1.0, (1, 0): -1.0, (1, 1): -5.0}
        triples = list(edges.items())
        matching = warm_min_cost_max_matching(
            2,
            2,
            np.array([k[0] for k, _ in triples]),
            np.array([k[1] for k, _ in triples]),
            np.array([cost for _, cost in triples]),
        )
        assert sorted(matching) == [(0, 0, -5.0), (1, 1, -5.0)]


class TestSparseBackendInternals:
    def test_decoded_costs_are_original_floats(self):
        """The positivity shift never round-trips through arithmetic."""
        costs = [0.1, 0.2 + 1e-16, -0.30000000000000004]
        matching = sparse_min_cost_max_matching(
            3, 3, np.array([0, 1, 2]), np.array([0, 1, 2]), np.array(costs)
        )
        assert [cost for _, _, cost in matching] == costs

    def test_rows_all_dummy_when_columns_scarce(self):
        """More rows than columns: extras take their dummies, exactly
        max-cardinality on the real edges."""
        matching = sparse_min_cost_max_matching(
            4, 1, np.array([0, 1, 2, 3]), np.array([0, 0, 0, 0]),
            np.array([3.0, 1.0, 2.0, 4.0]),
        )
        assert matching == [(1, 0, 1.0)]
