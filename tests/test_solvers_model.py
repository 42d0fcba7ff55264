"""Tests for the sparse assignment-model builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import AugmentationProblem
from repro.solvers.model import build_model
from repro.util.errors import ValidationError
from tests.reference.exact import assignments_from_values


class TestBuildModel:
    def test_variable_keys_cover_items_and_bins(self, small_problem):
        model = build_model(small_problem)
        expected = sum(len(it.bins) for it in small_problem.items)
        assert model.num_vars == expected
        keys = set(model.var_keys)
        for it in small_problem.items:
            for u in it.bins:
                assert (it.position, it.k, u) in keys

    def test_objective_is_negated_gain(self, small_problem):
        model = build_model(small_problem)
        item_gain = {(it.position, it.k): it.gain for it in small_problem.items}
        for col, (pos, k, _u) in enumerate(model.var_keys):
            assert model.objective[col] == pytest.approx(-item_gain[(pos, k)])

    def test_item_rows_cap_at_one(self, small_problem):
        model = build_model(small_problem)
        a = model.a_ub.toarray()
        for row in model.item_rows:
            assert model.b_ub[row] == 1.0
            # item rows carry exactly one 1 per allowed bin of that item
            assert set(np.unique(a[row])) <= {0.0, 1.0}

    def test_capacity_rows_use_demands(self, small_problem):
        model = build_model(small_problem)
        a = model.a_ub.toarray()
        demands = {(it.position, it.k): it.demand for it in small_problem.items}
        for row in model.capacity_rows:
            for col, (pos, k, _u) in enumerate(model.var_keys):
                coefficient = a[row, col]
                assert coefficient in (0.0, demands[(pos, k)])

    def test_capacity_rhs_matches_residuals(self, small_problem):
        model = build_model(small_problem)
        a = model.a_ub.toarray()
        # every capacity row's rhs must be the residual of the bin whose
        # variables it covers
        for row in model.capacity_rows:
            cols = np.nonzero(a[row])[0]
            bins = {model.var_keys[c][2] for c in cols}
            assert len(bins) == 1
            (u,) = bins
            assert model.b_ub[row] == small_problem.residuals[u]

    def test_every_column_in_exactly_one_item_row(self, small_problem):
        model = build_model(small_problem)
        a = model.a_ub.toarray()
        item_block = a[list(model.item_rows)]
        assert (item_block.sum(axis=0) == 1.0).all()

    def test_empty_problem_rejected(self, line_network, small_request):
        problem = AugmentationProblem.build(
            line_network,
            small_request,
            [1, 2, 3],
            residuals={v: 0.0 for v in range(5)},
        )
        assert problem.num_items == 0
        with pytest.raises(ValidationError):
            build_model(problem)

    def test_column_of(self, small_problem):
        model = build_model(small_problem)
        key = model.var_keys[3]
        assert model.column_of(key) == 3
        with pytest.raises(KeyError):
            model.column_of((99, 99, 99))


class TestAssignmentsFromValues:
    def test_decodes_selected(self, small_problem):
        model = build_model(small_problem)
        values = np.zeros(model.num_vars)
        values[0] = 1.0
        pos, k, u = model.var_keys[0]
        assert assignments_from_values(model, values) == {(pos, k): u}

    def test_threshold(self, small_problem):
        model = build_model(small_problem)
        values = np.full(model.num_vars, 0.4)
        assert assignments_from_values(model, values) == {}

    def test_largest_value_wins_on_conflict(self, small_problem):
        model = build_model(small_problem)
        # find two columns of the same item
        by_item = {}
        for col, (pos, k, u) in enumerate(model.var_keys):
            by_item.setdefault((pos, k), []).append((col, u))
        (pos, k), cols = next(
            (key, cols) for key, cols in by_item.items() if len(cols) >= 2
        )
        values = np.zeros(model.num_vars)
        values[cols[0][0]] = 0.7
        values[cols[1][0]] = 0.9
        assert assignments_from_values(model, values)[(pos, k)] == cols[1][1]
