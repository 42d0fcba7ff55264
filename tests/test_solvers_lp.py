"""Tests for the LP relaxation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.settings import ExperimentSettings
from repro.experiments.workload import make_trial
from repro.solvers.lp import lp_value_of_keys, solve_lp
from repro.solvers.model import build_model


class TestSolveLP:
    def test_values_in_unit_box(self, small_problem):
        model = build_model(small_problem)
        lp = solve_lp(model)
        assert ((lp.values >= 0.0) & (lp.values <= 1.0)).all()

    def test_objective_consistent_with_values(self, small_problem):
        model = build_model(small_problem)
        lp = solve_lp(model)
        assert lp.objective == pytest.approx(float(model.objective @ lp.values), abs=1e-6)

    def test_total_gain_sign(self, small_problem):
        model = build_model(small_problem)
        lp = solve_lp(model)
        assert lp.total_gain >= 0.0
        assert lp.total_gain == pytest.approx(-lp.objective)

    def test_respects_item_rows(self, small_problem):
        model = build_model(small_problem)
        lp = solve_lp(model)
        per_item: dict[tuple[int, int], float] = {}
        for col, (pos, k, _u) in enumerate(model.var_keys):
            per_item[(pos, k)] = per_item.get((pos, k), 0.0) + lp.values[col]
        assert all(total <= 1.0 + 1e-6 for total in per_item.values())

    def test_respects_capacity_rows(self, small_problem):
        model = build_model(small_problem)
        lp = solve_lp(model)
        loads: dict[int, float] = {}
        demands = {(it.position, it.k): it.demand for it in small_problem.items}
        for col, (pos, k, u) in enumerate(model.var_keys):
            loads[u] = loads.get(u, 0.0) + demands[(pos, k)] * lp.values[col]
        for u, load in loads.items():
            assert load <= small_problem.residuals[u] + 1e-6

    def test_upper_bounds_ilp(self, small_problem):
        """LP gain >= ILP gain (relaxation bound direction)."""
        from tests.reference.exact import solve_ilp

        model = build_model(small_problem)
        lp = solve_lp(model)
        ilp = solve_ilp(model)
        assert lp.total_gain >= ilp.total_gain - 1e-9

    def test_fractional_by_item_groups_positive_mass(self, small_problem):
        model = build_model(small_problem)
        lp = solve_lp(model)
        grouped = lp.fractional_by_item(model)
        for (pos, k), options in grouped.items():
            assert all(v > 0 for _u, v in options)
            bins = {u for u, _v in options}
            item = small_problem.item(pos, k)
            assert bins <= set(item.bins)

    def test_lp_value_of_keys(self, small_problem):
        model = build_model(small_problem)
        lp = solve_lp(model)
        mapping = lp_value_of_keys(model, lp)
        assert len(mapping) == model.num_vars
        assert mapping[model.var_keys[0]] == pytest.approx(float(lp.values[0]))

    def test_abundant_capacity_saturates_items(self, line_network, small_request):
        """With capacity for everything, the LP selects every item fully."""
        from repro.core.problem import AugmentationProblem

        problem = AugmentationProblem.build(
            line_network,
            small_request,
            [1, 2, 3],
            residuals={v: 1e9 for v in range(5)},
        )
        model = build_model(problem)
        lp = solve_lp(model)
        per_item: dict[tuple[int, int], float] = {}
        for col, (pos, k, _u) in enumerate(model.var_keys):
            per_item[(pos, k)] = per_item.get((pos, k), 0.0) + lp.values[col]
        for total in per_item.values():
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_realistic_instance(self):
        settings = ExperimentSettings(num_aps=40, cloudlet_fraction=0.2, trials=1)
        problem = make_trial(settings, rng=5).problem
        if problem.num_items == 0:
            pytest.skip("degenerate draw")
        model = build_model(problem)
        lp = solve_lp(model)
        assert np.isfinite(lp.objective)
