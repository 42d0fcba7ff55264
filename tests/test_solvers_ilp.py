"""Tests for the assignment-ILP oracle: HiGHS backend, decoding, optimality structure."""

from __future__ import annotations

import pytest

from repro.core.problem import AugmentationProblem
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workload import make_trial
from repro.solvers.model import build_model
from repro.util.errors import ValidationError
from tests.reference.exact import solve_ilp


class TestSolveILP:
    def test_assignments_feasible(self, small_problem):
        model = build_model(small_problem)
        ilp = solve_ilp(model)
        allowed = {(it.position, it.k): set(it.bins) for it in small_problem.items}
        loads: dict[int, float] = {}
        demands = {(it.position, it.k): it.demand for it in small_problem.items}
        for key, u in ilp.assignments.items():
            assert u in allowed[key]
            loads[u] = loads.get(u, 0.0) + demands[key]
        for u, load in loads.items():
            assert load <= small_problem.residuals[u] + 1e-6

    def test_objective_matches_assignments(self, small_problem):
        model = build_model(small_problem)
        ilp = solve_ilp(model)
        gains = {(it.position, it.k): it.gain for it in small_problem.items}
        assert ilp.total_gain == pytest.approx(
            sum(gains[key] for key in ilp.assignments)
        )

    def test_abundant_capacity_places_everything(self, line_network, small_request):
        problem = AugmentationProblem.build(
            line_network,
            small_request,
            [1, 2, 3],
            residuals={v: 1e9 for v in range(5)},
        )
        model = build_model(problem)
        ilp = solve_ilp(model)
        assert ilp.num_placed == problem.num_items

    def test_optimum_selects_prefixes_by_count(self, small_problem):
        """Lemma 4.2: an exact optimum's per-position selection count is
        achievable as a prefix (counts never exceed K_i, gains decreasing)."""
        model = build_model(small_problem)
        ilp = solve_ilp(model)
        counts: dict[int, int] = {}
        for pos, _k in ilp.assignments:
            counts[pos] = counts.get(pos, 0) + 1
        grouped: dict[int, int] = {}
        for it in small_problem.items:
            grouped[it.position] = max(grouped.get(it.position, 0), it.k)
        for pos, count in counts.items():
            assert count <= grouped[pos]

    def test_unknown_backend_rejected(self, small_problem):
        model = build_model(small_problem)
        with pytest.raises(ValidationError):
            solve_ilp(model, backend="cplex")

    def test_realistic_instance_solves(self):
        settings = ExperimentSettings(num_aps=40, cloudlet_fraction=0.2, trials=1)
        problem = make_trial(settings, rng=6).problem
        if problem.num_items == 0:
            pytest.skip("degenerate draw")
        ilp = solve_ilp(build_model(problem))
        assert ilp.total_gain >= 0.0

    def test_meta_reports_backend(self, small_problem):
        ilp = solve_ilp(build_model(small_problem))
        assert ilp.meta["backend"] == "highs"
