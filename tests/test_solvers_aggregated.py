"""Tests for the aggregated (symmetry-free) ILP engine against the assignment-ILP oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.ilp_exact import ILPAlgorithm, repair_prefix
from repro.core.items import ItemGenerationConfig
from repro.core.problem import AugmentationProblem
from repro.core.validation import check_solution
from repro.core.solution import AugmentationSolution
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workload import make_trial
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request, ServiceFunctionChain, VNFType
from repro.solvers.ilp import solve_ilp_aggregated
from repro.solvers.model import (
    assignments_from_aggregated,
    build_aggregated_model,
    build_model,
)
from repro.topology.families import grid_topology
from repro.util.errors import ValidationError
from repro.util.rng import as_rng
from tests.reference.exact import AssignmentILP, solve_ilp


class TestBuildAggregatedModel:
    def test_block_sizes(self, small_problem):
        model = build_aggregated_model(small_problem)
        assert len(model.z_keys) == small_problem.num_items
        # y block: one var per (position, usable bin)
        grouped = small_problem.grouped_items()
        expected_y = sum(len(group[0].bins) for group in grouped.values())
        assert len(model.y_keys) == expected_y

    def test_objective_structure(self, small_problem):
        model = build_aggregated_model(small_problem)
        nz = len(model.z_keys)
        gains = {(it.position, it.k): it.gain for it in small_problem.items}
        for c, key in enumerate(model.z_keys):
            assert model.objective[c] == pytest.approx(-gains[key])
        assert (model.objective[nz:] == 0.0).all()

    def test_upper_bounds(self, small_problem):
        model = build_aggregated_model(small_problem)
        nz = len(model.z_keys)
        assert (model.upper[:nz] == 1.0).all()
        demand = {it.position: it.demand for it in small_problem.items}
        for c, (pos, u) in enumerate(model.y_keys):
            cap = int(small_problem.residuals[u] / demand[pos] + 1e-9)
            assert model.upper[nz + c] <= cap + 1e-9

    def test_empty_problem_rejected(self, line_network, small_request):
        problem = AugmentationProblem.build(
            line_network, small_request, [1, 2, 3],
            residuals={v: 0.0 for v in range(5)},
        )
        with pytest.raises(ValidationError):
            build_aggregated_model(problem)


class TestEquivalenceWithAssignmentModel:
    def test_small_problem(self, small_problem):
        literal = solve_ilp(build_model(small_problem))
        aggregated = solve_ilp_aggregated(build_aggregated_model(small_problem))
        assert aggregated.objective == pytest.approx(literal.objective, abs=2e-6)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=15, deadline=None)
    def test_random_instances(self, seed):
        gen = as_rng(seed)
        network = MECNetwork(
            grid_topology(3, 3), {v: float(gen.uniform(600, 1400)) for v in range(9)}
        )
        types = [
            VNFType(f"f{i}", float(gen.uniform(100, 400)), float(gen.uniform(0.6, 0.95)))
            for i in range(3)
        ]
        request = Request(
            "agg", ServiceFunctionChain(types), expectation=float(gen.uniform(0.9, 0.99))
        )
        primaries = [int(gen.integers(0, 9)) for _ in range(3)]
        problem = AugmentationProblem.build(
            network, request, primaries, radius=2,
            residuals=network.capacities,
            item_config=ItemGenerationConfig(max_backups_per_function=5),
        )
        if not problem.items:
            return
        literal = solve_ilp(build_model(problem))
        aggregated = solve_ilp_aggregated(build_aggregated_model(problem))
        assert aggregated.objective == pytest.approx(literal.objective, abs=2e-6)
        # the decode is already the canonical prefix, in the same order, so
        # ILPAlgorithm has no re-key to do
        repaired = repair_prefix(problem, aggregated.assignments)
        assert list(repaired.items()) == list(aggregated.assignments.items())

    def test_wide_radius_instance_fast_and_valid(self):
        """The motivating case: unrestricted radius at paper scale."""
        settings = ExperimentSettings(radius=99)
        problem = make_trial(settings, rng=100).problem
        result = ILPAlgorithm().solve(problem)
        report = check_solution(
            problem, result.solution, claimed_reliability=result.reliability
        )
        assert report.ok, report.issues
        assert result.meta["backend"] == "highs-aggregated"


class TestDecoding:
    def test_decoded_assignments_valid(self, small_problem):
        model = build_aggregated_model(small_problem)
        solution = solve_ilp_aggregated(model)
        decoded = AugmentationSolution.from_assignments(
            small_problem, solution.assignments
        )
        report = check_solution(small_problem, decoded, require_prefix=False)
        assert report.ok, report.issues

    def test_balance_preserved(self, small_problem):
        """Decoded per-position counts equal the z-block totals."""
        model = build_aggregated_model(small_problem)
        solution = solve_ilp_aggregated(model)
        per_pos: dict[int, int] = {}
        for pos, _k in solution.assignments:
            per_pos[pos] = per_pos.get(pos, 0) + 1
        # recompute z totals from the model: rebuild values via assignments
        # is circular; instead assert counts within item bounds
        grouped = small_problem.grouped_items()
        for pos, count in per_pos.items():
            assert count <= len(grouped[pos])

    def test_decode_empty_values(self, small_problem):
        model = build_aggregated_model(small_problem)
        assert assignments_from_aggregated(model, np.zeros(model.num_vars)) == {}


class TestAlgorithmIntegration:
    def test_formulations_agree_on_reliability(self, small_problem):
        agg = ILPAlgorithm(stop_at_expectation=False).solve(small_problem)
        lit = AssignmentILP(stop_at_expectation=False).solve(small_problem)
        assert agg.reliability == pytest.approx(lit.reliability, abs=1e-5)
