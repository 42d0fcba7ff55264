"""Tests for the exact ILP algorithm wrapper."""

from __future__ import annotations

import pytest

from repro.algorithms.ilp_exact import ILPAlgorithm, repair_prefix
from repro.core.problem import AugmentationProblem
from repro.core.validation import check_solution
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request, ServiceFunctionChain, VNFType
from repro.topology.families import line_topology
from tests.reference.exact import AssignmentILP


class TestRepairPrefix:
    def test_noop_on_prefix(self, small_problem):
        assignments = {(0, 1): 1, (0, 2): 2}
        assert repair_prefix(small_problem, assignments) == assignments

    def test_shifts_down(self, small_problem):
        assignments = {(0, 2): 1, (0, 3): 2}
        repaired = repair_prefix(small_problem, assignments)
        assert repaired == {(0, 1): 1, (0, 2): 2}

    def test_preserves_bins_in_k_order(self, small_problem):
        assignments = {(0, 3): 7, (0, 1): 5}
        repaired = repair_prefix(small_problem, assignments)
        assert repaired == {(0, 1): 5, (0, 2): 7}

    def test_multiple_positions_independent(self, small_problem):
        assignments = {(0, 2): 1, (1, 1): 2, (1, 3): 3}
        repaired = repair_prefix(small_problem, assignments)
        assert repaired == {(0, 1): 1, (1, 1): 2, (1, 2): 3}

    def test_empty(self, small_problem):
        assert repair_prefix(small_problem, {}) == {}


class TestILPAlgorithm:
    def test_solution_valid_and_optimal_structure(self, small_problem):
        result = ILPAlgorithm().solve(small_problem)
        report = check_solution(
            small_problem, result.solution, claimed_reliability=result.reliability
        )
        assert report.ok
        assert result.algorithm == "ILP"

    def test_reaches_expectation_with_room(self, small_problem):
        result = ILPAlgorithm().solve(small_problem)
        assert result.expectation_met
        assert result.reliability >= 0.95

    def test_trim_keeps_minimality(self, small_problem):
        result = ILPAlgorithm().solve(small_problem)
        counts = result.solution.backup_counts(3)
        for pos in range(3):
            if counts[pos] == 0:
                continue
            counts[pos] -= 1
            rel = small_problem.reliability_from_counts(counts)
            counts[pos] += 1
            assert not small_problem.request.meets_expectation(rel)

    def test_no_trim_mode_places_more(self, small_problem):
        trimmed = ILPAlgorithm().solve(small_problem)
        untrimmed = ILPAlgorithm(stop_at_expectation=False).solve(small_problem)
        assert untrimmed.num_backups >= trimmed.num_backups
        assert untrimmed.reliability >= trimmed.reliability - 1e-12

    def test_early_exit_when_baseline_sufficient(self, line_network):
        func = VNFType("f", demand=100.0, reliability=0.999)
        request = Request("r", ServiceFunctionChain([func]), expectation=0.99)
        problem = AugmentationProblem.build(line_network, request, [2])
        result = ILPAlgorithm().solve(problem)
        assert result.meta.get("early_exit") is True
        assert result.num_backups == 0
        assert result.expectation_met

    def test_no_items_graceful(self, line_network, small_request):
        problem = AugmentationProblem.build(
            line_network, small_request, [1, 2, 3],
            residuals={v: 0.0 for v in range(5)},
        )
        result = ILPAlgorithm().solve(problem)
        assert result.num_backups == 0
        assert result.meta.get("no_items") is True
        assert result.reliability == pytest.approx(problem.baseline_reliability)

    def test_capacity_never_violated(self, small_problem):
        result = ILPAlgorithm().solve(small_problem)
        assert not result.has_violations
        assert result.usage_max <= 1.0 + 1e-9

    def test_bnb_backend_equivalent_reliability(self, small_problem):
        highs = ILPAlgorithm(stop_at_expectation=False).solve(small_problem)
        bnb = AssignmentILP(backend="bnb", stop_at_expectation=False).solve(
            small_problem
        )
        assert bnb.reliability == pytest.approx(highs.reliability, abs=1e-5)

    def test_deterministic(self, small_problem):
        a = ILPAlgorithm().solve(small_problem)
        b = ILPAlgorithm().solve(small_problem)
        assert a.reliability == b.reliability
        assert a.solution.backup_counts(3) == b.solution.backup_counts(3)

    def test_scarce_capacity_partial_augmentation(self):
        """One tight cloudlet: the ILP packs the best prefix that fits."""
        network = MECNetwork(line_topology(3), {1: 450.0})
        func = VNFType("f", demand=200.0, reliability=0.7)
        request = Request("r", ServiceFunctionChain([func]), expectation=0.999999)
        problem = AugmentationProblem.build(
            network, request, [1], residuals={1: 450.0}
        )
        result = ILPAlgorithm().solve(problem)
        assert result.num_backups == 2  # floor(450 / 200)
        assert not result.expectation_met
