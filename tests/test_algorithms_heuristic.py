"""Tests for Algorithm 2 (iterative min-cost maximum matching)."""

from __future__ import annotations

import pytest

from repro.algorithms.heuristic import MatchingHeuristic
from repro.algorithms.ilp_exact import ILPAlgorithm
from repro.core.problem import AugmentationProblem
from repro.core.validation import check_solution
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request, ServiceFunctionChain, VNFType
from repro.topology.families import line_topology, star_topology


class TestMatchingHeuristic:
    def test_solution_validates(self, small_problem):
        result = MatchingHeuristic().solve(small_problem)
        report = check_solution(
            small_problem, result.solution, claimed_reliability=result.reliability
        )
        assert report.ok

    def test_never_violates_capacity(self, small_problem):
        """Theorem 6.2: the heuristic's solution is feasible."""
        result = MatchingHeuristic(stop_at_expectation=False).solve(small_problem)
        assert not result.has_violations
        assert result.usage_max <= 1.0 + 1e-9

    def test_reaches_expectation_with_room(self, small_problem):
        result = MatchingHeuristic().solve(small_problem)
        assert result.expectation_met

    def test_below_or_equal_ilp(self, small_problem):
        """The heuristic cannot beat the exact optimum (both untrimmed)."""
        ilp = ILPAlgorithm(stop_at_expectation=False).solve(small_problem)
        heuristic = MatchingHeuristic(stop_at_expectation=False).solve(small_problem)
        assert heuristic.reliability <= ilp.reliability + 1e-5

    def test_deterministic(self, small_problem):
        a = MatchingHeuristic().solve(small_problem)
        b = MatchingHeuristic().solve(small_problem)
        assert a.reliability == b.reliability

    def test_backends_agree(self, small_problem):
        via_scipy = MatchingHeuristic(backend="scipy").solve(small_problem)
        for backend in ("sparse", "warm"):
            other = MatchingHeuristic(backend=backend).solve(small_problem)
            assert other.reliability == pytest.approx(via_scipy.reliability, abs=1e-12)

    def test_prefix_structure(self, small_problem):
        result = MatchingHeuristic().solve(small_problem)
        assert result.solution.is_prefix_per_position()

    def test_early_exit(self, line_network):
        func = VNFType("f", demand=100.0, reliability=0.999)
        request = Request("r", ServiceFunctionChain([func]), expectation=0.99)
        problem = AugmentationProblem.build(line_network, request, [2])
        result = MatchingHeuristic().solve(problem)
        assert result.meta.get("early_exit") is True

    def test_no_items_graceful(self, line_network, small_request):
        problem = AugmentationProblem.build(
            line_network, small_request, [1, 2, 3],
            residuals={v: 0.0 for v in range(5)},
        )
        result = MatchingHeuristic().solve(problem)
        assert result.num_backups == 0

    def test_rounds_reported(self, small_problem):
        result = MatchingHeuristic().solve(small_problem)
        assert result.meta["rounds"] >= 1

    def test_one_item_per_cloudlet_per_round(self):
        """With a single eligible cloudlet, each round places exactly one item."""
        network = MECNetwork(line_topology(3), {1: 650.0})
        func = VNFType("f", demand=200.0, reliability=0.7)
        request = Request("r", ServiceFunctionChain([func]), expectation=0.999999)
        problem = AugmentationProblem.build(
            network, request, [1], residuals={1: 650.0}
        )
        result = MatchingHeuristic(stop_at_expectation=False).solve(problem)
        assert result.num_backups == 3  # floor(650 / 200)
        assert result.meta["rounds"] == 3

    def test_exhausts_capacity_when_unconstrained(self):
        """Without the expectation stop, packing fills what fits (Fig. 3 regime)."""
        network = MECNetwork(star_topology(3), {0: 1000.0})
        func = VNFType("f", demand=300.0, reliability=0.5)
        request = Request("r", ServiceFunctionChain([func]), expectation=0.9999999)
        problem = AugmentationProblem.build(
            network, request, [0], residuals={0: 1000.0}
        )
        result = MatchingHeuristic(stop_at_expectation=False).solve(problem)
        assert result.num_backups == 3

    def test_stops_at_expectation_mid_round(self):
        """Expectation reached inside a round: no surplus placements remain."""
        network = MECNetwork(star_topology(5), {0: 5000.0, 1: 5000.0, 2: 5000.0})
        func = VNFType("f", demand=100.0, reliability=0.9)
        request = Request("r", ServiceFunctionChain([func] * 2), expectation=0.97)
        problem = AugmentationProblem.build(
            network, request, [0, 0],
            residuals={0: 5000.0, 1: 5000.0, 2: 5000.0},
        )
        result = MatchingHeuristic().solve(problem)
        assert result.expectation_met
        counts = result.solution.backup_counts(2)
        # minimality: dropping any placement falls below rho_j
        for pos in range(2):
            if counts[pos] == 0:
                continue
            counts[pos] -= 1
            assert not problem.request.meets_expectation(
                problem.reliability_from_counts(counts)
            )
            counts[pos] += 1

    def test_lemma_6_1_smallest_items_first(self):
        """Packed items of a type are the lowest-k (cheapest) ones."""
        network = MECNetwork(line_topology(3), {1: 450.0})
        func = VNFType("f", demand=200.0, reliability=0.7)
        request = Request("r", ServiceFunctionChain([func]), expectation=0.999999)
        problem = AugmentationProblem.build(
            network, request, [1], residuals={1: 450.0}
        )
        result = MatchingHeuristic(stop_at_expectation=False).solve(problem)
        ks = sorted(p.k for p in result.solution.placements)
        assert ks == [1, 2]
