"""Cross-cutting property-based tests of the paper's structural claims.

These go beyond per-module unit tests: they draw random *problem instances*
and assert the theory end to end --

* Lemma 4.2: exact optima select per-position prefixes;
* Lemma 6.1: the heuristic packs the cheapest items of each type;
* the relaxation sandwich LP >= ILP >= Heuristic (in gain);
* solution validity of every algorithm on arbitrary instances.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.baselines import GreedyGain
from repro.algorithms.heuristic import MatchingHeuristic
from repro.algorithms.ilp_exact import ILPAlgorithm
from repro.algorithms.randomized import RandomizedRounding
from repro.core.items import ItemGenerationConfig
from repro.core.problem import AugmentationProblem
from repro.core.validation import check_solution
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request, ServiceFunctionChain, VNFType
from repro.solvers.lp import solve_lp
from repro.solvers.model import build_model
from repro.topology.families import grid_topology
from repro.util.rng import as_rng
from tests.reference.exact import solve_ilp

# Instance generator: small random problems on a 3x3 grid of cloudlets.
instance_seeds = st.integers(0, 10_000)
chain_lengths = st.integers(1, 4)
residual_scales = st.floats(0.1, 1.0)


def _random_problem(seed: int, length: int, residual_scale: float) -> AugmentationProblem:
    gen = as_rng(seed)
    graph = grid_topology(3, 3)
    capacities = {v: float(gen.uniform(500, 1500)) for v in range(9)}
    network = MECNetwork(graph, capacities)
    types = [
        VNFType(
            f"f{i}",
            demand=float(gen.uniform(100, 400)),
            reliability=float(gen.uniform(0.55, 0.95)),
        )
        for i in range(length)
    ]
    request = Request(
        "prop",
        ServiceFunctionChain(types),
        expectation=float(gen.uniform(0.9, 0.995)),
    )
    primaries = [int(gen.integers(0, 9)) for _ in range(length)]
    residuals = {v: capacities[v] * residual_scale for v in range(9)}
    return AugmentationProblem.build(
        network,
        request,
        primaries,
        radius=1,
        residuals=residuals,
        item_config=ItemGenerationConfig(max_backups_per_function=6),
    )


class TestLemma42PrefixOptima:
    @given(seed=instance_seeds, length=chain_lengths, scale=residual_scales)
    @settings(max_examples=25, deadline=None)
    def test_exact_optimum_admits_prefix_form(self, seed, length, scale):
        """Every exact optimum is a feasible prefix solution (Lemma 4.2):
        the aggregated decode assigns ``k = 1..m_i`` with no re-key."""
        problem = _random_problem(seed, length, scale)
        if not problem.items:
            return
        result = ILPAlgorithm(stop_at_expectation=False).solve(problem)
        assert result.solution.is_prefix_per_position()
        report = check_solution(problem, result.solution)
        assert report.ok, report.issues


class TestRelaxationSandwich:
    @given(seed=instance_seeds, length=chain_lengths, scale=residual_scales)
    @settings(max_examples=25, deadline=None)
    def test_lp_ge_ilp_ge_heuristic(self, seed, length, scale):
        problem = _random_problem(seed, length, scale)
        if not problem.items:
            return
        model = build_model(problem)
        lp_gain = solve_lp(model).total_gain
        ilp_gain = solve_ilp(model).total_gain
        heuristic = MatchingHeuristic(stop_at_expectation=False).solve(problem)
        assert lp_gain >= ilp_gain - 1e-9  # LP is exact and upper-bounds any integer point
        assert ilp_gain >= heuristic.solution.total_gain - 2e-6  # both within 1e-6 of exact


class TestAllAlgorithmsValid:
    @given(seed=instance_seeds, length=chain_lengths, scale=residual_scales)
    @settings(max_examples=20, deadline=None)
    def test_solutions_validate(self, seed, length, scale):
        problem = _random_problem(seed, length, scale)
        for algorithm in (
            ILPAlgorithm(),
            RandomizedRounding(),
            MatchingHeuristic(),
            GreedyGain(),
        ):
            result = algorithm.solve(problem, rng=seed)
            report = check_solution(
                problem,
                result.solution,
                allow_capacity_violation=algorithm.name == "Randomized",
                claimed_reliability=result.reliability,
            )
            assert report.ok, (algorithm.name, report.issues)


class TestHeuristicLemma61:
    @given(seed=instance_seeds, scale=residual_scales)
    @settings(max_examples=20, deadline=None)
    def test_packed_items_are_cheapest_prefix(self, seed, scale):
        """Lemma 6.1: for each position, the packed items are the top-K'
        smallest-cost ones, i.e. the k = 1..K' prefix."""
        problem = _random_problem(seed, 3, scale)
        result = MatchingHeuristic(stop_at_expectation=False).solve(problem)
        by_pos: dict[int, list[int]] = {}
        for p in result.solution.placements:
            by_pos.setdefault(p.position, []).append(p.k)
        for ks in by_pos.values():
            assert sorted(ks) == list(range(1, len(ks) + 1))


class TestExpectationSemantics:
    @given(seed=instance_seeds, length=chain_lengths)
    @settings(max_examples=20, deadline=None)
    def test_trimmed_results_are_minimal_or_capped(self, seed, length):
        """With the default stop-at-expectation, a result either falls short
        of rho_j (resources exhausted) or meets it minimally."""
        problem = _random_problem(seed, length, 1.0)
        result = ILPAlgorithm().solve(problem)
        counts = result.solution.backup_counts(length)
        if result.expectation_met and result.num_backups > 0:
            for pos in range(length):
                if counts[pos] == 0:
                    continue
                counts[pos] -= 1
                rel = problem.reliability_from_counts(counts)
                counts[pos] += 1
                assert not problem.request.meets_expectation(rel)
