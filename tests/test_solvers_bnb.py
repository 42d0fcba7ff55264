"""Tests for the branch-and-bound oracle, cross-checked vs HiGHS and the aggregated engine."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.core.problem import AugmentationProblem
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workload import make_trial
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request, ServiceFunctionChain, VNFType
from repro.solvers.ilp import solve_ilp_aggregated
from repro.solvers.model import AssignmentModel, build_aggregated_model, build_model
from repro.topology.families import complete_topology
from tests.reference.branch_and_bound import BnBOptions, NodeLimitExceeded, solve_bnb
from tests.reference.exact import solve_ilp


def _knapsack_model(values, weights, capacity) -> AssignmentModel:
    """A 0/1 knapsack as an AssignmentModel (minimise -value)."""
    n = len(values)
    a = sparse.csr_matrix(np.asarray(weights, dtype=float).reshape(1, n))
    return AssignmentModel(
        var_keys=tuple((i, 1, 0) for i in range(n)),
        objective=-np.asarray(values, dtype=float),
        a_ub=a,
        b_ub=np.array([float(capacity)]),
        item_rows=range(0),
        capacity_rows=range(0, 1),
    )


class TestKnapsackInstances:
    def test_classic_knapsack(self):
        # values 60/100/120, weights 10/20/30, cap 50 -> optimum 220
        model = _knapsack_model([60, 100, 120], [10, 20, 30], 50)
        solution = solve_bnb(model)
        assert -solution.objective == pytest.approx(220.0)

    def test_all_fit(self):
        model = _knapsack_model([1, 2, 3], [1, 1, 1], 10)
        solution = solve_bnb(model)
        assert -solution.objective == pytest.approx(6.0)

    def test_none_fit(self):
        model = _knapsack_model([5, 5], [10, 10], 1)
        solution = solve_bnb(model)
        assert solution.objective == pytest.approx(0.0)
        assert (solution.values == 0).all()

    def test_fractional_lp_forced_integer(self):
        # LP would take half of the big item; ILP must not.
        model = _knapsack_model([10, 6], [10, 6], 9)
        solution = solve_bnb(model)
        assert -solution.objective == pytest.approx(6.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_knapsacks_match_highs(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        values = rng.uniform(1, 20, size=n)
        weights = rng.uniform(1, 15, size=n)
        capacity = float(weights.sum() * 0.4)
        model = _knapsack_model(values, weights, capacity)
        own = solve_bnb(model)
        highs = solve_ilp(model, backend="highs")
        assert own.objective == pytest.approx(highs.objective, abs=2e-6)


class TestAugmentationModels:
    def test_matches_highs_on_small_problem(self, small_problem):
        model = build_model(small_problem)
        own = solve_bnb(model)
        highs = solve_ilp(model, backend="highs")
        assert own.objective == pytest.approx(highs.objective, abs=2e-6)

    @pytest.mark.parametrize(
        "num_aps, fraction, length, max_backups, seed",
        [
            (20, 0.25, 4, 4, 1),
            (20, 0.25, 4, 4, 2),
            (20, 0.25, 4, 4, 3),
            # the (|V|, L, seed) grid the HiGHS-vs-B&B solver bench recorded
            (20, 0.2, 3, 5, 1),
            (30, 0.2, 4, 5, 2),
            (40, 0.2, 5, 5, 3),
        ],
        ids=["1", "2", "3", "V20-L3-s1", "V30-L4-s2", "V40-L5-s3"],
    )
    def test_matches_highs_on_random_instances(
        self, num_aps, fraction, length, max_backups, seed
    ):
        from repro.core.items import ItemGenerationConfig

        settings = ExperimentSettings(
            num_aps=num_aps, cloudlet_fraction=fraction, sfc_length=length, trials=1
        )
        # cap backups per function: uncapped tail items with ~1e-7 gains put
        # the pure-Python B&B into minutes-long 1e-6-gap proofs (the heavy
        # symmetry regime its docstring describes)
        problem = make_trial(
            settings,
            rng=seed,
            item_config=ItemGenerationConfig(max_backups_per_function=max_backups),
        ).problem
        if problem.num_items == 0:
            pytest.skip("degenerate draw")
        model = build_model(problem)
        own = solve_bnb(model, options=BnBOptions(max_nodes=30_000))
        highs = solve_ilp(model, backend="highs")
        aggregated = solve_ilp_aggregated(build_aggregated_model(problem))
        assert own.objective == pytest.approx(highs.objective, abs=2e-6)
        assert aggregated.objective == pytest.approx(highs.objective, abs=2e-6)

    def test_via_solve_ilp_backend(self, small_problem):
        model = build_model(small_problem)
        bnb = solve_ilp(model, backend="bnb")
        highs = solve_ilp(model, backend="highs")
        assert bnb.total_gain == pytest.approx(highs.total_gain, abs=2e-6)
        assert bnb.meta["backend"] == "bnb"
        assert bnb.meta["nodes"] >= 1

    def test_solution_is_binary(self, small_problem):
        model = build_model(small_problem)
        solution = solve_bnb(model)
        assert set(np.unique(solution.values)) <= {0.0, 1.0}

    def test_tight_packing_instance(self):
        """A case engineered so the LP relaxation is fractional: two demands
        that cannot both fit, forcing a genuine branch."""
        network = MECNetwork(complete_topology(2), {0: 500.0, 1: 500.0})
        f1 = VNFType("a", demand=300.0, reliability=0.8)
        f2 = VNFType("b", demand=300.0, reliability=0.7)
        request = Request(
            "r", ServiceFunctionChain([f1, f2]), expectation=0.999999
        )
        problem = AugmentationProblem.build(
            network, request, [0, 1], radius=1,
            residuals={0: 500.0, 1: 500.0},
        )
        model = build_model(problem)
        own = solve_bnb(model)
        highs = solve_ilp(model, backend="highs")
        assert own.objective == pytest.approx(highs.objective, abs=2e-6)


class TestOptions:
    def test_node_limit_enforced(self):
        rng = np.random.default_rng(0)
        n = 14
        model = _knapsack_model(
            rng.uniform(1, 20, size=n), rng.uniform(1, 15, size=n), 30.0
        )
        with pytest.raises(NodeLimitExceeded):
            solve_bnb(model, options=BnBOptions(max_nodes=2))

    def test_nodes_reported(self, small_problem):
        solution = solve_bnb(build_model(small_problem))
        assert solution.nodes_explored >= 1
