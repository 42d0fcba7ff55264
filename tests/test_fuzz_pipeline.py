"""Pipeline fuzzing: random configurations through the full stack.

Hypothesis drives whole *configurations* -- topology family, network size,
cloudlet density, chain shape, radius, residual scale -- through topology
generation, placement, item generation, all feasible-solution algorithms,
and independent validation.  The property is uniform: whatever the
configuration, every algorithm returns a validated solution that weakly
improves the baseline, and the exact ILP dominates the rest.

Instance generation lives in :mod:`repro.experiments.instances` -- the same
factory the differential tests and benchmarks use -- so a failing
configuration here replays everywhere.  The Theorem 6.2 class additionally
replays every fuzz case from the seed corpus at
``tests/data/fuzz_seed_corpus.json``: plain JSON specs, parametrized one
test per entry, so a regression reproduces deterministically without
hypothesis in the loop.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.baselines import GreedyGain
from repro.algorithms.heuristic import MatchingHeuristic
from repro.algorithms.ilp_exact import ILPAlgorithm
from repro.algorithms.repair import RepairedRandomizedRounding
from repro.core.problem import AugmentationProblem
from repro.core.solution import AugmentationResult
from repro.core.validation import check_solution
from repro.experiments.instances import (
    TOPOLOGY_FAMILIES,
    InstanceSpec,
    build_instance,
)

CORPUS_PATH = Path(__file__).parent / "data" / "fuzz_seed_corpus.json"
CORPUS = [
    InstanceSpec.from_config(entry)
    for entry in json.loads(CORPUS_PATH.read_text())
]

configurations = st.fixed_dictionaries(
    {
        "family": st.sampled_from(sorted(TOPOLOGY_FAMILIES)),
        "num_nodes": st.integers(8, 24),
        "cloudlet_count": st.integers(2, 5),
        "chain_length": st.integers(1, 4),
        "radius": st.integers(0, 3),
        "residual_scale": st.floats(0.1, 1.0),
        "seed": st.integers(0, 100_000),
    }
)


def _build(config) -> AugmentationProblem:
    return build_instance(InstanceSpec.from_config(config))


class TestFuzzedConfigurations:
    @given(config=configurations)
    @settings(max_examples=40, deadline=None)
    def test_every_algorithm_valid_and_ordered(self, config):
        problem = _build(config)
        algorithms = [
            ILPAlgorithm(stop_at_expectation=False),
            MatchingHeuristic(stop_at_expectation=False),
            GreedyGain(stop_at_expectation=False),
            RepairedRandomizedRounding(stop_at_expectation=False),
        ]
        reliabilities = {}
        for algorithm in algorithms:
            result = algorithm.solve(problem, rng=config["seed"])
            report = check_solution(
                problem,
                result.solution,
                claimed_reliability=result.reliability,
            )
            assert report.ok, (config, algorithm.name, report.issues)
            assert result.reliability >= problem.baseline_reliability - 1e-12
            reliabilities[algorithm.name] = result.reliability
        ilp = reliabilities["ILP"]
        for name, reliability in reliabilities.items():
            assert reliability <= ilp + 1e-5, (config, name)

    @given(config=configurations)
    @settings(max_examples=40, deadline=None)
    def test_item_generation_invariants(self, config):
        problem = _build(config)
        for item in problem.items:
            assert item.gain > 0
            assert item.cost > 0
            assert item.demand > 0
            assert item.bins  # at least one usable bin
            primary = problem.primary_placement[item.position]
            for u in item.bins:
                assert problem.neighborhoods.contains(primary, u)
                assert problem.residuals[u] + 1e-9 >= item.demand


def _assert_capacity_safe(problem: AugmentationProblem, result: AugmentationResult):
    """Theorem 6.2: replaying the placements against a fresh *strict* ledger
    never violates capacity (``allocate`` raises on violation), no residual
    ends negative, and every placement sits inside ``N_l^+(v_i)``."""
    ledger = problem.ledger()
    for p in result.solution.placements:
        ledger.allocate(p.bin, p.demand, tag="replay")
    for v in ledger.nodes:
        assert ledger.residual(v) >= -1e-9, (v, ledger.residual(v))
    for p in result.solution.placements:
        primary = problem.primary_placement[p.position]
        assert problem.neighborhoods.contains(primary, p.bin), (
            p.position,
            p.bin,
            primary,
        )


class TestTheorem62CapacitySafety:
    """Fuzz the incremental matching engine against the capacity ledger."""

    ENGINES = [
        MatchingHeuristic(),
        MatchingHeuristic(stop_at_expectation=False),
        MatchingHeuristic(backend="warm"),
        MatchingHeuristic(stop_at_expectation=False, backend="warm"),
    ]

    @pytest.mark.parametrize(
        "spec", CORPUS, ids=lambda s: f"{s.family}-seed{s.seed}"
    )
    def test_corpus_replay(self, spec):
        problem = build_instance(spec)
        for algorithm in self.ENGINES:
            _assert_capacity_safe(problem, algorithm.solve(problem))

    @given(config=configurations)
    @settings(max_examples=40, deadline=None)
    def test_fuzzed_incremental_engine(self, config):
        problem = _build(config)
        for algorithm in self.ENGINES:
            _assert_capacity_safe(problem, algorithm.solve(problem))
