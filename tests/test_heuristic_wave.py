"""``MatchingHeuristic.solve_wave``: several problems, one round loop.

A wave of problems with disjoint domains, solved on one shared ledger, must
give every problem exactly its solo solve: the same placements, the same
``meta["rounds"]``, and the same per-node ledger occupancy once the
placements are committed.  ``solve`` itself is the wave of one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings as hsettings
from hypothesis import strategies as st

from repro.algorithms.heuristic import MatchingHeuristic
from repro.core.problem import AugmentationProblem
from repro.core.solution import trim_to_expectation
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workload import make_network, make_request
from repro.netmodel.capacity import CapacityLedger
from repro.netmodel.vnf import VNFCatalog
from repro.service.batch import SERVICE_COST_CAP
from repro.util.errors import ValidationError
from tests.reference.rebuild import RebuildHeuristic

SETTINGS = ExperimentSettings(
    num_aps=200, capacity_range=(2000, 4000), sfc_length_range=(2, 4)
)
_rng = np.random.default_rng(4321)
_NETWORK = make_network(SETTINGS, _rng)
_CATALOG = VNFCatalog.random(rng=_rng)


def disjoint_problems(seed, count, radius, scale):
    """Up to ``count`` problems on one residual snapshot, pairwise-disjoint
    domains (every primary's closed neighborhood avoids earlier domains)."""
    rng = np.random.default_rng(seed)
    neighborhoods = _NETWORK.neighborhoods(radius)
    residuals = {v: _NETWORK.capacity(v) * scale for v in _NETWORK.cloudlets}
    used: set[int] = set()
    problems = []
    for index in range(count):
        free = [
            v for v in _NETWORK.cloudlets
            if used.isdisjoint(neighborhoods.closed_cloudlets(v))
        ]
        if not free:
            break
        request = make_request(SETTINGS, _CATALOG, rng, name=f"w{seed}-{index}")
        draw = [free[int(i)] for i in rng.integers(0, len(free), size=request.chain.length)]
        for v in draw:
            used.update(neighborhoods.closed_cloudlets(v))
        problems.append(
            AugmentationProblem.build(
                _NETWORK, request, draw, radius=radius, residuals=residuals,
                neighborhoods=neighborhoods,
            )
        )
    return problems, residuals


def committed_used(residuals, placement_lists):
    ledger = CapacityLedger(residuals)
    for placements in placement_lists:
        for p in placements:
            ledger.allocate(p.bin, p.demand)
    return [ledger.used(v) for v in ledger.nodes]


class TestWaveEqualsSolo:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        count=st.integers(min_value=2, max_value=6),
        radius=st.integers(min_value=0, max_value=1),
        scale=st.floats(min_value=0.05, max_value=1.0),
        stop=st.booleans(),
    )
    @hsettings(max_examples=40, deadline=None)
    def test_disjoint_wave_equals_solo_solves(self, seed, count, radius, scale, stop):
        problems, residuals = disjoint_problems(seed, count, radius, scale)
        assume(len(problems) >= 2)
        heuristic = MatchingHeuristic(
            backend="warm", universe_cost_sum=SERVICE_COST_CAP,
            stop_at_expectation=stop,
        )
        wave = heuristic.solve_wave(problems)
        solos = [heuristic.solve(problem) for problem in problems]
        wave_placements = []
        for problem, outcome, solo in zip(problems, wave, solos):
            solution = (
                trim_to_expectation(problem, outcome.solution) if stop
                else outcome.solution
            )
            assert solution.placements == solo.solution.placements
            assert solution.reliability(problem) == solo.reliability
            assert outcome.rounds == solo.meta.get("rounds", 0)
            wave_placements.append(solution.placements)
        assert committed_used(residuals, wave_placements) == committed_used(
            residuals, [solo.solution.placements for solo in solos]
        )

    @pytest.mark.parametrize("backend", ["scipy", "sparse", "warm"])
    def test_wave_of_one_is_solve(self, backend):
        problems, _ = disjoint_problems(7, 3, 1, 0.3)
        heuristic = MatchingHeuristic(backend=backend, universe_cost_sum=SERVICE_COST_CAP)
        for problem in problems:
            (outcome,) = heuristic.solve_wave([problem])
            result = heuristic.solve(problem)
            assert trim_to_expectation(problem, outcome.solution) == result.solution
            assert outcome.rounds == result.meta.get("rounds", 0)


class TestWaveContract:
    def _problems(self):
        problems, _ = disjoint_problems(11, 3, 1, 0.3)
        assert len(problems) >= 2
        return problems

    @pytest.mark.parametrize("backend", ["scipy", "sparse", "auto"])
    def test_several_problems_need_the_warm_backend(self, backend):
        heuristic = MatchingHeuristic(backend=backend, universe_cost_sum=SERVICE_COST_CAP)
        with pytest.raises(ValidationError):
            heuristic.solve_wave(self._problems())

    def test_several_problems_need_the_incremental_engine(self):
        """Only the incremental loop solves waves; the rebuild reference
        loop refuses several problems instead of solving one of them."""
        heuristic = RebuildHeuristic(backend="warm", universe_cost_sum=SERVICE_COST_CAP)
        with pytest.raises(ValidationError, match="one problem at a time"):
            heuristic.solve_wave(self._problems())

    def test_several_problems_need_a_pinned_dummy_cost(self):
        with pytest.raises(ValidationError):
            MatchingHeuristic(backend="warm").solve_wave(self._problems())

    def test_problems_must_share_the_snapshot(self):
        first, second = self._problems()[:2]
        halved = {v: r / 2 for v, r in second.residuals.items()}
        other = AugmentationProblem.build(
            _NETWORK, second.request, second.primary_placement, radius=1,
            residuals=halved,
        )
        heuristic = MatchingHeuristic(backend="warm", universe_cost_sum=SERVICE_COST_CAP)
        with pytest.raises(ValidationError):
            heuristic.solve_wave([first, other])

    def test_problems_must_not_share_a_cloudlet(self):
        problem = next(p for p in self._problems() if p.items)
        heuristic = MatchingHeuristic(backend="warm", universe_cost_sum=SERVICE_COST_CAP)
        with pytest.raises(ValidationError, match="share cloudlet"):
            heuristic.solve_wave([problem, problem])

    def test_edge_cost_sums_must_stay_below_the_pin(self):
        problems = self._problems()
        heuristic = MatchingHeuristic(backend="warm", universe_cost_sum=1.0)
        with pytest.raises(ValidationError):
            heuristic.solve_wave(problems)
