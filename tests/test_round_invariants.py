"""The round loop's short cuts, each against the longer form it replaced.

* :class:`~repro.matching.incremental.RoundState` commits placements on its
  own used sums.  Its residuals equal those of a
  :class:`~repro.netmodel.capacity.CapacityLedger` over the same snapshot
  byte for byte, and an allocation that does not fit raises
  :class:`~repro.util.errors.CapacityError` as the ledger's does.
* ``MatchingHeuristic._solve_rounds`` keeps the loop's own placements when
  each position's ``k`` values are ``1..m``.  Its solution equals the
  ``repair_prefix`` + ``from_assignments`` re-key of those placements on
  every instance, and it takes that re-key when costs tie across ``k``.
* :func:`~repro.core.solution.trim_to_expectation` multiplies reliability
  ladder entries; it keeps the placements the scalar trim of
  ``tests/reference/trim.py`` keeps.
"""

from __future__ import annotations

import dataclasses
import struct

import pytest
from hypothesis import example, given, settings as hsettings
from hypothesis import strategies as st

import repro.algorithms.heuristic as heuristic_module
from repro.algorithms.heuristic import MatchingHeuristic
from repro.algorithms.ilp_exact import repair_prefix
from repro.core.problem import AugmentationProblem
from repro.core.reliability import chain_reliability
from repro.core.solution import AugmentationSolution, Placement, trim_to_expectation
from repro.experiments.instances import InstanceSpec, build_inputs, differential_suite
from repro.matching.incremental import RoundState
from repro.netmodel.vnf import Request, ServiceFunctionChain, VNFType
from repro.service.batch import SERVICE_COST_CAP
from repro.util.errors import CapacityError
from tests.reference.trim import scalar_trim_to_expectation
from tests.test_heuristic_wave import disjoint_problems

_INPUTS = build_inputs(InstanceSpec(num_nodes=16, cloudlet_count=5, chain_length=3, seed=11))
_NODES = list(_INPUTS.residuals)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _problem_on(capacities) -> AugmentationProblem:
    """The instance of ``_INPUTS`` over another residual snapshot."""
    residuals = dict(zip(_NODES, capacities))
    return AugmentationProblem.build(
        _INPUTS.network, _INPUTS.request, _INPUTS.primary_placement,
        radius=_INPUTS.radius, residuals=residuals,
    )


def _rekeyed(problem, placements) -> AugmentationSolution:
    assignments = repair_prefix(problem, {(p.position, p.k): p.bin for p in placements})
    return AugmentationSolution.from_assignments(problem, assignments)


class TestRoundStateLedger:
    @given(
        capacities=st.lists(
            st.floats(min_value=0.0, max_value=3000.0), min_size=len(_NODES),
            max_size=len(_NODES),
        ),
        allocations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(_NODES) - 1),
                st.floats(min_value=1e-3, max_value=900.0),
            ),
            max_size=40,
        ),
    )
    @example(
        capacities=[1000.0, 0.3, 700.1, 0.0, 2500.7],
        allocations=[(0, 0.1), (0, 0.2), (0, 0.7), (1, 0.1), (1, 0.2), (2, 700.1),
                     (2, 1e-3), (4, 0.1), (4, 0.2), (4, 0.3)],
    )
    @hsettings(max_examples=60, deadline=None)
    def test_residuals_equal_a_ledgers_byte_for_byte(self, capacities, allocations):
        problem = _problem_on(capacities)
        state = RoundState([problem])
        ledger = problem.ledger()
        for index, demand in allocations:
            v = _NODES[index]
            if ledger.fits(v, demand):
                ledger.allocate(v, demand)
                state.allocate(v, demand)
            else:
                with pytest.raises(CapacityError):
                    ledger.allocate(v, demand)
                with pytest.raises(CapacityError):
                    state.allocate(v, demand)
            assert [_bits(state.residual(u)) for u in _NODES] == [
                _bits(ledger.residual(u)) for u in _NODES
            ]
        # The snapshot the next round's graph is built on moved with them.
        if problem.items:
            rows = state.build_edges()[0]
            assert rows == [u for u in ledger.nodes if ledger.residual(u) > 0.0]

    def test_over_allocation_raises_and_changes_nothing(self):
        problem = _problem_on([500.0, 400.0, 300.0, 200.0, 100.0])
        state = RoundState([problem])
        v = _NODES[1]
        state.allocate(v, 250.0)
        before = state.residual(v)
        with pytest.raises(CapacityError):
            state.allocate(v, 150.0 + 2e-9)
        assert _bits(state.residual(v)) == _bits(before)
        state.allocate(v, 150.0)  # exactly the residual fits
        assert state.residual(v) == 0.0


class TestPrefixFastPath:
    @pytest.mark.parametrize("backend", ["warm", "scipy"])
    @pytest.mark.parametrize("spec", list(differential_suite(30)), ids=lambda s: f"seed{s.seed}")
    def test_equals_the_rekey(self, spec, backend):
        problem = build_inputs(spec).build()
        if not problem.items or problem.baseline_meets_expectation:
            pytest.skip("no round is solved")
        heuristic = MatchingHeuristic(backend=backend)
        ((placements, rounds, _),) = heuristic._run_rounds([problem])
        (outcome,) = heuristic._solve_rounds([problem])
        assert outcome.solution == _rekeyed(problem, placements)
        assert outcome.rounds == rounds

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_rekey_on_waves(self, seed):
        problems, _ = disjoint_problems(seed, 5, radius=1, scale=0.5)
        heuristic = MatchingHeuristic(backend="warm", universe_cost_sum=SERVICE_COST_CAP)
        raw = heuristic._run_rounds(problems)
        outcomes = heuristic._solve_rounds(problems)
        assert len(outcomes) == len(problems) > 1
        for problem, (placements, _, _), outcome in zip(problems, raw, outcomes):
            assert outcome.solution == _rekeyed(problem, placements)

    @pytest.mark.parametrize("backend", ["warm", "scipy", "sparse"])
    def test_costs_tied_across_k_take_the_rekey(self, backend, monkeypatch):
        # Tie every item's cost to its position's k=1 cost: the rounds can
        # then commit k=2 of a position without its k=1.
        (spec,) = [s for s in differential_suite(8) if s.seed == 7007]
        built = build_inputs(spec).build()
        first = {it.position: it.cost for it in built.items if it.k == 1}
        tied = [dataclasses.replace(it, cost=first[it.position]) for it in built.items]
        problem = AugmentationProblem.from_items(
            built.network, built.request, built.primary_placement, built.radius,
            built.residuals, built.neighborhoods, tied, None,
        )
        heuristic = MatchingHeuristic(backend=backend)
        ((placements, _, _),) = heuristic._run_rounds([problem])
        raw = AugmentationSolution(tuple(placements))
        assert not raw.is_prefix_per_position()

        calls = []

        def spy(problem, assignments):
            calls.append(assignments)
            return repair_prefix(problem, assignments)

        monkeypatch.setattr(heuristic_module, "repair_prefix", spy)
        (outcome,) = heuristic._solve_rounds([problem])
        assert len(calls) == 1
        assert outcome.solution == _rekeyed(problem, placements)
        assert outcome.solution.is_prefix_per_position()


def _trim_problem(reliabilities, expectation) -> AugmentationProblem:
    chain = ServiceFunctionChain(
        [VNFType(f"t{i}", demand=100.0, reliability=r) for i, r in enumerate(reliabilities)]
    )
    cloudlet = _NODES[0]
    return AugmentationProblem.from_items(
        _INPUTS.network, Request("trim", chain, expectation), [cloudlet] * chain.length,
        1, {}, _INPUTS.network.neighborhoods(1), (), None,
    )


class TestLadderTrim:
    @given(
        reliabilities=st.lists(
            st.floats(min_value=0.3, max_value=0.999), min_size=1, max_size=8
        ),
        data=st.data(),
    )
    @hsettings(max_examples=200, deadline=None)
    def test_keeps_what_the_scalar_trim_keeps(self, reliabilities, data):
        length = len(reliabilities)
        counts = data.draw(
            st.lists(st.integers(min_value=0, max_value=7), min_size=length, max_size=length)
        )
        # Placements of any k (not only prefixes), so the kept lowest-k
        # selection is exercised too.
        placements = []
        for i, count in enumerate(counts):
            ks = data.draw(st.lists(
                st.integers(min_value=1, max_value=9), min_size=count, max_size=count,
                unique=True,
            ))
            placements.extend(Placement(i, k, 0, 100.0, 0.0, 0.0) for k in ks)
        low = chain_reliability(reliabilities)
        high = chain_reliability(reliabilities, counts)
        # Expectations at, between and just around the achievable values.
        expectation = data.draw(st.one_of(
            st.floats(min_value=min(low, high), max_value=max(low, high)),
            st.sampled_from([low, high, high * (1 + 1e-13), high - 1e-12]),
        ))
        expectation = min(max(expectation, 1e-6), 1.0)
        problem = _trim_problem(reliabilities, expectation)
        solution = AugmentationSolution(tuple(placements))
        assert trim_to_expectation(problem, solution) == scalar_trim_to_expectation(
            problem, solution
        )
