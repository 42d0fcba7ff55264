"""Property tests for the paper's item-cost structure (Lemmas 4.1 / 4.2).

Lemma 4.1: the BMCGAP item costs ``c(f, k, u) = -log(r (1-r)^k)`` strictly
increase in ``k`` for every instance reliability ``r in (0, 1)`` -- each
additional backup of one function is strictly more expensive, which is what
makes prefix selections canonical.  Hypothesis drives ``r`` across the
whole open interval; the memoized ladders of :mod:`repro.core.items` must
agree with the scalar definitions *exactly*, however many calls grew them
(they feed the incremental matching engine, whose bit-for-bit equivalence
proof leans on it).

Lemma 4.2: every solution returned by the heuristic, the ILP, and the
branch-and-bound oracle selects a *prefix* of each position's items:
if the k-th backup of position ``i`` is placed, so are backups ``1..k-1``.
Checked on seeded instances from the shared factory, so a failure replays
with the same spec everywhere.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.heuristic import MatchingHeuristic
from repro.algorithms.ilp_exact import ILPAlgorithm
from repro.core import items as core_items
from repro.core.items import gain_ladder, paper_cost_ladder, reliability_ladder
from repro.core.reliability import (
    function_reliability,
    item_gain,
    paper_cost,
)
from repro.experiments.instances import differential_suite
from repro.util.errors import ValidationError
from tests.reference.exact import AssignmentILP

reliabilities = st.floats(
    min_value=1e-9,
    max_value=1.0 - 1e-12,
    exclude_max=True,
    allow_nan=False,
    allow_infinity=False,
)

K_MAX = 30


class TestLemma41CostMonotonicity:
    @given(r=reliabilities)
    @settings(max_examples=80, deadline=None)
    def test_costs_strictly_increase_in_k(self, r):
        costs = [paper_cost(r, k) for k in range(1, K_MAX + 1)]
        for k in range(1, K_MAX):
            assert costs[k] > costs[k - 1], (r, k)

    @given(r=reliabilities)
    @settings(max_examples=80, deadline=None)
    def test_cost_increment_is_log_term(self, r):
        """Successive costs differ by exactly ``-log(1 - r)`` analytically;
        numerically the increment must stay strictly positive and close."""
        increment = -math.log1p(-r)
        for k in range(1, K_MAX):
            delta = paper_cost(r, k + 1) - paper_cost(r, k)
            assert delta > 0
            assert delta == pytest.approx(increment, rel=1e-6, abs=1e-12)

    @given(r=reliabilities)
    @settings(max_examples=80, deadline=None)
    def test_ladders_match_scalars_exactly(self, r):
        """The memoized ladders are bit-identical to the scalar functions --
        the incremental engine's equivalence guarantee depends on it."""
        costs = paper_cost_ladder(r, K_MAX)
        gains = gain_ladder(r, K_MAX)
        rels = reliability_ladder(r, K_MAX)
        for k in range(1, K_MAX + 1):
            assert costs[k - 1] == paper_cost(r, k)
            assert gains[k - 1] == item_gain(r, k)
        for k in range(K_MAX + 1):
            assert rels[k] == function_reliability(r, k)

    @given(
        r=st.one_of(reliabilities, st.just(1.0)),
        steps=st.lists(st.integers(min_value=0, max_value=45), min_size=1, max_size=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_ladders_grown_in_steps_match_scalars_exactly(self, r, steps):
        """A ladder grown over several calls (e.g. 3, then 40 entries) is
        bit-identical to the per-entry scalar functions, ``r == 1`` included."""
        for memo in core_items._LADDER_CACHES.values():
            memo.pop(r, None)
        for k_max in steps:
            costs = paper_cost_ladder(r, k_max)
            gains = gain_ladder(r, k_max)
            rels = reliability_ladder(r, k_max)
            assert [c.hex() for c in costs] == [
                paper_cost(r, k).hex() for k in range(1, k_max + 1)
            ]
            assert [g.hex() for g in gains] == [
                item_gain(r, k).hex() for k in range(1, k_max + 1)
            ]
            assert [x.hex() for x in rels] == [
                function_reliability(r, k).hex() for k in range(k_max + 1)
            ]

    @pytest.mark.parametrize("r", [0.0, -0.25, 1.5, math.nan, math.inf])
    def test_ladders_reject_out_of_range_reliability(self, r):
        for ladder in (paper_cost_ladder, gain_ladder, reliability_ladder):
            with pytest.raises(ValidationError, match="instance reliability"):
                ladder(r, 3)

    @given(r=reliabilities)
    @settings(max_examples=80, deadline=None)
    def test_gains_decrease_in_k(self, r):
        """The dual face of Lemma 4.1: marginal gains decay in ``k``.

        Analytically the decrease is strict for r in (0, 1); in floats the
        tail underflows to exactly 0 once ``(1-r)^k`` vanishes (e.g. r=0.75,
        k=27), so strictness is only asserted while the gain still resolves
        above float noise.
        """
        gains = gain_ladder(r, K_MAX)
        assert gains[0] > 0
        for k in range(1, K_MAX):
            assert gains[k] <= gains[k - 1], (r, k)
            if gains[k - 1] > 1e-12:
                assert gains[k] < gains[k - 1], (r, k)
        assert all(g >= 0 for g in gains)

    def test_r_one_degenerates(self):
        """``r = 1`` sits outside Lemma 4.1: backups of a perfect instance
        cost infinitely much and gain nothing."""
        assert paper_cost(1.0, 0) == 0.0
        assert paper_cost(1.0, 1) == math.inf
        assert item_gain(1.0, 3) == 0.0


SPECS = list(differential_suite(24))
SPEC_IDS = [f"{s.family}-L{s.chain_length}-l{s.radius}-seed{s.seed}" for s in SPECS]

# The branch-and-bound oracle is exponential in the item count; hold
# it to the short-chain specs (still every topology family) so the property
# run stays in CI time.  Heuristic and HiGHS cover the full stream.
SMALL = [s for s in SPECS if s.chain_length <= 2]
SMALL_IDS = [f"{s.family}-L{s.chain_length}-l{s.radius}-seed{s.seed}" for s in SMALL]

ALGORITHMS = [
    ("heuristic", lambda: MatchingHeuristic()),
    ("heuristic-max-fill", lambda: MatchingHeuristic(stop_at_expectation=False)),
    ("ilp", lambda: ILPAlgorithm()),
]


def _assert_prefix(spec, result):
    by_position: dict[int, list[int]] = {}
    for placement in result.solution.placements:
        by_position.setdefault(placement.position, []).append(placement.k)
    for position, ks in by_position.items():
        assert sorted(ks) == list(range(1, len(ks) + 1)), (
            spec,
            position,
            sorted(ks),
        )


class TestLemma42PrefixProperty:
    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    @pytest.mark.parametrize(
        "algorithm_factory", [a[1] for a in ALGORITHMS], ids=[a[0] for a in ALGORITHMS]
    )
    def test_solutions_are_per_position_prefixes(
        self, spec, algorithm_factory, instance_factory
    ):
        problem = instance_factory(spec)
        result = algorithm_factory().solve(problem, rng=spec.seed)
        _assert_prefix(spec, result)

    @pytest.mark.parametrize("spec", SMALL, ids=SMALL_IDS)
    def test_bnb_solutions_are_per_position_prefixes(self, spec, instance_factory):
        problem = instance_factory(spec)
        result = AssignmentILP(backend="bnb").solve(problem, rng=spec.seed)
        _assert_prefix(spec, result)
