"""Tests for the capacity ledger, including hypothesis-driven invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.netmodel.capacity import EPS, Allocation, CapacityLedger
from repro.util.errors import CapacityError, ValidationError


@pytest.fixture
def ledger() -> CapacityLedger:
    return CapacityLedger({0: 100.0, 1: 50.0, 2: 0.0})


class TestBasics:
    def test_initial_state(self, ledger):
        assert ledger.residual(0) == 100.0
        assert ledger.used(0) == 0.0
        assert ledger.initial(1) == 50.0
        assert set(ledger.nodes) == {0, 1, 2}

    def test_negative_initial_rejected(self):
        with pytest.raises(ValidationError):
            CapacityLedger({0: -1.0})

    def test_allocate_and_residual(self, ledger):
        ledger.allocate(0, 30.0)
        assert ledger.residual(0) == pytest.approx(70.0)
        assert ledger.used(0) == pytest.approx(30.0)

    def test_overallocation_raises(self, ledger):
        with pytest.raises(CapacityError):
            ledger.allocate(1, 50.1)

    def test_exact_fit_allowed(self, ledger):
        ledger.allocate(1, 50.0)
        assert ledger.residual(1) == pytest.approx(0.0)

    def test_allow_violation(self, ledger):
        ledger.allocate(1, 80.0, allow_violation=True)
        assert ledger.residual(1) == pytest.approx(-30.0)
        assert ledger.violations() == {1: pytest.approx(30.0)}

    def test_unknown_node(self, ledger):
        with pytest.raises(KeyError):
            ledger.allocate(42, 1.0)

    def test_nonpositive_amount(self, ledger):
        with pytest.raises(ValidationError):
            ledger.allocate(0, 0.0)
        with pytest.raises(ValidationError):
            ledger.allocate(0, -1.0)

    def test_fits(self, ledger):
        assert ledger.fits(0, 100.0)
        assert not ledger.fits(0, 100.5)
        assert not ledger.fits(2, 0.5)


class TestMaxUnits:
    def test_floor_division(self, ledger):
        assert ledger.max_units(0, 30.0) == 3
        assert ledger.max_units(1, 30.0) == 1
        assert ledger.max_units(2, 30.0) == 0

    def test_float_noise_robust(self):
        ledger = CapacityLedger({0: 1000.0})
        # 1000 / 250 must be exactly 4 despite float representation
        assert ledger.max_units(0, 250.0) == 4

    def test_unit_must_be_positive(self, ledger):
        with pytest.raises(ValidationError):
            ledger.max_units(0, 0.0)

    def test_after_allocations(self, ledger):
        ledger.allocate(0, 55.0)
        assert ledger.max_units(0, 30.0) == 1


class TestJournalAndRollback:
    def test_journal_records(self, ledger):
        a = ledger.allocate(0, 10.0, tag="x")
        assert ledger.journal == [a]
        assert a == Allocation(0, 10.0, "x")

    def test_release(self, ledger):
        a = ledger.allocate(0, 10.0)
        ledger.release(a)
        assert ledger.residual(0) == 100.0
        assert ledger.journal == []

    def test_release_unknown_rejected(self, ledger):
        with pytest.raises(ValidationError):
            ledger.release(Allocation(0, 5.0))

    def test_rollback(self, ledger):
        ledger.allocate(0, 10.0)
        mark = ledger.checkpoint()
        ledger.allocate(0, 20.0)
        ledger.allocate(1, 5.0)
        ledger.rollback(mark)
        assert ledger.residual(0) == pytest.approx(90.0)
        assert ledger.residual(1) == pytest.approx(50.0)
        assert len(ledger.journal) == 1

    def test_rollback_invalid_checkpoint(self, ledger):
        with pytest.raises(ValidationError):
            ledger.rollback(5)
        with pytest.raises(ValidationError):
            ledger.rollback(-1)

    def test_copy_is_independent(self, ledger):
        ledger.allocate(0, 10.0)
        clone = ledger.copy()
        clone.allocate(0, 10.0)
        assert ledger.residual(0) == pytest.approx(90.0)
        assert clone.residual(0) == pytest.approx(80.0)


class TestUsageStats:
    def test_untouched(self, ledger):
        mean, lo, hi = ledger.usage_stats()
        assert (mean, lo, hi) == (0.0, 0.0, 0.0)

    def test_basic_ratios(self, ledger):
        ledger.allocate(0, 50.0)
        mean, lo, hi = ledger.usage_stats()
        assert hi == pytest.approx(0.5)
        assert lo == 0.0
        assert mean == pytest.approx(0.25)  # over the two positive-capacity nodes

    def test_violation_ratio_above_one(self, ledger):
        ledger.allocate(1, 75.0, allow_violation=True)
        assert ledger.usage_ratio(1) == pytest.approx(1.5)

    def test_zero_capacity_node_ratio(self, ledger):
        assert ledger.usage_ratio(2) == 0.0

    def test_stats_subset(self, ledger):
        ledger.allocate(0, 100.0)
        mean, lo, hi = ledger.usage_stats(nodes=[0])
        assert (mean, lo, hi) == (pytest.approx(1.0),) * 3

    def test_empty_pool(self):
        ledger = CapacityLedger({0: 0.0})
        assert ledger.usage_stats() == (0.0, 0.0, 0.0)


class TestPropertyBased:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 2), st.floats(0.1, 40.0)),
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_used_equals_journal_sum(self, ops):
        """used(v) always equals the sum of journaled allocations at v."""
        ledger = CapacityLedger({0: 500.0, 1: 500.0, 2: 500.0})
        for node, amount in ops:
            try:
                ledger.allocate(node, amount)
            except CapacityError:
                pass
        for v in ledger.nodes:
            journal_sum = sum(a.amount for a in ledger.journal if a.node == v)
            assert ledger.used(v) == pytest.approx(journal_sum)
            assert ledger.residual(v) == pytest.approx(500.0 - journal_sum)

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 1), st.floats(0.1, 30.0)), min_size=1, max_size=20
        ),
        split=st.integers(0, 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_rollback_restores_state(self, ops, split):
        """Rollback to a checkpoint exactly undoes everything after it."""
        ledger = CapacityLedger({0: 1000.0, 1: 1000.0})
        split = min(split, len(ops))
        for node, amount in ops[:split]:
            ledger.allocate(node, amount)
        snapshot = ledger.residuals()
        mark = ledger.checkpoint()
        for node, amount in ops[split:]:
            ledger.allocate(node, amount, allow_violation=True)
        ledger.rollback(mark)
        for v, residual in snapshot.items():
            assert ledger.residual(v) == pytest.approx(residual)


class TestReleaseTag:
    def test_releases_all_matching(self, ledger):
        ledger.allocate(0, 10.0, tag="req-1")
        ledger.allocate(1, 5.0, tag="req-1")
        ledger.allocate(0, 7.0, tag="req-2")
        released = ledger.release_tag("req-1")
        assert released == pytest.approx(15.0)
        assert ledger.residual(0) == pytest.approx(100.0 - 7.0)
        assert ledger.residual(1) == pytest.approx(50.0)
        assert [a.tag for a in ledger.journal] == ["req-2"]

    def test_unknown_tag_is_noop(self, ledger):
        ledger.allocate(0, 10.0, tag="req-1")
        before = ledger.residuals()
        assert ledger.release_tag("nope") == 0.0
        assert ledger.residuals() == before
        assert len(ledger.journal) == 1

    def test_empty_tag_only_matches_empty(self, ledger):
        ledger.allocate(0, 10.0)  # default tag ""
        ledger.allocate(0, 4.0, tag="keep")
        assert ledger.release_tag("") == pytest.approx(10.0)
        assert [a.tag for a in ledger.journal] == ["keep"]

    def test_tagged_listing(self, ledger):
        a = ledger.allocate(0, 10.0, tag="x")
        ledger.allocate(1, 5.0, tag="y")
        b = ledger.allocate(0, 2.0, tag="x")
        assert ledger.tagged("x") == [a, b]
        assert ledger.tagged("z") == []

    def test_release_then_reallocate_cycle(self, ledger):
        """A release frees exactly the capacity to re-admit the same load."""
        ledger.allocate(1, 50.0, tag="full")
        with pytest.raises(CapacityError):
            ledger.allocate(1, 1.0)
        ledger.release_tag("full")
        ledger.allocate(1, 50.0, tag="again")  # must fit again
        assert ledger.residual(1) == pytest.approx(0.0)

    @given(
        tags=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30),
        victim=st.sampled_from(["a", "b", "c"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_release_tag_equals_sum_of_matches(self, tags, victim):
        ledger = CapacityLedger({0: 1e6})
        for i, tag in enumerate(tags):
            ledger.allocate(0, float(i + 1), tag=tag)
        expected = sum(i + 1 for i, tag in enumerate(tags) if tag == victim)
        used_before = ledger.used(0)
        assert ledger.release_tag(victim) == pytest.approx(float(expected))
        assert ledger.used(0) == pytest.approx(used_before - expected)
        assert all(a.tag != victim for a in ledger.journal)


class TestRunningAggregates:
    """Satellite regression: the O(1) running aggregates must stay
    *byte-identical* to the journal fold through every mutation path
    (allocate / release / release_tag / release_many / rollback)."""

    def journal_fold(self, ledger):
        total = 0.0
        for alloc in ledger.journal:
            total += alloc.amount
        return total

    def test_o1_accessors_exist_and_start_clean(self):
        ledger = CapacityLedger({0: 100.0, 1: 50.0})
        assert ledger.total_initial() == 150.0
        assert ledger.total_used() == 0.0
        assert ledger.total_residual() == 150.0

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["alloc", "release", "tag", "many", "rollback"]),
                st.integers(min_value=0, max_value=2),
                st.floats(min_value=0.1, max_value=30.0),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_total_used_equals_journal_fold_byte_exact(self, ops):
        ledger = CapacityLedger({0: 1e5, 1: 1e5, 2: 1e5})
        live = []
        mark = ledger.checkpoint()
        for kind, node, amount in ops:
            if kind == "alloc":
                live.append(ledger.allocate(node, amount, tag=f"t{node}"))
            elif kind == "release" and live:
                ledger.release(live.pop())
            elif kind == "tag":
                ledger.release_tag(f"t{node}")
                live = [a for a in live if a.tag != f"t{node}"]
            elif kind == "many" and live:
                half = live[: len(live) // 2 + 1]
                ledger.release_many(half)
                live = live[len(half):]
            elif kind == "rollback":
                ledger.rollback(mark)
                live = []
                mark = ledger.checkpoint()
            # Byte-exact, not approx: the aggregate IS the journal fold.
            assert ledger.total_used() == self.journal_fold(ledger)
            assert ledger.total_residual() == ledger.total_initial() - ledger.total_used()

    def test_aggregate_tracks_violation_allocations(self):
        ledger = CapacityLedger({0: 10.0})
        ledger.allocate(0, 25.0, allow_violation=True)
        assert ledger.total_used() == 25.0
        assert ledger.total_residual() == -15.0

    def test_copy_carries_aggregates(self):
        ledger = CapacityLedger({0: 100.0})
        ledger.allocate(0, 40.0)
        clone = ledger.copy()
        assert clone.total_used() == 40.0
        clone.release_tag("")
        assert clone.total_used() == 0.0
        assert ledger.total_used() == 40.0


def _fold(amounts) -> float:
    total = 0.0
    for amount in amounts:
        total += amount
    return total


_NODES = (0, 1, 2)
_CAPACITY = 100.0


class LedgerMachine(RuleBasedStateMachine):
    """The ledger against a naive model of its contract.

    The model is a flat list of ``(seq, allocation)`` in allocation order,
    where ``seq`` counts allocations and is rewound by a rollback.  A node's
    occupancy is the fold of its list of amounts, recomputed from scratch;
    the ledger must match it byte for byte after every step, through
    allocation, release by id, tag release, rollback and copying.
    """

    def __init__(self):
        super().__init__()
        self.ledger = CapacityLedger({v: _CAPACITY for v in _NODES})
        self.live: list[tuple[int, Allocation]] = []
        self.dead: list[Allocation] = []
        self.seq = 0
        self.marks: list[int] = []

    def used(self, v: int) -> float:
        return _fold(a.amount for _, a in self.live if a.node == v)

    def retire(self, gone) -> None:
        ids = {id(a) for a in gone}
        self.dead += gone
        self.live = [(s, a) for s, a in self.live if id(a) not in ids]

    @rule(
        node=st.sampled_from(_NODES),
        amount=st.floats(0.5, 60.0),
        tag=st.sampled_from("abc"),
        violate=st.booleans(),
    )
    def allocate(self, node, amount, tag, violate):
        if not violate and not _CAPACITY - self.used(node) + EPS >= amount:
            with pytest.raises(CapacityError):
                self.ledger.allocate(node, amount, tag)
            return
        alloc = self.ledger.allocate(node, amount, tag, allow_violation=violate)
        assert alloc == Allocation(node, amount, tag)
        self.live.append((self.seq, alloc))
        self.seq += 1

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def release_many(self, data):
        picks = data.draw(
            st.lists(st.integers(0, len(self.live) - 1), min_size=1, unique=True)
        )
        victims = [self.live[i][1] for i in picks]
        if len(victims) == 1:
            self.ledger.release(victims[0])
        else:
            assert self.ledger.release_many(victims) == _fold(a.amount for a in victims)
        self.retire(victims)

    @precondition(lambda self: self.dead)
    @rule(data=st.data(), with_live=st.booleans())
    def release_dead_is_rejected(self, data, with_live):
        stale = data.draw(st.sampled_from(self.dead))
        # An id the ledger handed out again after a rollback, to an
        # allocation holding the same node, amount and tag, is that live
        # allocation as far as anyone can tell.
        if any(a.id == stale.id and a == stale for _, a in self.live):
            return
        batch = [a for _, a in self.live[:1]] if with_live else []
        with pytest.raises(ValidationError):
            self.ledger.release_many(batch + [stale])

    @rule(tag=st.sampled_from("abcd"))
    def release_tag(self, tag):
        victims = [a for _, a in self.live if a.tag == tag]
        assert self.ledger.release_tag(tag) == _fold(a.amount for a in victims)
        self.retire(victims)

    @rule()
    def checkpoint(self):
        self.marks.append(self.ledger.checkpoint())

    @precondition(lambda self: self.marks)
    @rule(data=st.data())
    def rollback(self, data):
        mark = data.draw(st.sampled_from(self.marks))
        self.ledger.rollback(mark)
        self.retire([a for s, a in self.live if s >= mark])
        self.seq = mark
        self.marks = [m for m in self.marks if m <= mark]

    @rule()
    def rollback_past_the_end_is_rejected(self):
        with pytest.raises(ValidationError):
            self.ledger.rollback(self.seq + 1)

    @rule()
    def swap_for_copy(self):
        self.ledger = self.ledger.copy()

    @invariant()
    def matches_model(self):
        for v in _NODES:
            used = self.used(v)
            assert self.ledger.used(v) == used
            assert self.ledger.residual(v) == _CAPACITY - used
        journal = self.ledger.journal
        assert len(journal) == len(self.live)
        assert all(x is y for x, (_, y) in zip(journal, self.live))
        assert self.ledger.total_used() == _fold(a.amount for _, a in self.live)
        assert self.ledger.checkpoint() == self.seq
        assert not self.ledger.audit_cache()


TestLedgerStateMachine = LedgerMachine.TestCase
TestLedgerStateMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
