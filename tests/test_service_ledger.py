"""The capacity ledger as the admission service drives it.

The service allocates a request's primaries and backups on several nodes,
rolls a partial intake back when a primary does not fit, and releases a
request's allocations all at once when it departs, in any order relative
to other requests.  These tests hold the per-node-journal ledger to a
monolithic reference -- one flat list of live allocations in allocation
order, refolded per node from scratch -- and check the release, rollback
and refold-audit contracts the service relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos.audit import AuditViolationError, audit_sharded
from repro.netmodel.capacity import Allocation, CapacityLedger
from repro.util.errors import ValidationError


class MonolithicJournal:
    """Reference model: one flat journal of live allocations."""

    def __init__(self, capacities):
        self.initial = dict(capacities)
        self.entries: list[Allocation] = []

    def release(self, allocations) -> None:
        gone = {id(a) for a in allocations}
        self.entries = [a for a in self.entries if id(a) not in gone]

    def used(self, v: int) -> float:
        total = 0.0
        for alloc in self.entries:
            if alloc.node == v:
                total += alloc.amount
        return total


def make_pair(num_nodes=24, seed=0):
    rng = np.random.default_rng(seed)
    capacities = {v: float(rng.integers(500, 1500)) for v in range(num_nodes)}
    return CapacityLedger(capacities), MonolithicJournal(capacities)


def random_workload(ledger, model, rng, steps=300, spread=3):
    """Requests of ``spread`` allocations arrive and depart at random.

    An arrival whose next allocation does not fit rolls its partial intake
    back, as the service does for a primary-infeasible request; a departure
    releases every allocation of one live request at once.
    """
    live: list[list[Allocation]] = []
    for step in range(steps):
        if rng.random() < 0.6 or not live:
            mark = ledger.checkpoint()
            request: list[Allocation] = []
            for i in range(spread):
                v = int(rng.choice(ledger.nodes))
                amount = float(rng.integers(1, 50)) + float(rng.random())
                if not ledger.fits(v, amount):
                    ledger.rollback(mark)
                    request = []
                    break
                request.append(ledger.allocate(v, amount, f"r{step}#{i}"))
            if request:
                model.entries.extend(request)
                live.append(request)
        else:
            departing = live.pop(int(rng.integers(0, len(live))))
            ledger.release_many(departing)
            model.release(departing)
    return live


def fold(amounts) -> float:
    total = 0.0
    for amount in amounts:
        total += amount
    return total


class TestMonolithicEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("spread", [1, 3, 8])
    def test_per_node_state_byte_identical(self, seed, spread):
        ledger, model = make_pair(seed=seed)
        random_workload(ledger, model, np.random.default_rng(seed + 100), spread=spread)
        for v in ledger.nodes:
            # Byte-exact: a node's journal is the flat journal restricted to it.
            assert ledger.used(v) == model.used(v)
            assert ledger.residual(v) == model.initial[v] - model.used(v)
        journal = ledger.journal
        assert len(journal) == len(model.entries)
        assert all(a is b for a, b in zip(journal, model.entries))
        assert ledger.derived_used() == {v: model.used(v) for v in ledger.nodes}
        assert not ledger.audit_cache()

    def test_aggregates_match_journal_sum(self):
        ledger, _ = make_pair()
        rng = np.random.default_rng(7)
        for step in range(200):
            v = int(rng.choice(ledger.nodes))
            amount = float(rng.integers(1, 40)) + float(rng.random())
            if ledger.fits(v, amount):
                ledger.allocate(v, amount, f"t{step % 4}")
            if step % 9 == 0:
                ledger.release_tag(f"t{step % 4}")
        assert ledger.total_used() == fold(a.amount for a in ledger.journal)
        assert ledger.total_used() == pytest.approx(
            sum(ledger.used(v) for v in ledger.nodes)
        )
        assert ledger.total_residual() == ledger.total_initial() - ledger.total_used()


class TestCheckpointRollback:
    def test_rollback_is_byte_exact(self):
        ledger, model = make_pair(seed=5)
        random_workload(ledger, model, np.random.default_rng(55), steps=100)
        before = {v: ledger.used(v) for v in ledger.nodes}
        journal = ledger.journal
        mark = ledger.checkpoint()
        rng = np.random.default_rng(56)
        for _ in range(30):
            v = int(rng.choice(ledger.nodes))
            if ledger.fits(v, 10.0):
                ledger.allocate(v, 10.0, "speculative")
        ledger.rollback(mark)
        assert {v: ledger.used(v) for v in ledger.nodes} == before
        assert all(a is b for a, b in zip(ledger.journal, journal))
        assert len(ledger.journal) == len(journal)
        assert ledger.checkpoint() == mark

    def test_release_in_between_stays_released(self):
        ledger, _ = make_pair(num_nodes=4)
        kept = ledger.allocate(0, 30.0, "kept")
        gone = ledger.allocate(1, 20.0, "gone")
        mark = ledger.checkpoint()
        ledger.allocate(2, 10.0, "speculative")
        ledger.release(gone)
        ledger.rollback(mark)
        assert ledger.journal == [kept]
        assert ledger.used(1) == 0.0 and ledger.used(2) == 0.0
        assert not ledger.audit_cache()


class TestAtomicReleaseMany:
    def test_release_many_spans_shards(self):
        # One allocation in each of ten nodes' journals, released at once.
        ledger, _ = make_pair(num_nodes=20)
        allocs = [ledger.allocate(v, 5.0, "req") for v in ledger.nodes[:10]]
        ledger.allocate(ledger.nodes[0], 7.0, "other")
        released = ledger.release_many(allocs)
        assert released == 50.0
        assert ledger.total_used() == 7.0
        assert [ledger.used(v) for v in ledger.nodes[:3]] == [7.0, 0.0, 0.0]

    def test_missing_entry_releases_nothing_anywhere(self):
        ledger, _ = make_pair(num_nodes=20)
        allocs = [ledger.allocate(v, 5.0, "req") for v in ledger.nodes[:10]]
        victim = allocs[7]
        ledger.release(victim)  # now absent from the journal
        before = {v: ledger.used(v) for v in ledger.nodes}
        with pytest.raises(ValidationError):
            ledger.release_many(allocs)
        # Atomicity: every entry is checked before any is removed, so even
        # the nodes holding valid entries released nothing.
        assert {v: ledger.used(v) for v in ledger.nodes} == before
        assert len(ledger.journal) == 9

    def test_release_many_empty_is_noop(self):
        ledger, _ = make_pair()
        assert ledger.release_many([]) == 0.0

    def test_duplicate_and_unissued_allocations_rejected(self):
        ledger, _ = make_pair(num_nodes=4)
        alloc = ledger.allocate(0, 5.0, "req")
        for bad in ([alloc, alloc], [Allocation(0, 5.0, "req")]):
            with pytest.raises(ValidationError):
                ledger.release_many(bad)
        assert ledger.journal == [alloc] and ledger.used(0) == 5.0

    def test_stale_allocation_cannot_release_its_successor(self):
        # A rollback hands the undone ids out again; an allocation object
        # from before the rollback must not release the new holder.
        ledger, _ = make_pair(num_nodes=4)
        mark = ledger.checkpoint()
        stale = ledger.allocate(0, 5.0, "first")
        ledger.rollback(mark)
        fresh = ledger.allocate(1, 9.0, "second")
        assert fresh.id == stale.id
        with pytest.raises(ValidationError):
            ledger.release(stale)
        assert ledger.journal == [fresh] and ledger.used(1) == 9.0


class TestAudit:
    def test_audit_sharded_passes_on_healthy_ledger(self):
        ledger, model = make_pair(seed=9)
        random_workload(ledger, model, np.random.default_rng(99), steps=150)
        audit_sharded(ledger, now=1.0)

    def test_audit_sharded_raises_on_violation(self):
        ledger, _ = make_pair()
        v = ledger.nodes[0]
        ledger.allocate(v, ledger.initial(v) + 100.0, "boom", allow_violation=True)
        with pytest.raises(AuditViolationError):
            audit_sharded(ledger, now=2.0)

    def test_audit_sharded_raises_on_cache_drift(self):
        ledger, _ = make_pair()
        v = ledger.nodes[3]
        ledger.allocate(v, 10.0, "a")
        ledger._used[v] += 1.0  # simulate a bookkeeping bug
        with pytest.raises(AuditViolationError) as info:
            audit_sharded(ledger, now=3.0)
        assert info.value.dump["drift"] == {str(v): {"cached": 11.0, "derived": 10.0}}

    def test_copy_is_independent(self):
        ledger, _ = make_pair()
        a = ledger.allocate(ledger.nodes[0], 10.0, "a")
        clone = ledger.copy()
        clone.allocate(clone.nodes[0], 10.0, "b")
        clone.release(a)
        assert ledger.used(ledger.nodes[0]) == 10.0
        assert clone.used(clone.nodes[0]) == 10.0
        assert ledger.journal == [a]
