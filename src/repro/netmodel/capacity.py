"""Residual-capacity accounting with journaling, rollback, and violation
tracking.

All three algorithms of the paper consume cloudlet computing capacity when
they place VNF instances; the heuristic must *never* exceed residual capacity
(Theorem 6.2) while the randomized algorithm is allowed moderate violations
that Theorem 5.2 bounds by a factor of two with high probability -- and that
Figures 1(b)/2(b)/3(b) *measure*.  :class:`CapacityLedger` supports both
regimes:

* strict mode (default): an over-allocation raises :class:`CapacityError`;
* tracking mode (``allow_violation=True`` on :meth:`allocate`): the
  allocation is recorded anyway and usage ratios above 1.0 become visible in
  :meth:`usage_ratio` / :meth:`usage_stats`.

Every allocation is journaled so a caller can roll back to a checkpoint --
used by algorithms that tentatively commit a matching round and retract it
when the budget check fails.

Journal layout
--------------
Each allocation gets an integer id, increasing in allocation order.  The
ledger keeps two views of the live allocations:

* the **allocation log**, ``id -> Allocation`` in allocation order -- the
  journal proper, what :attr:`CapacityLedger.journal` returns and what the
  refold audit re-derives occupancy from;
* **per-node journals** (the journal sharded by node), ``id -> amount`` in
  allocation order for each node.

A node's ``used`` is always *exactly* the left-to-right fold of its own
journal.  Releasing an allocation pops it from both views by id and
refolds that one node's journal, so a release costs O(entries at the node)
instead of O(live journal).  Because both views are insertion-ordered and
ids only grow, a node's journal is the allocation log restricted to that
node, and the refold is byte-identical to refolding the whole log.
:meth:`CapacityLedger.rollback` truncates the allocation log back to a
checkpoint id and refolds only the nodes it touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.util.errors import CapacityError, ValidationError

#: Tolerance for floating-point capacity comparisons.  Demands and capacities
#: are MHz-scale floats; 1e-9 absolute slack is far below one unit.
EPS = 1e-9


@dataclass(frozen=True, slots=True)
class Allocation:
    """One journaled capacity allocation.

    Attributes
    ----------
    node:
        Cloudlet node id the resource was taken from.
    amount:
        Computing resource consumed (MHz), strictly positive.
    tag:
        Free-form label identifying the consumer (e.g. ``"f3#2"`` for the
        second secondary of chain position 3); used in diagnostics only.
    id:
        Position in the issuing ledger's allocation order; the key a
        release looks the entry up by.  Not part of equality, so an
        allocation compares by what it holds, not by when it was made.
        ``-1`` marks an allocation no ledger issued.
    """

    node: int
    amount: float
    tag: str = ""
    id: int = field(default=-1, compare=False)


def _fold(amounts: Iterable[float]) -> float:
    """Left-to-right float sum (``sum()`` may compensate on newer Pythons)."""
    total = 0.0
    for amount in amounts:
        total += amount
    return total


class CapacityLedger:
    """Tracks residual computing capacity of every cloudlet.

    Parameters
    ----------
    capacities:
        Initial residual capacity per cloudlet node, ``{node: MHz}``.
        This is typically either :attr:`MECNetwork.capacities` restricted to
        cloudlets or :meth:`MECNetwork.scaled_capacities` output.
    """

    def __init__(self, capacities: Mapping[int, float]):
        for v, c in capacities.items():
            if c < 0:
                raise ValidationError(f"initial capacity of node {v!r} must be >= 0, got {c}")
        self._initial: dict[int, float] = {v: float(c) for v, c in capacities.items()}
        self._used: dict[int, float] = {v: 0.0 for v in capacities}
        #: The allocation log: live allocations by id, in allocation order.
        self._log: dict[int, Allocation] = {}
        #: Per-node journals, ``node -> {id: amount}``, created on first use.
        self._journals: dict[int, dict[int, float]] = {}
        self._next_id = 0
        self._total_initial: float = _fold(self._initial.values())
        # ``total_used()``: the fold of the allocation log's amounts.
        # Allocations extend it in place; removals mark it stale (None) and
        # the next query refolds it.
        self._agg_used: float | None = 0.0

    # -- queries --------------------------------------------------------------
    @property
    def nodes(self) -> list[int]:
        """All tracked cloudlet node ids."""
        return list(self._initial)

    def initial(self, v: int) -> float:
        """Initial residual capacity of node ``v``."""
        return self._initial[v]

    def used(self, v: int) -> float:
        """Capacity consumed at node ``v`` so far."""
        return self._used[v]

    def residual(self, v: int) -> float:
        """Remaining capacity ``C'_v`` at node ``v`` (may be negative in
        tracking mode after a violation)."""
        return self._initial[v] - self._used[v]

    def residuals(self) -> dict[int, float]:
        """Copy of the node -> residual map."""
        return {v: self.residual(v) for v in self._initial}

    def fits(self, v: int, amount: float) -> bool:
        """Whether ``amount`` can be allocated at ``v`` without violation."""
        return self.residual(v) + EPS >= amount

    def max_units(self, v: int, unit: float) -> int:
        """``floor(C'_v / unit)`` -- how many instances of demand ``unit`` fit.

        This is the ``k_{i,l}`` quantity of Section 4.2.  A tiny epsilon is
        added before flooring so that e.g. residual 1000.0 and unit 250.0
        robustly yield 4 despite float noise.
        """
        if unit <= 0:
            raise ValidationError(f"unit demand must be > 0, got {unit}")
        residual = self.residual(v)
        if residual <= 0:
            return 0
        return int((residual + EPS) / unit)

    # -- mutation -------------------------------------------------------------
    def allocate(
        self, v: int, amount: float, tag: str = "", allow_violation: bool = False
    ) -> Allocation:
        """Consume ``amount`` capacity at node ``v`` and journal it.

        Raises
        ------
        CapacityError
            If the allocation does not fit and ``allow_violation`` is False.
        """
        if v not in self._initial:
            raise KeyError(f"unknown cloudlet {v!r}")
        if amount <= 0:
            raise ValidationError(f"allocation amount must be > 0, got {amount}")
        if not allow_violation and not self.fits(v, amount):
            raise CapacityError(
                f"allocating {amount:.3f} at node {v} exceeds residual "
                f"{self.residual(v):.3f}"
            )
        aid = self._next_id
        self._next_id = aid + 1
        alloc = Allocation(v, amount, tag, aid)
        self._used[v] += amount  # extends the node's fold in place
        if self._agg_used is not None:
            self._agg_used += amount
        self._log[aid] = alloc
        journal = self._journals.get(v)
        if journal is None:
            journal = self._journals[v] = {}
        journal[aid] = amount
        return alloc

    def _remove(self, allocations: Iterable[Allocation]) -> None:
        """Drop live allocations from both views and refold their nodes.

        Keeping ``used[v]`` *exactly* equal to the fold of the node's
        journal (rather than patching it with subtractions, which leaves
        float residue) makes :meth:`rollback` byte-identical: restoring a
        checkpoint's journal restores bit-for-bit the ``used`` values it
        had.
        """
        touched: set[int] = set()
        for alloc in allocations:
            del self._log[alloc.id]
            del self._journals[alloc.node][alloc.id]
            touched.add(alloc.node)
        if not touched:
            return
        self._agg_used = None
        for v in touched:
            self._used[v] = _fold(self._journals[v].values())

    def release(self, allocation: Allocation) -> None:
        """Return a journaled allocation's capacity (out-of-order release OK)."""
        self.release_many((allocation,))

    def release_tag(self, tag: str) -> float:
        """Release *every* journaled allocation carrying ``tag``.

        Used by lifecycle events that retire a whole consumer at once: a
        request departing the system, a failed instance whose capacity
        returns to the pool, a cloudlet-outage blockade being lifted.
        Scans the live allocation log once (tags are not indexed).

        Returns the total amount released (0.0 when no allocation matches).
        """
        victims = [alloc for alloc in self._log.values() if alloc.tag == tag]
        self._remove(victims)
        return _fold(alloc.amount for alloc in victims)

    def release_many(self, allocations: Iterable[Allocation]) -> float:
        """Release several journaled allocations, all or nothing.

        Each allocation is looked up by the id this ledger gave it and must
        still be live here; an allocation the ledger did not issue, one
        already released or rolled back, or one listed twice raises
        :class:`ValidationError` with nothing released.  Costs O(1) per
        allocation plus one refold per touched node's journal, independent
        of how many other allocations are live.

        Returns the total amount released.
        """
        victims = list(allocations)
        log = self._log
        seen: set[int] = set()
        for alloc in victims:
            live = log.get(alloc.id)
            if live is None or alloc.id in seen or (live is not alloc and live != alloc):
                raise ValidationError(f"allocation {alloc!r} is not in the journal")
            seen.add(alloc.id)
        self._remove(victims)
        return _fold(alloc.amount for alloc in victims)

    def tagged(self, tag: str) -> list[Allocation]:
        """All journaled allocations carrying ``tag``, in allocation order."""
        return [a for a in self._log.values() if a.tag == tag]

    def checkpoint(self) -> int:
        """Opaque marker: the id the next allocation will get."""
        return self._next_id

    def rollback(self, checkpoint: int) -> None:
        """Undo every allocation made after ``checkpoint``.

        Truncates the allocation log back to the checkpoint id, newest
        first, and refolds only the nodes those allocations touched.  With
        no release in between, the ledger is restored *byte-identically*
        to its state at :meth:`checkpoint` time (journals, ``used`` values
        and the next id alike); an allocation released in between stays
        released.
        """
        if checkpoint < 0 or checkpoint > self._next_id:
            raise ValidationError(f"invalid checkpoint {checkpoint}")
        undone: list[Allocation] = []
        for aid in reversed(self._log):
            if aid < checkpoint:
                break
            undone.append(self._log[aid])
        self._remove(undone)
        self._next_id = checkpoint

    # -- reporting ------------------------------------------------------------
    @property
    def journal(self) -> list[Allocation]:
        """Copy of the allocation journal, in allocation order."""
        return list(self._log.values())

    def total_initial(self) -> float:
        """Sum of every node's initial capacity -- O(1), computed once."""
        return self._total_initial

    def total_used(self) -> float:
        """Total capacity consumed across all nodes.

        Defined as the left-to-right fold of the live journal's amounts in
        allocation order, so ``total_used()`` equals
        ``sum(a.amount for a in ledger.journal)`` *byte-for-byte* at all
        times (the aggregate regression test pins this).  O(1) while only
        allocations happen; the first query after a release or rollback
        refolds the journal once.  This fold order differs from
        ``sum(ledger.used(v) for v in ledger.nodes)``, which groups by node
        first -- equal up to float associativity.
        """
        if self._agg_used is None:
            self._agg_used = _fold(alloc.amount for alloc in self._log.values())
        return self._agg_used

    def total_residual(self) -> float:
        """``total_initial() - total_used()`` -- aggregate residual."""
        return self._total_initial - self.total_used()

    # -- auditing -------------------------------------------------------------
    def derived_used(self) -> dict[int, float]:
        """Re-derive per-node occupancy by refolding the allocation log.

        This is the auditor's entry point: it recomputes what ``used(v)``
        *should* be from the allocation log alone -- neither the cached sums
        nor the per-node journals they are folded from are read.  A healthy
        ledger satisfies ``derived_used()[v] == used(v)`` **byte-exactly**
        (``==`` on floats, no tolerance) for every node -- any drift means
        the cache, the per-node journals and the log disagree, i.e. a
        bookkeeping bug.
        """
        derived = {v: 0.0 for v in self._initial}
        for alloc in self._log.values():
            derived[alloc.node] += alloc.amount
        return derived

    def audit_cache(self) -> dict[int, tuple[float, float]]:
        """Nodes where the cached ``used`` diverges from :meth:`derived_used`.

        Returns ``{node: (cached, derived)}``; empty on a healthy ledger.
        The comparison is exact (bit-level), not tolerance-based.
        """
        derived = self.derived_used()
        return {
            v: (self._used[v], derived[v])
            for v in self._initial
            if self._used[v] != derived[v]
        }

    def journal_tags(self) -> dict[str, list[Allocation]]:
        """The journal grouped by tag, in allocation order within each tag.

        Used by invariant auditors to reconcile the ledger against an
        independent record of who should be holding capacity (live chain
        instances, outage blockades, ...).
        """
        by_tag: dict[str, list[Allocation]] = {}
        for alloc in self._log.values():
            by_tag.setdefault(alloc.tag, []).append(alloc)
        return by_tag

    def usage_ratio(self, v: int) -> float:
        """``used / initial`` at node ``v``; > 1.0 indicates a violation.

        Nodes that started with zero residual capacity report 0.0 when
        untouched and ``inf`` if anything was (violatingly) placed there.
        """
        initial = self._initial[v]
        used = self._used[v]
        if initial <= 0:
            return float("inf") if used > EPS else 0.0
        return used / initial

    def usage_stats(self, nodes: Iterable[int] | None = None) -> tuple[float, float, float]:
        """``(mean, min, max)`` usage ratio over ``nodes``.

        This is exactly what Figures 1(b)/2(b)/3(b) plot for the randomized
        algorithm.  ``nodes`` defaults to every tracked cloudlet with
        positive initial capacity.
        """
        pool = [v for v in (nodes if nodes is not None else self._initial) if self._initial[v] > 0]
        if not pool:
            return (0.0, 0.0, 0.0)
        ratios = [self.usage_ratio(v) for v in pool]
        return (sum(ratios) / len(ratios), min(ratios), max(ratios))

    def violations(self) -> dict[int, float]:
        """Nodes whose usage exceeds initial capacity, with the excess amount."""
        out: dict[int, float] = {}
        for v in self._initial:
            excess = self._used[v] - self._initial[v]
            if excess > EPS:
                out[v] = excess
        return out

    def copy(self) -> "CapacityLedger":
        """Deep copy (journal included) -- lets algorithms run on clones of a
        shared initial state."""
        clone = CapacityLedger(self._initial)
        clone._used = dict(self._used)
        clone._log = dict(self._log)
        clone._journals = {v: dict(journal) for v, journal in self._journals.items()}
        clone._next_id = self._next_id
        clone._agg_used = self._agg_used
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        total_init = sum(self._initial.values())
        total_used = sum(self._used.values())
        return f"CapacityLedger(nodes={len(self._initial)}, used={total_used:.0f}/{total_init:.0f})"
