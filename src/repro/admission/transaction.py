"""One request's admission as one ledger transaction.

The paper admits a request by placing its primaries (Section 4.1, or at
random per Section 7.1), then committing the backups that Algorithm 2
places on the residual capacity.  :class:`Admission` is that transaction
for the admission service, both request streams, the joint comparison and
:func:`~repro.admission.admit.admit_request`, and it owns their ledger
tags: ``primary:{name}#{i}`` and ``backup:{name}#{i}.{k}`` (the ``k``-th
backup of position ``i``).  Its one parameter is the primary policy
``choose(ledger, request, placed)``: :func:`drawn`, :func:`redrawn` or
:func:`planned`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.admission.dag import AdmissionDAG
from repro.core.solution import Placement
from repro.netmodel.capacity import Allocation, CapacityLedger
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request
from repro.util.errors import CapacityError, InfeasibleError
from repro.util.rng import RandomState, as_rng

#: ``choose(ledger, request, placed)`` returns a cloudlet that fits the primary
#: of position ``len(placed)``, or raises :class:`InfeasibleError` (a miss).
PrimaryPolicy = Callable[[CapacityLedger, Request, Sequence[int]], int]


class Admission:
    """One request's primaries and backups on ``ledger``.

    Construction places the primaries all or nothing: a miss rolls the
    ledger back to the checkpoint taken before the first one and raises
    :class:`InfeasibleError`.  ``primaries`` holds their cloudlets;
    ``allocations`` the primaries in chain order, then the committed
    backups in commit order.
    """

    def __init__(self, ledger: CapacityLedger, request: Request, choose: PrimaryPolicy):
        self.ledger = ledger
        self.request = request
        self.allocations: list[Allocation] = []
        placed: list[int] = []
        checkpoint = ledger.checkpoint()
        try:
            for i, func in enumerate(request.chain):
                v = choose(ledger, request, placed)
                tag = f"primary:{request.name}#{i}"
                self.allocations.append(ledger.allocate(v, func.demand, tag=tag))
                placed.append(v)
        except InfeasibleError:
            ledger.rollback(checkpoint)
            raise
        self.primaries = tuple(placed)

    def commit(self, placements: Iterable[Placement]) -> None:
        """Allocate the backups; a :class:`CapacityError` aborts, then re-raises."""
        name = self.request.name
        try:
            for p in placements:
                tag = f"backup:{name}#{p.position}.{p.k}"
                self.allocations.append(self.ledger.allocate(p.bin, p.demand, tag=tag))
        except CapacityError:
            self.abort()
            raise

    def abort(self) -> float:
        """Release every allocation of the request by id; returns the amount."""
        released = self.ledger.release_many(self.allocations)
        self.allocations = []
        return released


def drawn(draw: Sequence[int]) -> PrimaryPolicy:
    """The cloudlets of ``draw`` in chain order; one that does not fit is a miss."""

    def choose(ledger, request, placed):
        i = len(placed)
        if not ledger.fits(draw[i], request.chain[i].demand):
            raise InfeasibleError(
                f"request {request.name!r}: drawn cloudlet {draw[i]} cannot host "
                f"the primary of position {i}"
            )
        return draw[i]

    return choose


def redrawn(cloudlets: Sequence[int], rng: RandomState = None) -> PrimaryPolicy:
    """One draw per position, uniform among the ``cloudlets`` that fit it."""
    gen = as_rng(rng)

    def choose(ledger, request, placed):
        i = len(placed)
        demand = request.chain[i].demand
        feasible = [v for v in cloudlets if ledger.fits(v, demand)]
        if not feasible:
            raise InfeasibleError(
                f"request {request.name!r}: no cloudlet fits primary of position {i}"
            )
        return feasible[int(gen.integers(0, len(feasible)))]

    return choose


def planned(
    network: MECNetwork, transport: Mapping[int, Mapping[int, float]] | None = None
) -> PrimaryPolicy:
    """The maximum-reliability DAG plan (Section 4.1), re-planned as it fills.

    When a planned cloudlet no longer fits, the suffix is re-planned on the
    current residuals from the last placed cloudlet, over the layers of
    the unplaced positions only; a fresh plan whose first cloudlet does
    not fit is a miss.
    """
    plan: list[int] = []  # the current plan's cloudlets not yet placed

    def choose(ledger, request, placed):
        i = len(placed)
        demand = request.chain[i].demand
        if not (placed and plan and ledger.fits(plan[0], demand)):
            dag = AdmissionDAG(
                network, request, ledger.residuals(), transport, start_from=i
            )
            anchor = placed[-1] if placed else None
            plan[:] = dag.shortest_placement(start_from=i, anchor=anchor)
            if not ledger.fits(plan[0], demand):
                raise InfeasibleError(
                    f"request {request.name!r}: cannot place primary of position {i}"
                )
        return plan.pop(0)

    return choose
