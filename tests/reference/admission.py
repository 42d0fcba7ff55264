"""The primary-intake loops the admission transaction replaced.

:class:`repro.admission.transaction.Admission` places every caller's
primaries through one loop under a policy.  The functions below are the
forms it replaced, kept as oracles:

* :func:`random_primary_placement_on_ledger` -- the capacity-checked branch
  of ``random_primary_placement`` (its ``ledger=`` argument), the reference
  for the :func:`~repro.admission.transaction.redrawn` policy;
* :func:`admit_request_loop` -- ``admit_request``'s own commit-and-re-plan
  loop, the reference for the :func:`~repro.admission.transaction.planned`
  policy; a re-plan builds the DAG's layers from the first unplaced
  position only (the loop once demanded a candidate for the placed
  positions too, and rejected feasible requests).

The transaction must place the same primaries, leave the same ledger
(journal, tags and ``used`` bytes), take the same draws and raise the same
:class:`~repro.util.errors.InfeasibleError` with the ledger untouched
(``tests/test_admission_transaction.py``).
"""

from __future__ import annotations

from repro.admission.admit import AdmissionOutcome
from repro.admission.dag import AdmissionDAG, most_reliable_path_weights
from repro.netmodel.capacity import CapacityLedger
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request
from repro.util.errors import InfeasibleError
from repro.util.rng import RandomState, as_rng


def random_primary_placement_on_ledger(
    network: MECNetwork,
    request: Request,
    rng: RandomState,
    ledger: CapacityLedger,
) -> tuple[int, ...]:
    """One draw per position among the cloudlets that fit it, allocated.

    Raises :class:`InfeasibleError` (the ledger rolled back) when some
    position fits on no cloudlet.
    """
    gen = as_rng(rng)
    cloudlets = list(network.cloudlets)
    placement: list[int] = []
    checkpoint = ledger.checkpoint()
    try:
        for i, func in enumerate(request.chain):
            feasible = [v for v in cloudlets if ledger.fits(v, func.demand)]
            if not feasible:
                raise InfeasibleError(
                    f"request {request.name!r}: no cloudlet fits primary of position {i}"
                )
            v = feasible[int(gen.integers(0, len(feasible)))]
            ledger.allocate(v, func.demand, tag=f"primary:{request.name}#{i}")
            placement.append(v)
    except InfeasibleError:
        ledger.rollback(checkpoint)
        raise
    return tuple(placement)


def admit_request_loop(
    network: MECNetwork,
    request: Request,
    ledger: CapacityLedger,
    use_transport_reliability: bool = False,
) -> AdmissionOutcome:
    """Section 4.1's DAG admission: commit each plan until a cloudlet no
    longer fits, then re-plan the suffix from the last committed one."""
    transport = (
        most_reliable_path_weights(network.graph) if use_transport_reliability else None
    )
    checkpoint = ledger.checkpoint()
    try:
        placement: list[int] = []
        position = 0
        while position < request.chain.length:
            dag = AdmissionDAG(
                network, request, ledger.residuals(), transport, start_from=position
            )
            anchor = placement[-1] if placement else None
            plan = dag.shortest_placement(start_from=position, anchor=anchor)
            committed = 0
            for offset, v in enumerate(plan):
                func = request.chain[position + offset]
                if not ledger.fits(v, func.demand):
                    break
                ledger.allocate(v, func.demand, tag=f"primary:{request.name}#{position + offset}")
                committed += 1
            if committed == 0:
                raise InfeasibleError(
                    f"request {request.name!r}: cannot place primary of position {position}"
                )
            placement.extend(plan[:committed])
            position += committed
    except InfeasibleError:
        ledger.rollback(checkpoint)
        raise

    dag = AdmissionDAG(
        network,
        request,
        {v: float("inf") for v in network.cloudlets},
        transport,
    )
    reliability = dag.placement_reliability(placement)
    return AdmissionOutcome(
        placement=tuple(placement),
        reliability=reliability,
        meets_expectation=request.meets_expectation(reliability),
    )
