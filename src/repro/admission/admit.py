"""Primary placement entry points.

:func:`admit_request` runs the Section 4.1 admission framework: DAG-based
maximum-reliability placement with capacity-aware re-planning.  The DAG's
dynamic program picks one cloudlet per layer independently of how many other
layers picked the same cloudlet, so the remaining suffix is re-planned
against updated residuals whenever a planned cloudlet no longer fits -- at
most ``L`` re-plans, each a fresh DP sweep
(:func:`~repro.admission.transaction.planned`).

:func:`random_primary_placement` reproduces the *experimental* convention of
Section 7.1: primaries are deployed uniformly at random onto cloudlets,
capacity-blind -- the paper's sweeps treat the stated residual fraction as
the post-admission state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.admission.dag import AdmissionDAG, most_reliable_path_weights
from repro.admission.transaction import Admission, planned
from repro.netmodel.capacity import CapacityLedger
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request
from repro.util.rng import RandomState, as_rng


@dataclass(frozen=True)
class AdmissionOutcome:
    """Result of admitting one request.

    Attributes
    ----------
    placement:
        Cloudlet per chain position.
    reliability:
        Reliability of the admitted chain (primaries only; includes
        transport reliability when the graph models it).
    meets_expectation:
        Whether the admission alone satisfies ``rho_j`` -- the early-exit
        condition of Algorithms 1 and 2.
    """

    placement: tuple[int, ...]
    reliability: float
    meets_expectation: bool


def admit_request(
    network: MECNetwork,
    request: Request,
    ledger: CapacityLedger,
    use_transport_reliability: bool = False,
) -> AdmissionOutcome:
    """Place the request's primaries for maximum reliability (Section 4.1).

    Capacity for every placed primary is allocated from ``ledger``; on
    :class:`InfeasibleError` the ledger is left unchanged.

    Parameters
    ----------
    use_transport_reliability:
        When True, edges' ``reliability`` attributes contribute to path
        weights (Ma et al.'s full model); default False matches this
        paper's instance-only reliability.
    """
    transport = (
        most_reliable_path_weights(network.graph) if use_transport_reliability else None
    )
    placement = Admission(ledger, request, planned(network, transport)).primaries
    dag = AdmissionDAG(
        network,
        request,
        # reliability evaluation never needs capacities; pass generous ones
        {v: float("inf") for v in network.cloudlets},
        transport,
    )
    reliability = dag.placement_reliability(placement)
    return AdmissionOutcome(
        placement=placement,
        reliability=reliability,
        meets_expectation=request.meets_expectation(reliability),
    )


def random_primary_placement(
    network: MECNetwork,
    request: Request,
    rng: RandomState = None,
) -> tuple[int, ...]:
    """Uniform random primary placement onto cloudlets (Section 7.1).

    The draw ignores capacity (the experiment harness's convention, where
    the stated residual fraction already reflects admitted load); the
    capacity-checked draw is :func:`~repro.admission.transaction.redrawn`.
    """
    gen = as_rng(rng)
    cloudlets = network.cloudlets
    idx = gen.integers(0, len(cloudlets), size=request.chain.length)
    return tuple(cloudlets[int(i)] for i in idx)
