"""Sequential reference model of the admission service, for differential tests.

:class:`ReferenceAdmission` admits requests one at a time, in arrival
order, with the conventions of
:class:`repro.service.batch.BatchAdmissionEngine`:

* one ``integers(0, num_cloudlets, size=L)`` placement draw per request
  that is not shed, in arrival order, including duplicate names;
* the per-batch shed cap (arrivals beyond ``queue_limit`` are shed);
* duplicate names (live, or earlier in the same batch) rejected before
  the ledger is touched;
* all-or-nothing primary intake on the drawn cloudlets, no redraw;
* the cost-cap guard on the summed cost of the request's edge universe.

Each admitted request is solved by the rebuild round loop of
:class:`tests.reference.rebuild.RebuildHeuristic` through the stock
``solve``, on a plain :class:`~repro.netmodel.capacity.CapacityLedger`.
That loop shares no round-loop code with the service's wave path, so
agreement with it tests the round loop itself, not just batched ==
sequential.

The model has the engine's ``admit_batch`` / ``depart`` / ``ledger``
surface, so :func:`repro.service.server.replay_trace` drives it as well.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import AugmentationProblem
from repro.netmodel.capacity import CapacityLedger
from repro.service.batch import SERVICE_COST_CAP, AdmissionRecord
from repro.util.errors import ValidationError
from tests.reference.rebuild import RebuildHeuristic


def _rejected(name: str, reason: str) -> AdmissionRecord:
    return AdmissionRecord(
        name=name,
        admitted=False,
        primaries=(),
        placements=(),
        reliability=0.0,
        expectation_met=False,
        rejected_reason=reason,
    )


class ReferenceAdmission:
    """One request at a time: draw, intake, build, guard, solve, commit."""

    def __init__(
        self,
        network,
        *,
        radius: int = 1,
        queue_limit: int = 64,
        rng=None,
        cost_cap: float = SERVICE_COST_CAP,
    ):
        self.network = network
        self.radius = radius
        self.queue_limit = queue_limit
        self.rng = np.random.default_rng(rng)
        self.cost_cap = cost_cap
        self.cloudlets = list(network.cloudlets)
        self.neighborhoods = network.neighborhoods(radius)
        self.ledger = CapacityLedger({v: network.capacity(v) for v in self.cloudlets})
        self.heuristic = RebuildHeuristic(backend="warm", universe_cost_sum=cost_cap)
        self.live: dict[str, list] = {}

    def admit_batch(self, requests) -> list[AdmissionRecord]:
        records = []
        names: set[str] = set()
        for request in requests[: self.queue_limit]:
            idx = self.rng.integers(0, len(self.cloudlets), size=request.chain.length)
            draw = tuple(self.cloudlets[int(i)] for i in idx)
            if request.name in self.live or request.name in names:
                records.append(_rejected(request.name, "duplicate-name"))
            else:
                records.append(self._admit(request, draw))
            names.add(request.name)
        records.extend(
            _rejected(request.name, "shed") for request in requests[self.queue_limit :]
        )
        return records

    def depart(self, name: str) -> float:
        allocations = self.live.pop(name, None)
        if allocations is None:
            raise ValidationError(f"no live request named {name!r}")
        return self.ledger.release_many(allocations)

    def _admit(self, request, draw) -> AdmissionRecord:
        checkpoint = self.ledger.checkpoint()
        allocations = []
        for func, v in zip(request.chain, draw):
            if not self.ledger.fits(v, func.demand):
                self.ledger.rollback(checkpoint)
                return _rejected(request.name, "primary-infeasible")
            allocations.append(self.ledger.allocate(v, func.demand))
        problem = AugmentationProblem.build(
            self.network,
            request,
            draw,
            radius=self.radius,
            residuals=self.ledger.residuals(),
            neighborhoods=self.neighborhoods,
        )
        # Item-major, bin-order edge costs: the order the engine sums them in.
        edge_costs = [item.cost for item in problem.items for _ in item.bins]
        if float(np.sum(np.asarray(edge_costs, dtype=np.float64))) >= self.cost_cap:
            self.ledger.release_many(allocations)
            return _rejected(request.name, "cost-cap")
        result = self.heuristic.solve(problem)
        placements = result.solution.placements
        for p in placements:
            allocations.append(self.ledger.allocate(p.bin, p.demand))
        self.live[request.name] = allocations
        return AdmissionRecord(
            name=request.name,
            admitted=True,
            primaries=draw,
            placements=placements,
            reliability=result.reliability,
            expectation_met=request.meets_expectation(result.reliability),
            rounds=int(result.meta.get("rounds", 0)),
        )
