"""The immutable problem instance every algorithm consumes.

:class:`AugmentationProblem` snapshots one *service reliability augmentation
problem* (Section 3.2): the MEC network, the admitted request, where its
primary instances sit, the locality radius ``l``, the residual capacities at
augmentation time, and the generated BMCGAP items.  Algorithms never mutate
the problem; each takes a fresh :class:`CapacityLedger` via :meth:`ledger`.

Two conventions about residual capacity, matching the paper's experiments:

* the experiment harness scales full capacities by a *residual fraction*
  (25% by default, swept in Fig. 3) and hands the scaled map in directly --
  primaries are assumed to be part of the already-consumed 75%;
* the admission-driven flow (examples, integration tests) starts from full
  capacity and deducts the primaries via
  :func:`residuals_after_primaries`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from repro.core.items import (
    BackupItem,
    ItemGenerationConfig,
    generate_items_with_plan,
    items_by_position,
)
from repro.core.reliability import chain_reliability
from repro.netmodel.capacity import CapacityLedger
from repro.netmodel.graph import MECNetwork
from repro.netmodel.neighborhoods import NeighborhoodIndex
from repro.netmodel.vnf import Request
from repro.util.errors import ValidationError


def residuals_after_primaries(
    network: MECNetwork, request: Request, primary_placement: Sequence[int]
) -> dict[int, float]:
    """Full cloudlet capacities minus the request's primary instances.

    Raises
    ------
    ValidationError
        If a primary does not fit where it was placed (the placement was
        never feasible in the first place).
    """
    residuals = {v: network.capacity(v) for v in network.cloudlets}
    for i, (func, v) in enumerate(zip(request.chain, primary_placement)):
        if v not in residuals:
            raise ValidationError(f"primary of position {i} placed on non-cloudlet {v}")
        residuals[v] -= func.demand
        if residuals[v] < -1e-9:
            raise ValidationError(
                f"primary of position {i} overflows cloudlet {v} "
                f"(residual {residuals[v]:.3f})"
            )
    return residuals


@dataclass(frozen=True)
class AugmentationProblem:
    """One service reliability augmentation instance.

    Build with :meth:`build`; the constructor only checks consistency of the
    provided pieces.

    Attributes
    ----------
    network:
        The MEC network.
    request:
        The admitted request (chain + expectation ``rho_j``).
    primary_placement:
        Cloudlet hosting the primary of each chain position.
    radius:
        Locality radius ``l`` -- secondaries of position ``i`` may only go
        to cloudlets within ``l`` hops of ``primary_placement[i]``.
    residuals:
        Residual capacity per cloudlet at augmentation time.
    items:
        The generated BMCGAP items (see :mod:`repro.core.items`).
    neighborhoods:
        The ``l``-hop index the items were generated against.
    """

    network: MECNetwork
    request: Request
    primary_placement: tuple[int, ...]
    radius: int
    residuals: Mapping[int, float]
    items: tuple[BackupItem, ...]
    neighborhoods: NeighborhoodIndex = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.primary_placement) != self.request.chain.length:
            raise ValidationError(
                f"{len(self.primary_placement)} primaries for a chain of length "
                f"{self.request.chain.length}"
            )
        for i, v in enumerate(self.primary_placement):
            if not self.network.is_cloudlet(v):
                raise ValidationError(f"primary of position {i} on non-cloudlet node {v}")

    # -- construction ----------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: MECNetwork,
        request: Request,
        primary_placement: Sequence[int],
        radius: int = 1,
        residuals: Mapping[int, float] | None = None,
        item_config: ItemGenerationConfig | None = None,
        neighborhoods: NeighborhoodIndex | None = None,
    ) -> "AugmentationProblem":
        """Generate items and assemble a problem instance.

        ``residuals`` defaults to full capacity minus the primaries (the
        admission-driven convention); the experiment harness passes scaled
        residual maps explicitly.  ``neighborhoods`` lets a caller hoist one
        (lazily memoized) index across many requests on the same topology --
        e.g. a request stream in :mod:`repro.experiments.batch`; it must
        have been built for the same ``radius``.
        """
        if residuals is None:
            residuals = residuals_after_primaries(network, request, primary_placement)
        else:
            residuals = dict(residuals)
        if neighborhoods is None:
            neighborhoods = network.neighborhoods(radius)
        elif neighborhoods.radius != radius:
            raise ValidationError(
                f"neighborhood index built for radius {neighborhoods.radius}, "
                f"problem radius is {radius}"
            )
        items, plan = generate_items_with_plan(
            request, primary_placement, neighborhoods, residuals, config=item_config
        )
        return cls.from_items(
            network, request, primary_placement, radius, residuals,
            neighborhoods, items, plan,
        )

    @classmethod
    def from_items(
        cls,
        network: MECNetwork,
        request: Request,
        primary_placement: Sequence[int],
        radius: int,
        residuals: Mapping[int, float],
        neighborhoods: NeighborhoodIndex,
        items: Sequence[BackupItem],
        plan: object | None,
    ) -> "AugmentationProblem":
        """Assemble a problem from ``generate_items_with_plan``'s output;
        ``residuals`` is kept as given, so problems can share one snapshot."""
        problem = cls(
            network=network,
            request=request,
            primary_placement=tuple(primary_placement),
            radius=radius,
            residuals=residuals,
            items=tuple(items),
            neighborhoods=neighborhoods,
        )
        if plan is not None:
            # Hand the generation-time edge universe to the incremental
            # matching engine so it can skip its per-edge rebuild loop.
            from repro.kernels.items import adopt_plan

            adopt_plan(problem, plan)
        return problem

    # -- derived quantities -----------------------------------------------------
    @property
    def budget(self) -> float:
        """``C = -log(rho_j)``."""
        return self.request.budget

    @cached_property
    def reliabilities(self) -> tuple[float, ...]:
        """Per-position instance reliabilities ``r_i`` (computed once)."""
        return tuple(f.reliability for f in self.request.chain)

    @property
    def baseline_reliability(self) -> float:
        """Reliability with primaries only, ``prod_i r_i``."""
        return chain_reliability(self.reliabilities)

    @property
    def baseline_meets_expectation(self) -> bool:
        """Whether the admission alone already satisfies ``rho_j`` (the
        early-exit of Algorithm 1 line 2 / Algorithm 2 line 2)."""
        return self.request.meets_expectation(self.baseline_reliability)

    @property
    def num_items(self) -> int:
        """``N = sum_i K_i`` after truncation."""
        return len(self.items)

    def grouped_items(self) -> dict[int, list[BackupItem]]:
        """Items grouped by chain position, sorted by ``k``."""
        return items_by_position(self.items)

    def item(self, position: int, k: int) -> BackupItem:
        """Item ``(position, k)``; raises KeyError if it was not generated."""
        for it in self.items:
            if it.position == position and it.k == k:
                return it
        raise KeyError(f"no item (position={position}, k={k})")

    def ledger(self) -> CapacityLedger:
        """Fresh capacity ledger over this problem's residuals."""
        return CapacityLedger(self.residuals)

    def gain_upper_bound(self) -> float:
        """Sum of all item gains -- a trivial upper bound on achievable gain."""
        return sum(it.gain for it in self.items)

    def reliability_from_counts(self, backup_counts: Sequence[int]) -> float:
        """Request reliability for given per-position backup counts."""
        if len(backup_counts) != self.request.chain.length:
            raise ValidationError(
                f"expected {self.request.chain.length} counts, got {len(backup_counts)}"
            )
        return chain_reliability(self.reliabilities, backup_counts)

    def describe(self) -> str:
        """One-line human summary for logs."""
        return (
            f"request={self.request.name} L={self.request.chain.length} "
            f"rho={self.request.expectation:.4f} l={self.radius} "
            f"items={self.num_items} baseline={self.baseline_reliability:.4f} "
            f"budget={self.budget:.4f}"
        )

    def __hash__(self) -> int:  # problems are identity-hashed snapshots
        return id(self)


def assert_finite_budget(problem: AugmentationProblem) -> None:
    """Guard used by solvers: a zero/negative or infinite budget indicates a
    degenerate expectation (rho_j == 1 gives budget 0 ... placement needed but
    never 'reached'; rho_j <= 0 is rejected upstream)."""
    if not math.isfinite(problem.budget):
        raise ValidationError(f"non-finite budget {problem.budget}")
