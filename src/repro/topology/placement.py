"""Cloudlet co-location and capacity assignment.

Section 7.1 of the paper: "the number of cloudlets is 10% of the network
size, and the cloudlets are randomly co-located with some of the APs.  The
computing capacity of each cloudlet ranges from 4,000 to 8,000 MHz."

:func:`assign_cloudlets` draws the cloudlet subset and capacities;
:func:`build_mec_network` is the one-call constructor the experiment harness
and examples use (topology graph in, :class:`MECNetwork` out).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.netmodel.graph import MECNetwork
from repro.util.errors import ValidationError
from repro.util.rng import RandomState, as_rng


@dataclass(frozen=True)
class CloudletPlacementConfig:
    """How cloudlets are co-located with APs and sized.

    Attributes
    ----------
    cloudlet_fraction:
        Fraction of APs that host a cloudlet (paper: 0.10).  At least one
        cloudlet is always placed.
    capacity_range:
        Uniform range of cloudlet computing capacity in MHz (paper:
        ``[4000, 8000]``).
    """

    cloudlet_fraction: float = 0.10
    capacity_range: tuple[float, float] = (4000.0, 8000.0)

    def __post_init__(self) -> None:
        if not (0.0 < self.cloudlet_fraction <= 1.0):
            raise ValidationError(
                f"cloudlet_fraction must be in (0, 1], got {self.cloudlet_fraction}"
            )
        lo, hi = self.capacity_range
        if not (0.0 < lo <= hi):
            raise ValidationError(f"invalid capacity range {self.capacity_range}")


def assign_cloudlets(
    graph: nx.Graph,
    config: CloudletPlacementConfig | None = None,
    rng: RandomState = None,
) -> dict[int, float]:
    """Draw the cloudlet subset of ``graph`` and per-cloudlet capacities.

    The capacities, one per chosen node in draw order, come from one
    ``gen.uniform(lo, hi, size=count)`` call: the same floats, and the same
    generator state after it, as one scalar call per cloudlet.

    Returns
    -------
    dict[int, float]
        Node -> capacity for the selected cloudlet nodes only.
    """
    config = config or CloudletPlacementConfig()
    gen = as_rng(rng)
    nodes = list(graph.nodes)
    if not nodes:
        raise ValidationError("graph has no nodes")
    count = max(1, round(config.cloudlet_fraction * len(nodes)))
    chosen = gen.choice(len(nodes), size=count, replace=False)
    lo, hi = config.capacity_range
    capacities = gen.uniform(lo, hi, size=count).tolist()
    return dict(zip([nodes[i] for i in chosen.tolist()], capacities))


def build_mec_network(
    graph: nx.Graph,
    config: CloudletPlacementConfig | None = None,
    rng: RandomState = None,
) -> MECNetwork:
    """Turn a bare AP graph into an :class:`MECNetwork` per the paper's setup."""
    capacities = assign_cloudlets(graph, config=config, rng=rng)
    return MECNetwork(graph, capacities)


def uniform_capacity_network(graph: nx.Graph, capacity: float) -> MECNetwork:
    """Every AP hosts a cloudlet of identical ``capacity``.

    A deterministic helper for unit tests and worked examples where the
    random 10% co-location would obscure what is being exercised.
    """
    if capacity <= 0:
        raise ValidationError(f"capacity must be positive, got {capacity}")
    return MECNetwork(graph, {v: capacity for v in graph.nodes})
