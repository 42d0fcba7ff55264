"""Scalar-draw forms of the per-trial catalog and capacity draws.

:func:`repro.netmodel.vnf.VNFCatalog.random` draws all of a catalog's
demands and reliabilities with one ``gen.uniform`` call over interleaved
bounds, and :func:`repro.topology.placement.assign_cloudlets` draws all
capacities with one sized call.  The functions below are the forms they
replaced: one scalar ``gen.uniform`` call per value.  The one-call draws
must give the same floats and leave the generator in the same state
(``tests/test_instance_reference.py``).
"""

from __future__ import annotations

import networkx as nx

from repro.netmodel.vnf import VNFCatalog, VNFType
from repro.topology.placement import CloudletPlacementConfig
from repro.util.errors import ValidationError
from repro.util.rng import RandomState, as_rng


def random_catalog_scalar(
    num_types: int = 30,
    demand_range: tuple[float, float] = (200.0, 400.0),
    reliability_range: tuple[float, float] = (0.8, 0.9),
    rng: RandomState = None,
) -> VNFCatalog:
    """``VNFCatalog.random`` with one scalar draw per demand and reliability."""
    if num_types <= 0:
        raise ValidationError(f"num_types must be positive, got {num_types}")
    lo_d, hi_d = demand_range
    lo_r, hi_r = reliability_range
    if not (0.0 < lo_r <= hi_r <= 1.0):
        raise ValidationError(f"invalid reliability range {reliability_range}")
    if not (0.0 < lo_d <= hi_d):
        raise ValidationError(f"invalid demand range {demand_range}")
    gen = as_rng(rng)
    types = [
        VNFType(
            name=f"f{i}",
            demand=float(gen.uniform(lo_d, hi_d)),
            reliability=float(gen.uniform(lo_r, hi_r)),
        )
        for i in range(num_types)
    ]
    return VNFCatalog(types)


def assign_cloudlets_scalar(
    graph: nx.Graph,
    config: CloudletPlacementConfig | None = None,
    rng: RandomState = None,
) -> dict[int, float]:
    """``assign_cloudlets`` with one scalar capacity draw per cloudlet."""
    config = config or CloudletPlacementConfig()
    gen = as_rng(rng)
    nodes = list(graph.nodes)
    if not nodes:
        raise ValidationError("graph has no nodes")
    count = max(1, round(config.cloudlet_fraction * len(nodes)))
    chosen = gen.choice(len(nodes), size=count, replace=False)
    lo, hi = config.capacity_range
    return {
        nodes[int(i)]: float(gen.uniform(lo, hi))
        for i in chosen
    }
