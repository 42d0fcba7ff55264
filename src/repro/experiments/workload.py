"""Per-trial instance generation.

One *trial* of the paper's protocol is: draw a fresh Waxman topology with
cloudlets and capacities, draw a VNF catalog, draw one request (chain
length, functions, expectation), deploy its primaries randomly onto
cloudlets, scale cloudlet capacities to the residual fraction, and build
the :class:`AugmentationProblem` the algorithms compete on.

All randomness flows from a single generator, so a harness seed makes the
entire sweep bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.admission.admit import random_primary_placement
from repro.core.items import ItemGenerationConfig
from repro.core.problem import AugmentationProblem
from repro.experiments.settings import ExperimentSettings
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request, VNFCatalog
from repro.topology.gtitm import generate_gtitm_topology
from repro.topology.placement import CloudletPlacementConfig, build_mec_network
from repro.util.rng import RandomState, as_rng


@dataclass(frozen=True)
class TrialInstance:
    """Everything one trial produced: the network and the problem."""

    network: MECNetwork
    request: Request
    problem: AugmentationProblem


def make_network(
    settings: ExperimentSettings, rng: np.random.Generator
) -> MECNetwork:
    """Draw one Waxman topology with cloudlet co-location per Section 7.1.

    The topology carries no ``"pos"`` attributes: nothing downstream reads
    them, and the positions consume the same draws either way.
    """
    graph = generate_gtitm_topology(settings.num_aps, rng=rng, with_positions=False)
    return build_mec_network(
        graph,
        config=CloudletPlacementConfig(
            cloudlet_fraction=settings.cloudlet_fraction,
            capacity_range=settings.capacity_range,
        ),
        rng=rng,
    )


def make_request(
    settings: ExperimentSettings,
    catalog: VNFCatalog,
    rng: np.random.Generator,
    name: str = "request",
) -> Request:
    """Draw one request: chain length, functions, and expectation."""
    if settings.sfc_length is not None:
        length = settings.sfc_length
    else:
        lo, hi = settings.sfc_length_range
        length = int(rng.integers(lo, hi + 1))
    chain = catalog.sample_chain(length, rng=rng)
    lo_e, hi_e = settings.expectation_range
    expectation = float(rng.uniform(lo_e, hi_e))
    return Request(name=name, chain=chain, expectation=expectation)


def make_trial(
    settings: ExperimentSettings,
    rng: RandomState = None,
    network: MECNetwork | None = None,
    item_config: ItemGenerationConfig | None = None,
    name: str = "trial",
) -> TrialInstance:
    """Generate one complete trial instance.

    Parameters
    ----------
    settings:
        The experimental configuration.
    rng:
        Seed/generator driving every draw of the trial.
    network:
        Optional pre-built network to reuse across trials (the default
        regenerates the topology per trial, matching the paper's
        per-request randomisation).
    item_config:
        Item-truncation overrides forwarded to the problem builder.
    """
    gen = as_rng(rng)
    if network is None:
        network = make_network(settings, gen)
    catalog = VNFCatalog.random(
        num_types=settings.num_vnf_types,
        demand_range=settings.demand_range,
        reliability_range=settings.reliability_range,
        rng=gen,
    )
    request = make_request(settings, catalog, gen, name=name)
    primaries = random_primary_placement(network, request, rng=gen)
    residuals = network.scaled_capacities(settings.residual_fraction)
    problem = AugmentationProblem.build(
        network,
        request,
        primaries,
        radius=settings.radius,
        residuals=residuals,
        item_config=item_config,
    )
    return TrialInstance(network=network, request=request, problem=problem)
