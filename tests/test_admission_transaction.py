"""The admission transaction against the intake loops it replaced.

:class:`repro.admission.transaction.Admission` is every caller's primary
intake, backup commit and abort.  Hypothesis drives small networks (edge
reliabilities, cloudlet sets and capacities, pre-existing load), chains and
seeds:

* the ``redrawn`` policy against ``random_primary_placement``'s former
  ``ledger=`` branch (``tests/reference/admission.py``): the same
  primaries, every node's ``used`` equal by ``float.hex``, the same journal
  and tags, the same ``bit_generator.state``, and the same
  :class:`InfeasibleError` with the ledger untouched;
* the ``planned`` policy (``admit_request``) against the former
  ``admit_request`` loop, with and without transport reliability, on
  capacities tight enough to force re-plans;
* ``abort()`` after a partial commit, and a commit that misses, against
  rolling back to the checkpoint taken before intake;
* the tag format, on the ledger and on the resilient stream's instances.
"""

from __future__ import annotations

import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission.admit import admit_request
from repro.admission.transaction import Admission, drawn, redrawn
from repro.algorithms.heuristic import MatchingHeuristic
from repro.core.solution import Placement
from repro.experiments.resilience import FAULT_SCENARIOS, RESILIENT_SETTINGS
from repro.experiments.workload import make_network, make_request
from repro.netmodel.capacity import CapacityLedger
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request, ServiceFunctionChain, VNFCatalog, VNFType
from repro.resilience.stream import ResilientStreamController
from repro.topology.families import line_topology
from repro.util.errors import CapacityError, InfeasibleError
from tests.reference.admission import (
    admit_request_loop,
    random_primary_placement_on_ledger,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
DEMANDS = (100.0, 175.0, 250.0, 325.0, 400.0)


@st.composite
def instances(draw, endpoints: bool = False):
    """A small network, a chain on it and a ledger already carrying load."""
    n = draw(st.integers(min_value=1, max_value=7))
    reliability = st.floats(min_value=0.5, max_value=1.0)
    graph = nx.path_graph(n)  # a path keeps the graph connected
    for u, v in graph.edges:
        graph[u][v]["reliability"] = draw(reliability)
    nodes = st.integers(min_value=0, max_value=n - 1)
    for u, v in draw(st.lists(st.tuples(nodes, nodes), max_size=n)):
        if u != v:
            graph.add_edge(u, v, reliability=draw(reliability))
    capacities = {
        v: draw(st.sampled_from([250.0, 400.0, 650.0, 900.0, 1200.0]))
        for v in draw(st.sets(nodes, min_size=1))
    }
    network = MECNetwork(graph, capacities)
    chain = ServiceFunctionChain(
        [
            VNFType(
                f"f{i}",
                demand=draw(st.sampled_from(DEMANDS)),
                reliability=draw(st.floats(min_value=0.8, max_value=0.99)),
            )
            for i in range(draw(st.integers(min_value=1, max_value=6)))
        ]
    )
    source = draw(st.none() | nodes) if endpoints else None
    destination = draw(st.none() | nodes) if endpoints else None
    request = Request("r", chain, 0.95, source=source, destination=destination)
    ledger = CapacityLedger(capacities)
    for v, amount in draw(
        st.lists(st.tuples(st.sampled_from(sorted(capacities)), st.sampled_from(DEMANDS)),
                 max_size=4)
    ):
        if ledger.fits(v, amount):
            ledger.allocate(v, amount, tag="load")
    return network, request, ledger


def _state(ledger: CapacityLedger) -> tuple:
    """Everything a ledger holds, floats by ``float.hex``."""
    return (
        tuple(ledger.used(v).hex() for v in ledger.nodes),
        tuple((a.node, a.amount.hex(), a.tag) for a in ledger.journal),
        ledger.total_used().hex(),
    )


# -- the redrawn policy -------------------------------------------------------------


@given(case=instances(), seed=seeds)
@settings(max_examples=200, deadline=None)
def test_redrawn_matches_the_ledger_branch(case, seed):
    network, request, ledger = case
    ref_ledger = ledger.copy()
    gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    before = _state(ledger)
    try:
        expected = random_primary_placement_on_ledger(network, request, ref_gen, ref_ledger)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError, match=re.escape(str(exc))):
            Admission(ledger, request, redrawn(network.cloudlets, gen))
        assert _state(ledger) == before
    else:
        admission = Admission(ledger, request, redrawn(network.cloudlets, gen))
        assert admission.primaries == expected
        assert admission.allocations == ledger.journal[-len(expected):]
    assert _state(ledger) == _state(ref_ledger)
    assert gen.bit_generator.state == ref_gen.bit_generator.state


# -- the DAG plan -----------------------------------------------------------------


@given(case=instances(endpoints=True), transport=st.booleans())
@settings(max_examples=200, deadline=None)
def test_planned_matches_the_admit_request_loop(case, transport):
    network, request, ledger = case
    ref_ledger = ledger.copy()
    before = _state(ledger)
    try:
        expected = admit_request_loop(network, request, ref_ledger, transport)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError, match=re.escape(str(exc))):
            admit_request(network, request, ledger, use_transport_reliability=transport)
        assert _state(ledger) == before
    else:
        outcome = admit_request(network, request, ledger, use_transport_reliability=transport)
        assert outcome == expected
    assert _state(ledger) == _state(ref_ledger)


def test_replan_departs_from_the_last_placed_cloudlet():
    """Path 0-1-2-3, source 1: the plan puts both positions on cloudlet 2,
    whose 400 MHz hold only the first.  Re-planned from 2, the second goes
    to 3 (one 0.74 hop); re-planned from the source it would go to 0."""
    graph = line_topology(4)
    for (u, v), r in zip([(0, 1), (1, 2), (2, 3)], [0.74, 0.94, 0.74]):
        graph[u][v]["reliability"] = r
    network = MECNetwork(graph, {0: 500.0, 2: 400.0, 3: 400.0})
    chain = ServiceFunctionChain(
        [VNFType("a", demand=400.0, reliability=0.9), VNFType("b", demand=300.0, reliability=0.9)]
    )
    request = Request("r", chain, 0.9, source=1)
    ledger = CapacityLedger(network.capacities)
    ref_ledger = ledger.copy()
    outcome = admit_request(network, request, ledger, use_transport_reliability=True)
    assert outcome.placement == (2, 3)
    assert outcome == admit_request_loop(network, request, ref_ledger, True)
    assert _state(ledger) == _state(ref_ledger)


# -- commit and abort -------------------------------------------------------------


@given(
    case=instances(),
    seed=seeds,
    backups=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=6),
                  st.sampled_from(DEMANDS)),
        max_size=8,
    ),
    miss=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_abort_after_partial_commit_restores_the_checkpoint(case, seed, backups, miss):
    network, request, ledger = case
    before = _state(ledger)
    checkpoint = ledger.checkpoint()
    try:
        admission = Admission(ledger, request, redrawn(network.cloudlets, seed))
    except InfeasibleError:
        assert _state(ledger) == before
        return
    cloudlets = network.cloudlets
    placements = [
        Placement(position=i % request.chain.length, k=k + 1,
                  bin=cloudlets[b % len(cloudlets)], demand=d, gain=0.1, cost=0.1)
        for k, (i, b, d) in enumerate(backups)
    ]
    fitting = ledger.copy()
    prefix = 0
    while prefix < len(placements) and fitting.fits(placements[prefix].bin,
                                                    placements[prefix].demand):
        fitting.allocate(placements[prefix].bin, placements[prefix].demand)
        prefix += 1
    if miss and prefix < len(placements):
        # The commit's own abort, after allocating the fitting prefix.
        with pytest.raises(CapacityError):
            admission.commit(placements)
    else:
        admission.commit(placements[:prefix])
        assert len(admission.allocations) == request.chain.length + prefix
        rolled = ledger.copy()
        rolled.rollback(checkpoint)
        admission.abort()
        assert _state(ledger) == _state(rolled)
    assert _state(ledger) == before
    assert admission.allocations == []


def test_drawn_miss_rolls_back():
    network = MECNetwork(line_topology(3), {0: 500.0, 1: 500.0, 2: 500.0})
    chain = ServiceFunctionChain([VNFType(f"f{i}", demand=300.0, reliability=0.9) for i in range(3)])
    request = Request("r", chain, 0.9)
    ledger = CapacityLedger(network.capacities)
    before = _state(ledger)
    with pytest.raises(InfeasibleError, match="drawn cloudlet 1 cannot host the primary of position 2"):
        Admission(ledger, request, drawn((1, 2, 1)))  # 1 holds one 300 MHz primary
    assert _state(ledger) == before
    assert ledger.checkpoint() == 0  # a rollback, not a release: the ids are reused


# -- tags -------------------------------------------------------------------------


def test_tags():
    network = MECNetwork(line_topology(3), {0: 1000.0, 1: 1000.0, 2: 1000.0})
    chain = ServiceFunctionChain([VNFType(f"f{i}", demand=200.0, reliability=0.9) for i in range(2)])
    ledger = CapacityLedger(network.capacities)
    admission = Admission(ledger, Request("web", chain, 0.9), drawn((2, 0)))
    admission.commit(
        [
            Placement(position=1, k=1, bin=1, demand=200.0, gain=0.1, cost=0.1),
            Placement(position=0, k=2, bin=2, demand=200.0, gain=0.1, cost=0.1),
        ]
    )
    assert [a.tag for a in admission.allocations] == [
        "primary:web#0", "primary:web#1", "backup:web#1.1", "backup:web#0.2",
    ]
    assert [(a.node, a.tag) for a in ledger.journal] == [
        (a.node, a.tag) for a in admission.allocations
    ]


def test_resilient_instances_carry_the_ledger_tags():
    """Without failures every committed instance is alive, and the live
    instances are exactly the ledger's allocations, tag for tag."""
    gen = np.random.default_rng(5)
    network = make_network(RESILIENT_SETTINGS, gen)
    catalog = VNFCatalog.random(
        num_types=RESILIENT_SETTINGS.num_vnf_types,
        demand_range=RESILIENT_SETTINGS.demand_range,
        reliability_range=RESILIENT_SETTINGS.reliability_range,
        rng=gen,
    )
    controller = ResilientStreamController(
        RESILIENT_SETTINGS, MatchingHeuristic(), FAULT_SCENARIOS["quiet"], network,
        catalog, gen,
    )
    outcome = controller._commit_request(
        make_request(RESILIENT_SETTINGS, catalog, gen, name="req-0"), 0.0
    )
    assert outcome is controller.metrics.report.outcomes[-1]
    assert outcome.admitted
    (chain,) = controller.injector.chains()
    assert [(i.cloudlet, i.demand, i.tag) for i in chain.instances] == [
        (a.node, a.amount, a.tag) for a in controller.ledger.journal
    ]
    assert [i.tag for i in chain.instances[: len(chain.anchors)]] == [
        f"primary:req-0#{i}" for i in range(len(chain.anchors))
    ]
    assert all(i.tag.startswith("backup:req-0#") for i in chain.instances[len(chain.anchors):])
