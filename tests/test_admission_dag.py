"""Tests for the auxiliary admission DAG."""

from __future__ import annotations

import math

import pytest

from repro.admission.dag import AdmissionDAG, most_reliable_path_weights
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request, ServiceFunctionChain, VNFType
from repro.topology.families import line_topology, ring_topology
from repro.util.errors import InfeasibleError, ValidationError


def _request(types, expectation=0.9, source=None, destination=None):
    return Request(
        "r", ServiceFunctionChain(types), expectation, source=source, destination=destination
    )


@pytest.fixture
def two_types():
    return [
        VNFType("a", demand=300.0, reliability=0.8),
        VNFType("b", demand=400.0, reliability=0.9),
    ]


class TestMostReliablePathWeights:
    def test_default_reliability_is_free(self):
        weights = most_reliable_path_weights(line_topology(4))
        assert weights[0][3] == pytest.approx(0.0)
        assert weights[2][2] == pytest.approx(0.0)

    def test_weighted_edges(self):
        graph = line_topology(3)
        graph.edges[0, 1]["reliability"] = 0.9
        graph.edges[1, 2]["reliability"] = 0.8
        weights = most_reliable_path_weights(graph)
        assert weights[0][2] == pytest.approx(-math.log(0.9) - math.log(0.8))

    def test_picks_most_reliable_route(self):
        graph = ring_topology(4)  # two routes between opposite nodes
        for u, v in graph.edges:
            graph.edges[u, v]["reliability"] = 0.9
        graph.edges[0, 1]["reliability"] = 0.5  # poison one route
        weights = most_reliable_path_weights(graph)
        # 0 -> 2 should go 0-3-2 (two 0.9 hops), not 0-1-2
        assert weights[0][2] == pytest.approx(-2 * math.log(0.9))

    def test_invalid_reliability_rejected(self):
        graph = line_topology(3)
        graph.edges[0, 1]["reliability"] = 1.5
        with pytest.raises(ValidationError):
            most_reliable_path_weights(graph)


class TestAdmissionDAG:
    def test_layers_filtered_by_capacity(self, two_types):
        network = MECNetwork(line_topology(4), {0: 350.0, 1: 500.0, 3: 200.0})
        dag = AdmissionDAG(network, _request(two_types), network.capacities)
        layers = dag.layers
        assert set(layers[0]) == {0, 1}  # demand 300 fits at 0 and 1
        assert set(layers[1]) == {1}  # demand 400 fits only at 1

    def test_no_candidate_raises(self, two_types):
        network = MECNetwork(line_topology(4), {0: 100.0})
        with pytest.raises(InfeasibleError):
            AdmissionDAG(network, _request(two_types), network.capacities)

    def test_shortest_placement_one_per_layer(self, two_types):
        network = MECNetwork(line_topology(4), {v: 1000.0 for v in range(4)})
        dag = AdmissionDAG(network, _request(two_types), network.capacities)
        placement = dag.shortest_placement()
        assert len(placement) == 2
        assert all(network.is_cloudlet(v) for v in placement)

    def test_placement_reliability_instances_only(self, two_types):
        network = MECNetwork(line_topology(4), {v: 1000.0 for v in range(4)})
        dag = AdmissionDAG(network, _request(two_types), network.capacities)
        placement = dag.shortest_placement()
        assert dag.placement_reliability(placement) == pytest.approx(0.8 * 0.9)

    def test_transport_reliability_steers_placement(self, two_types):
        graph = line_topology(3)
        graph.edges[0, 1]["reliability"] = 0.5
        graph.edges[1, 2]["reliability"] = 0.99
        network = MECNetwork(graph, {1: 1000.0, 2: 1000.0})
        transport = most_reliable_path_weights(network.graph)
        request = _request(two_types, source=1)
        dag = AdmissionDAG(network, request, network.capacities, transport)
        placement = dag.shortest_placement()
        # starting at AP 1, staying on {1, 2} avoids the lossy 0-1 edge
        assert set(placement) <= {1, 2}

    def test_placement_reliability_length_checked(self, two_types):
        network = MECNetwork(line_topology(4), {v: 1000.0 for v in range(4)})
        dag = AdmissionDAG(network, _request(two_types), network.capacities)
        with pytest.raises(ValidationError):
            dag.placement_reliability([0])

    def test_suffix_replanning_entry(self, two_types):
        network = MECNetwork(line_topology(4), {v: 1000.0 for v in range(4)})
        dag = AdmissionDAG(network, _request(two_types), network.capacities)
        suffix = dag.shortest_placement(start_from=1, anchor=0)
        assert len(suffix) == 1

    def test_suffix_dag_builds_only_its_layers(self):
        # Position 0 (demand 400) fits nowhere any more; position 1 does.
        request = _request(
            [VNFType("a", demand=400.0, reliability=0.8),
             VNFType("b", demand=100.0, reliability=0.9)]
        )
        network = MECNetwork(line_topology(2), {0: 450.0, 1: 150.0})
        residuals = {0: 50.0, 1: 150.0}
        with pytest.raises(InfeasibleError):
            AdmissionDAG(network, request, residuals)
        dag = AdmissionDAG(network, request, residuals, start_from=1)
        assert dag.layers == [[], [1]]
        assert dag.shortest_placement(start_from=1, anchor=0) == [1]
        with pytest.raises(ValidationError):
            dag.shortest_placement(start_from=0)
