"""Tests for the MEC network model."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.netmodel.graph import MECNetwork, induced_cloudlet_subgraph, validate_node_ids
from repro.topology.families import grid_topology, line_topology, star_topology
from repro.topology.gtitm import generate_gtitm_topology
from repro.util.errors import ValidationError


class TestConstruction:
    def test_basic(self, line_network):
        assert line_network.num_nodes == 5
        assert line_network.num_edges == 4
        assert line_network.num_cloudlets == 5

    def test_partial_cloudlets(self, ring_network):
        assert ring_network.num_cloudlets == 3
        assert ring_network.cloudlets == (0, 2, 4)
        assert ring_network.is_cloudlet(0)
        assert not ring_network.is_cloudlet(1)

    def test_capacity_queries(self, ring_network):
        assert ring_network.capacity(0) == 900.0
        assert ring_network.capacity(1) == 0.0
        assert ring_network.total_capacity == pytest.approx(2700.0)

    def test_unknown_node_capacity(self, ring_network):
        with pytest.raises(KeyError):
            ring_network.capacity(99)

    def test_disconnected_rejected(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        with pytest.raises(ValidationError):
            MECNetwork(graph, {0: 100.0})

    def test_directed_rejected(self):
        with pytest.raises(ValidationError):
            MECNetwork(nx.DiGraph([(0, 1)]), {0: 1.0})  # type: ignore[arg-type]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            MECNetwork(nx.Graph(), {})

    def test_no_cloudlets_rejected(self):
        with pytest.raises(ValidationError):
            MECNetwork(line_topology(3), {})

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            MECNetwork(line_topology(3), {0: -1.0})

    def test_unknown_capacity_node_rejected(self):
        with pytest.raises(ValidationError):
            MECNetwork(line_topology(3), {9: 10.0})

    def test_graph_is_frozen(self, line_network):
        with pytest.raises(nx.NetworkXError):
            line_network.graph.add_edge(0, 4)

    def test_source_graph_not_aliased(self):
        graph = line_topology(3)
        network = MECNetwork(graph, {0: 10.0})
        graph.add_edge(0, 2)  # mutating the source must not affect the network
        assert network.num_edges == 2

    def test_generated_graph_is_frozen(self):
        graph = generate_gtitm_topology(20, rng=4)
        with pytest.raises(nx.NetworkXError):
            graph.add_edge(0, 1)

    def test_frozen_graph_shared(self):
        graph = nx.freeze(line_topology(3))
        network = MECNetwork(graph, {0: 10.0})
        assert network.graph is graph

    def test_with_capacities_shares_graph(self, ring_network):
        other = ring_network.with_capacities({1: 50.0})
        assert other.graph is ring_network.graph
        assert other.cloudlets == (1,)

    def test_subgraph_view_copied(self):
        base = line_topology(4)
        network = MECNetwork(base.subgraph([0, 1, 2]), {0: 10.0})
        base.add_edge(0, 2)  # the view follows its base; the network must not
        assert network.num_edges == 2
        assert network.graph is not base


class TestQueries:
    def test_hop_distance(self, line_network):
        assert line_network.hop_distance(0, 4) == 4
        assert line_network.hop_distance(2, 2) == 0

    def test_degree_stats(self):
        network = MECNetwork(star_topology(5), {0: 1.0})
        mean, lo, hi = network.degree_stats()
        assert (lo, hi) == (1, 4)
        assert mean == pytest.approx(8 / 5)

    def test_diameter(self, line_network):
        assert line_network.diameter() == 4

    def test_scaled_capacities(self, ring_network):
        scaled = ring_network.scaled_capacities(0.25)
        assert scaled == {0: 225.0, 2: 225.0, 4: 225.0}

    def test_scaled_capacities_negative_rejected(self, ring_network):
        with pytest.raises(ValidationError):
            ring_network.scaled_capacities(-0.5)

    def test_with_capacities(self, line_network):
        other = line_network.with_capacities({0: 5.0})
        assert other.num_cloudlets == 1
        assert line_network.num_cloudlets == 5  # original unchanged

    def test_neighborhood_cache_returns_same_index(self, line_network):
        assert line_network.neighborhoods(1) is line_network.neighborhoods(1)
        assert line_network.neighborhoods(1) is not line_network.neighborhoods(2)

    def test_neighborhood_negative_radius(self, line_network):
        with pytest.raises(ValidationError):
            line_network.neighborhoods(-1)


class TestHelpers:
    def test_induced_cloudlet_subgraph(self, ring_network):
        sub = induced_cloudlet_subgraph(ring_network)
        assert set(sub.nodes) == {0, 2, 4}
        assert sub.number_of_edges() == 0  # even ring nodes are not adjacent

    def test_validate_node_ids(self, line_network):
        validate_node_ids(line_network, [0, 1, 2])
        with pytest.raises(ValidationError):
            validate_node_ids(line_network, [0, 42])

    def test_grid_network_roundtrip(self):
        network = MECNetwork(grid_topology(3, 3), {4: 100.0})
        assert network.num_nodes == 9
        assert network.hop_distance(0, 8) == 4
