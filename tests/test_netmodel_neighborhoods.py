"""Tests for l-hop neighborhood computation, including brute-force checks."""

from __future__ import annotations

import pytest

from repro.netmodel.neighborhoods import NeighborhoodIndex
from repro.topology.families import (
    complete_topology,
    grid_topology,
    line_topology,
    ring_topology,
    star_topology,
)
from repro.topology.gtitm import generate_gtitm_topology


class TestNeighborhoodIndex:
    def test_line_radius_1(self):
        index = NeighborhoodIndex(line_topology(5), 1)
        assert index.closed(2) == frozenset({1, 2, 3})
        assert index.open(2) == frozenset({1, 3})
        assert index.closed(0) == frozenset({0, 1})

    def test_line_radius_2(self):
        index = NeighborhoodIndex(line_topology(5), 2)
        assert index.closed(2) == frozenset({0, 1, 2, 3, 4})
        assert index.closed(0) == frozenset({0, 1, 2})

    def test_ring_wraps(self):
        index = NeighborhoodIndex(ring_topology(6), 2)
        assert index.closed(0) == frozenset({4, 5, 0, 1, 2})

    def test_star_hub(self):
        index = NeighborhoodIndex(star_topology(6), 1)
        assert index.closed(0) == frozenset(range(6))
        assert index.closed(3) == frozenset({0, 3})

    def test_complete_graph_everything_one_hop(self):
        index = NeighborhoodIndex(complete_topology(7), 1)
        for v in range(7):
            assert index.closed(v) == frozenset(range(7))

    def test_radius_zero_only_self(self):
        index = NeighborhoodIndex(grid_topology(3, 3), 0)
        for v in range(9):
            assert index.closed(v) == frozenset({v})

    def test_contains(self):
        index = NeighborhoodIndex(line_topology(4), 1)
        assert index.contains(1, 2)
        assert index.contains(1, 1)
        assert not index.contains(0, 3)

    def test_degree_and_bounds(self):
        index = NeighborhoodIndex(star_topology(5), 1)
        assert index.degree(0) == 4
        assert index.degree(1) == 1
        assert index.degree_bounds() == (1, 4)

    def test_closed_cloudlets_filtering(self):
        index = NeighborhoodIndex(line_topology(5), 1, cloudlets=[0, 2, 4])
        assert index.closed_cloudlets(1) == (0, 2)
        assert index.closed_cloudlets(2) == (2,)
        assert index.closed_cloudlets(0) == (0,)

    def test_closed_cloudlets_requires_build_flag(self):
        index = NeighborhoodIndex(line_topology(3), 1)
        with pytest.raises(KeyError):
            index.closed_cloudlets(0)

    def test_unknown_node(self):
        index = NeighborhoodIndex(line_topology(3), 1)
        with pytest.raises(KeyError):
            index.closed(99)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            NeighborhoodIndex(line_topology(3), -1)

    def test_radius_property(self):
        assert NeighborhoodIndex(line_topology(3), 2).radius == 2

    def test_nested_by_radius(self):
        """N_l^+(v) grows monotonically with l."""
        graph = generate_gtitm_topology(30, rng=8)
        indexes = [NeighborhoodIndex(graph, radius) for radius in [0, 1, 2, 3]]
        seqs = {v: [index.closed(v) for index in indexes] for v in [0, 5, 10]}
        for sets in seqs.values():
            for smaller, larger in zip(sets, sets[1:]):
                assert smaller <= larger

    def test_large_radius_reaches_everything(self):
        graph = generate_gtitm_topology(25, rng=8)
        index = NeighborhoodIndex(graph, 24)
        for v in graph.nodes:
            assert index.closed(v) == frozenset(graph.nodes)
