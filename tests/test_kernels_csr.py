"""Property tests for the CSR truncated-BFS kernel.

The vectorized multi-source BFS of :mod:`repro.kernels.csr` must reach
*exactly* the node sets of networkx's
``single_source_shortest_path_length(..., cutoff=radius)`` -- hop distances
are integers, so there is no tolerance to hide behind.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.kernels.csr import (
    CSRAdjacency,
    NeighborhoodKernel,
    csr_adjacency,
    neighborhood_kernel,
    node_indexing,
    truncated_bfs_masks,
)
from repro.netmodel.neighborhoods import NeighborhoodIndex


def _random_connected_graph(seed: int, n: int = 24, p: float = 0.12) -> nx.Graph:
    """A random connected graph: G(n, p) plus a random spanning path."""
    rng = np.random.default_rng(seed)
    graph = nx.gnp_random_graph(n, p, seed=int(rng.integers(2**31)))
    order = rng.permutation(n)
    for a, b in zip(order, order[1:]):  # guarantee connectivity
        graph.add_edge(int(a), int(b))
    assert nx.is_connected(graph)
    return graph


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 23, 99])
def test_truncated_bfs_matches_networkx_all_radii(seed):
    """Reach masks equal nx.single_source_shortest_path_length's node sets at
    every radius from 0 up to the graph diameter (property over random
    connected graphs)."""
    graph = _random_connected_graph(seed)
    diameter = nx.diameter(graph)
    csr = csr_adjacency(graph)
    sources = np.arange(csr.num_nodes, dtype=np.intp)
    for radius in range(diameter + 1):
        masks = truncated_bfs_masks(csr, sources, radius)
        for s in range(csr.num_nodes):
            expected = nx.single_source_shortest_path_length(
                graph, csr.order[s], cutoff=radius
            )
            assert set(np.nonzero(masks[s])[0].tolist()) == {
                csr.index_of[v] for v in expected
            }


def test_truncated_bfs_beyond_diameter_reaches_everything():
    graph = _random_connected_graph(42, n=15)
    csr = csr_adjacency(graph)
    sources = np.arange(csr.num_nodes, dtype=np.intp)
    masks = truncated_bfs_masks(csr, sources, csr.num_nodes)
    assert masks.all()


def test_truncated_bfs_rejects_negative_radius():
    graph = nx.path_graph(4)
    csr = csr_adjacency(graph)
    sources = np.zeros(1, dtype=np.intp)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        truncated_bfs_masks(csr, sources, -1)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        NeighborhoodKernel(graph, -1)


def test_csr_adjacency_non_contiguous_ids():
    """String/sparse node ids index correctly through order/index_of."""
    graph = nx.Graph([(10, "a"), ("a", 30), (30, 10), (30, 40)])
    csr = CSRAdjacency(graph)
    assert csr.num_nodes == 4
    for v in graph.nodes:
        i = csr.index_of[v]
        neighbors = {csr.order[j] for j in csr.indices[csr.indptr[i]:csr.indptr[i + 1]]}
        assert neighbors == set(graph.neighbors(v))


def test_kernel_masks_match_index_sets():
    """NeighborhoodKernel masks decode to exactly the networkx reach sets,
    and NeighborhoodIndex serves those sets."""
    graph = _random_connected_graph(5, n=20)
    kernel = neighborhood_kernel(graph, 2)
    index = NeighborhoodIndex(graph, 2)
    for v in graph.nodes:
        decoded = {kernel.order[i] for i in np.nonzero(kernel.mask(v))[0]}
        assert decoded == set(nx.single_source_shortest_path_length(graph, v, cutoff=2))
        assert decoded == index.closed(v)


def test_kernel_batches_and_caches_masks():
    graph = _random_connected_graph(6, n=12)
    kernel = NeighborhoodKernel(graph, 2)
    first = kernel.masks_for(list(graph.nodes))
    again = kernel.masks_for(list(graph.nodes))
    for a, b in zip(first, again):
        assert a is b  # cached, not recomputed
    with pytest.raises(KeyError):
        kernel.masks_for([999])


def test_kernel_memoized_per_graph_and_radius():
    graph = _random_connected_graph(8, n=10)
    assert neighborhood_kernel(graph, 1) is neighborhood_kernel(graph, 1)
    assert neighborhood_kernel(graph, 1) is not neighborhood_kernel(graph, 2)


def test_node_indexing_contiguity_flag():
    assert node_indexing(nx.path_graph(5)).contiguous
    assert not node_indexing(nx.Graph([("x", "y")])).contiguous
