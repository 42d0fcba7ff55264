"""Property tests for the CSR truncated-BFS kernel.

The vectorized multi-source BFS of :mod:`repro.kernels.csr` must reach
*exactly* the node sets of networkx's
``single_source_shortest_path_length(..., cutoff=radius)`` -- hop distances
are integers, so there is no tolerance to hide behind.
``NeighborhoodIndex.contains`` must agree with the kernel's masks on its
radius <= 1 fast path too, and the kernel caches must free a trial's graph
once the trial drops it.
"""

from __future__ import annotations

import gc
import weakref

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.heuristic import MatchingHeuristic
from repro.experiments.runner import run_point
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workload import make_trial
from repro.kernels import csr as csr_module
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


# -- contains on the radius <= 1 fast path ---------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 11, 23])
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_contains_equals_kernel_mask(seed, radius):
    """``contains`` answers exactly what the kernel's reach mask says, on
    every node pair, whichever path serves it."""
    graph = _random_connected_graph(seed, n=18, p=0.15)
    index = NeighborhoodIndex(graph, radius, cloudlets=list(graph.nodes)[::3])
    kernel = NeighborhoodKernel(graph, radius)
    for v in graph.nodes:
        mask = kernel.mask(v)
        for u in graph.nodes:
            assert index.contains(v, u) == bool(mask[kernel.index_of[u]]), (v, u)


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_contains_unknown_nodes(radius):
    graph = nx.Graph([(10, "a"), ("a", 30), (30, 10), (30, 40)])
    index = NeighborhoodIndex(graph, radius)
    with pytest.raises(KeyError):
        index.contains(999, 10)
    assert index.contains(10, 999) is False
    assert index.contains("a", "a")
    assert index.contains(10, "a") == (radius >= 1)
    assert index.contains(10, 40) == (radius >= 2)


def test_contains_at_radius_one_builds_no_kernel():
    graph = _random_connected_graph(4, n=12)
    index = NeighborhoodIndex(graph, 1)
    for v in graph.nodes:
        for u in graph.nodes:
            index.contains(v, u)
    assert index._kernel is None


# -- each graph is freed with its last user ------------------------------------------


def test_kernel_holds_its_graph_weakly():
    graph = _random_connected_graph(9, n=10)
    kernel = neighborhood_kernel(graph, 2)
    assert kernel.graph is graph
    graph_ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert graph_ref() is None
    with pytest.raises(ReferenceError):
        kernel.graph


@pytest.mark.parametrize("radius", [1, 2])
def test_trial_graph_is_freed_after_the_trial(radius):
    """A trial's topology, with its kernel, indexing, CSR view and masks, is
    gone once the trial is: nothing in the kernel caches keeps it alive."""
    settings = ExperimentSettings(radius=radius, sfc_length=6)
    instance = make_trial(settings, rng=radius)
    network = instance.network
    index = network.neighborhoods(radius)
    primaries = list(instance.problem.primary_placement)
    index.prefetch(primaries)  # builds the kernel (and at radius 2 the CSR view)
    for v in primaries:
        index.closed(v)
    graph = network.graph
    assert graph in csr_module._KERNEL_CACHE
    graph_ref = weakref.ref(graph)
    del instance, network, index, graph
    gc.collect()
    assert graph_ref() is None


def test_run_point_leaves_no_kernel_behind():
    settings = ExperimentSettings(radius=2, sfc_length=4)
    gc.collect()
    before = len(csr_module._KERNEL_CACHE)
    run_point(settings, [MatchingHeuristic()], trials=6, rng=5, jobs=1)
    gc.collect()
    assert len(csr_module._KERNEL_CACHE) <= before
