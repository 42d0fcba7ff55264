"""The per-trial instance draws and graph build against the forms they replaced.

Every sweep trial draws a Waxman topology, its cloudlet capacities and a
VNF catalog.  The production code fills the topology's networkx dicts
directly and draws the catalog and the capacities with one NumPy call
each; ``tests/reference/`` keeps the ``add_*``-built graph and the
scalar draws.  Hypothesis drives seeds, sizes and ranges:

* every draw gives the same floats (compared by ``float.hex``) and leaves
  the generator in the same ``bit_generator.state``, so every later draw
  of a trial is unchanged;
* every graph has the same nodes, node data, edges and per-node adjacency
  order, one data dict per edge shared by both directions (``G[u][v] is
  G[v][u]``, distinct across edges), one data dict per node, and is frozen.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netmodel.vnf import VNFCatalog
from repro.topology import gtitm
from repro.topology.gtitm import WaxmanParameters, generate_gtitm_topology
from repro.topology.placement import CloudletPlacementConfig, assign_cloudlets
from tests.reference.draws import assign_cloudlets_scalar, random_catalog_scalar
from tests.reference.waxman import generate_gtitm_topology_add_built

B = gtitm._BLOCK_ROWS

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def ranges(draw, lo_min, hi_max):
    """An ordered ``(lo, hi)`` pair in ``(lo_min, hi_max]``, ``lo == hi`` allowed."""
    a = draw(st.floats(min_value=lo_min, max_value=hi_max, exclude_min=True))
    b = draw(st.floats(min_value=lo_min, max_value=hi_max, exclude_min=True))
    return (min(a, b), max(a, b))


def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


# -- the catalog ------------------------------------------------------------------


@given(
    seed=seeds,
    num_types=st.integers(min_value=1, max_value=64),
    demand_range=ranges(0.0, 1e4),
    reliability_range=ranges(0.0, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_catalog_one_draw_matches_scalar_draws(
    seed, num_types, demand_range, reliability_range
):
    gen = np.random.default_rng(seed)
    ref_gen = np.random.default_rng(seed)
    catalog = VNFCatalog.random(
        num_types, demand_range, reliability_range, rng=gen
    )
    reference = random_catalog_scalar(
        num_types, demand_range, reliability_range, rng=ref_gen
    )
    assert [
        (f.name, f.demand.hex(), f.reliability.hex()) for f in catalog
    ] == [(f.name, f.demand.hex(), f.reliability.hex()) for f in reference]
    assert _same_state(gen, ref_gen)


def test_catalog_paper_defaults_match_scalar_draws():
    for seed in range(300):
        gen = np.random.default_rng(seed)
        ref_gen = np.random.default_rng(seed)
        catalog = VNFCatalog.random(rng=gen)
        reference = random_catalog_scalar(rng=ref_gen)
        assert [(f.demand.hex(), f.reliability.hex()) for f in catalog] == [
            (f.demand.hex(), f.reliability.hex()) for f in reference
        ], seed
        assert _same_state(gen, ref_gen), seed


# -- the cloudlet capacities ------------------------------------------------------


@given(
    seed=seeds,
    num_nodes=st.integers(min_value=1, max_value=300),
    fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    capacity_range=ranges(0.0, 1e5),
    labels=st.sampled_from(["contiguous", "shuffled"]),
)
@settings(max_examples=150, deadline=None)
def test_capacities_one_draw_match_scalar_draws(
    seed, num_nodes, fraction, capacity_range, labels
):
    nodes = list(range(num_nodes))
    if labels == "shuffled":
        nodes = [int(v) * 7 + 3 for v in np.random.default_rng(seed).permutation(num_nodes)]
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    config = CloudletPlacementConfig(fraction, capacity_range)
    gen = np.random.default_rng(seed)
    ref_gen = np.random.default_rng(seed)
    capacities = assign_cloudlets(graph, config, rng=gen)
    reference = assign_cloudlets_scalar(graph, config, rng=ref_gen)
    assert [(v, c.hex()) for v, c in capacities.items()] == [
        (v, c.hex()) for v, c in reference.items()
    ]
    assert all(type(v) is int for v in capacities)
    assert _same_state(gen, ref_gen)


def test_capacities_paper_defaults_match_scalar_draws():
    graph = nx.empty_graph(100)
    for seed in range(300):
        gen = np.random.default_rng(seed)
        ref_gen = np.random.default_rng(seed)
        capacities = assign_cloudlets(graph, rng=gen)
        reference = assign_cloudlets_scalar(graph, rng=ref_gen)
        assert [(v, c.hex()) for v, c in capacities.items()] == [
            (v, c.hex()) for v, c in reference.items()
        ], seed
        assert _same_state(gen, ref_gen), seed


# -- the Waxman graph -------------------------------------------------------------


def _assert_same_graph(graph: nx.Graph, reference: nx.Graph) -> None:
    assert nx.is_frozen(graph)
    assert list(graph.nodes(data=True)) == list(reference.nodes(data=True))
    for (_, data), (_, ref_data) in zip(
        graph.nodes(data=True), reference.nodes(data=True)
    ):
        assert [(k, [x.hex() for x in v]) for k, v in data.items()] == [
            (k, [x.hex() for x in v]) for k, v in ref_data.items()
        ]
    assert len({id(data) for data in graph._node.values()}) == graph.number_of_nodes()
    assert list(graph.edges) == list(reference.edges)
    assert list(graph._adj) == list(reference._adj)
    for v in graph:
        assert list(graph._adj[v]) == list(reference._adj[v]), v
    for u, v, data in graph.edges(data=True):
        assert graph[u][v] is graph[v][u], (u, v)
        assert data == {}
    edge_dicts = {id(data) for _, _, data in graph.edges(data=True)}
    assert len(edge_dicts) == graph.number_of_edges()


def _check_against_add_built(n, params, seed, with_positions):
    gen = np.random.default_rng(seed)
    ref_gen = np.random.default_rng(seed)
    graph = generate_gtitm_topology(
        n, params=params, rng=gen, with_positions=with_positions
    )
    reference = generate_gtitm_topology_add_built(
        n, params=params, rng=ref_gen, with_positions=with_positions
    )
    _assert_same_graph(graph, reference)
    assert _same_state(gen, ref_gen)


# Dense parameters at any size, the row-block edges included (the
# component join is cubic in the component count, so sparse draws stay
# small).
DENSE_SIZES = [1, 2, 3, 17, 100, B - 1, B, B + 1]
dense_params = st.builds(
    WaxmanParameters,
    alpha=st.floats(min_value=0.3, max_value=1.0),
    beta=st.floats(min_value=0.15, max_value=1.0),
)
sparse_params = st.builds(
    WaxmanParameters,
    alpha=st.floats(min_value=0.01, max_value=1.0),
    beta=st.floats(min_value=0.01, max_value=1.0),
)


@given(
    seed=seeds,
    n=st.sampled_from(DENSE_SIZES),
    params=dense_params,
    with_positions=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_graph_fill_matches_add_built_dense(seed, n, params, with_positions):
    _check_against_add_built(n, params, seed, with_positions)


@given(
    seed=seeds,
    n=st.integers(min_value=1, max_value=40),
    params=sparse_params,
    with_positions=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_graph_fill_matches_add_built_sparse(seed, n, params, with_positions):
    _check_against_add_built(n, params, seed, with_positions)


def test_graph_fill_matches_add_built_on_joined_draws():
    """Draws that need the component join, whose edges go in through
    ``add_edge`` after the direct fill."""
    params = WaxmanParameters(0.05, 0.05)
    for seed in range(12):
        gen = np.random.default_rng(seed)
        pos = gen.random((24, 2))
        us, _ = gtitm._waxman_edges(pos, params, gen)
        assert len(us) < 23, seed  # too few edges to be connected
        _check_against_add_built(24, params, seed, with_positions=seed % 2 == 0)


def test_graph_fill_paper_defaults_match_add_built():
    for seed in range(300):
        _check_against_add_built(100, WaxmanParameters(), seed, with_positions=False)

