"""The row-blocked Waxman generator against the original whole-matrix one.

:func:`repro.topology.gtitm.generate_gtitm_topology` draws the edge matrix
in row blocks into a graph it freezes;
:func:`tests.reference.waxman.generate_gtitm_topology_reference` draws it
whole into a mutable graph and attaches positions last.  Both then join
the closest pair of components until one is left.  They must give the
same nodes, node data and edges in the same order, and leave the
generator in the same state -- so every later draw of a trial (cloudlets,
catalog, requests) is unchanged too.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.topology import gtitm
from repro.topology.gtitm import WaxmanParameters, generate_gtitm_topology
from tests.reference.waxman import generate_gtitm_topology_reference

B = gtitm._BLOCK_ROWS
SEEDS = range(8)

# Dense draws, across the block boundaries.
DENSE = [
    (n, params)
    for n in (1, 2, 3, 17, 100, B - 1, B, B + 1, 2 * B + 88)
    for params in (WaxmanParameters(0.4, 0.2), WaxmanParameters(1.0, 1.0))
]
# Sparse draws that need the component join (the join is cubic in the
# component count, so n stays small).
SPARSE = [
    (n, params)
    for n in (2, 3, 10, 30, 60)
    for params in (
        WaxmanParameters(0.05, 0.05),
        WaxmanParameters(0.01, 0.3),
        WaxmanParameters(0.01, 0.01),
    )
]


def _assert_same(n, params):
    """Both generators agree on every seed, with and without positions.

    The reference attaches positions after the whole build, so its run with
    positions, stripped of them, is also its run without.
    """
    for seed in SEEDS:
        ref_gen = np.random.default_rng(seed)
        ref = generate_gtitm_topology_reference(n, params=params, rng=ref_gen)
        edges = list(ref.edges)
        for with_positions in (True, False):
            nodes = list(ref.nodes(data=True))
            if not with_positions:
                nodes = [(v, {}) for v, _ in nodes]
            gen = np.random.default_rng(seed)
            graph = generate_gtitm_topology(
                n, params=params, rng=gen, with_positions=with_positions
            )
            assert list(graph.nodes(data=True)) == nodes, (seed, with_positions)
            assert list(graph.edges) == edges, (seed, with_positions)
            assert gen.bit_generator.state == ref_gen.bit_generator.state, seed


@pytest.mark.parametrize(("n", "params"), DENSE)
def test_dense_draws_match_reference(n, params):
    _assert_same(n, params)


@pytest.mark.parametrize(("n", "params"), SPARSE)
def test_component_join_matches_reference(n, params):
    _assert_same(n, params)


def test_sparse_cases_exercise_the_join():
    """The sparse cases really start disconnected, most with many components."""
    counts = []
    for n, params in SPARSE:
        for seed in SEEDS:
            gen = np.random.default_rng(seed)
            pos = gen.uniform(0.0, 1.0, size=(n, 2))
            graph = nx.Graph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(zip(*gtitm._waxman_edges(pos, params, gen)))
            counts.append(nx.number_connected_components(graph))
    assert sum(c > 1 for c in counts) > 0.9 * len(counts)
    assert max(counts) >= 50
