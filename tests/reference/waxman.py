"""The Waxman generators the production one replaced.

:func:`generate_gtitm_topology_reference` is the original
:func:`repro.topology.gtitm.generate_gtitm_topology`: one ``(n, n, 2)``
difference tensor for the distances, one ``triu_indices`` mask over the
whole ``(n, n)`` draw, edges inserted into a mutable graph, and the
component join that re-measures every component pair with a fresh NumPy
block after each join (cubic in the component count).  The production
generator must return the same nodes, node data and edges in the same
order, and leave the generator in the same state
(``tests/test_topology_reference.py``).

:func:`generate_gtitm_topology_add_built` is the row-blocked generator as
it was before it filled its graph directly: the same draws, built through
``add_nodes_from`` / ``add_edges_from``.  The production graph must have
the same node, edge and adjacency order and the same dict sharing
(``tests/test_instance_reference.py``).
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np

from repro.topology.gtitm import _BLOCK_ROWS, WaxmanParameters
from repro.util.errors import ValidationError
from repro.util.rng import RandomState, as_rng


def _pairwise_distances(pos: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix of an ``(n, 2)`` coordinate array."""
    diff = pos[:, None, :] - pos[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def _connect_components(graph: nx.Graph, pos: np.ndarray) -> None:
    """Join components with the geometrically shortest inter-component edges."""
    components = [list(c) for c in nx.connected_components(graph)]
    while len(components) > 1:
        best: tuple[float, int, int, int, int] | None = None
        for a in range(len(components)):
            for b in range(a + 1, len(components)):
                pa = pos[components[a]]
                pb = pos[components[b]]
                # distance between every node of component a and of component b
                d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=-1))
                ia, ib = np.unravel_index(int(np.argmin(d)), d.shape)
                cand = (float(d[ia, ib]), components[a][ia], components[b][ib], a, b)
                if best is None or cand[0] < best[0]:
                    best = cand
        assert best is not None
        _, u, v, a, b = best
        graph.add_edge(u, v)
        components[a].extend(components[b])
        del components[b]


def generate_gtitm_topology_reference(
    num_nodes: int = 100,
    params: WaxmanParameters | None = None,
    rng: RandomState = None,
    with_positions: bool = True,
) -> nx.Graph:
    """The original connected Waxman AP topology (mutable graph)."""
    if num_nodes <= 0:
        raise ValidationError(f"num_nodes must be positive, got {num_nodes}")
    params = params or WaxmanParameters()
    gen = as_rng(rng)

    pos = gen.uniform(0.0, 1.0, size=(num_nodes, 2))
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))

    if num_nodes > 1:
        dist = _pairwise_distances(pos)
        max_dist = math.sqrt(2.0)
        prob = params.alpha * np.exp(-dist / (params.beta * max_dist))
        draws = gen.uniform(0.0, 1.0, size=(num_nodes, num_nodes))
        iu, ju = np.triu_indices(num_nodes, k=1)
        mask = draws[iu, ju] < prob[iu, ju]
        graph.add_edges_from(zip(iu[mask].tolist(), ju[mask].tolist()))
        _connect_components(graph, pos)

    if with_positions:
        for v in graph.nodes:
            graph.nodes[v]["pos"] = (float(pos[v, 0]), float(pos[v, 1]))
    return graph


def generate_gtitm_topology_add_built(
    num_nodes: int = 100,
    params: WaxmanParameters | None = None,
    rng: RandomState = None,
    with_positions: bool = True,
) -> nx.Graph:
    """The row-blocked generator built through networkx's ``add_*`` calls.

    The production generator fills the graph's node and adjacency dicts
    directly; this is the construction it replaced: ``add_nodes_from``
    (with ``pos`` in the same call when asked), ``add_edges_from`` over the
    row-major Waxman edges, the pairwise component join, then ``freeze``.
    Same draws as :func:`repro.topology.gtitm.generate_gtitm_topology`
    (``uniform(0.0, 1.0)`` here, ``random`` there).
    """
    if num_nodes <= 0:
        raise ValidationError(f"num_nodes must be positive, got {num_nodes}")
    params = params or WaxmanParameters()
    gen = as_rng(rng)

    pos = gen.uniform(0.0, 1.0, size=(num_nodes, 2))
    graph = nx.Graph()
    if with_positions:
        graph.add_nodes_from(
            (v, {"pos": (x, y)}) for v, (x, y) in enumerate(pos.tolist())
        )
    else:
        graph.add_nodes_from(range(num_nodes))

    if num_nodes > 1:
        graph.add_edges_from(_row_blocked_edges(pos, params, gen))
        _connect_components(graph, pos)
    return nx.freeze(graph)


def _row_blocked_edges(
    pos: np.ndarray, params: WaxmanParameters, gen: np.random.Generator
) -> list[tuple[int, int]]:
    """The row-blocked Waxman edges as ``(u, v)`` tuples, drawn with
    ``uniform(0.0, 1.0)`` block by block."""
    n = pos.shape[0]
    x = pos[:, 0]
    y = pos[:, 1]
    scale = params.beta * math.sqrt(2.0)
    edges: list[tuple[int, int]] = []
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        draws = gen.uniform(0.0, 1.0, size=(stop - start, n))
        dx = x[start:stop, None] - x
        dy = y[start:stop, None] - y
        dist = np.sqrt(dx * dx + dy * dy)
        prob = params.alpha * np.exp(-dist / scale)
        iu, jv = np.nonzero(np.triu(draws < prob, k=start + 1))
        edges.extend(zip((iu + start).tolist(), jv.tolist()))
    return edges
