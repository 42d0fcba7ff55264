"""GT-ITM-style (Waxman) random topology generation.

GT-ITM's "flat random" graph model is the Waxman model [Waxman 1988]: ``n``
nodes are placed uniformly at random in the unit square, and an edge between
nodes ``u`` and ``v`` at Euclidean distance ``d(u, v)`` exists with
probability::

    P(u, v) = alpha * exp(-d(u, v) / (beta * L))

where ``L = sqrt(2)`` is the maximum distance in the unit square,
``alpha in (0, 1]`` scales overall edge density, and ``beta in (0, 1]``
controls how strongly long edges are suppressed.

Raw Waxman draws are occasionally disconnected; real GT-ITM workflows
re-draw or patch such graphs.  We patch deterministically: while more than
one connected component remains, the two closest components (by Euclidean
distance between their closest node pair) are joined by that shortest
candidate edge.  The repair adds ``#components - 1`` edges at most and keeps
the geometric character of the graph.

Every trial of a sweep draws one such graph, so it is built cheaply: the
edge matrix is drawn in row blocks, and the graph's node and adjacency
dicts are filled directly with what ``add_nodes_from`` / ``add_edges_from``
would build (same insertion order, a fresh data dict per node, and one
data dict per edge shared by both directions) before the join and the
freeze.  ``tests/reference/waxman.py`` keeps both earlier constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.util.errors import ValidationError
from repro.util.rng import RandomState, as_rng


@dataclass(frozen=True)
class WaxmanParameters:
    """Parameters of the Waxman edge-probability model.

    The defaults (``alpha=0.4, beta=0.2``) give 100-node graphs with mean
    degree around 6 and diameter around 5 -- typical of GT-ITM flat random
    topologies used in the MEC literature.
    """

    alpha: float = 0.4
    beta: float = 0.2

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (0.0 < self.beta <= 1.0):
            raise ValidationError(f"beta must be in (0, 1], got {self.beta}")


# Rows of the Waxman draw handled per block: large enough that NumPy's
# per-call overhead vanishes at the paper's 100 APs, small enough that the
# draw of a 4,096-AP replay topology holds no temporary larger than
# ``256 x n``.
_BLOCK_ROWS = 256


def _waxman_edges(
    pos: np.ndarray, params: WaxmanParameters, gen: np.random.Generator
) -> tuple[list[int], list[int]]:
    """The Waxman edges ``(us[e], vs[e])``, ``us[e] < vs[e]``, in row-major order.

    The ``n x n`` uniform matrix is drawn block by block in row order,
    which is the same stream as one ``(n, n)`` draw.  ``gen.random`` gives
    the same doubles, at the same stream position, as
    ``gen.uniform(0.0, 1.0)``.  Each block's distances and probabilities
    use the same IEEE operations as a whole matrix would, so every edge
    decision is the same.
    """
    n = pos.shape[0]
    x = pos[:, 0]
    y = pos[:, 1]
    scale = params.beta * math.sqrt(2.0)
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        draws = gen.random((stop - start, n))
        dx = x[start:stop, None] - x
        dy = y[start:stop, None] - y
        dist = np.sqrt(dx * dx + dy * dy)
        prob = params.alpha * np.exp(-dist / scale)
        iu, jv = np.nonzero(np.triu(draws < prob, k=start + 1))
        us.append(iu + start)
        vs.append(jv)
    # The Python ints are made only once the last block's `256 x n` arrays
    # are freed: made while those were live, they kept the heap from
    # shrinking, and a 4,096-AP replay's RSS read up to 40 MB higher.
    # Freeing each block before the next is drawn costs page faults instead.
    del draws, dx, dy, dist, prob
    return np.concatenate(us).tolist(), np.concatenate(vs).tolist()


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


def generate_gtitm_topology(
    num_nodes: int = 100,
    params: WaxmanParameters | None = None,
    rng: RandomState = None,
    with_positions: bool = True,
) -> nx.Graph:
    """Generate a connected GT-ITM-style (Waxman) AP topology.

    Parameters
    ----------
    num_nodes:
        Number of APs ``|V|`` (the paper uses 100).
    params:
        Waxman ``alpha``/``beta``; defaults are tuned to GT-ITM-like density.
    rng:
        Seed or generator for reproducibility.
    with_positions:
        When True, node attribute ``"pos"`` carries the unit-square
        coordinates (handy for plotting; the repair pass reads the
        coordinate array, not these attributes).

    Returns
    -------
    networkx.Graph
        A connected undirected graph on nodes ``0 .. num_nodes-1``, frozen
        (``.copy()`` gives a mutable one).  :class:`MECNetwork` shares a
        frozen graph instead of copying it.
    """
    if num_nodes <= 0:
        raise ValidationError(f"num_nodes must be positive, got {num_nodes}")
    params = params or WaxmanParameters()
    gen = as_rng(rng)

    pos = gen.random((num_nodes, 2))
    graph = nx.Graph()
    # Filled in place with what add_nodes_from / add_edges_from would build,
    # in the same insertion order: a fresh data dict per node, and one
    # fresh data dict per edge shared by both directions.
    if with_positions:
        graph._node.update(
            (v, {"pos": (x, y)}) for v, (x, y) in enumerate(pos.tolist())
        )
    else:
        graph._node.update((v, {}) for v in range(num_nodes))
    adj = graph._adj
    adj.update((v, {}) for v in range(num_nodes))

    if num_nodes > 1:
        us, vs = _waxman_edges(pos, params, gen)
        for u, v in zip(us, vs):
            adj[u][v] = adj[v][u] = {}
        _connect_components(graph, pos)
    return nx.freeze(graph)


def expected_edge_probability(params: WaxmanParameters, distance: float) -> float:
    """The Waxman connection probability at a given Euclidean distance.

    Exposed for tests that verify the generator's edge statistics against
    the model's closed form.
    """
    if distance < 0:
        raise ValidationError(f"distance must be >= 0, got {distance}")
    return params.alpha * math.exp(-distance / (params.beta * math.sqrt(2.0)))
