"""The auxiliary admission DAG ``G_j`` of Section 4.1 (after Ma et al. [15]).

Construction.  For a request with chain ``(f_1, ..., f_L)``, the DAG has

* a source layer holding the request's source AP ``s_j`` (or a virtual
  source when the request has no pinned endpoint),
* one layer per chain position holding every cloudlet that can host the
  position's primary (capacity at least ``c(f_i)``),
* a sink layer holding ``t_j`` (or a virtual sink).

An edge runs between consecutive layers whenever a path exists between the
two nodes in ``G`` (always, for a connected network).  Edge weights combine

* the *instance* reliability of the target layer's function (``-log r_i``),
* the *transport* reliability of the most reliable path between the two
  nodes, when the AP graph carries a ``reliability`` edge attribute
  (defaulting to 1.0, which makes transport free -- the setting of this
  paper, whose reliability model is instance-only).

A shortest (minimum ``-log``) source-to-sink path then visits one cloudlet
per layer and is exactly the maximum-reliability primary placement.  The
path is computed by dynamic programming over the layers (the graph is a
layered DAG, so one left-to-right sweep is optimal).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import networkx as nx

from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request
from repro.util.errors import InfeasibleError, ValidationError


def most_reliable_path_weights(
    graph: nx.Graph, attr: str = "reliability"
) -> dict[int, dict[int, float]]:
    """All-pairs ``-log`` weight of the most reliable path.

    Each edge's reliability is its ``attr`` attribute (default 1.0 when
    absent).  The most reliable ``u -> v`` path minimises the sum of
    ``-log`` edge reliabilities; this returns that minimal sum for every
    pair, with 0.0 on the diagonal.
    """
    weighted = nx.Graph()
    weighted.add_nodes_from(graph.nodes)
    for u, v, data in graph.edges(data=True):
        rel = float(data.get(attr, 1.0))
        if not (0.0 < rel <= 1.0):
            raise ValidationError(f"edge ({u}, {v}) reliability must be in (0, 1], got {rel}")
        weighted.add_edge(u, v, nlog=-math.log(rel))
    lengths = dict(nx.all_pairs_dijkstra_path_length(weighted, weight="nlog"))
    return {u: dict(d) for u, d in lengths.items()}


class AdmissionDAG:
    """Layered admission DAG with a dynamic-programming shortest path.

    Parameters
    ----------
    network:
        The MEC network.
    request:
        The request whose primaries are being placed.
    residuals:
        Residual capacity per cloudlet; a cloudlet is a candidate for layer
        ``i`` iff its residual covers ``c(f_i)``.
    transport_weights:
        Optional precomputed output of :func:`most_reliable_path_weights`;
        when omitted, transport is treated as perfectly reliable (the
        paper's instance-only reliability model).
    start_from:
        First chain position to plan.  A re-plan of a suffix builds and
        checks only the layers ``start_from..L-1``: the positions before it
        are placed already, and their demands need not fit the residuals
        left after placing them.  The earlier layers stay empty.
    """

    def __init__(
        self,
        network: MECNetwork,
        request: Request,
        residuals: Mapping[int, float],
        transport_weights: Mapping[int, Mapping[int, float]] | None = None,
        start_from: int = 0,
    ):
        self._network = network
        self._request = request
        self._transport = transport_weights
        self._start = start_from
        self._layers: list[list[int]] = [[] for _ in range(start_from)]
        for i in range(start_from, request.chain.length):
            func = request.chain[i]
            layer = [
                v
                for v in network.cloudlets
                if residuals.get(v, 0.0) + 1e-9 >= func.demand
            ]
            if not layer:
                raise InfeasibleError(
                    f"no cloudlet can host the primary of position {i} "
                    f"({func.name}, demand {func.demand:.1f})"
                )
            self._layers.append(layer)

    @property
    def layers(self) -> list[list[int]]:
        """Candidate cloudlets per chain position."""
        return [list(layer) for layer in self._layers]

    def _transport_cost(self, u: int | None, v: int) -> float:
        """``-log`` transport reliability from ``u`` to ``v`` (0 when free)."""
        if self._transport is None or u is None:
            return 0.0
        try:
            return float(self._transport[u][v])
        except KeyError:
            return math.inf  # unreachable pair

    def shortest_placement(self, start_from: int = 0, anchor: int | None = None) -> list[int]:
        """Max-reliability placement for layers ``start_from..L-1``.

        Parameters
        ----------
        start_from:
            First layer to place (re-planning entry point).
        anchor:
            Node the path departs from: the request's source for a full
            plan, or the previous position's committed cloudlet when
            re-planning a suffix.

        Returns
        -------
        list[int]
            One cloudlet per layer in ``start_from..L-1``.

        Raises
        ------
        ValidationError
            If ``start_from`` precedes the first layer the DAG was built
            for.
        """
        if start_from < self._start:
            raise ValidationError(
                f"layers before position {self._start} were not built "
                f"(start_from={start_from})"
            )
        layers = self._layers[start_from:]
        if not layers:
            return []
        chain = self._request.chain

        origin = anchor if anchor is not None else self._request.source
        # cost[v] = best -log reliability of a partial placement ending at v
        cost: dict[int, float] = {}
        parent: list[dict[int, int]] = []
        first_func = chain[start_from]
        for v in layers[0]:
            cost[v] = self._transport_cost(origin, v) - math.log(first_func.reliability)

        for depth in range(1, len(layers)):
            func = chain[start_from + depth]
            new_cost: dict[int, float] = {}
            links: dict[int, int] = {}
            for v in layers[depth]:
                best_u, best_c = None, math.inf
                for u, cu in cost.items():
                    c = cu + self._transport_cost(u, v)
                    if c < best_c:
                        best_u, best_c = u, c
                if best_u is None:
                    continue
                new_cost[v] = best_c - math.log(func.reliability)
                links[v] = best_u
            if not new_cost:
                raise InfeasibleError(
                    f"admission DAG disconnected at layer {start_from + depth}"
                )
            parent.append(links)
            cost = new_cost

        # account the terminal hop to the destination, if pinned
        dest = self._request.destination
        end, best = None, math.inf
        for v, cv in cost.items():
            c = cv + self._transport_cost(v, dest) if dest is not None else cv
            if c < best:
                end, best = v, c
        if end is None or not math.isfinite(best):
            raise InfeasibleError("no feasible admission path to the destination")

        # backtrack
        path = [end]
        for links in reversed(parent):
            path.append(links[path[-1]])
        path.reverse()
        return path

    def placement_reliability(self, placement: Sequence[int]) -> float:
        """Reliability of a full primary placement (instances x transport)."""
        if len(placement) != self._request.chain.length:
            raise ValidationError(
                f"placement length {len(placement)} != chain length "
                f"{self._request.chain.length}"
            )
        nlog = 0.0
        prev: int | None = self._request.source
        for func, v in zip(self._request.chain, placement):
            nlog += self._transport_cost(prev, v) - math.log(func.reliability)
            prev = v
        if self._request.destination is not None:
            nlog += self._transport_cost(prev, self._request.destination)
        return math.exp(-nlog)
