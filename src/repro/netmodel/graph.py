"""The MEC network graph ``G = (V, E)`` with cloudlet co-location.

Section 3 of the paper models the mobile edge-cloud network as an undirected
graph whose nodes are access points (APs).  A subset of APs is co-located
with cloudlets; a cloudlet at node ``v`` has computing capacity ``C_v > 0``
while plain APs have ``C_v = 0``.  The augmentation algorithms only ever
place VNF instances on cloudlets, but hop distances -- and therefore the
``l``-hop placement-locality constraint -- are measured over the full AP
graph.

:class:`MECNetwork` wraps a :class:`networkx.Graph` with the capacity map and
exposes the queries the rest of the library needs (cloudlet enumeration,
degree/diameter statistics, neighborhood index construction).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import networkx as nx

from repro.netmodel.neighborhoods import NeighborhoodIndex
from repro.util.errors import ValidationError


class MECNetwork:
    """An MEC network: AP graph plus cloudlet capacities.

    Parameters
    ----------
    graph:
        Undirected, connected AP graph.  Node ids must be hashable; the
        generators in :mod:`repro.topology` use contiguous integers.
    capacities:
        Mapping from node id to cloudlet computing capacity ``C_v`` (MHz).
        Nodes absent from the mapping (or mapped to 0) are plain APs.

    Notes
    -----
    The network keeps a frozen graph as it is (the generators in
    :mod:`repro.topology.gtitm` return one) and copies any other graph --
    mutable, or a view over a mutable one -- before freezing the copy.

    The network object is immutable after construction; *residual* capacity
    during a run is tracked separately by
    :class:`repro.netmodel.capacity.CapacityLedger` so that several
    algorithms can be evaluated against the same initial state.
    """

    def __init__(self, graph: nx.Graph, capacities: Mapping[int, float]):
        if graph.number_of_nodes() == 0:
            raise ValidationError("MEC network must have at least one node")
        if graph.is_directed():
            raise ValidationError("MEC network graph must be undirected")
        if not nx.is_connected(graph):
            raise ValidationError("MEC network graph must be connected")
        unknown = set(capacities) - set(graph.nodes)
        if unknown:
            raise ValidationError(f"capacity given for unknown nodes: {sorted(unknown)!r}")
        for v, c in capacities.items():
            if c < 0:
                raise ValidationError(f"capacity of node {v!r} must be >= 0, got {c}")

        # A view is frozen too, but it follows its mutable base graph.
        if nx.is_frozen(graph) and not hasattr(graph, "_graph"):
            self._graph = graph
        else:
            self._graph = nx.freeze(graph.copy())
        self._capacity: dict[int, float] = {
            v: float(capacities.get(v, 0.0)) for v in self._graph.nodes
        }
        self._cloudlets: tuple[int, ...] = tuple(
            sorted(v for v, c in self._capacity.items() if c > 0)
        )
        if not self._cloudlets:
            raise ValidationError("MEC network must contain at least one cloudlet")
        self._neighborhood_cache: dict[int, NeighborhoodIndex] = {}

    # -- basic queries -------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        """The (frozen) underlying AP graph."""
        return self._graph

    @property
    def num_nodes(self) -> int:
        """``|V|`` -- number of APs."""
        return self._graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        """``|E|``."""
        return self._graph.number_of_edges()

    @property
    def nodes(self) -> list[int]:
        """All AP node ids."""
        return list(self._graph.nodes)

    @property
    def cloudlets(self) -> tuple[int, ...]:
        """Node ids co-located with a cloudlet (``C_v > 0``), sorted."""
        return self._cloudlets

    @property
    def num_cloudlets(self) -> int:
        """Number of cloudlets in the network."""
        return len(self._cloudlets)

    def capacity(self, v: int) -> float:
        """Computing capacity ``C_v`` of node ``v`` (0 for plain APs)."""
        try:
            return self._capacity[v]
        except KeyError:
            raise KeyError(f"unknown node {v!r}") from None

    @property
    def capacities(self) -> dict[int, float]:
        """Copy of the full node -> capacity map."""
        return dict(self._capacity)

    @property
    def total_capacity(self) -> float:
        """Sum of all cloudlet capacities."""
        return sum(self._capacity[v] for v in self._cloudlets)

    def is_cloudlet(self, v: int) -> bool:
        """Whether node ``v`` hosts a cloudlet."""
        return self._capacity.get(v, 0.0) > 0

    # -- distances and neighborhoods ------------------------------------------
    def neighborhoods(self, radius: int) -> NeighborhoodIndex:
        """The ``l``-hop neighborhood index ``N_l(.)`` for ``radius = l``.

        Indexes are cached per radius: the experiment harness calls this with
        the same ``l`` for every request on a topology.
        """
        if radius < 0:
            raise ValidationError(f"neighborhood radius must be >= 0, got {radius}")
        index = self._neighborhood_cache.get(radius)
        if index is None:
            index = NeighborhoodIndex(self._graph, radius, cloudlets=self._cloudlets)
            self._neighborhood_cache[radius] = index
        return index

    def hop_distance(self, u: int, v: int) -> int:
        """Hop distance between APs ``u`` and ``v``."""
        return nx.shortest_path_length(self._graph, u, v)

    # -- statistics -----------------------------------------------------------
    def degree_stats(self) -> tuple[float, int, int]:
        """``(mean, min, max)`` node degree -- used by topology tests."""
        degrees = [d for _, d in self._graph.degree()]
        return (sum(degrees) / len(degrees), min(degrees), max(degrees))

    def diameter(self) -> int:
        """Graph diameter in hops."""
        return nx.diameter(self._graph)

    def with_capacities(self, capacities: Mapping[int, float]) -> "MECNetwork":
        """This network with a different capacity assignment (same graph)."""
        return MECNetwork(self._graph, capacities)

    def scaled_capacities(self, fraction: float) -> dict[int, float]:
        """Capacity map scaled by ``fraction`` (the residual ratios of Fig. 3).

        The paper evaluates its algorithms on cloudlets whose *residual*
        capacity is a fraction (1/16 ... 1) of the full capacity; this helper
        produces the corresponding residual map without mutating the network.
        """
        if fraction < 0:
            raise ValidationError(f"fraction must be >= 0, got {fraction}")
        return {v: self._capacity[v] * fraction for v in self._cloudlets}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MECNetwork(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"cloudlets={self.num_cloudlets}, total_capacity={self.total_capacity:.0f})"
        )


def induced_cloudlet_subgraph(network: MECNetwork) -> nx.Graph:
    """The subgraph induced by cloudlet nodes (analysis helper, not used by
    the algorithms -- locality is measured over the full AP graph)."""
    return network.graph.subgraph(network.cloudlets).copy()


def validate_node_ids(network: MECNetwork, nodes: Iterable[int]) -> None:
    """Raise :class:`ValidationError` if any id in ``nodes`` is unknown."""
    known = set(network.graph.nodes)
    bad = [v for v in nodes if v not in known]
    if bad:
        raise ValidationError(f"unknown node ids: {bad!r}")
