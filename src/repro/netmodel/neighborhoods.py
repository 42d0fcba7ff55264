"""``l``-hop neighborhood sets ``N_l(v)`` and ``N_l^+(v)``.

Section 3 defines ``N_l(v)`` as the set of nodes within ``l`` hops of ``v``
(excluding ``v`` itself) and ``N_l^+(v) = N_l(v) ∪ {v}``.  The placement
constraint of the augmentation problem says every secondary instance of a
primary placed at cloudlet ``v`` must live on a *cloudlet* in ``N_l^+(v)``.

:class:`NeighborhoodIndex` serves, for one radius ``l``, the neighbor sets
of every node by truncated breadth-first search, and additionally the
cloudlet-restricted sets the algorithms actually consume.  Sets are computed
*lazily* -- the BFS from a node runs on first access and is memoized -- so
a batch of requests touching a handful of primaries never pays for the
whole graph, while repeated requests on one topology share every set ever
computed (the index itself is cached per radius by
:meth:`MECNetwork.neighborhoods` and can be hoisted explicitly through
:meth:`AugmentationProblem.build`'s ``neighborhoods`` argument).  Radius
``None`` is not supported here -- the "unrestricted placement" baseline
simply uses ``radius = |V| - 1``, which reaches the whole (connected)
graph.

The sets come from the array-native
:class:`repro.kernels.csr.NeighborhoodKernel` (CSR adjacency + vectorized
multi-source frontier expansion, shared per ``(graph, radius)`` so every
index over one topology reuses the BFS work); ``tests/test_kernels_csr.py``
checks it against networkx's ``single_source_shortest_path_length``.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx
import numpy as np

from repro.kernels.csr import NeighborhoodKernel, neighborhood_kernel


class NeighborhoodIndex:
    """Lazily computed ``l``-hop neighborhoods of the nodes of a graph.

    The truncated BFS from a node runs on first access to that node's set
    and is memoized; the cloudlet-restricted lists are likewise derived on
    demand.  Accessors therefore cost one BFS the first time and a dict
    lookup afterwards, and an index shared across a batch of requests
    accumulates exactly the sets the batch touches.  :meth:`prefetch`
    additionally lets a caller batch the BFS of many sources into one
    vectorized frontier expansion.

    Parameters
    ----------
    graph:
        The AP graph.
    radius:
        The locality radius ``l >= 0``.
    cloudlets:
        Optional iterable of cloudlet node ids; when given, the index can
        also serve the cloudlet-restricted neighbor lists used for
        secondary placement.
    """

    def __init__(
        self,
        graph: nx.Graph,
        radius: int,
        cloudlets: Iterable[int] | None = None,
    ):
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        self._graph = graph
        self._radius = radius
        self._nodes_cache: set[int] | None = None
        self._cloudlet_set = set(cloudlets) if cloudlets is not None else None
        self._closed: dict[int, frozenset[int]] = {}
        self._closed_cloudlets: dict[int, tuple[int, ...]] = {}
        # The shared kernel is only fetched on first mask access: the
        # radius <= 1 accessors run straight off the adjacency dict and
        # never need it.
        self._kernel: NeighborhoodKernel | None = None
        # Sorted cloudlet ids; the id / node-index *arrays* behind
        # closed_cloudlets' masked gather are built lazily -- at radius <= 1
        # it never touches them.
        self._cl_list: list[int] | None = None
        self._cl_ids: np.ndarray | None = None
        self._cl_pos: np.ndarray | None = None
        self._cl_int: bool | None = None
        # Raw adjacency dict-of-dicts: graph.adj builds an AdjacencyView per
        # access and routes membership through __getitem__; the underlying
        # dict is stable here because MECNetwork freezes its graph.
        self._adj: dict = graph._adj
        if self._cloudlet_set is not None:
            adj = self._adj
            self._cl_list = sorted(v for v in self._cloudlet_set if v in adj)

    def _resolve_kernel(self) -> NeighborhoodKernel:
        """The serving kernel, fetched on first need."""
        kernel = self._kernel
        if kernel is None:
            kernel = self._kernel = neighborhood_kernel(self._graph, self._radius)
        return kernel

    @property
    def _nodes(self) -> set[int]:
        """The graph's node set (materialised on first use)."""
        nodes = self._nodes_cache
        if nodes is None:
            nodes = self._nodes_cache = set(self._graph.nodes)
        return nodes

    def _cl_positions(self) -> np.ndarray:
        """Node-index positions of the sorted cloudlet ids (lazy)."""
        if self._cl_pos is None:
            ids = self._cl_list
            index_of = self._resolve_kernel().index_of
            self._cl_ids = np.asarray(ids)
            self._cl_pos = np.fromiter(
                (index_of[v] for v in ids), dtype=np.intp, count=len(ids)
            )
        return self._cl_pos

    @property
    def radius(self) -> int:
        """The radius ``l`` this index was built for."""
        return self._radius

    def closed(self, v: int) -> frozenset[int]:
        """``N_l^+(v)`` -- nodes within ``l`` hops of ``v``, including ``v``."""
        closed = self._closed.get(v)
        if closed is None:
            kernel = self._resolve_kernel()
            reached = np.nonzero(kernel.mask(v))[0].tolist()
            if kernel.contiguous:
                closed = frozenset(reached)
            else:
                order = kernel.order
                closed = frozenset(order[i] for i in reached)
            self._closed[v] = closed
        return closed

    def open(self, v: int) -> frozenset[int]:
        """``N_l(v)`` -- nodes within ``l`` hops of ``v``, excluding ``v``."""
        return self.closed(v) - {v}

    def closed_cloudlets(self, v: int) -> tuple[int, ...]:
        """Cloudlets in ``N_l^+(v)`` -- the candidate bins for secondaries of a
        primary placed at ``v``, sorted.  Requires the index to have been
        built with a ``cloudlets`` argument."""
        bins = self._closed_cloudlets.get(v)
        if bins is None:
            if self._cloudlet_set is None:
                raise KeyError(
                    f"no cloudlet-restricted neighborhood for node {v!r}; "
                    "was the index built with cloudlets?"
                )
            if self._radius <= 1:
                # radius <= 1 fast path: N_1^+(v) = {v} | adj(v) straight
                # off the adjacency dict -- no BFS, no mask.  _cl_list is
                # sorted, so the filtered tuple is already sorted.
                adj_v = self._adj.get(v)
                if adj_v is None:
                    raise KeyError(f"unknown node {v!r}")
                if self._radius == 0:
                    bins = (v,) if v in self._cloudlet_set else ()
                else:
                    bins = tuple(
                        u for u in self._cl_list if u == v or u in adj_v
                    )
            else:
                # ids are pre-sorted, so the masked gather is already sorted.
                cl_pos = self._cl_positions()  # also materialises _cl_ids
                mask = self._resolve_kernel().mask(v)
                bins = tuple(self._cl_ids[mask[cl_pos]].tolist())
            self._closed_cloudlets[v] = bins
        return bins

    def contains(self, v: int, u: int) -> bool:
        """Whether ``u ∈ N_l^+(v)``."""
        if self._radius <= 1:
            # radius <= 1 fast path, as in closed_cloudlets: no kernel, no mask.
            adj_v = self._adj.get(v)
            if adj_v is None:
                raise KeyError(f"unknown node {v!r}")
            return u == v or (self._radius == 1 and u in adj_v)
        if v not in self._closed:
            kernel = self._resolve_kernel()
            mask = kernel.mask(v)  # raises KeyError for unknown v
            iu = kernel.index_of.get(u)
            return False if iu is None else bool(mask[iu])
        return u in self.closed(v)

    def degree(self, v: int) -> int:
        """``d_v = |N_l(v)|`` -- the neighborhood size used in the paper's
        complexity bounds (``d_min``/``d_max``)."""
        if v not in self._closed:
            return int(self._resolve_kernel().mask(v).sum()) - 1
        return len(self.closed(v)) - 1

    def degree_bounds(self) -> tuple[int, int]:
        """``(d_min, d_max)`` over all nodes (materialises every set)."""
        self.prefetch(self._nodes)
        degrees = [self.degree(v) for v in self._nodes]
        return (min(degrees), max(degrees))

    # -- batch interface -----------------------------------------------------------
    def prefetch(self, nodes: Iterable[int]) -> None:
        """Compute the sets of ``nodes`` ahead of access.

        Every not-yet-known source joins *one* vectorized multi-source BFS
        (a request chain's primaries cost a single frontier expansion).
        Raises ``KeyError`` for unknown ids, like the accessors would.
        """
        self._resolve_kernel().masks_for(list(nodes))

    @property
    def integer_cloudlet_ids(self) -> bool | None:
        """Whether every cloudlet id is a plain ``int`` (decided once per
        index), or ``None`` for an index built without cloudlets."""
        if self._cl_int is None and self._cl_list is not None:
            self._cl_int = all(type(u) is int for u in self._cl_list)
        return self._cl_int
