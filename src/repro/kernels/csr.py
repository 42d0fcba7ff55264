"""CSR adjacency and vectorized truncated multi-source BFS.

A per-source deque BFS over the networkx adjacency dict-of-dicts is
pure-Python work proportional to the touched edge count *per source*, paid
again for every primary of every request on a topology.

This module flattens the adjacency once per graph into CSR arrays
(``indptr``/``indices``) and expands BFS frontiers for *many sources at
once* with NumPy boolean masks:

* :func:`csr_adjacency` -- networkx graph -> :class:`CSRAdjacency`, memoized
  per graph object (graphs are frozen by :class:`MECNetwork`, so the arrays
  can never go stale);
* :func:`truncated_bfs_masks` -- one frontier-expansion loop of at most
  ``radius`` iterations that serves *all* requested sources simultaneously;
* :class:`NeighborhoodKernel` -- per ``(graph, radius)`` cache of the
  reach masks, shared by every :class:`NeighborhoodIndex` built over the
  same topology and radius.  For ``radius <= 1`` the masks come straight
  from the adjacency dict (``N_1^+(v) = {v} | adj(v)``), skipping the CSR
  build entirely -- the paper's default locality is ``l = 1``, and a CSR
  pass would cost more than it saves there.

Exactness: BFS hop distances are integers and the expansion is exhaustive,
so the reach sets are *identical* (not approximately equal) to a plain
BFS -- ``tests/test_kernels_csr.py`` proves it against
``nx.single_source_shortest_path_length`` property-style.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

import networkx as nx
import numpy as np


class NodeIndexing:
    """Dense index assignment for a graph's node ids.

    ``order[i]`` is the node id at index ``i`` (graph iteration order, the
    same order every networkx consumer observes); ``index_of`` is its inverse.
    ``contiguous`` is True when ids are already ``0..n-1`` in order, which
    lets the builders below skip the id -> index dict lookups.
    """

    __slots__ = ("order", "index_of", "contiguous")

    def __init__(self, graph: nx.Graph):
        self.order = list(graph.nodes)
        self.index_of = {v: i for i, v in enumerate(self.order)}
        self.contiguous = self.order == list(range(len(self.order)))


_INDEXING_CACHE: "WeakKeyDictionary[nx.Graph, NodeIndexing]" = WeakKeyDictionary()


def node_indexing(graph: nx.Graph) -> NodeIndexing:
    """The memoized :class:`NodeIndexing` of ``graph``."""
    indexing = _INDEXING_CACHE.get(graph)
    if indexing is None:
        indexing = _INDEXING_CACHE[graph] = NodeIndexing(graph)
    return indexing


class CSRAdjacency:
    """Flat CSR view of an undirected graph's adjacency.

    Attributes
    ----------
    indptr:
        ``indptr[i]:indptr[i+1]`` slices ``indices`` into node ``i``'s
        neighbor list (both directions of every edge are present).
    indices:
        Concatenated neighbor index lists.
    order:
        Node ids in index order -- ``order[i]`` is the node at index ``i``.
    index_of:
        Inverse of ``order``: node id -> index.
    """

    __slots__ = ("indptr", "indices", "order", "index_of")

    def __init__(self, graph: nx.Graph, indexing: NodeIndexing | None = None):
        if indexing is None:
            indexing = node_indexing(graph)
        order = indexing.order
        index_of = indexing.index_of
        n = len(order)
        adj = graph.adj
        counts = np.fromiter((len(adj[v]) for v in order), dtype=np.intp, count=n)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[n])
        # networkx adjacency iteration is already grouped per node, so the
        # neighbor stream is CSR-ordered as-is -- no sort needed.
        if indexing.contiguous:
            flat = (w for v in order for w in adj[v])
        else:
            flat = (index_of[w] for v in order for w in adj[v])
        self.indptr = indptr
        self.indices = np.fromiter(flat, dtype=np.intp, count=total)
        self.order = order
        self.index_of = index_of

    @property
    def num_nodes(self) -> int:
        return len(self.order)


_CSR_CACHE: "WeakKeyDictionary[nx.Graph, CSRAdjacency]" = WeakKeyDictionary()


def csr_adjacency(graph: nx.Graph) -> CSRAdjacency:
    """The memoized CSR view of ``graph`` (built once per graph object)."""
    csr = _CSR_CACHE.get(graph)
    if csr is None:
        csr = _CSR_CACHE[graph] = CSRAdjacency(graph)
    return csr


def truncated_bfs_masks(
    csr: CSRAdjacency, source_indices: np.ndarray, radius: int
) -> np.ndarray:
    """Reach masks of a truncated BFS from many sources at once.

    Returns a boolean matrix ``reach`` of shape ``(len(source_indices),
    num_nodes)`` where ``reach[s, i]`` is True iff node index ``i`` lies
    within ``radius`` hops of ``source_indices[s]`` (sources reach
    themselves at distance 0).

    The loop below runs once per hop level, not once per node: each
    iteration gathers the neighbor lists of *every* frontier node of
    *every* source with one fancy-indexing pass over the CSR arrays and
    masks out already-visited nodes.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    num_sources = len(source_indices)
    n = csr.num_nodes
    reach = np.zeros((num_sources, n), dtype=bool)
    reach[np.arange(num_sources), source_indices] = True
    if radius == 0:
        return reach
    indptr, indices = csr.indptr, csr.indices
    frontier = reach.copy()
    for _ in range(radius):
        rows, nodes = np.nonzero(frontier)
        if len(nodes) == 0:
            break
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # flat positions into `indices` covering every frontier node's
        # neighbor slice: arange(total) offset so each slice starts at its
        # node's `starts` value
        ends = np.cumsum(counts)
        flat = np.arange(total, dtype=np.intp) + np.repeat(starts - (ends - counts), counts)
        neighbor = indices[flat]
        out_row = np.repeat(rows, counts)
        frontier = np.zeros_like(reach)
        frontier[out_row, neighbor] = True
        frontier &= ~reach
        if not frontier.any():
            break
        reach |= frontier
    return reach


class NeighborhoodKernel:
    """Per ``(graph, radius)`` cache of truncated-BFS reach masks.

    One kernel instance is shared by every :class:`NeighborhoodIndex`
    built over the same graph object and radius (see
    :func:`neighborhood_kernel`), so hoisted indexes, per-radius network
    caches, and ad-hoc indexes all reuse each other's BFS work.

    Masks are computed on demand: :meth:`masks_for` batches every
    not-yet-known source into *one* vectorized BFS, so a request chain's
    primaries cost a single frontier-expansion pass rather than one BFS
    per position.  The CSR arrays are only built for ``radius >= 2``;
    radius 0/1 masks come directly from the adjacency dict.
    """

    __slots__ = ("graph", "radius", "_indexing", "_csr", "_masks")

    def __init__(self, graph: nx.Graph, radius: int):
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        self.graph = graph
        self.radius = radius
        # Everything array-shaped is lazy: creating a kernel for a topology
        # must cost nothing until a consumer actually needs masks, because
        # the radius <= 1 neighborhood accessors are served straight off
        # the adjacency dict without ever touching the arrays.
        self._indexing: NodeIndexing | None = None
        self._csr: CSRAdjacency | None = None
        self._masks: dict[object, np.ndarray] = {}

    @property
    def indexing(self) -> NodeIndexing:
        """Dense node indexing, built on first mask access."""
        indexing = self._indexing
        if indexing is None:
            indexing = self._indexing = node_indexing(self.graph)
        return indexing

    @property
    def order(self) -> list:
        return self.indexing.order

    @property
    def index_of(self) -> dict:
        return self.indexing.index_of

    @property
    def contiguous(self) -> bool:
        return self.indexing.contiguous

    @property
    def csr(self) -> CSRAdjacency:
        """The graph's CSR view, built lazily on first radius >= 2 BFS."""
        csr = self._csr
        if csr is None:
            csr = self._csr = csr_adjacency(self.graph)
        return csr

    def masks_for(self, nodes: list) -> list[np.ndarray]:
        """Reach masks for ``nodes`` (node *ids*), computing missing ones
        in one batched BFS.  Raises ``KeyError`` for unknown ids."""
        masks = self._masks
        index_of = self.index_of
        missing: list[object] = []
        seen: set[object] = set()
        for v in nodes:
            if v not in masks and v not in seen:
                if v not in index_of:
                    raise KeyError(f"unknown node {v!r}")
                seen.add(v)
                missing.append(v)
        if missing:
            if self.radius <= 1:
                self._compute_adjacent(missing)
            else:
                sources = np.fromiter(
                    (index_of[v] for v in missing), dtype=np.intp, count=len(missing)
                )
                reach = truncated_bfs_masks(self.csr, sources, self.radius)
                for row, v in enumerate(missing):
                    masks[v] = reach[row]
        return [masks[v] for v in nodes]

    def mask(self, v: object) -> np.ndarray:
        """Reach mask of a single source node id."""
        cached = self._masks.get(v)
        if cached is not None:
            return cached
        return self.masks_for([v])[0]

    def _compute_adjacent(self, missing: list) -> None:
        # radius 0/1 fast path: N_1^+(v) = {v} | adj(v) read straight off
        # the adjacency dict -- identical to a 1-hop BFS, no CSR needed.
        n = len(self.order)
        index_of = self.index_of
        adj = self.graph.adj
        masks = self._masks
        reach = np.zeros((len(missing), n), dtype=bool)
        include_neighbors = self.radius >= 1
        for row, v in enumerate(missing):
            mask = reach[row]
            mask[index_of[v]] = True
            if include_neighbors:
                neighbors = adj[v]
                if neighbors:
                    mask[[index_of[w] for w in neighbors]] = True
            masks[v] = mask


_KERNEL_CACHE: "WeakKeyDictionary[nx.Graph, dict[int, NeighborhoodKernel]]" = (
    WeakKeyDictionary()
)


def neighborhood_kernel(graph: nx.Graph, radius: int) -> NeighborhoodKernel:
    """The memoized :class:`NeighborhoodKernel` for ``(graph, radius)``."""
    per_radius = _KERNEL_CACHE.get(graph)
    if per_radius is None:
        per_radius = _KERNEL_CACHE[graph] = {}
    kernel = per_radius.get(radius)
    if kernel is None:
        kernel = per_radius[radius] = NeighborhoodKernel(graph, radius)
    return kernel


def clear_caches() -> None:
    """Drop every memoized node indexing, CSR view, and neighborhood kernel.

    Exists for benchmarks that need to measure cold construction cost and
    for tests; production code never needs it (memory is bounded by the
    graphs alive in the process).
    """
    _INDEXING_CACHE.clear()
    _CSR_CACHE.clear()
    _KERNEL_CACHE.clear()
