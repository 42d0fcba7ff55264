"""Minimum-cost maximum matching with forbidden edges.

Algorithm 2 needs, per round, a *maximum-cardinality* matching between
cloudlets and remaining items that, among all maximum matchings, minimises
total edge cost -- on a bipartite graph where most (cloudlet, item) pairs
are simply not edges.

Reduction.  Pad the ``n x m`` bipartite cost structure to an
``(n + m) x (n + m)`` square assignment problem:

* real block ``[0:n, 0:m]``: actual edge costs; non-edges get ``B``;
* right block ``[0:n, m:]``: ``B`` (a left node matched here is unmatched);
* bottom block ``[n:, 0:m]``: ``B`` (a right node matched here is unmatched);
* corner block ``[n:, m:]``: ``0`` (pairing the dummies is free).

With ``B`` strictly larger than the sum of all real edge costs (plus the
spread the duals may introduce), a matching of cardinality ``k`` has padded
objective ``sum(chosen costs) + (n + m - 2k) * B``; minimising it therefore
maximises ``k`` first and minimises cost second -- exactly min-cost maximum
matching.  Assignments that land in a ``B`` cell are decoded as "unmatched".

Backends (``BACKENDS``):

* ``"scipy"`` -- the dense padded reduction above, solved by
  :func:`scipy.optimize.linear_sum_assignment` (the differential baseline);
* ``"sparse"`` -- :mod:`repro.matching.sparse`: CSR + dummy columns on the
  real edge set only, via ``scipy.sparse.csgraph``;
* ``"warm"`` -- :mod:`repro.matching.warmstart`: a sparse JV solver whose
  dual potentials persist across Algorithm 2's rounds (cold-started here).

``"auto"`` picks dense below ``SPARSE_CUTOFF = 256`` total nodes per round
and sparse above it -- the measured crossover on heuristic-shaped graphs.
The caller picks the backend: the heuristic's solo solves run on
``"auto"`` and the admission service's waves on ``"warm"``.  All backends
return identical matching cardinality and total cost (tests assert it);
pairings may permute within equal-cost matchings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.matching.sparse import sparse_min_cost_max_matching
from repro.matching.warmstart import warm_min_cost_max_matching
from repro.util.errors import ValidationError

BACKENDS = ("scipy", "sparse", "warm")

#: "auto" goes sparse when a round has at least this many total nodes
#: (rows + cols): the measured dense/sparse crossover on heuristic-shaped
#: graphs sits near 2.7x at 350 nodes and below 1x at 160, and the paper's
#: canonical instances stay under it -- so the default is bit-identical to
#: the historical dense path there.
SPARSE_CUTOFF = 256


def resolve_backend(backend: str | None) -> str:
    """Check a backend name against ``BACKENDS`` + ``"auto"``.

    ``None`` / ``""`` mean "no opinion" and resolve to ``"auto"``.  Unknown
    names raise :class:`ValidationError`.
    """
    if not backend:
        return "auto"
    if backend != "auto" and backend not in BACKENDS:
        raise ValidationError(
            f"unknown backend {backend!r}; choose from {BACKENDS + ('auto',)}"
        )
    return backend


def select_backend(backend: str, n_rows: int, n_cols: int) -> str:
    """Concretise ``"auto"`` for one graph's dimensions."""
    if backend != "auto":
        return backend
    return "sparse" if n_rows + n_cols >= SPARSE_CUTOFF else "scipy"


@dataclass(frozen=True)
class MatchEdge:
    """One matched pair: left node ``row``, right node ``col``, its ``cost``."""

    row: int
    col: int
    cost: float


def _validate_big(big: float, finite_sum: float) -> None:
    """The padding only encodes cardinality-dominance while ``B`` strictly
    exceeds the real cost sum *as a float*: an overflowed or
    precision-saturated ``B`` (``finite_sum + 1.0 == finite_sum`` once the
    sum passes 2**53) would let a high-cardinality matching lose to a
    cheaper low-cardinality one, silently."""
    if not math.isfinite(big) or big <= finite_sum:
        raise ValidationError(
            "edge cost magnitudes too large for big-M padding "
            f"(|cost| sum {finite_sum!r} cannot be strictly dominated)"
        )


def _raise_first_bad_edge(
    n_rows: int, n_cols: int, edges: Mapping[tuple[int, int], float]
) -> None:
    """Raise :class:`ValidationError` for the first edge outside the graph
    or with a non-finite cost, in the mapping's order."""
    for (r, c), cost in edges.items():
        if not (0 <= r < n_rows and 0 <= c < n_cols):
            raise ValidationError(f"edge ({r}, {c}) outside a {n_rows}x{n_cols} graph")
        if not math.isfinite(cost):
            raise ValidationError(f"edge ({r}, {c}) has non-finite cost {cost}")


def _padded_matrix(
    n_rows: int, n_cols: int, edges: Mapping[tuple[int, int], float]
) -> tuple[np.ndarray, float]:
    """Build the padded square matrix and return it with the ``B`` used."""
    if n_rows == 0 or n_cols == 0 or not edges:
        # Zero-edge / one-side-empty: no real cell can host a match, so the
        # pad is pure dummy structure (entry points return [] before ever
        # solving it, but the matrix itself stays well-defined).
        size = n_rows + n_cols
        matrix = np.full((size, size), 1.0)
        matrix[n_rows:, n_cols:] = 0.0
        return matrix, 1.0
    finite_sum = 0.0  # ordered accumulation, identical to sum(abs(c) for ...)
    for (r, c), cost in edges.items():
        if not (0 <= r < n_rows and 0 <= c < n_cols):
            raise ValidationError(f"edge ({r}, {c}) outside a {n_rows}x{n_cols} graph")
        if not math.isfinite(cost):
            raise ValidationError(f"edge ({r}, {c}) has non-finite cost {cost}")
        finite_sum += abs(cost)
    big = finite_sum + 1.0
    _validate_big(big, finite_sum)
    size = n_rows + n_cols
    matrix = np.full((size, size), big)
    matrix[n_rows:, n_cols:] = 0.0
    for (r, c), cost in edges.items():
        matrix[r, c] = cost
    return matrix, big


def min_cost_max_matching(
    n_rows: int,
    n_cols: int,
    edges: Mapping[tuple[int, int], float],
    backend: str = "scipy",
) -> list[MatchEdge]:
    """Minimum-cost maximum matching of a bipartite graph.

    Parameters
    ----------
    n_rows, n_cols:
        Sizes of the two node sets (left 0..n_rows-1, right 0..n_cols-1).
    edges:
        ``(row, col) -> cost`` for existing edges; absent pairs are
        forbidden.  Costs may be negative.
    backend:
        A ``BACKENDS`` name or ``"auto"`` (dense below
        :data:`SPARSE_CUTOFF` total nodes, sparse above).  Default
        ``"scipy"``.

    Returns
    -------
    list[MatchEdge]
        The matched pairs, sorted by row; maximum cardinality, and of
        minimum total cost among maximum matchings.
    """
    if n_rows < 0 or n_cols < 0:
        raise ValidationError(f"negative dimensions: {n_rows}x{n_cols}")
    backend = resolve_backend(backend)
    if n_rows == 0 or n_cols == 0 or not edges:
        return []
    backend = select_backend(backend, n_rows, n_cols)

    if backend in ("sparse", "warm"):
        keys = list(edges)
        rows = [r for r, _ in keys]
        cols = [c for _, c in keys]
        costs = list(edges.values())
        if not (
            0 <= min(rows) and max(rows) < n_rows
            and 0 <= min(cols) and max(cols) < n_cols
            and all(map(math.isfinite, costs))
        ):
            _raise_first_bad_edge(n_rows, n_cols, edges)
        solve = (
            sparse_min_cost_max_matching
            if backend == "sparse"
            else warm_min_cost_max_matching
        )
        return [
            MatchEdge(r, c, cost)
            for r, c, cost in solve(n_rows, n_cols, rows, cols, costs)
        ]

    matrix, _ = _padded_matrix(n_rows, n_cols, edges)
    rows, cols = linear_sum_assignment(matrix)
    # scipy returns rows ascending, so the result is already sorted by row.
    return [
        MatchEdge(r, c, edges[(r, c)])
        for r, c in zip(rows.tolist(), cols.tolist())
        if r < n_rows and c < n_cols and (r, c) in edges
    ]


def matching_cardinality_and_cost(matching: list[MatchEdge]) -> tuple[int, float]:
    """``(cardinality, total cost)`` of a matching (testing helper)."""
    return len(matching), sum(e.cost for e in matching)


class MatchingWorkspace:
    """Reusable buffer for the padded assignment matrix.

    Algorithm 2 solves one matching per round on matrices whose size only
    shrinks as items are placed; reallocating an ``(n+m) x (n+m)`` array per
    round is wasted work.  The workspace keeps one float buffer and hands
    out a ``size x size`` view, growing the buffer only when a larger round
    appears.  Values are always fully overwritten before use, so reuse never
    leaks state between rounds.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer: np.ndarray | None = None

    def matrix(self, size: int) -> np.ndarray:
        """A ``size x size`` float view, backed by the reusable buffer.

        The buffer is flat and the view a reshape of its prefix, so the
        returned matrix is always C-contiguous -- smaller-than-buffer rounds
        do not pay strided fills or a contiguity copy inside the solver.
        """
        needed = size * size
        buf = self._buffer
        if buf is None or buf.size < needed:
            buf = self._buffer = np.empty(needed, dtype=float)
        return buf[:needed].reshape(size, size)


def min_cost_max_matching_arrays(
    n_rows: int,
    n_cols: int,
    edge_rows: Sequence[int],
    edge_cols: Sequence[int],
    edge_costs: Sequence[float],
    backend: str = "scipy",
    workspace: MatchingWorkspace | None = None,
) -> list[MatchEdge]:
    """Fast-path :func:`min_cost_max_matching` over pre-validated edge arrays.

    Callers (the incremental round engine) maintain the edge set across
    rounds and already know indices are in range, costs are finite, and
    ``(row, col)`` pairs are unique, so the per-edge validation of the
    mapping-based entry point is skipped and the padded matrix can be
    written into a reusable :class:`MatchingWorkspace` buffer.

    Equivalence guarantee: for the same edges in the same order, this
    returns the bit-identical matching of
    ``min_cost_max_matching(n_rows, n_cols, dict(zip(zip(edge_rows,
    edge_cols), edge_costs)), backend)`` -- the pad value ``B`` is the same
    ordered float sum, the padded matrix is element-wise identical, and the
    decode accepts exactly the real-edge cells (a real cell holds ``B`` iff
    it is not an edge, since every edge cost is strictly below ``B``).

    The ``"sparse"``/``"warm"`` backends (and ``"auto"`` above the cutoff)
    skip the padded matrix entirely and hand these arrays straight to the
    CSR solvers; ``workspace`` is ignored there.
    """
    backend = resolve_backend(backend)
    if n_rows == 0 or n_cols == 0 or len(edge_costs) == 0:
        return []
    backend = select_backend(backend, n_rows, n_cols)

    if backend in ("sparse", "warm"):
        solve = (
            sparse_min_cost_max_matching
            if backend == "sparse"
            else warm_min_cost_max_matching
        )
        return [
            MatchEdge(r, c, cost)
            for r, c, cost in solve(n_rows, n_cols, edge_rows, edge_cols, edge_costs)
        ]

    # abs() is the identity on the non-negative costs Algorithm 2 produces,
    # so the plain ordered sum is bit-identical to sum(abs(c) for c in ...)
    # there; the abs pass only runs when a negative cost appears.
    if min(edge_costs) >= 0.0:
        abs_sum = sum(edge_costs)
    else:
        abs_sum = sum(abs(c) for c in edge_costs)
    big = abs_sum + 1.0
    _validate_big(big, abs_sum)
    size = n_rows + n_cols
    matrix = workspace.matrix(size) if workspace is not None else np.empty((size, size))
    matrix.fill(big)
    matrix[n_rows:, n_cols:] = 0.0
    matrix[edge_rows, edge_cols] = edge_costs

    rows, cols = linear_sum_assignment(matrix)
    # Vectorised decode: keep real-block cells holding a true edge cost
    # (a real cell equals ``big`` iff it is not an edge, since every edge
    # cost is strictly below ``big``).  scipy returns rows ascending, so
    # the result is already sorted by row.
    real = (rows < n_rows) & (cols < n_cols)
    rr, cc = rows[real], cols[real]
    costs = matrix[rr, cc]
    edge = costs < big
    return [
        MatchEdge(r, c, cost)
        for r, c, cost in zip(
            rr[edge].tolist(), cc[edge].tolist(), costs[edge].tolist()
        )
    ]
