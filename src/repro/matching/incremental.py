"""Incremental round engine for Algorithm 2's hot path.

Algorithm 2's full-rebuild round loop (kept as the differential reference
in ``tests/reference/rebuild.py``) reconstructs the bipartite graph ``G_l``
from scratch every round: it re-enumerates the positive-residual
cloudlets, re-tests ``C'_u >= c(f_i)`` for every (item, bin) pair through
per-pair ledger calls, re-derives every edge cost, and re-allocates the
padded ``(n+m) x (n+m)`` assignment matrix -- even though one round
changes only a handful of residuals and removes a handful of items.

:class:`RoundState` maintains ``G_l`` across rounds by applying deltas
instead:

* **Static edge universe** -- the candidate edges of the whole solve are
  exactly the generated ``(item, bin)`` pairs; they are flattened once per
  problem into parallel NumPy arrays (item index, cloudlet id, Eq. 3 cost,
  demand) in item-major/bin order and memoized on the (immutable) problem.
* **Items** -- a matched item leaves ``I``; a boolean ``item_alive`` mask
  hides its column.  Nothing else about other items' edges changes.
* **Cloudlets** -- within one solve, residuals only ever *decrease*
  (Algorithm 2 never releases capacity), so edges only disappear, never
  appear.  The engine commits the round's placements itself
  (:meth:`RoundState.allocate`): it keeps per-node used sums and refreshes
  only the allocated node's residual entry, with the same left-to-right
  fold and the same ``initial - used`` subtraction as
  :class:`~repro.netmodel.capacity.CapacityLedger`, so the residual floats
  are the ones a ledger over the snapshot would report, byte for byte.  The
  per-round edge mask ``C'_u > 0 and C'_u + eps >= c(f_i)`` is then
  evaluated vectorised over the static arrays.
* **Costs** -- the Eq. 3 cost ``-log(r_i (1-r_i)^k)`` depends only on
  ``(i, k)``; it is read once from the generated items (themselves fed by
  the memoized ladders of :mod:`repro.core.items`) and never recomputed.
* **Matrix buffer** -- the padded assignment matrix is written into one
  :class:`repro.matching.mincost.MatchingWorkspace` per solve instead of
  being reallocated per round.

Equivalence guarantee
---------------------
Per round, :meth:`RoundState.build_edges` emits the exact edge sequence the
full-rebuild path would enumerate: the same row indexing (ledger nodes with
positive residual, in ledger order), the same column indexing (unmatched
items, in generation order), the same item-major/bin-order edge order, and
the same edge condition (``residual > 0`` for the row, ``fits``'s
``residual + EPS >= demand`` for the edge, on bit-identical residual
floats) -- hence the same pad value ``B`` (an ordered float sum), the same
padded matrix bit-for-bit, and the same matching.  The differential suite
in ``tests/test_matching_incremental.py`` proves placements, paper-cost
totals, and per-round reliabilities identical on seeded instances across
topology families, chain lengths, and radii.

Waves
-----
A :class:`RoundState` may also hold several problems that share one
residual snapshot and use pairwise-disjoint cloudlets (a *wave*, see
:meth:`repro.algorithms.heuristic.MatchingHeuristic.solve_wave`).  Their
edge universes are concatenated in problem order, item indices offset by
the preceding problems' item counts, so each round's graph is the
disjoint union of the problems' own round graphs.
"""

from __future__ import annotations

from typing import Sequence
from weakref import WeakKeyDictionary

import numpy as np

from repro.core.items import BackupItem, reliability_ladder
from repro.core.problem import AugmentationProblem
from repro.kernels.items import plan_of
from repro.matching.warmstart import DualReusingSolver, UniverseIndex
from repro.netmodel.capacity import EPS, CapacityLedger
from repro.util.errors import CapacityError, ValidationError


class _ProblemStatics:
    """Matching structures that depend only on the immutable problem.

    The flattened edge universe (``edge_item``, ``edge_node``, ``edge_cost``,
    ``edge_demand`` -- parallel arrays in item-major/bin order) and the
    per-position reliability ladders ``R_i(0..K_i)`` used for O(L)
    expectation checks.
    """

    __slots__ = ("edge_item", "edge_node", "edge_cost", "edge_demand",
                 "max_node", "cost_sum", "rel_ladders", "universes")

    def __init__(self, problem: AugmentationProblem) -> None:
        plan = plan_of(problem)
        if plan is not None:
            # Edge universe recorded at generation time by the item kernel --
            # the same item-major/bin-order arrays the loop below derives.
            if plan.min_node < 0:
                raise ValidationError(
                    f"negative cloudlet id {plan.min_node} unsupported by the "
                    "incremental engine"
                )
            self.edge_item = plan.edge_item
            self.edge_node = plan.edge_node
            self.edge_cost = plan.edge_cost
            self.edge_demand = plan.edge_demand
            self.max_node = plan.max_node
        else:
            edge_item: list[int] = []
            edge_node: list[int] = []
            edge_cost: list[float] = []
            edge_demand: list[float] = []
            for idx, item in enumerate(problem.items):
                for u in item.bins:
                    if u < 0:
                        raise ValidationError(
                            f"negative cloudlet id {u} unsupported by the "
                            "incremental engine"
                        )
                    edge_item.append(idx)
                    edge_node.append(u)
                    edge_cost.append(item.cost)
                    edge_demand.append(item.demand)
            self.edge_item = np.asarray(edge_item, dtype=np.intp)
            self.edge_node = np.asarray(edge_node, dtype=np.intp)
            self.edge_cost = np.asarray(edge_cost, dtype=np.float64)
            self.edge_demand = np.asarray(edge_demand, dtype=np.float64)
            self.max_node = max(edge_node, default=-1)
        # One float for the whole solve: the warm-started solver derives its
        # constant dummy cost B from it, so it must come from the shared
        # statics array (same array -> same np.sum) for engine invariance.
        self.cost_sum = float(np.sum(self.edge_cost))
        per_position = [0] * problem.request.chain.length
        for item in problem.items:
            if item.k > per_position[item.position]:
                per_position[item.position] = item.k
        self.rel_ladders = tuple(
            reliability_ladder(r, k_max)
            for r, k_max in zip(problem.reliabilities, per_position)
        )
        # CSR presorts of the edge universe, one per ledger node order --
        # built lazily by warm_solver_for, shared by every solver on this
        # problem so the O(E log E) lexsort happens once, not per solve.
        self.universes: dict[tuple[int, ...], UniverseIndex] = {}

    def universe_for(self, nodes: Sequence[int]) -> UniverseIndex:
        """The memoized :class:`UniverseIndex` for one ledger node order."""
        key = tuple(nodes)
        uni = self.universes.get(key)
        if uni is None:
            uni = self.universes[key] = UniverseIndex(
                self.edge_node, self.edge_item, self.edge_cost, nodes
            )
        return uni


_STATICS: "WeakKeyDictionary[AugmentationProblem, _ProblemStatics]" = (
    WeakKeyDictionary()
)


def _statics(problem: AugmentationProblem) -> _ProblemStatics:
    statics = _STATICS.get(problem)
    if statics is None:
        statics = _STATICS[problem] = _ProblemStatics(problem)
    return statics


def edge_cost_sum(problem: AugmentationProblem) -> float:
    """Summed cost of the problem's edge universe: a warm solve's default
    dummy-cost base ``B - 1``, and the bound a pinned base must exceed."""
    return _statics(problem).cost_sum


def warm_solver_for(
    problem: AugmentationProblem,
    ledger: CapacityLedger,
    universe_cost_sum: float | None = None,
) -> DualReusingSolver:
    """A :class:`DualReusingSolver` sized for one solve's global id spaces.

    The single-problem round engine and the rebuild reference loop
    construct their solver through this factory so the dual vectors (keyed
    by global cloudlet id / item index) and the constant dummy cost ``B``
    (from the shared statics' universe cost sum) are identical -- a
    precondition for the engines' bit-identical solves under
    the ``"warm"`` backend.  The solver also carries the problem's memoized
    :class:`UniverseIndex` for this ledger's node order, enabling the
    ``edge_idx`` fast path of ``solve_round_delta``.

    ``universe_cost_sum`` overrides the dummy-cost base ``B - 1``.  The
    streaming admission service pins it to a fixed dominating constant so
    that a wave solve (:meth:`RoundState.warm_solver`) and a solo solve of
    any one of its problems share the exact same ``B``.
    """
    return _warm_solver(problem, ledger.nodes, universe_cost_sum)


def _warm_solver(
    problem: AugmentationProblem,
    nodes: Sequence[int],
    universe_cost_sum: float | None,
) -> DualReusingSolver:
    """:func:`warm_solver_for` over a node order instead of a ledger."""
    statics = _statics(problem)
    for v in nodes:
        if v < 0:
            raise ValidationError(
                f"negative cloudlet id {v} unsupported by the warm-started solver"
            )
    node_space = max(max(nodes, default=-1), statics.max_node) + 1
    n_items = len(problem.items)
    base = statics.cost_sum if universe_cost_sum is None else float(universe_cost_sum)
    return DualReusingSolver(
        node_space, n_items, base, universe=statics.universe_for(nodes)
    )


class RoundState:
    """Incrementally maintained state of Algorithm 2's matching rounds.

    Parameters
    ----------
    problems:
        The augmentation instances solved together: one for a solo solve,
        several for a wave.  A wave's problems must not share a cloudlet
        (checked here), so their round graphs never touch.  Item indices
        are global: problem ``p``'s items follow those of problems
        ``0 .. p-1``.  The rounds start from the first problem's residual
        snapshot (a wave shares one), in its key order -- the node order
        of the ledger ``problems[0].ledger()`` would build -- and the
        caller commits every placement through :meth:`allocate`.
    """

    def __init__(self, problems: Sequence[AugmentationProblem]):
        self._problems = tuple(problems)
        snapshot = problems[0].residuals
        # The node order, initial residuals and used sums of the ledger
        # problems[0].ledger() would build, with its capacity check.
        self._nodes: list[int] = list(snapshot)
        self._initial: dict[int, float] = {}
        for v, c in snapshot.items():
            if c < 0:
                raise ValidationError(
                    f"initial capacity of node {v!r} must be >= 0, got {c}"
                )
            self._initial[v] = float(c)
        for v in self._nodes:
            if v < 0:
                raise ValidationError(
                    f"negative cloudlet id {v} unsupported by the incremental engine"
                )
        self._used: dict[int, float] = dict.fromkeys(self._nodes, 0.0)
        statics = [_statics(problem) for problem in problems]
        self._rel_ladders = tuple(s.rel_ladders for s in statics)
        self._spans: list[tuple[int, int]] = []
        n_items = 0
        for problem in problems:
            self._spans.append((n_items, n_items + len(problem.items)))
            n_items += len(problem.items)
        if len(statics) == 1:
            (only,) = statics
            self._items = problems[0].items
            self._edge_item = only.edge_item
            self._edge_node = only.edge_node
            self._edge_cost = only.edge_cost
            self._edge_demand = only.edge_demand
            self._edge_member: np.ndarray | None = None
            self.owners: list[int] | None = None
        else:
            self._items = tuple(item for problem in problems for item in problem.items)
            self._edge_item = np.concatenate(
                [s.edge_item + lo for s, (lo, _) in zip(statics, self._spans)]
            )
            self._edge_node = np.concatenate([s.edge_node for s in statics])
            self._edge_cost = np.concatenate([s.edge_cost for s in statics])
            self._edge_demand = np.concatenate([s.edge_demand for s in statics])
            members = np.arange(len(statics))
            self._edge_member = np.repeat(members, [s.edge_node.size for s in statics])
            #: Problem index of every global item index (waves only).
            self.owners = np.repeat(members, [hi - lo for lo, hi in self._spans]).tolist()
        size = max(max(self._nodes, default=-1), max(s.max_node for s in statics)) + 1
        self._size = size
        if self._edge_member is not None:
            # A cloudlet claimed by two problems' edges reads back the
            # other problem's index.
            claim = np.empty(size, dtype=np.intp)
            claim[self._edge_node] = self._edge_member
            clash = claim[self._edge_node] != self._edge_member
            if clash.any():
                raise ValidationError(
                    f"wave problems share cloudlet {int(self._edge_node[clash.argmax()])}"
                )
        self._item_alive = np.ones(n_items, dtype=bool)
        # Residual snapshot, delta-maintained: ``initial - used`` per node,
        # refreshed by allocate.  Gap entries (non-ledger nodes below
        # `size`) stay zero, which build_edges' `res[v] > 0` test reads.
        self._res = np.zeros(size, dtype=np.float64)
        if self._nodes:
            self._res[self._nodes] = [self.residual(v) for v in self._nodes]
        # Scratch index maps, overwritten each round before use.
        self._node_to_row = np.zeros(size, dtype=np.intp)
        self._col_of = np.zeros(n_items, dtype=np.intp)
        self._arange = np.arange(max(size, n_items), dtype=np.intp)
        self._last_edge_idx: np.ndarray | None = None
        #: Indices of the problems still taking part in the rounds.
        self.active: list[int] = list(range(len(self._spans)))

    # -- queries --------------------------------------------------------------
    @property
    def items(self) -> tuple[BackupItem, ...]:
        """Every problem's items, indexed by global item index."""
        return self._items

    @property
    def last_edge_idx(self) -> np.ndarray | None:
        """Universe positions of the live edges of the last built round.

        Parallel to the edge arrays :meth:`build_edges` returned (it already
        computes them to gather the arrays); feeds the ``edge_idx`` fast
        path of :meth:`repro.matching.warmstart.DualReusingSolver.solve_round_delta`.
        ``None`` before the first :meth:`build_edges` call.
        """
        return self._last_edge_idx

    @property
    def reliability_ladders(self) -> tuple[tuple[tuple[float, ...], ...], ...]:
        """Per problem, the per-position ladders ``R_i(0..K_i)``;
        ``ladders[p][i][k]`` equals ``function_reliability(r_i, k)`` exactly."""
        return self._rel_ladders

    def stalled(self) -> list[int]:
        """The active problems without an edge in the last built round."""
        idx = self._last_edge_idx
        if self._edge_member is None:
            return [] if idx.size else list(self.active)
        counts = np.bincount(self._edge_member[idx], minlength=len(self._spans))
        return [m for m in self.active if not counts[m]]

    def warm_solver(self, universe_cost_sum: float | None = None) -> DualReusingSolver:
        """The :class:`DualReusingSolver` for these rounds: for one problem
        :func:`warm_solver_for`'s, for a wave one over the concatenated
        universe, which needs ``universe_cost_sum`` pinned."""
        if len(self._problems) == 1:
            return _warm_solver(self._problems[0], self._nodes, universe_cost_sum)
        if universe_cost_sum is None:
            raise ValidationError("a wave's warm solver needs a pinned universe_cost_sum")
        return DualReusingSolver(
            self._size, len(self._items), float(universe_cost_sum),
            universe=UniverseIndex(
                self._edge_node, self._edge_item, self._edge_cost, self._nodes
            ),
        )

    # -- round construction ----------------------------------------------------
    def build_edges(
        self,
    ) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray, list[float]]:
        """The round's graph: ``(rows, cols, edge_rows, edge_cols, edge_costs)``.

        ``rows`` are cloudlet node ids (positive residual, ledger order),
        ``cols`` are global item indices (generation order), and the three
        parallel edge arrays enumerate edges item-major in each item's bin
        order -- exactly the sequence the full-rebuild path produces, so the
        derived pad value and padded matrix are bit-identical.
        """
        res = self._res
        rows = [v for v in self._nodes if res[v] > 0.0]
        arange = self._arange
        node_to_row = self._node_to_row
        node_to_row[rows] = arange[: len(rows)]
        alive = self._item_alive
        cols = np.nonzero(alive)[0]
        col_of = self._col_of
        col_of[cols] = arange[: len(cols)]
        res_e = res[self._edge_node]
        ok = res_e > 0.0
        ok &= (res_e + EPS) >= self._edge_demand
        ok &= alive[self._edge_item]
        idx = np.nonzero(ok)[0]
        self._last_edge_idx = idx
        edge_rows = node_to_row[self._edge_node[idx]]
        edge_cols = col_of[self._edge_item[idx]]
        edge_costs = self._edge_cost[idx].tolist()
        return rows, cols, edge_rows, edge_cols, edge_costs

    # -- delta application -----------------------------------------------------
    def residual(self, v: int) -> float:
        """Remaining capacity at node ``v``: ``initial - used``, the float a
        ledger over the snapshot holding the same allocations reports."""
        return self._initial[v] - self._used[v]

    def allocate(self, v: int, demand: float) -> None:
        """Commit one placement of ``demand`` at node ``v``.

        The strict ledger test ``residual + EPS >= demand``, then the used
        sum extended in place and the node's residual entry refreshed.

        Raises
        ------
        CapacityError
            If the placement does not fit (Theorem 6.2 says it always does).
        KeyError
            If ``v`` is not a node of the snapshot.
        """
        initial = self._initial[v]
        used = self._used[v]
        if not initial - used + EPS >= demand:
            raise CapacityError(
                f"allocating {demand:.3f} at node {v} exceeds residual "
                f"{initial - used:.3f}"
            )
        used += demand
        self._used[v] = used
        self._res[v] = initial - used

    def retire(self, member: int) -> None:
        """Take problem ``member`` out of every later round."""
        lo, hi = self._spans[member]
        self._item_alive[lo:hi] = False
        self.active.remove(member)

    def apply_round(self, matched: Sequence[int]) -> None:
        """Remove the global item indices placed this round from ``I``.

        Their capacity is already committed through :meth:`allocate`, which
        refreshed every touched node's residual.
        """
        self._item_alive[matched] = False
