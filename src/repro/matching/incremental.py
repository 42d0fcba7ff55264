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
  exactly the generated ``(item, bin)`` pairs, recorded per position at
  generation time (:class:`repro.kernels.items.ItemPlan`).
* **Items** -- a matched item leaves ``I``; an ``alive`` mask hides its
  column.  Nothing else about other items' edges changes.
* **Cloudlets** -- within one solve, residuals only ever *decrease*
  (Algorithm 2 never releases capacity), so edges only disappear, never
  appear.  The engine commits the round's placements itself
  (:meth:`RoundState.allocate`): it keeps per-node used sums and refreshes
  only the allocated node's residual entry, with the same left-to-right
  fold and the same ``initial - used`` subtraction as
  :class:`~repro.netmodel.capacity.CapacityLedger`, so the residual floats
  are the ones a ledger over the snapshot would report, byte for byte.
* **Costs** -- the Eq. 3 cost ``-log(r_i (1-r_i)^k)`` depends only on
  ``(i, k)``; it is read once from the generated items (themselves fed by
  the memoized ladders of :mod:`repro.core.items`) and never recomputed.

Each round's graph comes in the representation its backend reads, built
lazily so each backend pays only for its own:

* :meth:`RoundState.build_csr` (the ``"warm"`` backend) keeps, per
  snapshot node, the ascending list of items whose bins contain it, and
  prunes the lists in place each round: a placed item, or a demand the
  node no longer fits, never returns within a solve.  One pass over the
  live lists emits the row-major CSR :class:`DualReusingSolver` reads --
  plain Python lists, no NumPy call.
* :meth:`RoundState.build_edges` (the dense and sparse backends) flattens
  the universe once into parallel NumPy arrays in item-major/bin order and
  evaluates the per-round edge mask ``C'_u > 0 and C'_u + eps >= c(f_i)``
  vectorised over them.

Equivalence guarantee
---------------------
Per round, :meth:`RoundState.build_edges` emits the exact edge sequence the
full-rebuild path would enumerate: the same row indexing (ledger nodes with
positive residual, in ledger order), the same column indexing (unmatched
items, in generation order), the same item-major/bin-order edge order, and
the same edge condition (``residual > 0`` for the row, ``fits``'s
``residual + EPS >= demand`` for the edge, on bit-identical residual
floats) -- hence the same pad value ``B`` (an ordered float sum), the same
padded matrix bit-for-bit, and the same matching.
:meth:`RoundState.build_csr` describes the same rows, columns and edges,
row-major with ascending columns (``tests/test_warm_round_builder.py``).
The differential suite in ``tests/test_matching_incremental.py`` proves
placements, paper-cost totals, and per-round reliabilities identical on
seeded instances across topology families, chain lengths, and radii.

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

import math
from typing import Sequence
from weakref import WeakKeyDictionary

import numpy as np

from repro.core.items import BackupItem, reliability_ladder
from repro.core.problem import AugmentationProblem
from repro.kernels.items import ItemPlan, plan_of
from repro.matching.warmstart import DualReusingSolver
from repro.netmodel.capacity import EPS, CapacityLedger
from repro.util.errors import CapacityError, ValidationError


class _ProblemStatics:
    """Matching structures that depend only on the immutable problem.

    The edge plan (the generation-time :class:`ItemPlan`, or one segment
    per item for a problem built without it), the per-position reliability
    ladders ``R_i(0..K_i)`` used for O(L) expectation checks, and, on
    first use, the edge-cost sum.  It holds the plan, never the problem:
    ``_STATICS`` is keyed weakly by the problem, and a value that
    referenced its key would keep every problem alive.
    """

    __slots__ = ("plan", "n_items", "_cost_sum", "rel_ladders")

    def __init__(self, problem: AugmentationProblem) -> None:
        items = problem.items
        plan = plan_of(problem)
        if plan is None:
            plan = ItemPlan(
                [(i, 1, item.bins, (item.cost,), item.demand) for i, item in enumerate(items)]
            )
        self.plan = plan
        self.n_items = len(items)
        self._cost_sum: float | None = None
        per_position = [0] * problem.request.chain.length
        for item in items:
            if item.k > per_position[item.position]:
                per_position[item.position] = item.k
        self.rel_ladders = tuple(
            reliability_ladder(r, k_max)
            for r, k_max in zip(problem.reliabilities, per_position)
        )

    @property
    def cost_sum(self) -> float:
        """``np.sum`` of the item-major/bin-order float64 edge-cost array.

        One float for the whole solve: the warm-started solver derives its
        constant dummy cost ``B`` from it, so every engine must see the
        same array summed the same way.  Built without flattening the rest
        of the universe.
        """
        if self._cost_sum is None:
            costs: list[float] = []
            widths: list[int] = []
            for _base, keep, bins, ladder, _demand in self.plan.segments:
                costs += ladder[:keep]
                widths += [len(bins)] * keep
            self._cost_sum = float(
                np.sum(np.repeat(np.asarray(costs, dtype=np.float64), widths))
            )
        return self._cost_sum


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
    construct their solver through this factory so the dual spaces (keyed
    by global cloudlet id / item index) and the constant dummy cost ``B``
    (from the shared statics' universe cost sum) are identical -- a
    precondition for the engines' bit-identical solves under
    the ``"warm"`` backend.

    ``universe_cost_sum`` overrides the dummy-cost base ``B - 1``.  The
    streaming admission service pins it to a fixed dominating constant so
    that a wave solve (:meth:`RoundState.warm_solver`) and a solo solve of
    any one of its problems share the exact same ``B``.
    """
    base = edge_cost_sum(problem) if universe_cost_sum is None else universe_cost_sum
    return _warm_solver(ledger.nodes, len(problem.items), base)


def _warm_solver(
    nodes: Sequence[int], n_items: int, universe_cost_sum: float
) -> DualReusingSolver:
    """A solver whose rows are ``nodes`` (the ledger order of a snapshot)."""
    if min(nodes, default=0) < 0:
        raise ValidationError(
            f"negative cloudlet id {min(nodes)} unsupported by the warm-started solver"
        )
    return DualReusingSolver(
        max(nodes, default=-1) + 1, n_items, float(universe_cost_sum)
    )


class _Universe:
    """The dense and sparse backends' round state: the flattened edge
    universe as parallel NumPy arrays in item-major/bin order, the residual
    snapshot and the alive mask as arrays, and scratch index maps."""

    __slots__ = ("edge_item", "edge_node", "edge_cost", "edge_demand",
                 "edge_member", "res", "item_alive", "node_to_row", "col_of",
                 "arange")

    def __init__(self, state: "RoundState") -> None:
        plans = [s.plan for s in state._statics]
        for plan in plans:
            if plan.min_node < 0:
                raise ValidationError(
                    f"negative cloudlet id {plan.min_node} unsupported by the "
                    "incremental engine"
                )
        self.edge_member: np.ndarray | None = None
        if len(plans) == 1:
            (only,) = plans
            self.edge_item = only.edge_item
            self.edge_node = only.edge_node
            self.edge_cost = only.edge_cost
            self.edge_demand = only.edge_demand
        else:
            self.edge_item = np.concatenate(
                [p.edge_item + lo for p, (lo, _) in zip(plans, state._spans)]
            )
            self.edge_node = np.concatenate([p.edge_node for p in plans])
            self.edge_cost = np.concatenate([p.edge_cost for p in plans])
            self.edge_demand = np.concatenate([p.edge_demand for p in plans])
            self.edge_member = np.repeat(
                np.arange(len(plans)), [p.edge_node.size for p in plans]
            )
        nodes = state._nodes
        size = max(max(nodes, default=-1), max(p.max_node for p in plans)) + 1
        # Gap entries (non-ledger nodes below `size`) stay zero, which
        # build_edges' `res[v] > 0` test reads.
        self.res = np.zeros(size, dtype=np.float64)
        if nodes:
            self.res[nodes] = [state._res[v] for v in nodes]
        self.item_alive = np.array(state._alive, dtype=bool)
        self.node_to_row = np.zeros(size, dtype=np.intp)
        self.col_of = np.zeros(len(state._alive), dtype=np.intp)
        self.arange = np.arange(max(size, len(state._alive)), dtype=np.intp)


class _NodeLists:
    """The warm backend's round state: per snapshot node, the ascending
    global indices of the items whose bins contain it, pruned each round;
    per item, its cost and its demand, infinite once the item has left
    (no residual fits it, so one test prunes both ways); the alive columns
    and rows of the last round."""

    __slots__ = ("items_of", "cost", "demand", "cols", "rows")

    def __init__(self, state: "RoundState") -> None:
        items_of: dict[int, list[int]] = {v: [] for v in state._nodes}
        get = items_of.get
        cost: list[float] = []
        demand: list[float] = []
        for s, (lo, _) in zip(state._statics, state._spans):
            for base, keep, bins, ladder, dem in s.plan.segments:
                run = range(lo + base, lo + base + keep)
                for v in bins:
                    items = get(v)
                    if items is not None:
                        items.extend(run)
                cost += ladder[:keep]
                demand += [dem] * keep
        alive = state._alive
        if not all(alive):  # items retired before the first round was built
            demand = [d if a else math.inf for d, a in zip(demand, alive)]
        self.items_of = items_of
        self.cost = cost
        self.demand = demand
        self.cols = list(range(len(cost)))
        self.rows = state._nodes


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
        # Residual snapshot, delta-maintained: ``initial - used`` per node,
        # refreshed by allocate (nothing is used yet, and ``c - 0.0 == c``).
        self._res: dict[int, float] = dict(self._initial)
        self._statics = [_statics(problem) for problem in problems]
        self._rel_ladders = tuple(s.rel_ladders for s in self._statics)
        self._spans: list[tuple[int, int]] = []
        n_items = 0
        for s in self._statics:
            self._spans.append((n_items, n_items + s.n_items))
            n_items += s.n_items
        if len(problems) == 1:
            self._items = problems[0].items
            self.owners: list[int] | None = None
            self._owner_of: dict[int, int] | None = None
        else:
            self._items = tuple(item for problem in problems for item in problem.items)
            #: Problem index of every global item index (waves only).
            self.owners = [
                member for member, (lo, hi) in enumerate(self._spans)
                for _ in range(lo, hi)
            ]
            # The problem each cloudlet's edges belong to; a cloudlet that
            # two problems' items allow is a clash.
            owner_of: dict[int, int] = {}
            for member, s in enumerate(self._statics):
                for _base, _keep, bins, _ladder, _demand in s.plan.segments:
                    for v in bins:
                        if owner_of.setdefault(v, member) != member:
                            raise ValidationError(f"wave problems share cloudlet {v}")
            self._owner_of = owner_of
        self._alive = [True] * n_items
        self._universe: _Universe | None = None
        self._lists: _NodeLists | None = None
        #: Per problem, whether the last built round gave it an edge.
        self._has_edges: list[bool] = []
        #: Indices of the problems still taking part in the rounds.
        self.active: list[int] = list(range(len(self._spans)))

    # -- queries --------------------------------------------------------------
    @property
    def items(self) -> tuple[BackupItem, ...]:
        """Every problem's items, indexed by global item index."""
        return self._items

    @property
    def reliability_ladders(self) -> tuple[tuple[tuple[float, ...], ...], ...]:
        """Per problem, the per-position ladders ``R_i(0..K_i)``;
        ``ladders[p][i][k]`` equals ``function_reliability(r_i, k)`` exactly."""
        return self._rel_ladders

    def stalled(self) -> list[int]:
        """The active problems without an edge in the last built round."""
        has_edges = self._has_edges
        return [m for m in self.active if not has_edges[m]]

    def warm_solver(self, universe_cost_sum: float | None = None) -> DualReusingSolver:
        """The :class:`DualReusingSolver` for these rounds: for one problem
        :func:`warm_solver_for`'s, for a wave one over the concatenated
        universe, which needs ``universe_cost_sum`` pinned."""
        if universe_cost_sum is None:
            if len(self._statics) > 1:
                raise ValidationError("a wave's warm solver needs a pinned universe_cost_sum")
            universe_cost_sum = self._statics[0].cost_sum
        return _warm_solver(self._nodes, len(self._alive), universe_cost_sum)

    # -- round construction ----------------------------------------------------
    def build_csr(
        self,
    ) -> tuple[list[int], list[int], list[int], list[int], list[float]]:
        """The round's graph as the warm solver's row-major CSR:
        ``(rows, cols, indptr, edge_cols, edge_costs)``.

        ``rows`` are cloudlet node ids (positive residual, ledger order) and
        ``cols`` global item indices (alive, ascending) -- the rows and
        columns of :meth:`build_edges`.  Row ``r``'s edges sit at
        ``indptr[r]:indptr[r + 1]`` of ``edge_cols`` (round-local column
        indices, ascending) and ``edge_costs``: the same edge set.  Each
        row's item list is pruned in place to its live edges, which is
        final: residuals only fall and placed items never return.
        """
        lists = self._lists
        if lists is None:
            lists = self._lists = _NodeLists(self)
        res = self._res
        alive = self._alive
        demand = lists.demand
        items_of = lists.items_of
        cols = lists.cols = [g for g in lists.cols if alive[g]]
        rows = lists.rows = [v for v in lists.rows if res[v] > 0.0]
        owner_of = self._owner_of
        has_edges = self._has_edges = [False] * len(self._spans)
        indptr = [0]
        live_items: list[int] = []
        for v in rows:
            items = items_of[v]
            if items:
                limit = res[v] + EPS
                items = items_of[v] = [g for g in items if limit >= demand[g]]
                if items:
                    live_items += items
                    has_edges[0 if owner_of is None else owner_of[v]] = True
            indptr.append(len(live_items))
        col_of = dict(zip(cols, range(len(cols))))
        edge_cols = list(map(col_of.__getitem__, live_items))
        edge_costs = list(map(lists.cost.__getitem__, live_items))
        return rows, cols, indptr, edge_cols, edge_costs

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
        uni = self._universe
        if uni is None:
            uni = self._universe = _Universe(self)
        res = uni.res
        rows = [v for v in self._nodes if self._res[v] > 0.0]
        arange = uni.arange
        node_to_row = uni.node_to_row
        node_to_row[rows] = arange[: len(rows)]
        alive = uni.item_alive
        cols = np.nonzero(alive)[0]
        col_of = uni.col_of
        col_of[cols] = arange[: len(cols)]
        res_e = res[uni.edge_node]
        ok = res_e > 0.0
        ok &= (res_e + EPS) >= uni.edge_demand
        ok &= alive[uni.edge_item]
        idx = np.nonzero(ok)[0]
        if uni.edge_member is None:
            self._has_edges = [idx.size > 0]
        else:
            counts = np.bincount(uni.edge_member[idx], minlength=len(self._spans))
            self._has_edges = (counts > 0).tolist()
        edge_rows = node_to_row[uni.edge_node[idx]]
        edge_cols = col_of[uni.edge_item[idx]]
        edge_costs = uni.edge_cost[idx].tolist()
        return rows, cols, edge_rows, edge_cols, edge_costs

    # -- delta application -----------------------------------------------------
    def residual(self, v: int) -> float:
        """Remaining capacity at node ``v``: ``initial - used``, the float a
        ledger over the snapshot holding the same allocations reports."""
        return self._res[v]

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
        residual = self._res[v] = initial - used
        if self._universe is not None:
            self._universe.res[v] = residual

    def retire(self, member: int) -> None:
        """Take problem ``member`` out of every later round."""
        lo, hi = self._spans[member]
        self._alive[lo:hi] = [False] * (hi - lo)
        if self._lists is not None:
            self._lists.demand[lo:hi] = [math.inf] * (hi - lo)
        if self._universe is not None:
            self._universe.item_alive[lo:hi] = False
        self.active.remove(member)

    def apply_round(self, matched: Sequence[int]) -> None:
        """Remove the global item indices placed this round from ``I``.

        Their capacity is already committed through :meth:`allocate`, which
        refreshed every touched node's residual.
        """
        alive = self._alive
        for g in matched:
            alive[g] = False
        if self._lists is not None:
            demand = self._lists.demand
            for g in matched:
                demand[g] = math.inf
        if self._universe is not None:
            self._universe.item_alive[matched] = False
