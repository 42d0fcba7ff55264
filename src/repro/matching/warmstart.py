"""Dual-reusing incremental LAP core for Algorithm 2's round sequence.

Consecutive rounds of the matching heuristic solve *almost the same*
min-cost maximum matching: round ``l + 1`` differs from round ``l`` only by
the deltas :class:`repro.matching.incremental.RoundState` already tracks --
matched items leave the right side, and cloudlets whose residual crossed a
``c(f_i)`` threshold lose their edges.  A from-scratch solve forgets
everything it learned about the cost geometry; this module keeps it.

:class:`DualReusingSolver` is a successive-shortest-augmenting-path solver
(Jonker-Volgenant style, on the CSR edge set instead of a padded dense
matrix) with two layers of cross-round state:

* **Persistent duals** -- ``u`` is keyed by **global cloudlet id** and
  ``v`` by **global item index**, so the round-local row/column compaction
  of :meth:`RoundState.build_csr` can shrink freely between rounds.
  Because Algorithm 2 only ever *removes* edges within a solve (residuals
  decrease monotonically, matched items leave), dual feasibility
  ``c_ij - u_i - v_j >= 0`` for round ``l``'s edges implies feasibility
  for round ``l + 1``'s subset; round ``l``'s duals are a valid -- and
  usually nearly tight -- starting point for round ``l + 1``.
* **Persistent matching** (:meth:`DualReusingSolver.solve_round_delta`) --
  ``row4col``/``col4row`` survive next to the duals, also keyed by global
  ids.  At the start of a delta round the solver *reconciles* the stored
  matching with the new graph: a pair whose item is still present and
  whose edge still exists stays matched (its edge was tight under the
  stored duals and neither the duals nor the edge cost changed, so
  complementary slackness still holds); a row matched to its dummy stays
  dummy-matched (dummy edges never disappear); every other row is an
  *orphan* and is re-augmented by one shortest augmenting path.  Feasible
  duals + tight kept pairs + zero potential on every free column is
  exactly the JV invariant, so every delta round is still an exact
  min-cost maximum matching -- the delta only changes *how much work* the
  round does, typically re-augmenting a handful of rows instead of all of
  them.

Both entry points take Algorithm 2's *shrinking* round sequences, in
which each round's graph is a subgraph of the last: placed items leave
and residuals only fall.  A round that *grows* the graph (items, edges
or rows returning) can break the invariant three ways.  A new edge at a
*free* row can violate its dual; that row is re-augmented anyway, so its
``u`` is cut to its cheapest raw edge cost (the free-row cut, counted in
``dual_repairs``).  A new edge at a *matched* row, or a column that
comes back free with the negative potential it earned while matched,
cannot be repaired that cheaply: the round raises
:class:`~repro.util.errors.ValidationError` before the sweep and before
any persistent state is written, so the solver is left exactly as it
was.

A round arrives as a row-major CSR of plain Python lists: ``rows`` (global
cloudlet ids, ledger order), ``cols`` (global item indices), ``indptr``
and, per edge, its round-local column (ascending within each row) and its
cost -- the layout :meth:`RoundState.build_csr` emits in one pass over its
per-node item lists.  Everything the round does runs on those lists, with
no NumPy call: validation, the reconciliation, one pass per edge that
both checks dual feasibility (the free-row cut) and caches every orphan
row's cheapest reduced-cost column (the *prepass*), the sweep, the
write-back and the emit.  Algorithm 2's rounds carry a few edges per row,
too few for a NumPy call per round to pay for itself.

The sweep matches a row whose cached candidate is still clean (no popped
column's ``v`` changed underneath it -- ``v`` only ever falls, so other
candidates can only have got *worse*) and still free in O(1) -- the
"dual-tightness hit".  Rows that miss run a full Dijkstra whose frontier
is a lazy-deletion binary heap, so a pop costs ``O(log f)`` instead of
the ``O(width)`` full-array ``argmin`` of the original sweep.

The heap sweep is bit-identical to that original ``argmin`` scan, which
``tests/reference/scan.py`` keeps as the differential reference: the
heap's estimates are the exact floats the scan computes (same ``offset +
((cost - u_i) - v_j)`` associativity, scalar instead of vectorised), heap
ties order by ``(value, column)`` which reproduces ``argmin``'s
first-index rule, and pushes mirror the scan's strict-``<`` relaxation so
the popped entry's predecessor is always the scan's.
``tests/test_matching_warm_delta.py`` asserts the equivalence
pair-for-pair on random round sequences, tied costs included.

Exactness contract: every round returns a maximum-cardinality matching of
minimum total cost (warm duals and kept pairs change the *path* to the
optimum, never the optimum itself).  The returned pairing is a
deterministic function of the round-graph sequence and the solver's mode:
fixed row insertion order, first-index ``argmin`` tie-breaks, real columns
scanned before dummy columns.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from heapq import heappop, heappush
from itertools import islice
from operator import gt, lt
from typing import Sequence

import numpy as np

from repro.util.errors import ValidationError

#: Sentinel in the persistent matching: "matched to the row's private dummy
#: column" (distinct from -1, "not matched in any prior round / orphaned").
DUMMY = -2

#: Delta-path switch for the round engines: ``"0"`` forces cold per-round
#: solves through :meth:`DualReusingSolver.solve_round`; anything else (or
#: unset) lets them call :meth:`DualReusingSolver.solve_round_delta`.
WARM_DELTA_ENV = "REPRO_WARM_DELTA"

def warm_delta_enabled() -> bool:
    """Whether the round engines should use the delta re-solve path.

    ``REPRO_WARM_DELTA=0`` disables it (cold per-round solves); unset or any
    other value enables it.  Read at solve time so sweeps, the resilience
    stream, and the fallback chain inherit one switch.
    """
    return os.environ.get(WARM_DELTA_ENV, "1").strip() != "0"


class WarmStats:
    """Introspection counters for one :class:`DualReusingSolver`.

    Cumulative over the solver's lifetime (one Algorithm 2 solve when
    constructed through ``warm_solver_for``); :meth:`reset` rewinds them.
    ``rows_kept`` + ``rows_reaugmented`` = ``rows_total``, and re-augmented
    rows split into ``quick_matches`` (the prepass matched them in O(1)
    because their cached cheapest column was still tight and free) and rows
    that ran a full Dijkstra (``heap_pops`` counts its column pops, the
    unit of sweep work).  ``dual_repairs`` counts the free rows whose
    ``u`` the free-row cut lowered (zero on Algorithm 2's rounds).
    """

    __slots__ = (
        "rounds",
        "delta_rounds",
        "rows_total",
        "rows_kept",
        "rows_reaugmented",
        "quick_matches",
        "heap_pops",
        "dual_repairs",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.rounds = 0
        self.delta_rounds = 0
        self.rows_total = 0
        self.rows_kept = 0
        self.rows_reaugmented = 0
        self.quick_matches = 0
        self.heap_pops = 0
        self.dual_repairs = 0

    @property
    def tightness_hit_rate(self) -> float:
        """Fraction of re-augmented rows the prepass matched in O(1)."""
        if self.rows_reaugmented == 0:
            return 0.0
        return self.quick_matches / self.rows_reaugmented

    def as_dict(self) -> dict[str, float]:
        """A plain-dict snapshot (for benchmarks and reports)."""
        return {
            "rounds": self.rounds,
            "delta_rounds": self.delta_rounds,
            "rows_total": self.rows_total,
            "rows_kept": self.rows_kept,
            "rows_reaugmented": self.rows_reaugmented,
            "quick_matches": self.quick_matches,
            "heap_pops": self.heap_pops,
            "dual_repairs": self.dual_repairs,
            "tightness_hit_rate": self.tightness_hit_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"WarmStats({inner})"


class DualReusingSolver:
    """Warm-started min-cost maximum matching over a shrinking round sequence.

    Parameters
    ----------
    node_space:
        Exclusive upper bound on global cloudlet ids.  Row duals and the
        persisted matching are keyed by the ids the rounds bring, so the
        state grows with the nodes seen, not with this bound.
    item_space:
        Number of items in the problem (column dual vector size).
    universe_cost_sum:
        Sum of every edge cost in the *static edge universe* of the solve.
        The dummy-column cost ``B = universe_cost_sum + 1`` must dominate
        the real cost of any round's matching and must not change between
        rounds (a shrinking ``B`` could break dual feasibility on the
        dummy edges), so it is derived from the universe, not per round.

    Notes
    -----
    The duals start at zero, and that is load-bearing: this is the
    *unbalanced* assignment LP (columns may stay unmatched), whose dual
    constrains free-column potentials to ``v_j <= 0``.  The classic JV
    column reduction ``v_j = min_i c_ij`` violates that sign constraint
    for any positive cost and silently trades cost optimality away (the
    cardinality stays maximum, but the solver may augment to an arbitrary
    reachable column instead of the cheapest).  Zero-started potentials
    only ever *decrease* on columns (and popped columns are matched
    columns), so ``v_j <= 0`` with equality on free columns holds for the
    whole round sequence -- complementary slackness, hence exactness.
    """

    __slots__ = (
        "_big",
        "_u",
        "_v",
        "_node_space",
        "_item_space",
        "_g_col4row",
        "_g_row4col",
        "stats",
    )

    def __init__(
        self,
        node_space: int,
        item_space: int,
        universe_cost_sum: float,
    ) -> None:
        if node_space < 0 or item_space < 0:
            raise ValidationError(
                f"negative dual space: {node_space} nodes, {item_space} items"
            )
        big = float(universe_cost_sum) + 1.0
        if not math.isfinite(big) or big <= universe_cost_sum:
            raise ValidationError(
                "universe cost sum too large for a dominating dummy cost "
                f"(sum={universe_cost_sum!r})"
            )
        self._big = big
        self._node_space = node_space
        self._item_space = item_space
        self.stats = WarmStats()
        self._u: dict[int, float] = {}
        self._v = [0.0] * item_space
        self._g_col4row: dict[int, int] = {}
        self._g_row4col = [-1] * item_space

    # -- public API -----------------------------------------------------------
    def solve_round(
        self,
        rows: Sequence[int],
        cols: Sequence[int],
        indptr: Sequence[int],
        edge_cols: Sequence[int],
        edge_costs: Sequence[float],
    ) -> list[tuple[int, int, float]]:
        """Solve one round's matching, reusing the previous round's duals.

        Every row is (re-)augmented from scratch; the persistent matching of
        :meth:`solve_round_delta` is neither read nor written, so the two
        entry points can be compared differentially on one solver.

        Parameters
        ----------
        rows:
            Global cloudlet ids of the round's left nodes (the duals are
            gathered/scattered through these ids).
        cols:
            Global item indices of the round's right nodes.
        indptr:
            Row ``r``'s edges are positions ``indptr[r]:indptr[r + 1]`` of
            the edge lists (``len(rows) + 1`` offsets from 0 to the edge
            count).
        edge_cols, edge_costs:
            Per edge, its round-local column (an index into ``cols``,
            ascending within each row) and its cost -- the lists
            :meth:`RoundState.build_csr` emits.  Costs must be
            non-negative -- the zero dual start of the first round is only
            feasible then (Algorithm 2's Eq. 3 costs always are).

        Returns
        -------
        list[tuple[int, int, float]]
            Matched ``(local_row, local_col, cost)`` triples sorted by row;
            maximum cardinality, minimum total cost among maximum matchings.

        Raises
        ------
        ValidationError
            On a malformed round (lists of disagreeing lengths, indices
            out of range, negative costs), and on a round that grew the
            graph; the solver is unchanged.
        """
        return self._solve(rows, cols, indptr, edge_cols, edge_costs, False)

    def solve_round_delta(
        self,
        rows: Sequence[int],
        cols: Sequence[int],
        indptr: Sequence[int],
        edge_cols: Sequence[int],
        edge_costs: Sequence[float],
    ) -> list[tuple[int, int, float]]:
        """Delta re-solve: keep every still-valid pair, re-augment orphans.

        Same contract and return value as :meth:`solve_round` (an exact
        min-cost maximum matching -- the matched pairing may differ from the
        cold one only where multiple optima tie), plus:

        * the matching persists across calls keyed by global ids, and the
          round starts by reconciling it against the new graph: pairs whose
          item is gone or whose edge disappeared orphan their row, rows
          matched to their dummy stay dummy-matched, everything else stays
          matched (still tight under the persisted duals);
        * ``cols`` must be strictly ascending (both round engines emit it
          so; the reconciliation binary-searches it);
        * a kept pair's row is *matched* for the feasibility check, so a
          grown edge at it, or an item coming back free after a round in
          which it was matched, raises before anything persists.

        The first delta round of a solver (nothing persisted) re-augments
        every row and is bit-identical to :meth:`solve_round`.
        """
        return self._solve(rows, cols, indptr, edge_cols, edge_costs, True)

    # -- one round ------------------------------------------------------------
    def _solve(self, rows, cols, indptr, edge_cols, edge_costs, delta):
        n, m = len(rows), len(cols)
        if n == 0 or m == 0 or len(edge_costs) == 0:
            return []
        self._check_round(rows, cols, indptr, edge_cols, edge_costs, delta)
        u_get = self._u.get
        u = [u_get(g, 0.0) for g in rows]
        # Local column potentials: the real columns first, then row r's
        # dummy column at m + r.  A dummy column's potential stays zero: a
        # matched one is reached only through its own row, so no sweep
        # pops it and no dual update touches it.
        v = list(map(self._v.__getitem__, cols))
        v += [0.0] * n
        row4col = [-1] * (m + n)
        col4row = [-1] * n
        if delta:
            self._reconcile(rows, cols, indptr, edge_cols, row4col, col4row)
        orphans, minv, argcol, cut = self._prepass(
            m, u, v, indptr, edge_cols, edge_costs, row4col, col4row
        )
        stats = self.stats
        stats.dual_repairs += cut
        stats.rows_total += n
        stats.rows_kept += n - len(orphans)
        stats.rows_reaugmented += len(orphans)
        dirty = self._sweep(
            orphans, m, u, v, indptr, edge_cols, edge_costs, row4col, col4row,
            minv, argcol,
        )
        # Persist the improved potentials for the next round.
        self._u.update(zip(rows, u))
        g_v = self._v
        for c in dirty:
            g_v[cols[c]] = v[c]
        stats.rounds += 1
        if delta:
            stats.delta_rounds += 1
            # Every row is matched now (a real column or its dummy).
            g_col4row = self._g_col4row
            g_row4col = self._g_row4col
            for r, c in enumerate(col4row):
                if c < m:
                    g = g_col4row[rows[r]] = cols[c]
                    g_row4col[g] = rows[r]
                else:
                    g_col4row[rows[r]] = DUMMY
        return self._emit(m, indptr, edge_cols, edge_costs, col4row)

    def _check_round(self, rows, cols, indptr, edge_cols, edge_costs, delta):
        """Raise :class:`~repro.util.errors.ValidationError` on a malformed
        round; out-of-range indices would otherwise alias (negative list
        indices wrap) or fail deep inside the sweep."""
        n, m, n_edges = len(rows), len(cols), len(edge_costs)
        if len(edge_cols) != n_edges:
            raise ValidationError(
                "edge arrays must be parallel: "
                f"{len(edge_cols)} cols, {n_edges} costs"
            )
        if (
            len(indptr) != n + 1
            or indptr[0] != 0
            or indptr[n] != n_edges
            or any(map(gt, indptr, islice(indptr, 1, None)))
        ):
            raise ValidationError(
                f"indptr must rise from 0 to {n_edges} edges in {n + 1} "
                "non-decreasing offsets (one row slice per row)"
            )
        if min(edge_costs) < 0.0:
            raise ValidationError(
                "warm-started rounds require non-negative costs "
                "(shift them, as the cold entry point does)"
            )
        cmin, cmax = min(edge_cols), max(edge_cols)
        if cmin < 0 or cmax >= m:
            raise ValidationError(
                f"edge_cols out of range [0, {m}): min {cmin}, max {cmax}"
            )
        rmin, rmax = min(rows), max(rows)
        if rmin < 0 or rmax >= self._node_space:
            raise ValidationError(
                f"rows out of range [0, {self._node_space}): min {rmin}, max {rmax}"
            )
        if delta:
            if not all(map(lt, cols, islice(cols, 1, None))):
                raise ValidationError(
                    "solve_round_delta requires strictly ascending cols "
                    "(global item indices)"
                )
            gmin, gmax = cols[0], cols[-1]
        else:
            gmin, gmax = min(cols), max(cols)
        if gmin < 0 or gmax >= self._item_space:
            raise ValidationError(
                f"cols out of range [0, {self._item_space}): min {gmin}, max {gmax}"
            )

    def _reconcile(self, rows, cols, indptr, edge_cols, row4col, col4row):
        """Seed the round's matching with the persisted pairs that survive.

        Dummy edges never disappear and their duals are untouched between
        rounds, so dummy-matched rows stay dummy-matched.  A real pair is
        kept when its item is still a column (``cols`` is ascending, so one
        bisection finds it), its edge is still in the row's slice (columns
        ascend there too), and the item's entry still points back at the
        row: a row absent from a round keeps its stale ``_g_col4row`` entry
        while its item may be re-matched to another row, and mutuality
        rejects those stale claims.
        """
        m = len(cols)
        g_row4col = self._g_row4col
        for r, prior in enumerate(map(self._g_col4row.get, rows, [-1] * len(rows))):
            if prior == DUMMY:
                col4row[r] = m + r
                row4col[m + r] = r
            elif prior >= 0 and g_row4col[prior] == rows[r]:
                c = bisect_left(cols, prior)
                if c < m and cols[c] == prior:
                    hi = indptr[r + 1]
                    p = bisect_left(edge_cols, c, indptr[r], hi)
                    if p < hi and edge_cols[p] == c:
                        col4row[r] = c
                        row4col[c] = r

    def _prepass(self, m, u, v, indptr, edge_cols, edge_costs, row4col, col4row):
        """Check the duals and cache each orphan row's cheapest column.

        One pass per edge computes its reduced cost ``(cost - u_i) - v_j``.
        Per row, the minimum with the dummy edge's ``big - u_i`` gives the
        row's worst dual violation, and two violations mean the graph grew
        in a way the sweep cannot absorb, raising
        :class:`~repro.util.errors.ValidationError`:

        * a *matched* row (real or dummy partner) whose worst violation is
          below ``-big * 1e-12``.  Edges the dual updates leave exactly
          tight in real arithmetic drift by a few ulps of ``big`` in
          floats; a genuine violation is a raw cost difference, orders of
          magnitude above the tolerance;
        * a *free* column with a negative potential (a column back from a
          round in which it was matched; dummy potentials are zero).

        Otherwise every *free* row with a violation gets ``u`` cut to its
        cheapest raw edge cost (capped by the dummy cost ``big``; potentials
        never exceed zero, so the cut row is feasible against every column,
        and it is re-augmented anyway).  Only the round-local ``u`` changes.

        The same pass is the sweep's prepass: for every free (orphan) row,
        ``minv`` holds its cheapest ``0.0 + ((cost - u_i) - v_j)`` -- the
        scan's first-iteration relaxation, bit for bit -- and ``argcol`` the
        first column reaching it (``inf`` and ``-1`` for a row without an
        edge).  Returns ``(orphans, minv, argcol, number of rows cut)``.
        """
        big = self._big
        tol = -big * 1e-12
        inf = math.inf
        n = len(col4row)
        if min(v) < 0.0:
            for c in range(m):
                if v[c] < 0.0 and row4col[c] < 0:
                    raise ValidationError(
                        "the round graph grew: a free column carries a negative "
                        "potential (warm rounds must shrink)"
                    )
        orphans: list[int] = []
        cut: list[int] = []
        minv = [inf] * n
        argcol = [-1] * n
        lo = 0
        for r in range(n):
            hi = indptr[r + 1]
            ur = u[r]
            best = inf
            arg = -1
            for p in range(lo, hi):
                j = edge_cols[p]
                s = (edge_costs[p] - ur) - v[j]
                if s < best:
                    best = s
                    arg = j
            worst = big - ur  # the dummy edge, at zero potential
            if best < worst:
                worst = best
            if col4row[r] >= 0:
                if worst < tol:
                    raise ValidationError(
                        "the round graph grew: a matched row's dual is "
                        "infeasible (warm rounds must shrink)"
                    )
            else:
                orphans.append(r)
                if worst < 0.0:
                    cut.append(r)
                minv[r] = 0.0 + best
                argcol[r] = arg
            lo = hi
        for r in cut:
            lo, hi = indptr[r], indptr[r + 1]
            ur = u[r] = min(u[r], min(edge_costs[lo:hi], default=big), big)
            best = inf
            for p in range(lo, hi):
                j = edge_cols[p]
                cand = 0.0 + ((edge_costs[p] - ur) - v[j])
                if cand < best:
                    best = cand
                    argcol[r] = j
            minv[r] = best
        return orphans, minv, argcol, len(cut)

    # -- sweep ----------------------------------------------------------------
    def _sweep(
        self, orphans, m, u, v, indptr, edge_cols, edge_costs, row4col, col4row,
        minv, argcol,
    ):
        """Quick-match from the prepass cache, else a lazy-deletion heap Dijkstra.

        Bit-identical to the reference ``argmin`` scan (same floats, same
        tie-breaks, same dual updates); only the work per augmentation
        differs.  Works on the round's lists in place and returns the real
        columns whose potential changed.
        """
        stats = self.stats
        big = self._big
        # Real columns whose potential changed since the prepass.  v only
        # ever *falls*, so a stale candidate can only have got worse -- a
        # clean candidate is therefore still the row's first-index minimum.
        # An unprocessed orphan's dummy column is free and its ``u`` has not
        # moved since the prepass (only matched rows lie on augmenting
        # paths), so its dummy estimate is computed at its turn.
        dirty: set[int] = set()
        quick = 0
        pops = 0
        for cur_row in orphans:
            mv = minv[cur_row]
            dv = 0.0 + (big - u[cur_row])
            if mv > dv:
                # The private dummy is strictly cheapest (and always free
                # for an orphan row); a dirty cached candidate could only
                # have got *worse*, so the comparison stands either way.
                d = m + cur_row
                u[cur_row] += dv
                row4col[d] = cur_row
                col4row[cur_row] = d
                quick += 1
                continue
            c = argcol[cur_row]
            if c in dirty or row4col[c] >= 0:
                # Cache miss (stale candidate, or the column was claimed by
                # an earlier row this round): recompute the row's fresh
                # first-relaxation minimum -- exactly the scan's first pop
                # under the *current* duals -- in O(degree).
                ui = u[cur_row]
                mv = math.inf
                c = -1
                for p in range(indptr[cur_row], indptr[cur_row + 1]):
                    j = edge_cols[p]
                    cand = 0.0 + ((edge_costs[p] - ui) - v[j])
                    if cand < mv:
                        mv = cand
                        c = j
                if mv > dv:
                    d = m + cur_row
                    u[cur_row] += dv
                    row4col[d] = cur_row
                    col4row[cur_row] = d
                    quick += 1
                    continue
                if row4col[c] >= 0:
                    # Genuine conflict: the cheapest column is matched, so
                    # the augmenting path has length > 1.
                    pops += self._augment_heap(
                        cur_row, m, u, v, edge_cols, edge_costs, indptr,
                        row4col, col4row, dirty,
                    )
                    continue
            # First pop is a free column: the scan would have ended here.
            u[cur_row] += mv
            row4col[c] = cur_row
            col4row[cur_row] = c
            quick += 1
        stats.quick_matches += quick
        stats.heap_pops += pops
        return dirty

    def _augment_heap(
        self, cur_row, m, u_l, v_l, cols_l, costs_l, iptr_l, r4c, c4r, dirty,
    ) -> int:
        """One shortest augmenting path with a lazy-deletion binary heap.

        Works on the sweep's plain lists (``u``, ``v``, the CSR columns and
        costs, the matching) and relaxes each popped row's edge slice with
        a scalar loop; ``dist`` and ``pred`` are dicts over the columns the
        search reaches, and ``scanned`` a set.  *Free* columns stay out of
        the heap entirely: the search can only ever end at the cheapest
        free column reached, so a single ``(value, column)`` running
        minimum stands in for all of them, and matched candidates at or
        above that bound are pruned at push time (the bound only falls, so
        a pruned entry could never have popped first).  Pop order provably
        matches the scan's ``argmin``: pushed values are the scan's exact
        floats (``offset + ((cost - u_i) - v_j)``, the same associativity
        as its vectorised form), per-column pushes are strictly decreasing
        (strict-``<`` relaxation against the tentative distance), so a
        column's minimal entry pops first, and both the heap and the
        free-column minimum order ties by ``(value, column)`` -- the
        scan's first-index rule.  Stale heap entries pop later and are
        skipped because the column is already scanned; scanned columns
        take a ``-inf`` tentative distance so the strict-``<`` test
        rejects them without a membership test.
        """
        big = self._big
        inf = math.inf
        dist: dict[int, float] = {}
        pred: dict[int, int] = {}
        scanned: set[int] = set()
        heap: list[tuple[float, int]] = []
        best_val = inf
        best_col = -1
        popped_cols: list[int] = []
        popped_dist: list[float] = []
        pops = 0
        i = cur_row
        offset = 0.0
        while True:
            ui = u_l[i]
            for p in range(iptr_l[i], iptr_l[i + 1]):
                j = cols_l[p]
                cc = offset + ((costs_l[p] - ui) - v_l[j])
                if cc < dist.get(j, inf):
                    dist[j] = cc
                    pred[j] = i
                    if cc < best_val or (cc == best_val and j < best_col):
                        if r4c[j] < 0:
                            best_val = cc
                            best_col = j
                        else:
                            heappush(heap, (cc, j))
            # The private dummy of every relaxed row is free: a matched
            # dummy could only be reached through its own row, which would
            # itself have to be reached through that same dummy.
            d = m + i
            cd = offset + ((big - ui) - v_l[d])
            if cd < dist.get(d, inf):
                dist[d] = cd
                pred[d] = i
                if cd < best_val or (cd == best_val and d < best_col):
                    best_val = cd
                    best_col = d
            while True:
                if heap:
                    entry = heap[0]
                    if best_col < 0 or entry < (best_val, best_col):
                        heappop(heap)
                        j = entry[1]
                        if j in scanned:
                            continue  # lazy deletion: stale entries skip here
                        closest = entry[0]
                        break
                if best_col < 0:  # pragma: no cover - dummy edges guarantee progress
                    raise ValidationError("augmentation stalled (no reachable column)")
                closest, j = best_val, best_col
                break
            pops += 1
            scanned.add(j)
            dist[j] = -inf
            if r4c[j] < 0:
                sink, minval = j, closest
                break
            popped_cols.append(j)
            popped_dist.append(closest)
            i = r4c[j]
            offset = closest
        for jc, dd in zip(popped_cols, popped_dist):
            # Same per-element update the scan applies vectorised (popped
            # columns and their matched rows are pairwise distinct).
            delta = minval - dd
            v_l[jc] -= delta
            u_l[r4c[jc]] += delta
            if jc < m:
                dirty.add(jc)
        u_l[cur_row] += minval
        j = sink
        while True:
            i = pred[j]
            r4c[j] = i
            c4r[i], j = j, c4r[i]
            if i == cur_row:
                break
        return pops

    # -- output ---------------------------------------------------------------
    @staticmethod
    def _emit(m, indptr, edge_cols, edge_costs, col4row) -> list[tuple[int, int, float]]:
        """Matched ``(row, col, cost)`` triples by row; each cost is found by
        bisecting the row's ascending slice (a linear search if it is not)."""
        out = []
        for r, c in enumerate(col4row):
            if c < m:
                lo, hi = indptr[r], indptr[r + 1]
                p = bisect_left(edge_cols, c, lo, hi)
                if p == hi or edge_cols[p] != c:
                    p = edge_cols.index(c, lo, hi)
                out.append((r, c, edge_costs[p]))
        return out


def _as_list(values) -> list:
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


def warm_min_cost_max_matching(
    n_rows: int,
    n_cols: int,
    edge_rows: Sequence[int],
    edge_cols: Sequence[int],
    edge_costs: Sequence[float],
) -> list[tuple[int, int, float]]:
    """Cold single-shot entry point for the warm-started solver.

    Used by the generic :func:`repro.matching.mincost.min_cost_max_matching`
    interface (and by tests) when no round sequence exists to carry duals
    across.  The edges may come in any order, as lists or arrays; they are
    laid out as the solver's row-major CSR (already-sorted input, such as a
    row-major edge map, is not re-sorted).  Negative costs are handled by a
    uniform shift -- it adds ``k * shift`` to every cardinality-``k``
    matching, leaving the set of min-cost maximum matchings unchanged --
    and decoded edges report the original cost floats.
    """
    costs = np.asarray(edge_costs, dtype=np.float64)
    if n_rows == 0 or n_cols == 0 or costs.size == 0:
        return []
    low = float(costs.min())
    shift = -low if low < 0.0 else 0.0
    shifted = costs + shift if shift else costs
    solver = DualReusingSolver(n_rows, n_cols, universe_cost_sum=float(shifted.sum()))
    rows = _as_list(edge_rows)
    cols = _as_list(edge_cols)
    if len(rows) != costs.size or len(cols) != costs.size:
        raise ValidationError(
            "edge arrays must be parallel: "
            f"{len(rows)} rows, {len(cols)} cols, {costs.size} costs"
        )
    if min(rows) < 0 or max(rows) >= n_rows:
        raise ValidationError(
            f"edge_rows out of range [0, {n_rows}): min {min(rows)}, max {max(rows)}"
        )
    run = shifted.tolist()
    keys = [r * n_cols + c for r, c in zip(rows, cols)]
    order = None
    if not all(map(lt, keys, islice(keys, 1, None))):
        order = sorted(range(len(keys)), key=keys.__getitem__)
        rows = [rows[i] for i in order]
        cols = [cols[i] for i in order]
        run = [run[i] for i in order]
    indptr = [bisect_left(rows, r) for r in range(n_rows + 1)]
    matched = solver.solve_round(range(n_rows), range(n_cols), indptr, cols, run)
    if not shift:
        return matched
    # Recover the original cost floats by edge identity (never unshift by
    # arithmetic): the matched pair's CSR position in the caller's order.
    original = costs.tolist()
    if order is not None:
        original = [original[i] for i in order]
    return [
        (r, c, original[bisect_left(cols, c, indptr[r], indptr[r + 1])])
        for r, c, _ in matched
    ]


__all__ = [
    "DUMMY",
    "DualReusingSolver",
    "WARM_DELTA_ENV",
    "WarmStats",
    "warm_delta_enabled",
    "warm_min_cost_max_matching",
]
