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
  of :meth:`RoundState.build_edges` can shrink freely between rounds.
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
  them.  Rounds that *grow* the graph (items or edges returning, rows
  resurrecting -- the online re-solve workload) can break the invariant;
  a two-stage repair restores it in place.  Before the sweep, *free*
  rows whose dual feasibility the new edges violate get ``u`` cut to
  their cheapest raw edge cost (they were due for re-augmentation
  anyway), and columns priced too high by matched rows get their
  potential lowered to the largest feasible value -- releasing a matched
  row is reserved for the rare new-edge-between-matched-endpoints case,
  because every release is a full re-augmentation.  After the sweep,
  each column still free with stale negative potential is re-admitted by
  a dynamic-Hungarian *column insertion* (one reverse Dijkstra rooted at
  the column that either matches it or proves the dual ascent to
  ``v = 0`` feasible -- see :meth:`DualReusingSolver._insert_column`;
  ``dual_repairs`` counts the insertions).  The exactness contract
  therefore holds for **arbitrary** round sequences, not just
  Algorithm 2's shrink-only ones.

The sweep that augments the orphans runs a vectorised *prepass* computing
every orphan row's cheapest reduced-cost column in one shot; a row whose
cached candidate is still clean (no popped column's ``v`` changed
underneath it -- ``v`` only ever falls, so other candidates can only have
got *worse*) and still free is matched in O(1) -- the "dual-tightness
hit".  Rows that miss run a full Dijkstra whose frontier is a
lazy-deletion binary heap, so a pop costs ``O(log f)`` instead of the
``O(width)`` full-array ``argmin`` of the original sweep.

The heap sweep is bit-identical to that original ``argmin`` scan, which
``tests/reference/scan.py`` keeps as the differential reference: the
heap's estimates are the exact floats the scan computes (same ``offset +
((cost - u_i) - v_j)`` associativity), heap ties order by ``(value,
column)`` which reproduces ``argmin``'s first-index rule, and pushes
mirror the scan's strict-``<`` relaxation so the popped entry's
predecessor is always the scan's.  ``tests/test_matching_warm_delta.py``
asserts the equivalence pair-for-pair on random round sequences, tied
costs included.

Both persistent layers and the round-local scratch are leased from the
per-thread :class:`repro.kernels.arena.MatrixArena` when one is supplied
(``warm_*`` for duals, ``warm_match_*`` for the persistent
matching, round-local pairing, universe mask and index maps), so a request
stream re-solves thousands of rounds without re-allocating; every leased
element is (re)initialised before use, so arena solves are bit-identical
to ``arena=None`` solves.

A :class:`UniverseIndex` (built once per problem/node-order by
:func:`repro.matching.incremental.warm_solver_for`) presorts the *static
edge universe* into CSR order; a delta round that passes ``edge_idx`` (the
universe positions of its live edges, which ``RoundState.build_edges``
already computes) derives its CSR layout by an O(E) boolean filter of the
presort instead of an O(E log E) per-round ``lexsort`` -- the single
largest constant-factor win on the replay workload.

Exactness contract: every round returns a maximum-cardinality matching of
minimum total cost (warm duals and kept pairs change the *path* to the
optimum, never the optimum itself).  The returned pairing is a
deterministic function of the round-graph sequence and the solver's mode:
fixed row insertion order, first-index ``argmin`` tie-breaks, real columns
scanned before dummy columns.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.util.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.arena import MatrixArena

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
    unit of sweep work).
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


class UniverseIndex:
    """CSR presort of a problem's static edge universe for one node order.

    ``order`` sorts the universe by ``(ledger rank of node, item index)``.
    Any round whose rows are the positive-residual nodes *in ledger order*
    and whose columns are the alive items *in index order* (exactly what
    both round engines produce) can therefore derive its row-major /
    ascending-column CSR layout by filtering ``order`` with the round's
    live-edge mask -- bit-identical to ``np.lexsort((ecol, erow))`` on the
    round-local arrays, because the universe keys are unique per
    ``(node, item)`` pair and both local indexings are monotone in the
    global ones.
    """

    __slots__ = ("edge_node", "edge_item", "edge_cost", "order")

    def __init__(
        self,
        edge_node: np.ndarray,
        edge_item: np.ndarray,
        edge_cost: np.ndarray,
        node_order: Sequence[int],
    ) -> None:
        self.edge_node = np.asarray(edge_node, dtype=np.intp)
        self.edge_item = np.asarray(edge_item, dtype=np.intp)
        self.edge_cost = np.asarray(edge_cost, dtype=np.float64)
        if not (
            self.edge_node.size == self.edge_item.size == self.edge_cost.size
        ):
            raise ValidationError(
                "universe arrays must be parallel: "
                f"{self.edge_node.size} nodes, {self.edge_item.size} items, "
                f"{self.edge_cost.size} costs"
            )
        nodes = np.asarray(list(node_order), dtype=np.intp)
        if nodes.size and int(nodes.min()) < 0:
            raise ValidationError("negative cloudlet id in node_order")
        if self.edge_node.size and int(self.edge_node.min()) < 0:
            raise ValidationError("negative cloudlet id in edge_node")
        hi = 0
        if nodes.size:
            hi = max(hi, int(nodes.max()) + 1)
        if self.edge_node.size:
            hi = max(hi, int(self.edge_node.max()) + 1)
        # Nodes outside the ledger order sort last (rank = hi); their edges
        # can never be live in a round, so the tail order is irrelevant.
        rank = np.full(hi, hi, dtype=np.intp)
        rank[nodes] = np.arange(nodes.size, dtype=np.intp)
        self.order = np.lexsort((self.edge_item, rank[self.edge_node]))

    @property
    def n_edges(self) -> int:
        """Number of edges in the universe."""
        return int(self.edge_cost.size)


class DualReusingSolver:
    """Warm-started min-cost maximum matching over a shrinking round sequence.

    Parameters
    ----------
    node_space:
        Exclusive upper bound on global cloudlet ids (row dual vector size).
    item_space:
        Number of items in the problem (column dual vector size).
    universe_cost_sum:
        Sum of every edge cost in the *static edge universe* of the solve.
        The dummy-column cost ``B = universe_cost_sum + 1`` must dominate
        the real cost of any round's matching and must not change between
        rounds (a shrinking ``B`` could break dual feasibility on the
        dummy edges), so it is derived from the universe, not per round.
    arena:
        Optional :class:`repro.kernels.arena.MatrixArena` to lease the dual
        and scratch vectors from (must be this thread's arena -- see the
        locality contract in ``docs/performance.md``).  Arena buffers are
        name-keyed, and the warm leases (``warm_u`` .. ``warm_match_*``)
        hold state that *persists across rounds* -- so at most one live
        arena-backed solver per arena; a successor solver on the same
        arena reuses (and reinitialises) the same memory.
    universe:
        Optional :class:`UniverseIndex` enabling the ``edge_idx`` fast path
        of :meth:`solve_round_delta` (CSR by presort filtering instead of a
        per-round ``lexsort``).

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
        "_vd",
        "_arena",
        "_universe",
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
        arena: "MatrixArena | None" = None,
        universe: UniverseIndex | None = None,
    ) -> None:
        if node_space < 0 or item_space < 0:
            raise ValidationError(
                f"negative dual space: {node_space} nodes, {item_space} items"
            )
        big = float(universe_cost_sum) + 1.0
        if not np.isfinite(big) or big <= universe_cost_sum:
            raise ValidationError(
                "universe cost sum too large for a dominating dummy cost "
                f"(sum={universe_cost_sum!r})"
            )
        if universe is not None:
            if universe.edge_node.size and int(universe.edge_node.max()) >= node_space:
                raise ValidationError(
                    f"universe node id {int(universe.edge_node.max())} outside "
                    f"node space {node_space}"
                )
            if universe.edge_item.size and int(universe.edge_item.max()) >= item_space:
                raise ValidationError(
                    f"universe item index {int(universe.edge_item.max())} outside "
                    f"item space {item_space}"
                )
        self._big = big
        self._arena = arena
        self._universe = universe
        self._node_space = node_space
        self._item_space = item_space
        self.stats = WarmStats()
        if arena is not None:
            self._u = arena.take("warm_u", node_space, np.float64)
            self._v = arena.take("warm_v", item_space, np.float64)
            self._vd = arena.take("warm_vd", node_space, np.float64)
            self._g_col4row = arena.take("warm_match_col4row", node_space, np.intp)
            self._g_row4col = arena.take("warm_match_row4col", item_space, np.intp)
        else:
            self._u = np.empty(node_space, dtype=np.float64)
            self._v = np.empty(item_space, dtype=np.float64)
            self._vd = np.empty(node_space, dtype=np.float64)
            self._g_col4row = np.empty(node_space, dtype=np.intp)
            self._g_row4col = np.empty(item_space, dtype=np.intp)
        self._u[:] = 0.0
        self._v[:] = 0.0
        self._vd[:] = 0.0
        self._g_col4row.fill(-1)
        self._g_row4col.fill(-1)

    # -- round construction ---------------------------------------------------
    def _build_round(
        self,
        rows: Sequence[int],
        cols: np.ndarray,
        edge_rows: np.ndarray,
        edge_cols: np.ndarray,
        edge_costs: Sequence[float],
        edge_idx: np.ndarray | None = None,
    ):
        """Validate one round's inputs and build its CSR + local duals.

        Returns ``None`` for an empty round, else the tuple
        ``(n, m, rows_idx, cols_idx, csr_erow, csr_cols, csr_costs, indptr,
        flat_keys, u, v_local)`` where ``flat_keys = csr_erow * m + csr_cols``
        is strictly ascending (the CSR layout sorts by ``(row, col)`` and
        pairs are unique), enabling batched membership tests.
        """
        n, m = len(rows), len(cols)
        costs = np.asarray(edge_costs, dtype=np.float64)
        if n == 0 or m == 0 or costs.size == 0:
            return None
        if costs.min() < 0.0:
            raise ValidationError(
                "warm-started rounds require non-negative costs "
                "(shift them, as the cold entry point does)"
            )
        erow = np.asarray(edge_rows, dtype=np.intp)
        ecol = np.asarray(edge_cols, dtype=np.intp)
        if erow.size != costs.size or ecol.size != costs.size:
            raise ValidationError(
                "edge arrays must be parallel: "
                f"{erow.size} rows, {ecol.size} cols, {costs.size} costs"
            )
        # Out-of-range indices would otherwise reach np.bincount / fancy
        # indexing (negative indices silently alias!) with opaque errors.
        rmin, rmax = int(erow.min()), int(erow.max())
        if rmin < 0 or rmax >= n:
            raise ValidationError(
                f"edge_rows out of range [0, {n}): min {rmin}, max {rmax}"
            )
        cmin, cmax = int(ecol.min()), int(ecol.max())
        if cmin < 0 or cmax >= m:
            raise ValidationError(
                f"edge_cols out of range [0, {m}): min {cmin}, max {cmax}"
            )
        rows_idx = np.asarray(rows, dtype=np.intp)
        cols_idx = np.asarray(cols, dtype=np.intp)
        if edge_idx is not None and self._universe is not None:
            csr_erow, csr_cols, csr_costs = self._csr_from_universe(
                n, m, rows_idx, cols_idx, edge_idx, costs.size
            )
        else:
            # Row-major CSR with ascending columns inside each row -- the
            # deterministic layout every tie-break below is defined against.
            order = np.lexsort((ecol, erow))
            csr_erow = erow[order]
            csr_cols = ecol[order]
            csr_costs = costs[order]
        counts = np.bincount(csr_erow, minlength=n)
        indptr = np.empty(n + 1, dtype=np.intp)
        indptr[0] = 0
        np.cumsum(counts, out=indptr[1:])
        flat_keys = csr_erow * m + csr_cols
        # Local dual views: u per local row; v_local packs the real columns
        # first, then row r's dummy column at index m + r.
        u = self._u[rows_idx].copy()
        v_local = np.concatenate([self._v[cols_idx], self._vd[rows_idx]])
        return (
            n, m, rows_idx, cols_idx,
            csr_erow, csr_cols, csr_costs, indptr, flat_keys, u, v_local,
        )

    def _csr_from_universe(
        self,
        n: int,
        m: int,
        rows_idx: np.ndarray,
        cols_idx: np.ndarray,
        edge_idx: np.ndarray,
        n_expected: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays via the universe presort (O(E) filter, no lexsort)."""
        uni = self._universe
        idx = np.asarray(edge_idx, dtype=np.intp)
        n_universe = uni.n_edges
        if idx.size != n_expected:
            raise ValidationError(
                f"edge_idx ({idx.size}) and edge arrays ({n_expected}) disagree"
            )
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= n_universe):
            raise ValidationError(
                f"edge_idx out of range [0, {n_universe})"
            )
        arena = self._arena
        if arena is not None:
            mask = arena.take("warm_match_umask", n_universe, bool)
            n2r = arena.take("warm_match_n2r", self._node_space, np.intp)
            c2l = arena.take("warm_match_c2l", self._item_space, np.intp)
            ar = arena.arange(max(n, m))
        else:
            mask = np.empty(n_universe, dtype=bool)
            n2r = np.empty(self._node_space, dtype=np.intp)
            c2l = np.empty(self._item_space, dtype=np.intp)
            ar = np.arange(max(n, m), dtype=np.intp)
        mask[:] = False
        mask[idx] = True
        sel = uni.order[mask[uni.order]]
        n2r[rows_idx] = ar[:n]
        c2l[cols_idx] = ar[:m]
        csr_erow = n2r[uni.edge_node[sel]]
        csr_cols = c2l[uni.edge_item[sel]]
        csr_costs = uni.edge_cost[sel]
        return csr_erow, csr_cols, csr_costs

    def _round_matching(self, width: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Fresh (-1-filled) round-local ``row4col`` / ``col4row`` buffers."""
        arena = self._arena
        if arena is not None:
            row4col = arena.take("warm_match_l_row4col", width, np.intp)
            col4row = arena.take("warm_match_l_col4row", n, np.intp)
        else:
            row4col = np.empty(width, dtype=np.intp)
            col4row = np.empty(n, dtype=np.intp)
        row4col.fill(-1)
        col4row.fill(-1)
        return row4col, col4row

    def _repair_feasibility(
        self, n, m, u, v_local, csr_erow, csr_cols, csr_costs, row4col, col4row,
    ) -> int:
        """Restore dual feasibility at the cheapest structural cost.

        Two vectorised passes, ordered so repairs stay local:

        1. *Free rows* with a violating edge get ``u`` cut down to their
           cheapest raw live edge cost (capped by the dummy cost ``big``).
           Potentials never exceed zero, so the cut row is feasible against
           every column -- and the row was already due for re-augmentation,
           so the cut costs nothing.  (On cold solves every row is free and
           this pass alone restores feasibility, exactly as it always did.)
        2. Violations that remain run through *matched* rows pricing a
           column too high (typically a column re-entering the round with a
           stale potential).  Instead of releasing every priced-out row --
           each release is a full re-augmentation, and one hot column can
           release dozens of rows -- the column's potential is lowered to
           the largest feasible value ``min(0, min_i (c_ij - u_i))``.  A
           *free* column lowered below zero becomes stale and is re-admitted
           by one :meth:`_insert_column` call in :meth:`_certified_sweep`;
           a *matched* column loses tightness, so its row is released (the
           only remaining release, and rare: it needs a new edge between
           two already-matched endpoints).

        Violations within ``big * 1e-12`` are ignored: edges the dual
        updates leave exactly tight in real arithmetic drift by a few ulps
        of ``big`` in floats, and repairing noise would cost a real
        re-augmentation every round.  Genuine violations are raw cost
        differences, orders of magnitude above the tolerance.

        Returns the number of rows released.
        """
        width = m + n
        worst = np.zeros(n)
        if csr_costs.size:
            slack = csr_costs - u[csr_erow] - v_local[csr_cols]
            np.minimum.at(worst, csr_erow, np.minimum(slack, 0.0))
        np.minimum(
            worst, np.minimum((self._big - u) - v_local[m:width], 0.0), out=worst
        )
        rawmin: np.ndarray | None = None
        released = 0
        rows_bad = np.nonzero((worst < 0.0) & (col4row[:n] == -1))[0]
        if rows_bad.size:
            rawmin = np.full(n, self._big)
            if csr_costs.size:
                np.minimum.at(rawmin, csr_erow, csr_costs)
            u[rows_bad] = np.minimum(u[rows_bad], rawmin[rows_bad])
            released += int(rows_bad.size)
        tol = self._big * 1e-12
        if (
            rows_bad.size == 0
            and not bool(np.any(worst[col4row[:n] >= 0] < -tol))
        ):
            return released
        # Column pass on the post-cut duals.  Edges the sweep made tight
        # (matched pairs, and the degenerate near-ties the dual updates
        # leave exactly tight in real arithmetic) can read as violated by
        # a few ulps of float drift -- the updates shift ``u`` and ``v``
        # by the same delta, which need not cancel bit-exactly -- and a
        # drift-triggered repair costs a real re-augmentation every round.
        # The tolerance is scaled to the dummy cost (the largest magnitude
        # the dual arithmetic ever carries): observed drift sits at
        # ``O(eps * big)`` while genuine violations are raw cost
        # differences, orders of magnitude above it.  ``vmax`` is computed
        # once; a release inside the loop only lowers ``u`` further, which
        # only raises the true bound, so the cached value stays feasible
        # (at worst it over-lowers a potential the insertion re-raises).
        vmax = np.full(width, np.inf)
        if csr_costs.size:
            np.minimum.at(vmax, csr_cols, csr_costs - u[csr_erow])
        vmax[m:width] = np.minimum(vmax[m:width], self._big - u)
        viol = np.nonzero(v_local[:width] > vmax + tol)[0]
        if viol.size:
            partners = row4col[viol]
            matched_cols = viol[partners >= 0]
            if matched_cols.size:
                if rawmin is None:
                    rawmin = np.full(n, self._big)
                    if csr_costs.size:
                        np.minimum.at(rawmin, csr_erow, csr_costs)
                freed_rows = row4col[matched_cols]
                u[freed_rows] = np.minimum(u[freed_rows], rawmin[freed_rows])
                row4col[matched_cols] = -1
                col4row[freed_rows] = -1
                released += int(matched_cols.size)
            v_local[viol] = np.minimum(v_local[viol], np.minimum(vmax[viol], 0.0))
        return released

    def _certified_sweep(
        self, orphans, n, m, u, v_local,
        csr_erow, csr_cols, csr_costs, indptr, row4col, col4row,
    ) -> int:
        """Sweep the orphans, then certify the full JV optimality invariant.

        Successive shortest augmenting paths are exact iff (a) the duals
        are feasible on every live edge (``c_ij - u_i - v_j >= 0``, dummy
        edges included), (b) every matched pair is tight, and (c) every
        *free* column -- real or dummy -- carries ``v_j == 0``.  The sweep
        preserves all three (a free column is only ever popped as an
        augmenting-path sink, which matches it), and callers establish
        (a)/(b) up front (:meth:`_repair_feasibility` plus the
        reconciliation); (c) is the condition graphs that *grow* break:
        a resurrected item, or a column freed by a released or vanished
        row, re-enters free with the negative potential it earned while
        matched.

        Simply zeroing such a column's potential cascades: the raise
        breaks feasibility for every row priced against it, releasing
        those rows re-prices *their* columns, and one stale column can
        end up re-solving most of the graph.  Instead each one is handed
        to :meth:`_insert_column` -- the dynamic-Hungarian column
        insertion, one bounded reverse Dijkstra that either matches the
        column (cost can only improve) or proves a dual ascent to
        ``v == 0`` feasible, touching no other free column either way.
        The stale set therefore shrinks by exactly one per insertion and
        the certificate holds when the loop ends.  Returns the number of
        inserted columns for the ``dual_repairs`` counter.
        """
        self._sweep(
            orphans, n, m, u, v_local,
            csr_erow, csr_cols, csr_costs, indptr, row4col, col4row,
        )
        width = m + n
        stale = np.nonzero(
            (row4col[:width] == -1) & (v_local[:width] < 0.0)
        )[0]
        if not stale.size:
            return 0
        # Column-major adjacency for the reverse Dijkstras, built once per
        # round and only when something is actually stale.
        order_c = np.lexsort((csr_erow, csr_cols))
        csc_rows = csr_erow[order_c].tolist()
        csc_costs = csr_costs[order_c].tolist()
        counts = np.bincount(csr_cols, minlength=m)
        col_iptr = np.empty(m + 1, dtype=np.intp)
        col_iptr[0] = 0
        np.cumsum(counts, out=col_iptr[1:])
        col_iptr_l = col_iptr.tolist()
        pops = 0
        for t in stale.tolist():
            pops += self._insert_column(
                t, n, m, u, v_local, csc_rows, csc_costs, col_iptr_l,
                row4col, col4row,
            )
        self.stats.heap_pops += pops
        return int(stale.size)

    def _insert_column(
        self, t, n, m, u, v_local, csc_rows, csc_costs, col_iptr,
        row4col, col4row,
    ) -> int:
        """Re-admit one free column with stale potential ``v_t < 0``.

        The state on entry is the exact JV certificate for the graph
        *without* ``t`` (every row matched and tight, feasible duals,
        every other free column at zero).  Adding one column changes the
        optimum by at most one alternating path, found by a single
        Dijkstra rooted at ``t`` over reduced costs: ``t -> row`` along
        any edge (``c - u - v_t``, non-negative by feasibility), ``row ->
        its matched column`` at zero (tight), ``column -> row`` along any
        edge.  Every reached column is matched (columns only enter via
        their matched row), and *freeing* a matched column ``c`` is legal
        once its potential reaches zero -- at ascent ``delta = dist_c -
        v_c``.  The answer is ``delta = min(-v_t, min_c (dist_c - v_c))``
        over popped columns (the heap is popped until its front can no
        longer beat that bound):

        * if ``-v_t`` wins, no augmentation improves on raising ``v_t``
          itself: scanned duals shift by their slack to ``delta`` and
          ``t`` stays free at exactly ``v_t = 0``;
        * otherwise the alternating path from ``t`` to the winning column
          is applied -- ``t`` becomes matched (at ``v_t + delta <= 0``,
          so the sign constraint holds), the winner is freed at exactly
          ``v = 0``, and every new pair is tight by the relaxation
          equalities.

        Scanned rows take ``u -= delta - dist`` and scanned columns
        ``v += delta - dist`` (their matched pairs shift together, so
        tightness is preserved; the sink-candidate minimum is what proves
        no matched ``v`` crosses zero).  Either way feasibility, tightness
        and the free-column-zero invariant all hold on exit, and no other
        free column is touched -- so one insertion per stale column
        restores the certificate.  Returns the number of Dijkstra pops.
        """
        big = self._big
        vt = float(v_local[t])
        best = -vt  # pure dual-ascent candidate: raise v_t all the way to 0
        best_sink = -1
        INF = np.inf
        distr = [INF] * n
        distc = [INF] * (m + n)
        scanned_r = [False] * n
        scanned_c = [False] * (m + n)
        sr_ids: list[int] = []
        sc_ids: list[int] = []
        predr = [-1] * n
        # Push pruning: the loop below only ever pops entries strictly
        # under ``best``, and ``best`` only falls, so a candidate at or
        # above it can be dropped at push time (its tentative distance
        # still updates, keeping later strict-``<`` relaxations exact).
        heap: list[tuple[float, int, int]] = []
        if t >= m:
            r = t - m
            cand = (big - float(u[r])) - vt
            distr[r] = cand
            predr[r] = t
            if cand < best:
                heappush(heap, (cand, 1, r))
        else:
            for p in range(col_iptr[t], col_iptr[t + 1]):
                r = csc_rows[p]
                cand = (csc_costs[p] - float(u[r])) - vt
                if cand < distr[r]:
                    distr[r] = cand
                    predr[r] = t
                    if cand < best:
                        heappush(heap, (cand, 1, r))
        pops = 0
        while heap and heap[0][0] < best:
            d, kind, idx = heappop(heap)
            if kind == 1:
                if scanned_r[idx]:
                    continue
                scanned_r[idx] = True
                sr_ids.append(idx)
                pops += 1
                c = int(col4row[idx])  # rows are all matched on entry
                if not scanned_c[c]:
                    distc[c] = d  # traverse the tight matched edge at +0
                    heappush(heap, (d, 0, c))
            else:
                c = idx
                if scanned_c[c]:
                    continue
                scanned_c[c] = True
                sc_ids.append(c)
                pops += 1
                vc = float(v_local[c])
                cand_sink = d - vc  # ascent at which freeing c becomes legal
                if cand_sink < best:
                    best = cand_sink
                    best_sink = c
                if c < m:
                    for p in range(col_iptr[c], col_iptr[c + 1]):
                        r = csc_rows[p]
                        if scanned_r[r]:
                            continue
                        nd = d + ((csc_costs[p] - float(u[r])) - vc)
                        if nd < distr[r]:
                            distr[r] = nd
                            predr[r] = c
                            if nd < best:
                                heappush(heap, (nd, 1, r))
                # A dummy column reaches only its own row, which is the
                # matched row it was entered through -- nothing to relax.
        delta = best
        for r in sr_ids:
            dr = distr[r]
            if dr < delta:
                u[r] -= delta - dr
        for c in sc_ids:
            dc = distc[c]
            if dc < delta:
                v_local[c] += delta - dc
        v_local[t] += delta
        if best_sink >= 0:
            c = best_sink
            r = int(row4col[c])
            row4col[c] = -1  # the winner is freed, at exactly v == 0
            while True:
                pc = predr[r]
                nr = int(row4col[pc])  # -1 once pc == t
                row4col[pc] = r
                col4row[r] = pc
                if pc == t:
                    break
                r = nr
        return pops

    # -- public API -----------------------------------------------------------
    def solve_round(
        self,
        rows: Sequence[int],
        cols: np.ndarray,
        edge_rows: np.ndarray,
        edge_cols: np.ndarray,
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
        edge_rows, edge_cols, edge_costs:
            The round's edges in *round-local* indices (the exact arrays
            :meth:`RoundState.build_edges` emits).  Costs must be
            non-negative -- the zero dual start of the first round is only
            feasible then (Algorithm 2's Eq. 3 costs always are).

        Returns
        -------
        list[tuple[int, int, float]]
            Matched ``(local_row, local_col, cost)`` triples sorted by row;
            maximum cardinality, minimum total cost among maximum matchings.
        """
        built = self._build_round(rows, cols, edge_rows, edge_cols, edge_costs)
        if built is None:
            return []
        (n, m, rows_idx, cols_idx,
         csr_erow, csr_cols, csr_costs, indptr, flat_keys, u, v_local) = built
        row4col, col4row = self._round_matching(m + n, n)
        stats = self.stats
        # Edges this graph has that no prior round priced (returned items,
        # re-added edges) can violate the persisted duals; the feasibility
        # cut releases nothing here (every row is already an orphan) and is
        # a no-op on Algorithm 2's shrink-only rounds.  The certified sweep
        # then re-augments every row and zeroes whatever stale negative
        # potential survives on still-free columns.
        stats.dual_repairs += self._repair_feasibility(
            n, m, u, v_local, csr_erow, csr_cols, csr_costs, row4col, col4row
        )
        stats.rows_total += n
        stats.rows_reaugmented += n
        stats.dual_repairs += self._certified_sweep(
            list(range(n)), n, m, u, v_local,
            csr_erow, csr_cols, csr_costs, indptr, row4col, col4row,
        )
        # Persist the improved potentials for the next round.
        self._u[rows_idx] = u
        self._v[cols_idx] = v_local[:m]
        self._vd[rows_idx] = v_local[m:]
        stats.rounds += 1
        return self._emit(m, col4row, csr_costs, flat_keys)

    def solve_round_delta(
        self,
        rows: Sequence[int],
        cols: np.ndarray,
        edge_rows: np.ndarray,
        edge_cols: np.ndarray,
        edge_costs: Sequence[float],
        *,
        edge_idx: np.ndarray | None = None,
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
        * ``edge_idx`` -- optional universe positions of the round's edges
          (``RoundState.build_edges`` computes them anyway).  With a
          :class:`UniverseIndex` attached this derives the CSR layout by an
          O(E) filter of the presort; results are bit-identical to the
          ``lexsort`` path.

        The first delta round of a solver (nothing persisted) re-augments
        every row and is bit-identical to :meth:`solve_round`.
        """
        built = self._build_round(
            rows, cols, edge_rows, edge_cols, edge_costs, edge_idx=edge_idx
        )
        if built is None:
            return []
        (n, m, rows_idx, cols_idx,
         csr_erow, csr_cols, csr_costs, indptr, flat_keys, u, v_local) = built
        if m > 1 and not bool(np.all(cols_idx[1:] > cols_idx[:-1])):
            raise ValidationError(
                "solve_round_delta requires strictly ascending cols "
                "(global item indices)"
            )
        row4col, col4row = self._round_matching(m + n, n)

        # -- reconcile the persisted matching with this round's graph --------
        prior = self._g_col4row[rows_idx]
        drows = np.nonzero(prior == DUMMY)[0]
        if drows.size:
            # Dummy edges never disappear and their duals are untouched
            # between rounds, so dummy-matched rows stay dummy-matched.
            col4row[drows] = m + drows
            row4col[m + drows] = drows
        crows = np.nonzero(prior >= 0)[0]
        if crows.size:
            gitems = prior[crows]
            cpos = np.minimum(np.searchsorted(cols_idx, gitems), m - 1)
            alive = cols_idx[cpos] == gitems
            # Edge-existence test: flat_keys is strictly ascending, so one
            # batched searchsorted answers membership for every kept pair.
            q = crows * m + cpos
            p = np.minimum(np.searchsorted(flat_keys, q), flat_keys.size - 1)
            keep = alive & (flat_keys[p] == q)
            # Mutuality: a row absent from a round keeps its stale
            # ``_g_col4row`` entry while its item may be re-matched to
            # another row.  Keeping the pair only when the item's entry
            # still points back at the row rejects those stale claims.
            keep &= self._g_row4col[gitems] == rows_idx[crows]
            kr = crows[keep]
            if kr.size:
                kc = cpos[keep]
                col4row[kr] = kc
                row4col[kc] = kr

        # -- exactness repair --------------------------------------------------
        # Algorithm 2's consume-matched shrink-only rounds keep the JV
        # invariant by construction; arbitrary callers -- resurrected items,
        # added edges, online re-solves after failures -- can break it and
        # are repaired in place (rows released by the repair join the
        # orphans below).
        stats = self.stats
        stats.dual_repairs += self._repair_feasibility(
            n, m, u, v_local, csr_erow, csr_cols, csr_costs, row4col, col4row
        )

        orphans = np.nonzero(col4row == -1)[0].tolist()
        stats.rows_total += n
        stats.rows_kept += n - len(orphans)
        stats.rows_reaugmented += len(orphans)

        stats.dual_repairs += self._certified_sweep(
            orphans, n, m, u, v_local,
            csr_erow, csr_cols, csr_costs, indptr, row4col, col4row,
        )

        self._u[rows_idx] = u
        self._v[cols_idx] = v_local[:m]
        self._vd[rows_idx] = v_local[m:]

        # -- persist the matching for the next round's reconciliation --------
        real = col4row < m  # every row is matched now (real col or its dummy)
        gnew = np.full(n, DUMMY, dtype=np.intp)
        if real.any():
            ritems = cols_idx[col4row[real]]
            gnew[np.nonzero(real)[0]] = ritems
            self._g_row4col[ritems] = rows_idx[real]
        self._g_col4row[rows_idx] = gnew
        stats.rounds += 1
        stats.delta_rounds += 1
        return self._emit(m, col4row, csr_costs, flat_keys)

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copy the persistent state: duals and the global matching.

        Together with :meth:`restore` this checkpoints an online-serving
        solver so the same event stream can be replayed from identical warm
        state -- benchmark repetitions, A/B comparisons, or speculative
        what-if re-solves that must not disturb the live matching.  The
        :attr:`stats` counters are *not* part of the snapshot (they describe
        work done, not state held).
        """
        return {
            "u": self._u.copy(),
            "v": self._v.copy(),
            "vd": self._vd.copy(),
            "g_row4col": self._g_row4col.copy(),
            "g_col4row": self._g_col4row.copy(),
        }

    def restore(self, state: dict[str, np.ndarray]) -> None:
        """Load state captured by :meth:`snapshot` on this solver.

        Copies into the live buffers (arena leases stay valid), so the next
        :meth:`solve_round_delta` reconciles against exactly the matching
        and potentials held when the snapshot was taken.
        """
        try:
            u, v, vd = state["u"], state["v"], state["vd"]
            r4c, c4r = state["g_row4col"], state["g_col4row"]
        except KeyError as exc:  # pragma: no cover - caller error
            raise ValidationError(f"snapshot missing field {exc}") from exc
        if u.shape != self._u.shape or v.shape != self._v.shape:
            raise ValidationError(
                "snapshot shape mismatch: "
                f"({u.shape}, {v.shape}) vs ({self._u.shape}, {self._v.shape})"
            )
        self._u[:] = u
        self._v[:] = v
        self._vd[:] = vd
        self._g_row4col[:] = r4c
        self._g_col4row[:] = c4r

    # -- sweep ----------------------------------------------------------------
    def _sweep(
        self, orphans, n, m, u, v_local, csr_erow, csr_cols, csr_costs,
        indptr, row4col, col4row,
    ) -> None:
        """Prepass quick-matching + lazy-deletion heap Dijkstra.

        Bit-identical to the reference ``argmin`` scan (same floats, same
        tie-breaks, same dual updates); only the work per augmentation
        differs.
        """
        if not orphans:
            return
        stats = self.stats
        big = self._big
        width = m + n
        E = csr_costs.size

        # -- prepass: each orphan row's cheapest reduced-cost column, -------
        # first-index.  cand0 reproduces the scan's first-iteration
        # relaxation bit-for-bit: offset (0.0) + ((cost - u_i) - v_j),
        # evaluated left-associatively.  Delta rounds orphan only a handful
        # of rows, so their candidates are gathered from just those CSR
        # slices; cold rounds (every row an orphan) keep the full-array
        # form.  Both produce identical floats for the rows they cover.
        minv = np.full(n, np.inf)
        argcol = np.full(n, -1, dtype=np.intp)
        if len(orphans) * 4 < n:
            orph = np.asarray(orphans, dtype=np.intp)
            lo = indptr[orph]
            lens = indptr[orph + 1] - lo
            total = int(lens.sum())
            if total:
                seg = np.zeros(orph.size, dtype=np.intp)
                np.cumsum(lens[:-1], out=seg[1:])
                pos = (np.arange(total, dtype=np.intp)
                       - np.repeat(seg, lens) + np.repeat(lo, lens))
                g_cols = csr_cols[pos]
                cand0 = 0.0 + ((csr_costs[pos] - u[np.repeat(orph, lens)])
                               - v_local[g_cols])
                ne = lens > 0
                ne_starts = seg[ne]
                rows_ne = orph[ne]
                minv[rows_ne] = np.minimum.reduceat(cand0, ne_starts)
                hit = cand0 == np.repeat(minv[orph], lens)
                first = np.minimum.reduceat(np.where(hit, pos, E), ne_starts)
                argcol[rows_ne] = csr_cols[first]
        elif E:
            arena = self._arena
            idx_e = (arena.arange(E) if arena is not None
                     else np.arange(E, dtype=np.intp))
            cand0 = 0.0 + ((csr_costs - u[csr_erow]) - v_local[csr_cols])
            starts = indptr[:-1]
            nonempty = indptr[1:] > starts
            # reduceat over the *nonempty* segment starts only: empty
            # segments have zero width, so consecutive nonempty starts
            # still delimit exactly the nonempty rows' CSR slices (and stay
            # in range, which the raw starts do not when trailing rows are
            # empty).
            ne_starts = starts[nonempty]
            minv[nonempty] = np.minimum.reduceat(cand0, ne_starts)
            hit = cand0 == minv[csr_erow]
            first = np.minimum.reduceat(np.where(hit, idx_e, E), ne_starts)
            argcol[nonempty] = csr_cols[first]
        dumv = 0.0 + ((big - u) - v_local[m:width])

        minv_l = minv.tolist()
        dumv_l = dumv.tolist()
        arg_l = argcol.tolist()
        iptr_l = indptr.tolist()
        # The sequential part keeps ``u`` and the matching on plain Python
        # lists (same IEEE doubles, no tiny-slice NumPy overhead); the big
        # per-edge arrays stay NumPy so the vectorised relaxations can
        # slice them, and the rare cache-miss loop reads them per scalar.
        u_l = u.tolist()
        r4c = row4col[:width].tolist()
        c4r = col4row[:n].tolist()
        # Real columns whose potential changed since the prepass.  v only
        # ever *falls*, so a stale candidate can only have got worse -- a
        # clean candidate is therefore still the row's first-index minimum.
        # (An unprocessed orphan's dummy column is free, and free columns
        # are only ever popped as sinks, so cached ``dumv`` is always exact.)
        dirty: set[int] = set()
        quick = 0
        pops = 0
        for cur_row in orphans:
            mv = minv_l[cur_row]
            dv = dumv_l[cur_row]
            if mv > dv:
                # The private dummy is strictly cheapest (and always free
                # for an orphan row); a dirty cached candidate could only
                # have got *worse*, so the comparison stands either way.
                d = m + cur_row
                u_l[cur_row] += dv
                r4c[d] = cur_row
                c4r[cur_row] = d
                quick += 1
                continue
            c = arg_l[cur_row]
            if c in dirty or r4c[c] >= 0:
                # Cache miss (stale candidate, or the column was claimed by
                # an earlier row this round): recompute the row's fresh
                # first-relaxation minimum -- exactly the scan's first pop
                # under the *current* duals -- in O(degree).
                ui = u_l[cur_row]
                mv = np.inf
                c = -1
                for p in range(iptr_l[cur_row], iptr_l[cur_row + 1]):
                    j = int(csr_cols[p])
                    cand = 0.0 + ((csr_costs[p] - ui) - v_local[j])
                    if cand < mv:
                        mv = cand
                        c = j
                if mv > dv:
                    d = m + cur_row
                    u_l[cur_row] += dv
                    r4c[d] = cur_row
                    c4r[cur_row] = d
                    quick += 1
                    continue
                if r4c[c] >= 0:
                    # Genuine conflict: the cheapest column is matched, so
                    # the augmenting path has length > 1.
                    pops += self._augment_heap(
                        cur_row, m, u_l, v_local, csr_cols, csr_costs,
                        iptr_l, r4c, c4r, dirty,
                    )
                    continue
            # First pop is a free column: the scan would have ended here.
            u_l[cur_row] += mv
            r4c[c] = cur_row
            c4r[cur_row] = c
            quick += 1
        u[:] = u_l
        row4col[:width] = r4c
        col4row[:n] = c4r
        stats.quick_matches += quick
        stats.heap_pops += pops

    def _augment_heap(
        self, cur_row, m, u_l, v_local, csr_cols, csr_costs, iptr_l,
        r4c, c4r, dirty,
    ) -> int:
        """One shortest augmenting path with a lazy-deletion binary heap.

        Shares the sweep's Python lists for ``u`` and the matching, but
        relaxes each popped row's whole edge slice as one NumPy expression
        (the per-edge Python loop dominated the profile), and keeps *free*
        columns out of the heap entirely: the search can only ever end at
        the cheapest free column reached, so a single ``(value, column)``
        running minimum stands in for all of them, and matched candidates
        at or above that bound are pruned at push time (the bound only
        falls, so a pruned entry could never have popped first).  Pop
        order provably matches the scan's ``argmin``: pushed values are
        the scan's exact floats (the elementwise ``offset + ((cost - u_i)
        - v_j)`` double arithmetic is associativity-identical to the
        scalar form), per-column pushes are strictly decreasing
        (strict-``<`` relaxation against the tentative distance), so a
        column's minimal entry pops first, and both the heap and the
        free-column minimum order ties by ``(value, column)`` -- the
        scan's first-index rule.  Stale heap entries pop later and are
        skipped because the column is already scanned; scanned columns
        take a ``-inf`` tentative distance so the vectorised strict-``<``
        test rejects them without an explicit mask.
        """
        big = self._big
        width = m + len(c4r)
        dist = np.full(width, np.inf)
        pred = [-1] * width
        scanned = [False] * width
        heap: list[tuple[float, int]] = []
        best_val = np.inf
        best_col = -1
        popped_cols: list[int] = []
        popped_dist: list[float] = []
        pops = 0
        i = cur_row
        offset = 0.0
        while True:
            ui = u_l[i]
            lo = iptr_l[i]
            hi = iptr_l[i + 1]
            if hi > lo:
                jcols = csr_cols[lo:hi]
                cand = offset + ((csr_costs[lo:hi] - ui) - v_local[jcols])
                imp = cand < dist[jcols]
                cimp = cand[imp]
                if cimp.size:
                    jimp = jcols[imp]
                    dist[jimp] = cimp
                    for cc, jj in zip(cimp.tolist(), jimp.tolist()):
                        pred[jj] = i
                        if r4c[jj] < 0:
                            if cc < best_val or (cc == best_val and jj < best_col):
                                best_val = cc
                                best_col = jj
                        elif cc < best_val or (cc == best_val and jj < best_col):
                            heappush(heap, (cc, jj))
            d = m + i
            # The private dummy of every relaxed row is free: a matched
            # dummy could only be reached through its own row, which would
            # itself have to be reached through that same dummy.
            if not scanned[d]:
                cd = offset + ((big - ui) - v_local[d])
                if cd < dist[d]:
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
                        if scanned[j]:
                            continue  # lazy deletion: stale entries skip here
                        closest = entry[0]
                        break
                if best_col < 0:  # pragma: no cover - dummy edges guarantee progress
                    raise ValidationError("augmentation stalled (no reachable column)")
                closest, j = best_val, best_col
                break
            pops += 1
            scanned[j] = True
            dist[j] = -np.inf
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
            v_local[jc] -= delta
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
    def _emit(m, col4row, csr_costs, flat_keys) -> list[tuple[int, int, float]]:
        """Matched triples, costs recovered by one batched searchsorted."""
        pairs = np.nonzero((col4row >= 0) & (col4row < m))[0]
        if pairs.size == 0:
            return []
        jcols = col4row[pairs]
        pos = np.searchsorted(flat_keys, pairs * m + jcols)
        return list(zip(pairs.tolist(), jcols.tolist(), csr_costs[pos].tolist()))


def warm_min_cost_max_matching(
    n_rows: int,
    n_cols: int,
    edge_rows: np.ndarray,
    edge_cols: np.ndarray,
    edge_costs: np.ndarray,
) -> list[tuple[int, int, float]]:
    """Cold single-shot entry point for the warm-started solver.

    Used by the generic :func:`repro.matching.mincost.min_cost_max_matching`
    interface (and by tests) when no round sequence exists to carry duals
    across.  Negative costs are handled by a uniform shift -- it adds
    ``k * shift`` to every cardinality-``k`` matching, leaving the set of
    min-cost maximum matchings unchanged -- and decoded edges report the
    original cost floats.
    """
    costs = np.asarray(edge_costs, dtype=np.float64)
    if n_rows == 0 or n_cols == 0 or costs.size == 0:
        return []
    low = float(costs.min())
    shift = -low if low < 0.0 else 0.0
    shifted = costs + shift if shift else costs
    solver = DualReusingSolver(n_rows, n_cols, universe_cost_sum=float(shifted.sum()))
    matched = solver.solve_round(
        np.arange(n_rows, dtype=np.intp),
        np.arange(n_cols, dtype=np.intp),
        edge_rows,
        edge_cols,
        shifted,
    )
    if not shift:
        return matched
    # Recover original costs by edge identity (never unshift by arithmetic):
    # one batched searchsorted over the (row, col)-keyed edge list.
    rows = np.asarray(edge_rows, dtype=np.intp)
    cols = np.asarray(edge_cols, dtype=np.intp)
    keys = rows * n_cols + cols
    key_order = np.argsort(keys, kind="stable")
    sorted_keys = keys[key_order]
    mr = np.asarray([t[0] for t in matched], dtype=np.intp)
    mc = np.asarray([t[1] for t in matched], dtype=np.intp)
    pos = key_order[np.searchsorted(sorted_keys, mr * n_cols + mc)]
    return list(zip(mr.tolist(), mc.tolist(), costs[pos].tolist()))


__all__ = [
    "DUMMY",
    "DualReusingSolver",
    "UniverseIndex",
    "WARM_DELTA_ENV",
    "WarmStats",
    "warm_delta_enabled",
    "warm_min_cost_max_matching",
]
