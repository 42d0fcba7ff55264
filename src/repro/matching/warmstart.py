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

The sweep that augments the orphans runs a vectorised *prepass* computing
every orphan row's cheapest reduced-cost column in one shot; a row whose
cached candidate is still clean (no popped column's ``v`` changed
underneath it -- ``v`` only ever falls, so other candidates can only have
got *worse*) and still free is matched in O(1) -- the "dual-tightness
hit".  Rows that miss run a full Dijkstra whose frontier is a
lazy-deletion binary heap, so a pop costs ``O(log f)`` instead of the
``O(width)`` full-array ``argmin`` of the original sweep.  Everything
after the prepass runs on plain Python lists, converted once per round
and written back at its end: Algorithm 2's round rows carry about ten
edges each, too few for a NumPy call per relaxed row to pay for itself.

The heap sweep is bit-identical to that original ``argmin`` scan, which
``tests/reference/scan.py`` keeps as the differential reference: the
heap's estimates are the exact floats the scan computes (same ``offset +
((cost - u_i) - v_j)`` associativity, scalar instead of vectorised), heap
ties order by ``(value, column)`` which reproduces ``argmin``'s
first-index rule, and pushes mirror the scan's strict-``<`` relaxation so
the popped entry's predecessor is always the scan's.
``tests/test_matching_warm_delta.py`` asserts the equivalence
pair-for-pair on random round sequences, tied costs included.

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

import math
import os
from heapq import heappop, heappush
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
        self._universe = universe
        self._node_space = node_space
        self._item_space = item_space
        self.stats = WarmStats()
        self._u = np.zeros(node_space, dtype=np.float64)
        self._v = np.zeros(item_space, dtype=np.float64)
        self._g_col4row = np.full(node_space, -1, dtype=np.intp)
        self._g_row4col = np.full(item_space, -1, dtype=np.intp)

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
        # first, then row r's dummy column at index m + r.  A dummy column's
        # potential stays zero: a matched one is reached only through its
        # own row, so no sweep pops it and no dual update touches it.
        u = self._u[rows_idx].copy()
        v_local = np.zeros(m + n, dtype=np.float64)
        v_local[:m] = self._v[cols_idx]
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
        mask = np.zeros(n_universe, dtype=bool)
        mask[idx] = True
        sel = uni.order[mask[uni.order]]
        n2r = np.empty(self._node_space, dtype=np.intp)
        c2l = np.empty(self._item_space, dtype=np.intp)
        ar = np.arange(max(n, m), dtype=np.intp)
        n2r[rows_idx] = ar[:n]
        c2l[cols_idx] = ar[:m]
        csr_erow = n2r[uni.edge_node[sel]]
        csr_cols = c2l[uni.edge_item[sel]]
        csr_costs = uni.edge_cost[sel]
        return csr_erow, csr_cols, csr_costs

    def _cut_free_rows(
        self, n, m, u, v_local, csr_erow, csr_cols, csr_costs, indptr,
        row4col, col4row,
    ) -> int:
        """Reject a grown round, else restore dual feasibility on free rows.

        A shrinking round keeps every dual feasible, every matched pair
        tight and every free column at zero potential.  Two violations mean
        the graph grew in a way the sweep cannot absorb, and raise
        :class:`~repro.util.errors.ValidationError`:

        * a *matched* row (real or dummy partner) whose worst live edge has
          reduced cost below ``-big * 1e-12``.  Edges the dual updates leave
          exactly tight in real arithmetic drift by a few ulps of ``big`` in
          floats; a genuine violation is a raw cost difference, orders of
          magnitude above the tolerance;
        * a *free* column, real or dummy, with a negative potential (a
          column back from a round in which it was matched).

        Otherwise every *free* row with a violating edge gets ``u`` cut to
        its cheapest raw live edge cost (capped by the dummy cost ``big``).
        Potentials never exceed zero, so the cut row is feasible against
        every column, and it is re-augmented anyway.  Only the round-local
        ``u`` changes.  Returns the number of rows cut.

        Per-row minima are taken with ``np.minimum.reduceat`` over the CSR
        starts of the rows that have an edge (consecutive nonempty starts
        delimit exactly those rows' slices).
        """
        width = m + n
        big = self._big
        worst = np.zeros(n)
        starts = indptr[:-1]
        nonempty = indptr[1:] > starts
        ne_starts = starts[nonempty]
        if ne_starts.size:
            slack = csr_costs - u[csr_erow] - v_local[csr_cols]
            worst[nonempty] = np.minimum(np.minimum.reduceat(slack, ne_starts), 0.0)
        np.minimum(worst, np.minimum((big - u) - v_local[m:width], 0.0), out=worst)
        matched = col4row >= 0
        if bool(np.any(worst[matched] < -big * 1e-12)):
            raise ValidationError(
                "the round graph grew: a matched row's dual is infeasible "
                "(warm rounds must shrink)"
            )
        if bool(np.any(v_local[row4col == -1] < 0.0)):
            raise ValidationError(
                "the round graph grew: a free column carries a negative "
                "potential (warm rounds must shrink)"
            )
        rows_bad = np.nonzero((worst < 0.0) & ~matched)[0]
        if rows_bad.size:
            rawmin = np.full(n, big)
            if ne_starts.size:
                rawmin[nonempty] = np.minimum(
                    np.minimum.reduceat(csr_costs, ne_starts), big
                )
            u[rows_bad] = np.minimum(u[rows_bad], rawmin[rows_bad])
        return int(rows_bad.size)

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

        Raises
        ------
        ValidationError
            On malformed edge arrays, and on a round that grew the graph in
            a way :meth:`_cut_free_rows` rejects; the solver is unchanged.
        """
        built = self._build_round(rows, cols, edge_rows, edge_cols, edge_costs)
        if built is None:
            return []
        (n, m, rows_idx, cols_idx,
         csr_erow, csr_cols, csr_costs, indptr, flat_keys, u, v_local) = built
        row4col = np.full(m + n, -1, dtype=np.intp)
        col4row = np.full(n, -1, dtype=np.intp)
        stats = self.stats
        stats.dual_repairs += self._cut_free_rows(
            n, m, u, v_local, csr_erow, csr_cols, csr_costs, indptr,
            row4col, col4row,
        )
        stats.rows_total += n
        stats.rows_reaugmented += n
        self._sweep(
            list(range(n)), n, m, u, v_local,
            csr_erow, csr_cols, csr_costs, indptr, row4col, col4row,
        )
        # Persist the improved potentials for the next round.
        self._u[rows_idx] = u
        self._v[cols_idx] = v_local[:m]
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
          ``lexsort`` path;
        * a kept pair's row is *matched* for :meth:`_cut_free_rows`, so a
          grown edge at it, or an item coming back free after a round in
          which it was matched, raises before anything persists.

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
        row4col = np.full(m + n, -1, dtype=np.intp)
        col4row = np.full(n, -1, dtype=np.intp)

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

        stats = self.stats
        stats.dual_repairs += self._cut_free_rows(
            n, m, u, v_local, csr_erow, csr_cols, csr_costs, indptr,
            row4col, col4row,
        )

        orphans = np.nonzero(col4row == -1)[0].tolist()
        stats.rows_total += n
        stats.rows_kept += n - len(orphans)
        stats.rows_reaugmented += len(orphans)

        self._sweep(
            orphans, n, m, u, v_local,
            csr_erow, csr_cols, csr_costs, indptr, row4col, col4row,
        )

        self._u[rows_idx] = u
        self._v[cols_idx] = v_local[:m]

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

    # -- sweep ----------------------------------------------------------------
    def _sweep(
        self, orphans, n, m, u, v_local, csr_erow, csr_cols, csr_costs,
        indptr, row4col, col4row,
    ) -> None:
        """Prepass quick-matching + lazy-deletion heap Dijkstra.

        Bit-identical to the reference ``argmin`` scan (same floats, same
        tie-breaks, same dual updates); only the work per augmentation
        differs.  The prepass is vectorised; everything after it runs on
        plain Python lists converted once per round, and ``u``,
        ``v_local`` and the matching are written back at the end.
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
            idx_e = np.arange(E, dtype=np.intp)
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
        # The sequential part: the same IEEE doubles on plain lists.
        iptr_l = indptr.tolist()
        cols_l = csr_cols.tolist()
        costs_l = csr_costs.tolist()
        u_l = u.tolist()
        v_l = v_local.tolist()
        r4c = row4col.tolist()
        c4r = col4row.tolist()
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
                mv = math.inf
                c = -1
                for p in range(iptr_l[cur_row], iptr_l[cur_row + 1]):
                    j = cols_l[p]
                    cand = 0.0 + ((costs_l[p] - ui) - v_l[j])
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
                        cur_row, m, u_l, v_l, cols_l, costs_l, iptr_l,
                        r4c, c4r, dirty,
                    )
                    continue
            # First pop is a free column: the scan would have ended here.
            u_l[cur_row] += mv
            r4c[c] = cur_row
            c4r[cur_row] = c
            quick += 1
        u[:] = u_l
        if dirty:
            v_local[:] = v_l
        row4col[:] = r4c
        col4row[:] = c4r
        stats.quick_matches += quick
        stats.heap_pops += pops

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
