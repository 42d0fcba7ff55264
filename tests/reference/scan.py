"""The warm LAP core with its original full-array sweep, reference for the heap.

:class:`ScanSolver` is :class:`repro.matching.warmstart.DualReusingSolver`
with :meth:`~ScanSolver._sweep` replaced by the first sweep the core
shipped: one Dijkstra per orphan row whose pop is a full-array
``np.argmin`` over the tentative distances.  The production heap sweep
(prepass quick-matching + lazy-deletion heap) must return the same
pairing, pair for pair, even where costs tie
(``tests/test_matching_warm_delta.py``).  The solver hands its sweep the
round as plain lists; an adapter turns them into the arrays the scan was
written for at entry and writes the results back into the lists at exit.
"""

from __future__ import annotations

import numpy as np

from repro.matching.warmstart import DualReusingSolver
from repro.util.errors import ValidationError


class ScanSolver(DualReusingSolver):
    """:class:`DualReusingSolver` augmenting with the ``argmin`` scan."""

    def _sweep(
        self, orphans, m, u_list, v_list, indptr_list, cols_list, costs_list,
        row4col_list, col4row_list, minv, argcol,
    ):
        # List adapter (entry): the scan's arrays; the prepass cache
        # (``minv``, ``argcol``) is the heap sweep's and goes unused.
        n = len(col4row_list)
        indptr = np.asarray(indptr_list, dtype=np.intp)
        csr_cols = np.asarray(cols_list, dtype=np.intp)
        csr_costs = np.asarray(costs_list, dtype=np.float64)
        u = np.asarray(u_list, dtype=np.float64)
        v_local = np.asarray(v_list, dtype=np.float64)
        row4col = np.asarray(row4col_list, dtype=np.intp)
        col4row = np.asarray(col4row_list, dtype=np.intp)
        self._scan(
            orphans, n, m, u, v_local, csr_cols, csr_costs, indptr, row4col, col4row
        )
        # List adapter (exit): results back into the solver's lists, and
        # every real column reported, since any potential may have moved.
        u_list[:] = u.tolist()
        v_list[:] = v_local.tolist()
        row4col_list[:] = row4col.tolist()
        col4row_list[:] = col4row.tolist()
        return range(m)

    def _scan(
        self, orphans, n, m, u, v_local, csr_cols, csr_costs, indptr,
        row4col, col4row,
    ) -> None:
        big = self._big
        width = m + n
        dist = np.empty(width, dtype=np.float64)
        pred = np.empty(width, dtype=np.intp)
        scanned = np.empty(width, dtype=bool)
        INF = np.inf
        popped_cols: list[int] = []
        popped_dist: list[float] = []
        for cur_row in orphans:
            dist.fill(INF)
            pred.fill(-1)
            scanned.fill(False)
            popped_cols.clear()
            popped_dist.clear()
            i = cur_row
            offset = 0.0
            while True:
                # Relax row i's real edges (vectorised over its CSR slice)
                # and its private dummy edge.  Strict ``<`` keeps the first
                # (lowest-offset) predecessor on ties.
                lo, hi = indptr[i], indptr[i + 1]
                if hi > lo:
                    nbr = csr_cols[lo:hi]
                    cand = offset + (csr_costs[lo:hi] - u[i] - v_local[nbr])
                    better = ~scanned[nbr] & (cand < dist[nbr])
                    improved = nbr[better]
                    dist[improved] = cand[better]
                    pred[improved] = i
                dummy = m + i
                if not scanned[dummy]:
                    cand_d = offset + (big - u[i] - v_local[dummy])
                    if cand_d < dist[dummy]:
                        dist[dummy] = cand_d
                        pred[dummy] = i
                # Pop the closest unscanned column; popped entries are reset
                # to inf in `dist` (their true distance lives in popped_dist)
                # so the argmin needs no per-pop masking copy.  argmin's
                # first-index rule makes ties deterministic (real columns
                # sit before dummy columns in the local layout).
                j = int(np.argmin(dist))
                closest = float(dist[j])
                if closest == INF:  # pragma: no cover - dummy edges guarantee progress
                    raise ValidationError("augmentation stalled (no reachable column)")
                scanned[j] = True
                dist[j] = INF
                if row4col[j] < 0:
                    sink, minval = j, closest
                    break
                popped_cols.append(j)
                popped_dist.append(closest)
                i = int(row4col[j])
                offset = closest

            # Dual update: scanned columns (and their matched rows) shift by
            # their distance shortfall; the inserted row absorbs the full
            # path length.  Matched edges stay tight, feasibility is kept.
            if popped_cols:
                sel = np.asarray(popped_cols, dtype=np.intp)
                delta = minval - np.asarray(popped_dist)
                v_local[sel] -= delta
                u[row4col[sel]] += delta
            u[cur_row] += minval

            # Augment: flip the alternating path back to the inserted row.
            j = sink
            while True:
                i = int(pred[j])
                row4col[j] = i
                col4row[i], j = j, col4row[i]
                if i == cur_row:
                    break
