"""Algorithm 2 with the round graph rebuilt from scratch, reference for the heuristic.

:class:`RebuildHeuristic` is :class:`MatchingHeuristic` with the original
round loop: every round re-enumerates the positive-residual cloudlets,
re-tests every (item, bin) pair through the ledger, and hands a fresh edge
map to :func:`repro.matching.mincost.min_cost_max_matching` (the warm
backend gets a fresh :func:`repro.matching.incremental.warm_solver_for`
per solve).  The incremental
engine must reproduce its placements, rounds and per-round trace exactly
(``tests/test_matching_incremental.py``,
``tests/test_matching_backends_differential.py``,
``tests/service_reference.py``).  It solves one problem at a time: a wave
of several raises :class:`~repro.util.errors.ValidationError`.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.heuristic import MatchingHeuristic
from repro.core.items import BackupItem
from repro.core.problem import AugmentationProblem
from repro.core.solution import Placement
from repro.matching.incremental import warm_solver_for
from repro.matching.mincost import MatchEdge, min_cost_max_matching
from repro.matching.warmstart import warm_delta_enabled
from repro.util.errors import ValidationError


class RebuildHeuristic(MatchingHeuristic):
    """:class:`MatchingHeuristic` rebuilding ``G_l`` every round."""

    def _run_rounds(
        self, problems: Sequence[AugmentationProblem]
    ) -> list[tuple[list[Placement], int, list[dict[str, object]]]]:
        if len(problems) != 1:
            raise ValidationError(
                f"the rebuild loop solves one problem at a time, got {len(problems)}"
            )
        return [self._rebuild_rounds(problems[0])]

    def _rebuild_rounds(
        self, problem: AugmentationProblem
    ) -> tuple[list[Placement], int, list[dict[str, object]]]:
        ledger = problem.ledger()
        remaining: list[BackupItem] = list(problem.items)
        # Original item indices alongside `remaining`: the warm solver keys
        # its column duals by them.
        remaining_idx: list[int] = list(range(len(remaining)))
        warm = (
            warm_solver_for(problem, ledger, universe_cost_sum=self.universe_cost_sum)
            if self.backend == "warm"
            else None
        )
        warm_delta = warm_delta_enabled() if warm is not None else False
        placements: list[Placement] = []
        counts = [0] * problem.request.chain.length
        rounds = 0
        trace: list[dict[str, object]] = []

        def expectation_reached() -> bool:
            return self.stop_at_expectation and problem.request.meets_expectation(
                problem.reliability_from_counts(counts)
            )

        while rounds < self.max_rounds and remaining and not expectation_reached():
            # G_l: rows are cloudlets with room for something, cols are items.
            cloudlets = [v for v in ledger.nodes if ledger.residual(v) > 0]
            row_of = {v: r for r, v in enumerate(cloudlets)}
            edges: dict[tuple[int, int], float] = {}
            for c, item in enumerate(remaining):
                for u in item.bins:
                    r = row_of.get(u)
                    if r is not None and ledger.fits(u, item.demand):
                        edges[(r, c)] = item.cost
            if not edges:
                break

            if warm is not None:
                # Same round graph as the solver's row-major CSR: dict
                # insertion order is item-major/bin order, so each row's
                # columns arrive ascending; columns are keyed globally
                # through remaining_idx.
                by_row: list[list[tuple[int, float]]] = [[] for _ in cloudlets]
                for (r, c), cost in edges.items():
                    by_row[r].append((c, cost))
                indptr = [0]
                edge_cols: list[int] = []
                edge_costs: list[float] = []
                for row_edges in by_row:
                    edge_cols += [c for c, _ in row_edges]
                    edge_costs += [cost for _, cost in row_edges]
                    indptr.append(len(edge_cols))
                solve = warm.solve_round_delta if warm_delta else warm.solve_round
                matching = [
                    MatchEdge(r, c, cost)
                    for r, c, cost in solve(
                        cloudlets, remaining_idx, indptr, edge_cols, edge_costs
                    )
                ]
            else:
                matching = min_cost_max_matching(
                    len(cloudlets), len(remaining), edges, backend=self.backend
                )
            if not matching:  # pragma: no cover - edges imply a non-empty matching
                break
            rounds += 1

            # Commit cheapest-first so a mid-round expectation stop keeps the
            # highest-gain (lowest-k) items, preserving the prefix structure.
            matching.sort(key=lambda e: e.cost)
            matched_cols: set[int] = set()
            round_placements: list[Placement] = []
            for edge in matching:
                item = remaining[edge.col]
                u = cloudlets[edge.row]
                ledger.allocate(u, item.demand, tag=f"{item.function_name}#{item.k}")
                placement = Placement.of(item, u)
                placements.append(placement)
                round_placements.append(placement)
                counts[item.position] += 1
                matched_cols.add(edge.col)
                if expectation_reached():
                    break
            remaining = [
                it for c, it in enumerate(remaining) if c not in matched_cols
            ]
            remaining_idx = [
                i for c, i in enumerate(remaining_idx) if c not in matched_cols
            ]
            if self.record_trace:
                trace.append(self._trace_entry(problem, round_placements, counts))

        return placements, rounds, trace
