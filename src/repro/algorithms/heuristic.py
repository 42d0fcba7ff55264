"""Algorithm 2: iterative minimum-cost maximum matchings (Section 6).

The heuristic augments the request round by round.  Round ``l`` builds the
bipartite graph ``G_l = (V', I, E_l; c)``:

* left side ``V'``: cloudlets with positive residual capacity;
* right side ``I``: the still-unplaced items;
* edge ``(u, I_{i,k})`` whenever ``u in N_l^+(v_i)`` (the item's allowed
  bins) and ``C'_u >= c(f_i)`` at the current residuals, with the paper's
  cost ``c(f_i, k, u)``.

A minimum-cost *maximum* matching (Hungarian; see :mod:`repro.matching`)
places at most one item per cloudlet per round; matched placements are
committed against strict residuals (no violation is ever possible --
Theorem 6.2), matched items leave ``I``, and the next round's graph is
built on the updated residuals.

:class:`repro.matching.incremental.RoundState` maintains the per-round
graph across rounds by applying deltas -- matched items leave, and only
cloudlets whose residual crossed a ``c(f_i)`` threshold lose edges -- and
one padded matrix buffer serves every round of a solve.  It also commits
the placements: :meth:`~repro.matching.incremental.RoundState.allocate`
keeps per-node used sums with the test and the floats of a
:class:`~repro.netmodel.capacity.CapacityLedger` over the problem's
residuals.  The original loop that rebuilds ``G_l`` from such a ledger
every round is kept in
``tests/reference/rebuild.py``; the differential suites
(``tests/test_matching_incremental.py`` and others) prove the two
identical placement by placement, round by round.

The loop stops when the achieved reliability reaches the expectation
``rho_j`` or no edges remain.

On the stopping rule: the paper's pseudocode tests the *paper-cost* total
``c(S) < C`` against the budget ``C = -log rho_j``.  With the cost scale of
Eq. (3) (a single backup of an ``r = 0.85`` function already costs
``-log(0.1275) ~= 2.06`` against a typical budget of ``-log 0.95 ~= 0.05``)
that literal test would stop after the first item and could not produce the
reliabilities the paper's figures report.  We therefore use the equivalent
*reliability-space* stopping rule -- stop once ``u_j >= rho_j`` -- which is
what the budget is meant to encode (Ineq. 2).  The literal ``c(S)`` total
is still tracked and reported in the result metadata.

Waves
-----
:meth:`MatchingHeuristic.solve_wave` runs the incremental rounds for
several problems on one shared ledger; :meth:`~MatchingHeuristic.solve` is
the wave of one, and the streaming admission service
(:mod:`repro.service.batch`) solves its waves this way.  Each problem's
share of a wave is bit-identical to its solo solve (*component locality*):
its cloudlets are disjoint from the other problems', so every round graph
is the disjoint union of the problems' own graphs plus isolated rows,
which match their dummy columns harmlessly; with the warm solver's
dummy-cost base pinned above every problem's edge-cost sum, matching,
tie-breaking and duals restricted to one component are those of its solo
solve; and each problem keeps its own round count, expectation stop and
``max_rounds`` bound, retiring when it has no edge left.  The dense and
sparse backends derive tie-breaking from the padded square matrix, which
is not component-local, so only ``"warm"`` solves waves of several.
"""

from __future__ import annotations

import math
from operator import attrgetter, itemgetter
from typing import NamedTuple, Sequence

from repro.algorithms.base import (
    AugmentationAlgorithm,
    early_exit_result,
    finalize_result,
)
from repro.algorithms.ilp_exact import repair_prefix
from repro.core.problem import AugmentationProblem
from repro.core.solution import AugmentationResult, AugmentationSolution, Placement
from repro.matching.incremental import RoundState, edge_cost_sum
from repro.matching.mincost import (
    MatchingWorkspace,
    min_cost_max_matching_arrays,
    resolve_backend,
)
from repro.matching.warmstart import warm_delta_enabled
from repro.util.errors import ValidationError
from repro.util.rng import RandomState
from repro.util.timing import Stopwatch


_COST = itemgetter(2)
_POSITION_K = attrgetter("position", "k")


class WaveOutcome(NamedTuple):
    """One problem's share of :meth:`MatchingHeuristic.solve_wave`: its
    placements as per-position prefixes (before the expectation
    trim), the rounds in which it placed an item, and its per-round trace
    (``record_trace=True`` only)."""

    solution: AugmentationSolution
    rounds: int
    trace: list[dict[str, object]]


class _Progress:
    """One problem's running state inside the incremental round loop."""

    __slots__ = ("problem", "meets", "ladders", "counts", "factors",
                 "placements", "rounds", "trace")

    def __init__(
        self, problem: AugmentationProblem, ladders: tuple[tuple[float, ...], ...]
    ) -> None:
        self.problem = problem
        self.meets = problem.request.meets_expectation
        self.ladders = ladders
        self.counts = [0] * len(ladders)
        # Current per-position reliability factors R_i(counts[i]); their
        # left-to-right product (math.prod) is bit-identical to
        # problem.reliability_from_counts(counts).
        self.factors = [ladder[0] for ladder in ladders]
        self.placements: list[Placement] = []
        self.rounds = 0
        self.trace: list[dict[str, object]] = []


class MatchingHeuristic(AugmentationAlgorithm):
    """Algorithm 2 of the paper.

    Parameters
    ----------
    backend:
        Matching backend: ``"auto"`` (default: dense below the sparse
        cutoff, sparse above -- per round) or a
        :data:`repro.matching.mincost.BACKENDS` name (``"scipy"``,
        ``"sparse"``, ``"warm"``).  ``"warm"`` runs the dual-reusing round
        solver of :mod:`repro.matching.warmstart`, carrying dual potentials
        across rounds within each solve.
    stop_at_expectation:
        Stop matching rounds once ``rho_j`` is reached and trim any
        overshoot from the final round (default True).  When False the
        heuristic packs until no edge remains (the resource-exhaustion
        regime of Fig. 3's scarce-capacity points).
    max_rounds:
        Safety bound on matching rounds; the paper's analysis gives
        ``O(log N)`` rounds, so the default is generous.
    record_trace:
        Record a per-round trace (placements, cumulative paper cost,
        reliability) in ``result.meta["round_trace"]`` -- used by the
        differential tests; off by default to keep results lightweight.
    universe_cost_sum:
        Warm backend only: pin the dummy-cost base ``B - 1`` (see
        :func:`repro.matching.incremental.warm_solver_for`) instead of
        deriving it from each solve's edge universe.  Required for waves of
        several problems, each of whose edge-cost sums must stay below it.
    """

    name = "Heuristic"

    def __init__(
        self,
        backend: str = "auto",
        stop_at_expectation: bool = True,
        max_rounds: int = 10_000,
        record_trace: bool = False,
        universe_cost_sum: float | None = None,
    ):
        self.backend = resolve_backend(backend)
        self.stop_at_expectation = stop_at_expectation
        self.max_rounds = max_rounds
        self.record_trace = record_trace
        self.universe_cost_sum = universe_cost_sum

    def solve(
        self, problem: AugmentationProblem, rng: RandomState = None
    ) -> AugmentationResult:
        """Run the matching rounds.  ``rng`` is ignored (deterministic)."""
        if problem.baseline_meets_expectation:
            return early_exit_result(problem, self.name)
        if not problem.items:
            return finalize_result(
                problem,
                AugmentationSolution.empty(),
                algorithm=self.name,
                runtime_seconds=0.0,
                stop_at_expectation=False,
                meta={"no_items": True},
            )

        with Stopwatch() as sw:
            (outcome,) = self._solve_rounds([problem])

        meta: dict[str, object] = {
            "rounds": outcome.rounds,
            "paper_cost_total": outcome.solution.total_cost,
            "matching_backend": self.backend,  # "auto" concretises per round
        }
        if self.record_trace:
            meta["round_trace"] = outcome.trace
        return finalize_result(
            problem,
            outcome.solution,
            algorithm=self.name,
            runtime_seconds=sw.elapsed,
            stop_at_expectation=self.stop_at_expectation,
            meta=meta,
        )

    def solve_wave(self, problems: Sequence[AugmentationProblem]) -> list[WaveOutcome]:
        """Run Algorithm 2's rounds for ``problems`` on one shared ledger.

        Returns one :class:`WaveOutcome` per problem, in order: what
        :meth:`solve` assembles before the expectation trim and the usage
        statistics.  A problem whose baseline meets ``rho_j``, or that has
        no items, takes no round.  Several problems (see the module
        docstring) need the warm backend, a pinned ``universe_cost_sum``
        above each one's edge-cost sum, one shared residual snapshot and
        pairwise-disjoint cloudlets, else
        :class:`~repro.util.errors.ValidationError`.
        """
        if len(problems) > 1:
            self._check_wave(problems)
        outcomes = [WaveOutcome(AugmentationSolution.empty(), 0, []) for _ in problems]
        todo = [
            i for i, problem in enumerate(problems)
            if problem.items and not problem.baseline_meets_expectation
        ]
        if todo:
            solved = self._solve_rounds([problems[i] for i in todo])
            for i, outcome in zip(todo, solved):
                outcomes[i] = outcome
        return outcomes

    # -- internals ----------------------------------------------------------------
    def _check_wave(self, problems: Sequence[AugmentationProblem]) -> None:
        if self.backend != "warm":
            raise ValidationError(
                "a wave of several problems needs the warm backend, "
                f"got {self.backend!r}"
            )
        cap, residuals = self.universe_cost_sum, problems[0].residuals
        for problem in problems:
            if problem.residuals is not residuals and problem.residuals != residuals:
                raise ValidationError("a wave's problems must share one residual snapshot")
            if cap is None or edge_cost_sum(problem) >= cap:
                raise ValidationError(
                    "a wave needs universe_cost_sum pinned above every problem's "
                    f"edge-cost sum, got {cap!r}"
                )

    def _solve_rounds(
        self, problems: Sequence[AugmentationProblem]
    ) -> list[WaveOutcome]:
        """Run the rounds and key each problem's placements as prefixes."""
        outcomes = []
        for problem, (placements, rounds, trace) in zip(
            problems, self._run_rounds(problems)
        ):
            solution = AugmentationSolution(
                tuple(sorted(placements, key=_POSITION_K))
            )
            if not solution.is_prefix_per_position():
                # Re-key to canonical per-position prefixes.  Lemma 4.1's
                # strictly increasing costs make every round match and commit
                # the lowest remaining k of a position first, so only costs
                # tied across k can leave e.g. k=2 committed without k=1.
                assignments = repair_prefix(
                    problem, {(p.position, p.k): p.bin for p in placements}
                )
                solution = AugmentationSolution.from_assignments(problem, assignments)
            outcomes.append(WaveOutcome(solution, rounds, trace))
        return outcomes

    def _trace_entry(
        self,
        problem: AugmentationProblem,
        round_placements: list[Placement],
        counts: list[int],
    ) -> dict[str, object]:
        return {
            "placed": tuple((p.position, p.k, p.bin) for p in round_placements),
            "paper_cost": sum(p.cost for p in round_placements),
            "reliability": problem.reliability_from_counts(counts),
        }

    def _run_rounds(
        self, problems: Sequence[AugmentationProblem]
    ) -> list[tuple[list[Placement], int, list[dict[str, object]]]]:
        """The round loop: delta-maintained ``G_l``, one buffer per solve.

        Each round solves the union graph of the problems still active, then
        commits every problem's matches cheapest-first, stopping mid-round
        once that problem meets its expectation (a solo solve is a wave of
        one)."""
        state = RoundState(problems)
        workspace = MatchingWorkspace()
        # The warm solver must outlive the round loop (its duals carry
        # between rounds), so it cannot live behind the stateless
        # min_cost_max_matching_arrays interface.
        warm = (
            state.warm_solver(universe_cost_sum=self.universe_cost_sum)
            if self.backend == "warm"
            else None
        )
        warm_delta = warm_delta_enabled() if warm is not None else False
        items = state.items
        owners = state.owners
        members = [
            _Progress(problem, ladders)
            for problem, ladders in zip(problems, state.reliability_ladders)
        ]
        stop_at_expectation = self.stop_at_expectation
        max_rounds = self.max_rounds
        prod = math.prod
        allocate = state.allocate

        while True:
            # A problem leaves the rounds at its round bound or once it
            # meets its expectation, exactly where its solo loop would stop.
            for m in list(state.active):
                progress = members[m]
                if progress.rounds >= max_rounds or (
                    stop_at_expectation and progress.meets(prod(progress.factors))
                ):
                    state.retire(m)
            if not state.active:
                break

            if warm is not None:
                rows, cols, indptr, edge_cols, edge_costs = state.build_csr()
            else:
                rows, cols, edge_rows, edge_cols, edge_costs = state.build_edges()
            # A problem with no live edge can make no further progress (its
            # solo loop would break here): retire it, and rebuild so the
            # graph covers exactly the problems still solving.
            stalled = state.stalled()
            if stalled:
                for m in stalled:
                    state.retire(m)
                continue

            # Matched ``(row, col, cost)`` triples in round-local indices.
            if warm is not None:
                if warm_delta:
                    # Delta re-solve: keep still-valid pairs from the last
                    # round, re-augment only orphaned rows.
                    matching = warm.solve_round_delta(
                        rows, cols, indptr, edge_cols, edge_costs
                    )
                else:
                    matching = warm.solve_round(
                        rows, cols, indptr, edge_cols, edge_costs
                    )
            else:
                matching = [
                    (edge.row, edge.col, edge.cost)
                    for edge in min_cost_max_matching_arrays(
                        len(rows), len(cols), edge_rows, edge_cols, edge_costs,
                        backend=self.backend, workspace=workspace,
                    )
                ]
            if not matching:  # pragma: no cover - edges imply a non-empty matching
                break

            # Commit cheapest-first so a mid-round expectation stop keeps the
            # highest-gain (lowest-k) items, preserving the prefix structure.
            # The stable sort keeps emission order (by local row) among equal
            # costs, which restricted to one problem is its solo order.
            matching.sort(key=_COST)
            if owners is None:
                buckets = [matching]
            else:
                buckets = [[] for _ in members]
                for edge in matching:
                    buckets[owners[cols[edge[1]]]].append(edge)
            matched_indices: list[int] = []
            for progress, bucket in zip(members, buckets):
                if not bucket:
                    continue
                progress.rounds += 1
                ladders = progress.ladders
                counts = progress.counts
                factors = progress.factors
                round_placements: list[Placement] = []
                for row, col, _cost in bucket:
                    item_index = cols[col]
                    item = items[item_index]
                    u = rows[row]
                    allocate(u, item.demand)
                    placement = Placement.of(item, u)
                    progress.placements.append(placement)
                    round_placements.append(placement)
                    position = item.position
                    counts[position] += 1
                    factors[position] = ladders[position][counts[position]]
                    matched_indices.append(item_index)
                    if stop_at_expectation and progress.meets(prod(factors)):
                        break
                if self.record_trace:
                    progress.trace.append(
                        self._trace_entry(progress.problem, round_placements, counts)
                    )
            state.apply_round(matched_indices)

        return [(m.placements, m.rounds, m.trace) for m in members]
