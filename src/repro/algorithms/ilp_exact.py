"""The exact "ILP" comparator (Section 4.4).

Builds the symmetry-free aggregated model of the ILP of Eqs. (8)-(13)
(:func:`repro.solvers.model.build_aggregated_model`), solves it to proven
optimality with HiGHS, decodes the selected items, and -- matching the
problem's "until its reliability expectation is reached" semantics --
trims any overshoot beyond ``rho_j`` (see DESIGN.md section 1 and
:func:`repro.core.solution.trim_to_expectation`).

By Lemma 4.2 the exact optimum selects, for every chain position, a prefix
``k = 1..m_i`` of that position's items; the aggregated decode assigns
exactly that prefix.  :func:`repair_prefix` converts any other selection
into the canonical prefix form without changing counts, bins, or the
objective; the heuristic, Algorithm 1 and the repair pass call it.
"""

from __future__ import annotations

from repro.algorithms.base import (
    AugmentationAlgorithm,
    early_exit_result,
    finalize_result,
)
from repro.core.problem import AugmentationProblem
from repro.core.solution import AugmentationResult, AugmentationSolution
from repro.solvers.ilp import solve_ilp_aggregated
from repro.solvers.model import build_aggregated_model
from repro.util.rng import RandomState
from repro.util.timing import Stopwatch


def repair_prefix(
    problem: AugmentationProblem, assignments: dict[tuple[int, int], int]
) -> dict[tuple[int, int], int]:
    """Re-key each position's selected items to the prefix ``k = 1..m_i``.

    Selected bins are preserved in increasing-``k`` order; only the ``k``
    labels shift down.  Since all items of one position share bins and
    demand, the repaired assignment is feasible whenever the input was, has
    the same per-position counts (hence identical reliability), and weakly
    improves the gain objective (Lemma 4.2's exchange argument).
    """
    by_pos: dict[int, list[tuple[int, int]]] = {}
    for (pos, k), bin_ in assignments.items():
        by_pos.setdefault(pos, []).append((k, bin_))
    repaired: dict[tuple[int, int], int] = {}
    for pos, entries in by_pos.items():
        entries.sort()
        for new_k, (_old_k, bin_) in enumerate(entries, start=1):
            repaired[(pos, new_k)] = bin_
    return repaired


class ILPAlgorithm(AugmentationAlgorithm):
    """Exact augmentation by integer linear programming.

    Solves the aggregated reformulation (gain steps + per-bin counts),
    whose optimum equals the literal per-(item, bin) model's with none of
    its bin symmetry.

    Parameters
    ----------
    stop_at_expectation:
        Trim placements beyond ``rho_j`` (default True -- the problem
        statement's stopping rule).
    """

    name = "ILP"

    def __init__(self, stop_at_expectation: bool = True):
        self.stop_at_expectation = stop_at_expectation

    def solve(
        self, problem: AugmentationProblem, rng: RandomState = None
    ) -> AugmentationResult:
        """Solve one instance to optimality.  ``rng`` is ignored."""
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
            model = build_aggregated_model(problem)
            ilp = solve_ilp_aggregated(model)
            solution = AugmentationSolution.from_assignments(
                problem, ilp.assignments
            )

        return finalize_result(
            problem,
            solution,
            algorithm=self.name,
            runtime_seconds=sw.elapsed,
            stop_at_expectation=self.stop_at_expectation,
            meta={
                "optimal_gain": ilp.total_gain,
                "num_vars": model.num_vars,
                **ilp.meta,
            },
        )
