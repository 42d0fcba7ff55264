"""Algorithm 1: randomized rounding of the LP relaxation (Section 5).

Steps, following the paper:

1. early exit when the admission already meets ``rho_j`` (line 2);
2. solve the LP relaxation of the ILP (line 4);
3. *exclusive* randomized rounding (line 5, after Raghavan-Thompson): for
   each item ``(i, k)`` independently, pick bin ``u`` with probability
   ``x~_{i,k,u}`` -- and no bin at all with the left-over probability
   ``1 - sum_u x~_{i,k,u}`` -- so that at most one ``x^_{i,k,u}`` is 1,
   which enforces Eq. (8) by construction;
4. the rounded set is a candidate solution "with high probability":
   capacity may be violated (Theorem 5.2 bounds the violation by a factor
   of 2 w.h.p. under its premises), and the harness *measures* the usage
   ratios rather than repairing them -- exactly what Figures 1(b)/2(b)/3(b)
   report.

Two deliberate post-steps beyond the paper's pseudocode (both count- and
objective-preserving; see DESIGN.md):

* prefix repair -- rounding may select item ``k`` without ``k' < k``; the
  selected items of each position are re-keyed to the canonical prefix
  (reliability depends only on the count, so nothing observable changes);
* expectation trim -- placements beyond ``rho_j`` are dropped, matching the
  problem's stopping rule (disable with ``stop_at_expectation=False``).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    AugmentationAlgorithm,
    early_exit_result,
    finalize_result,
)
from repro.algorithms.ilp_exact import repair_prefix
from repro.core.problem import AugmentationProblem
from repro.core.solution import AugmentationResult, AugmentationSolution
from repro.solvers.lp import LPSolution, solve_lp
from repro.solvers.model import AssignmentModel, build_model
from repro.util.rng import RandomState, as_rng
from repro.util.timing import Stopwatch


def round_exclusively(
    model: AssignmentModel,
    lp: LPSolution,
    rng: np.random.Generator,
) -> dict[tuple[int, int], int]:
    """One exclusive rounding draw: item -> bin for the selected items.

    For each item, the bin distribution is its fractional values with an
    implicit "place nowhere" outcome absorbing the remaining mass.  Values
    are renormalised only when float noise pushes their sum above 1.
    """
    assignments: dict[tuple[int, int], int] = {}
    for key, options in lp.fractional_by_item(model).items():
        bins = [u for u, _v in options]
        probs = np.asarray([v for _u, v in options], dtype=float)
        total = float(probs.sum())
        if total > 1.0:
            probs /= total
            total = 1.0
        draw = float(rng.uniform())
        cumulative = 0.0
        for u, p in zip(bins, probs):
            cumulative += p
            if draw < cumulative:
                assignments[key] = u
                break
        # draw >= total -> the item is not placed (the exclusive "no bin" outcome)
    return assignments


class RandomizedRounding(AugmentationAlgorithm):
    """Algorithm 1 of the paper.

    Parameters
    ----------
    stop_at_expectation:
        Trim overshoot beyond ``rho_j`` (default True).
    """

    name = "Randomized"

    def __init__(self, stop_at_expectation: bool = True):
        self.stop_at_expectation = stop_at_expectation

    def solve(
        self, problem: AugmentationProblem, rng: RandomState = None
    ) -> AugmentationResult:
        """Run one LP solve and one exclusive rounding draw."""
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

        gen = as_rng(rng)
        with Stopwatch() as sw:
            model = build_model(problem)
            lp = solve_lp(model)
            assignments = repair_prefix(problem, round_exclusively(model, lp, gen))
            solution = AugmentationSolution.from_assignments(problem, assignments)

        return finalize_result(
            problem,
            solution,
            algorithm=self.name,
            runtime_seconds=sw.elapsed,
            stop_at_expectation=self.stop_at_expectation,
            meta={
                "lp_gain": lp.total_gain,
                "rounded_gain": solution.total_gain,
                "num_vars": model.num_vars,
            },
        )
