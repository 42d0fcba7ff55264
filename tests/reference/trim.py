"""The expectation trim with a scalar reliability per candidate, reference for the ladder trim.

:func:`scalar_trim_to_expectation` is
:func:`repro.core.solution.trim_to_expectation` as it first shipped: every
candidate removal recomputes the whole chain through
:meth:`AugmentationProblem.reliability_from_counts`.  The production trim
reads the factors off :func:`repro.core.items.reliability_ladder` and
multiplies them in the same order, so both must keep the same placements
(``tests/test_round_invariants.py``).
"""

from __future__ import annotations

import math

from repro.core.problem import AugmentationProblem
from repro.core.solution import AugmentationSolution, Placement


def scalar_trim_to_expectation(
    problem: AugmentationProblem, solution: AugmentationSolution
) -> AugmentationSolution:
    """Drop surplus placements while keeping ``u_j >= rho_j``."""
    chain_length = problem.request.chain.length
    counts = solution.backup_counts(chain_length)
    if not problem.request.meets_expectation(problem.reliability_from_counts(counts)):
        return solution
    while True:
        best_pos = -1
        best_rel = -math.inf
        for i in range(chain_length):
            if counts[i] == 0:
                continue
            counts[i] -= 1
            rel = problem.reliability_from_counts(counts)
            counts[i] += 1
            if problem.request.meets_expectation(rel) and rel > best_rel:
                best_rel = rel
                best_pos = i
        if best_pos < 0:
            break
        counts[best_pos] -= 1
    by_pos: dict[int, list[Placement]] = {}
    for p in solution.placements:
        by_pos.setdefault(p.position, []).append(p)
    kept: list[Placement] = []
    for i, group in by_pos.items():
        group.sort(key=lambda p: p.k)
        kept.extend(group[: counts[i]])
    return AugmentationSolution(tuple(kept))
