"""The paper's three algorithms plus baselines.

* :class:`~repro.algorithms.ilp_exact.ILPAlgorithm` -- the exact "ILP"
  comparator of Section 4 (the aggregated model on HiGHS MILP);
* :class:`~repro.algorithms.randomized.RandomizedRounding` -- Algorithm 1,
  LP relaxation + exclusive randomized rounding (may violate capacity;
  Theorem 5.2 bounds the violation by 2x w.h.p.);
* :class:`~repro.algorithms.heuristic.MatchingHeuristic` -- Algorithm 2,
  iterative minimum-cost maximum matchings (never violates capacity);
* :mod:`~repro.algorithms.baselines` -- greedy and no-op baselines used by
  the ablation benches.

All algorithms implement the same interface: ``solve(problem, rng=None)``
returning an :class:`~repro.core.solution.AugmentationResult`.
"""

from repro.algorithms.base import AugmentationAlgorithm, finalize_result
from repro.algorithms.baselines import GreedyGain, NoAugmentation
from repro.algorithms.fallback import (
    FallbackAlgorithm,
    FallbackTier,
    default_fallback_chain,
    solve_with_timeout,
)
from repro.algorithms.heuristic import MatchingHeuristic
from repro.algorithms.ilp_exact import ILPAlgorithm
from repro.algorithms.randomized import RandomizedRounding
from repro.algorithms.repair import RepairedRandomizedRounding

__all__ = [
    "AugmentationAlgorithm",
    "FallbackAlgorithm",
    "FallbackTier",
    "GreedyGain",
    "ILPAlgorithm",
    "MatchingHeuristic",
    "NoAugmentation",
    "RandomizedRounding",
    "RepairedRandomizedRounding",
    "default_fallback_chain",
    "finalize_result",
    "solve_with_timeout",
]
