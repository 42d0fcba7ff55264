"""Solution and result records shared by all algorithms.

An :class:`AugmentationSolution` is a set of committed placements
``(position, k) -> cloudlet``.  Request reliability depends only on the
*count* of backups per position (Eq. 1), so the solution exposes
:meth:`backup_counts` and derives reliability through the problem's
reliability algebra; the per-item ``k`` and bin assignments additionally
carry the locality/capacity structure that validation re-checks.

An :class:`AugmentationResult` wraps a solution with the measurements the
paper's figures report: achieved reliability, runtime, and -- for the
randomized algorithm -- capacity usage ratios and violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.items import BackupItem, reliability_ladder
from repro.core.problem import AugmentationProblem
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class Placement:
    """One committed secondary placement: item ``(position, k)`` on ``bin``."""

    position: int
    k: int
    bin: int
    demand: float
    gain: float
    cost: float

    @classmethod
    def of(cls, item: BackupItem, bin_: int) -> "Placement":
        """Build a placement of ``item`` onto cloudlet ``bin_``."""
        return cls(
            position=item.position,
            k=item.k,
            bin=bin_,
            demand=item.demand,
            gain=item.gain,
            cost=item.cost,
        )


@dataclass(frozen=True)
class AugmentationSolution:
    """An (attempted) solution: the committed secondary placements.

    The empty solution is always valid -- it corresponds to "no augmentation
    possible/needed" and reports the baseline reliability.
    """

    placements: tuple[Placement, ...]

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        for p in self.placements:
            key = (p.position, p.k)
            if key in seen:
                raise ValidationError(f"duplicate placement of item {key}")
            seen.add(key)

    @classmethod
    def empty(cls) -> "AugmentationSolution":
        """The no-op solution."""
        return cls(placements=())

    @classmethod
    def from_assignments(
        cls,
        problem: AugmentationProblem,
        assignments: Mapping[tuple[int, int], int],
    ) -> "AugmentationSolution":
        """Build from a ``(position, k) -> bin`` mapping over problem items."""
        placements = []
        index = {(it.position, it.k): it for it in problem.items}
        for key, bin_ in assignments.items():
            try:
                item = index[key]
            except KeyError:
                raise ValidationError(f"assignment references unknown item {key}") from None
            placements.append(Placement.of(item, bin_))
        placements.sort(key=lambda p: (p.position, p.k))
        return cls(tuple(placements))

    # -- aggregation ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.placements)

    def backup_counts(self, chain_length: int) -> list[int]:
        """Number of placed backups per chain position."""
        counts = [0] * chain_length
        for p in self.placements:
            if not (0 <= p.position < chain_length):
                raise ValidationError(
                    f"placement position {p.position} outside chain of length {chain_length}"
                )
            counts[p.position] += 1
        return counts

    def bin_loads(self) -> dict[int, float]:
        """Total demand placed per cloudlet."""
        loads: dict[int, float] = {}
        for p in self.placements:
            loads[p.bin] = loads.get(p.bin, 0.0) + p.demand
        return loads

    @property
    def total_gain(self) -> float:
        """Sum of placed item gains (the solver objective)."""
        return sum(p.gain for p in self.placements)

    @property
    def total_cost(self) -> float:
        """Sum of placed paper costs ``c(f_i, k, u)`` -- the ``c(S)`` of Alg. 2."""
        return sum(p.cost for p in self.placements)

    def reliability(self, problem: AugmentationProblem) -> float:
        """Achieved request reliability ``u_j`` under this solution."""
        return problem.reliability_from_counts(
            self.backup_counts(problem.request.chain.length)
        )

    def is_prefix_per_position(self) -> bool:
        """Lemma 4.2 structure: per position, placed ``k`` values are 1..m_i."""
        by_pos: dict[int, list[int]] = {}
        for p in self.placements:
            by_pos.setdefault(p.position, []).append(p.k)
        for ks in by_pos.values():
            ks.sort()
            if ks != list(range(1, len(ks) + 1)):
                return False
        return True

    def restricted_to(self, keys: set[tuple[int, int]]) -> "AugmentationSolution":
        """Sub-solution keeping only placements whose ``(position, k)`` is in ``keys``."""
        return AugmentationSolution(
            tuple(p for p in self.placements if (p.position, p.k) in keys)
        )


@dataclass(frozen=True)
class AugmentationResult:
    """What an algorithm run reports -- the unit the figures aggregate.

    Attributes
    ----------
    algorithm:
        Algorithm label (``"ILP"``, ``"Randomized"``, ``"Heuristic"``, ...).
    solution:
        The committed placements.
    reliability:
        Achieved request reliability ``u_j``.
    runtime_seconds:
        Wall-clock time of the algorithm (model build + solve).
    expectation_met:
        Whether ``u_j >= rho_j``.
    usage_mean, usage_min, usage_max:
        Cloudlet capacity usage ratios over cloudlets (Figures 1b/2b/3b);
        ratios are ``used / initial-residual`` and may exceed 1.0 for the
        randomized algorithm.
    violations:
        Cloudlet -> capacity excess for violated cloudlets (empty for the
        exact and heuristic algorithms).
    meta:
        Algorithm-specific extras (LP optimum, matching rounds, MIP gap...).
    """

    algorithm: str
    solution: AugmentationSolution
    reliability: float
    runtime_seconds: float
    expectation_met: bool
    usage_mean: float = 0.0
    usage_min: float = 0.0
    usage_max: float = 0.0
    violations: Mapping[int, float] = field(default_factory=dict)
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 <= self.reliability <= 1.0 + 1e-9):
            raise ValidationError(f"reliability out of range: {self.reliability}")
        if self.runtime_seconds < 0:
            raise ValidationError(f"negative runtime: {self.runtime_seconds}")

    @property
    def num_backups(self) -> int:
        """Total secondaries placed."""
        return len(self.solution)

    @property
    def has_violations(self) -> bool:
        """Whether any cloudlet capacity was exceeded."""
        return bool(self.violations)

    def summary(self) -> str:
        """One-line human summary for logs and example output."""
        parts = [
            f"{self.algorithm}:",
            f"reliability={self.reliability:.4f}",
            f"backups={self.num_backups}",
            f"time={self.runtime_seconds * 1e3:.2f}ms",
            f"met={self.expectation_met}",
        ]
        if self.has_violations:
            parts.append(f"violated={len(self.violations)} cloudlets")
        return " ".join(parts)


def describe_solution(
    problem: AugmentationProblem, solution: AugmentationSolution
) -> str:
    """Multi-line human-readable placement report.

    One line per chain position: function name, primary cloudlet, backup
    count, and the cloudlets hosting the backups -- the view the examples
    print after augmenting a request.
    """
    counts = solution.backup_counts(problem.request.chain.length)
    lines = []
    for position, func in enumerate(problem.request.chain):
        bins = sorted(
            p.bin for p in solution.placements if p.position == position
        )
        lines.append(
            f"{func.name:<12} primary@{problem.primary_placement[position]:<4} "
            f"backups={counts[position]} on {bins}"
        )
    reliability = solution.reliability(problem)
    lines.append(
        f"chain reliability {reliability:.4f} "
        f"(expectation {problem.request.expectation:.4f}, "
        f"met: {problem.request.meets_expectation(reliability)})"
    )
    return "\n".join(lines)


def trim_to_expectation(
    problem: AugmentationProblem, solution: AugmentationSolution
) -> AugmentationSolution:
    """Drop surplus placements while keeping ``u_j >= rho_j``.

    The paper's algorithms stop augmenting once the expectation is reached;
    an unconstrained gain-maximiser may overshoot.  This post-pass removes
    placements in increasing-gain-contribution order (highest ``k`` of each
    position first, which is the lowest marginal gain by Lemma 4.1's
    monotonicity) for as long as reliability stays at or above ``rho_j``.
    If the solution never reaches the expectation it is returned unchanged.

    Each candidate reliability is the left-to-right product (``math.prod``)
    of the per-position factors ``R_i(m_i)`` read off
    :func:`~repro.core.items.reliability_ladder`: the same floats multiplied
    in the same order as :meth:`AugmentationProblem.reliability_from_counts`,
    so every decision is the one the scalar recomputation makes.
    """
    chain_length = problem.request.chain.length
    counts = solution.backup_counts(chain_length)
    ladders = [
        reliability_ladder(r, k) for r, k in zip(problem.reliabilities, counts)
    ]
    factors = [ladder[-1] for ladder in ladders]
    meets = problem.request.meets_expectation
    prod = math.prod
    if not meets(prod(factors)):
        return solution

    # Iteratively remove the single placement with the smallest reliability
    # loss that keeps us at/above the expectation.
    while True:
        best_pos = -1
        best_rel = -math.inf
        for i in range(chain_length):
            k = counts[i]
            if k == 0:
                continue
            factors[i] = ladders[i][k - 1]
            rel = prod(factors)
            factors[i] = ladders[i][k]
            if meets(rel) and rel > best_rel:
                best_rel = rel
                best_pos = i
        if best_pos < 0:
            break
        counts[best_pos] -= 1
        factors[best_pos] = ladders[best_pos][counts[best_pos]]

    # Keep the lowest-k placements of each position (they carry the largest
    # gains per Lemma 4.1), so prefix solutions stay prefixes after the trim.
    by_pos: dict[int, list[Placement]] = {}
    for p in solution.placements:
        by_pos.setdefault(p.position, []).append(p)
    kept: list[Placement] = []
    for i, group in by_pos.items():
        group.sort(key=lambda p: p.k)
        kept.extend(group[: counts[i]])
    return AugmentationSolution(tuple(kept))
