"""Solver fallback chain: graceful degradation under time pressure.

A production stream cannot afford a solver that hangs or crashes on one
request: Section 7's ILP already takes hundreds of milliseconds at chain
length 20, and a pathological instance (or a solver bug) would stall every
request behind it.  :class:`FallbackAlgorithm` wraps an ordered list of
tiers -- by default exact first, cheapest last::

    ILP (HiGHS)  ->  matching heuristic  ->  greedy

Each tier gets a per-solve wall-clock budget; a tier that times out or
raises is skipped and the next (cheaper, more robust) tier serves the
request.  The tier that produced the result is recorded in
``result.meta["fallback_tier"]`` / ``["fallback_algorithm"]`` so operators
can see *how* each request was served instead of discovering degradation
through tail latency.  Only when every tier fails does the chain raise
:class:`~repro.util.errors.FallbackExhaustedError` -- which the resilient
stream converts into a no-augmentation outcome rather than propagating.

Timeouts run the solve on a worker thread and abandon it on expiry: the
chain moves on at the timeout, so a tier's budget bounds its latency.
That is safe here because every algorithm is pure with respect to shared
state: solvers read the immutable :class:`AugmentationProblem` and
scribble only on their own fresh
:meth:`~repro.core.problem.AugmentationProblem.ledger`, so an abandoned
solve can never corrupt the stream's ledger.  The worker is not a daemon:
interpreter exit waits for an abandoned solve to return.  A daemon worker
still inside native HiGHS code when the interpreter tears down aborts the
process (``terminate called without an active exception``, exit code 134)
instead of exiting cleanly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from repro.algorithms.base import AugmentationAlgorithm
from repro.core.problem import AugmentationProblem
from repro.core.solution import AugmentationResult
from repro.util.errors import (
    FallbackExhaustedError,
    SolveTimeoutError,
    ValidationError,
)
from repro.util.rng import RandomState


@dataclass(frozen=True)
class FallbackTier:
    """One rung of the degradation ladder.

    Attributes
    ----------
    algorithm:
        The algorithm serving this tier.
    timeout:
        Wall-clock budget in seconds for one solve; ``None`` means
        unlimited (appropriate for the terminal tier, which must always
        answer).
    """

    algorithm: AugmentationAlgorithm
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValidationError(f"tier timeout must be positive, got {self.timeout}")


def solve_with_timeout(
    algorithm: AugmentationAlgorithm,
    problem: AugmentationProblem,
    rng: RandomState = None,
    timeout: float | None = None,
) -> AugmentationResult:
    """Run one solve under a wall-clock budget.

    ``timeout=None`` calls the algorithm inline (no thread).  Otherwise the
    solve runs on a worker thread; expiry raises
    :class:`~repro.util.errors.SolveTimeoutError` and the thread is
    abandoned (it finishes in the background and its result is discarded
    -- safe because solves never touch shared state).  The worker is not a
    daemon, so interpreter exit waits for an abandoned solve to return
    rather than tearing the interpreter down under a native solver.
    """
    if timeout is None:
        return algorithm.solve(problem, rng=rng)
    outcome: list[tuple[bool, object]] = []

    def run() -> None:
        try:
            outcome.append((True, algorithm.solve(problem, rng=rng)))
        except BaseException as exc:  # noqa: BLE001 -- re-raised on the caller
            outcome.append((False, exc))

    worker = threading.Thread(target=run, name=f"solve:{algorithm.name}")
    worker.start()
    worker.join(timeout)
    if not outcome:
        raise SolveTimeoutError(
            f"{algorithm.name} exceeded its {timeout:.3f}s wall-clock budget"
        )
    ok, payload = outcome[0]
    if not ok:
        raise payload  # type: ignore[misc]
    return payload  # type: ignore[return-value]


class FallbackAlgorithm(AugmentationAlgorithm):
    """Try each tier in order; serve from the first that answers in time.

    The returned result is the winning tier's, with three metadata keys
    stamped on top:

    * ``fallback_tier`` -- 0-based index of the serving tier;
    * ``fallback_algorithm`` -- the serving algorithm's name;
    * ``fallback_failures`` -- ``(tier_name, error)`` pairs for every tier
      that was tried and failed before the winner.

    Raises :class:`FallbackExhaustedError` only when *every* tier failed.
    """

    def __init__(self, tiers: list[FallbackTier] | tuple[FallbackTier, ...]):
        if not tiers:
            raise ValidationError("a fallback chain needs at least one tier")
        self.tiers = tuple(tiers)
        self.name = "Fallback[" + ">".join(t.algorithm.name for t in self.tiers) + "]"

    @property
    def terminal(self) -> AugmentationAlgorithm:
        """The last (cheapest, always-answering) tier's algorithm.

        Degradation layers -- notably the chaos circuit breaker
        (:mod:`repro.chaos.breaker`) -- serve from this tier directly while
        the breaker is open, skipping the expensive tiers and their
        timeouts entirely.
        """
        return self.tiers[-1].algorithm

    def solve_terminal(
        self, problem: AugmentationProblem, rng: RandomState = None
    ) -> AugmentationResult:
        """Solve with the terminal tier only (the degraded service path).

        No timeout thread is involved: the terminal tier is expected to be
        cheap and deterministic.  The result carries the same fallback
        metadata keys as :meth:`solve`, plus ``fallback_degraded=True`` so
        reports can distinguish breaker-degraded serves from a normally
        exhausted chain.
        """
        index = len(self.tiers) - 1
        result = self.terminal.solve(problem, rng=rng)
        return replace(
            result,
            meta={
                **result.meta,
                "fallback_tier": index,
                "fallback_algorithm": self.terminal.name,
                "fallback_failures": (),
                "fallback_degraded": True,
            },
        )

    def solve(
        self, problem: AugmentationProblem, rng: RandomState = None
    ) -> AugmentationResult:
        failures: list[tuple[str, str]] = []
        for index, tier in enumerate(self.tiers):
            try:
                result = solve_with_timeout(
                    tier.algorithm, problem, rng=rng, timeout=tier.timeout
                )
            except Exception as exc:  # noqa: BLE001 -- each tier must be contained
                failures.append((tier.algorithm.name, f"{type(exc).__name__}: {exc}"))
                continue
            return replace(
                result,
                meta={
                    **result.meta,
                    "fallback_tier": index,
                    "fallback_algorithm": tier.algorithm.name,
                    "fallback_failures": tuple(failures),
                },
            )
        raise FallbackExhaustedError(failures)


def default_fallback_chain(
    ilp_timeout: float | None = 2.0,
    heuristic_timeout: float | None = 0.5,
) -> FallbackAlgorithm:
    """The standard ladder: exact -> heuristic -> greedy.

    The greedy terminal tier has no timeout: it is O(items log items) and
    must always produce *an* answer so the stream never starves.
    """
    from repro.algorithms.baselines import GreedyGain
    from repro.algorithms.heuristic import MatchingHeuristic
    from repro.algorithms.ilp_exact import ILPAlgorithm

    return FallbackAlgorithm(
        [
            FallbackTier(ILPAlgorithm(), timeout=ilp_timeout),
            FallbackTier(MatchingHeuristic(), timeout=heuristic_timeout),
            FallbackTier(GreedyGain(), timeout=None),
        ]
    )
