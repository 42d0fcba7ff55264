"""Tests for the solver fallback chain."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.algorithms.baselines import GreedyGain
from repro.algorithms.base import AugmentationAlgorithm
from repro.algorithms.fallback import (
    FallbackAlgorithm,
    FallbackTier,
    default_fallback_chain,
    solve_with_timeout,
)
from repro.algorithms.heuristic import MatchingHeuristic
from repro.util.errors import (
    FallbackExhaustedError,
    SolveTimeoutError,
    ValidationError,
)


class CrashingSolver(AugmentationAlgorithm):
    """Always raises -- models a solver bug or an infeasible backend."""

    name = "Crash"

    def __init__(self, exc: Exception | None = None):
        self.exc = exc or RuntimeError("backend exploded")
        self.calls = 0

    def solve(self, problem, rng=None):
        self.calls += 1
        raise self.exc


class SlowSolver(AugmentationAlgorithm):
    """Sleeps past any reasonable test timeout -- models a hung solve."""

    name = "Slow"

    def __init__(self, delay: float = 5.0):
        self.delay = delay

    def solve(self, problem, rng=None):
        time.sleep(self.delay)
        return MatchingHeuristic().solve(problem, rng=rng)


class TestFallbackTier:
    def test_invalid_timeout(self):
        with pytest.raises(ValidationError):
            FallbackTier(GreedyGain(), timeout=0.0)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValidationError):
            FallbackAlgorithm([])


class TestFallbackChain:
    def test_first_tier_serves_when_healthy(self, small_problem):
        chain = FallbackAlgorithm(
            [FallbackTier(MatchingHeuristic()), FallbackTier(GreedyGain())]
        )
        result = chain.solve(small_problem)
        assert result.meta["fallback_tier"] == 0
        assert result.meta["fallback_algorithm"] == "Heuristic"
        assert result.meta["fallback_failures"] == ()

    def test_crash_degrades_to_next_tier(self, small_problem):
        crash = CrashingSolver()
        chain = FallbackAlgorithm(
            [FallbackTier(crash), FallbackTier(MatchingHeuristic())]
        )
        result = chain.solve(small_problem)
        assert crash.calls == 1
        assert result.meta["fallback_tier"] == 1
        assert result.meta["fallback_algorithm"] == "Heuristic"
        (failure,) = result.meta["fallback_failures"]
        assert failure[0] == "Crash"
        assert "backend exploded" in failure[1]

    def test_timeout_degrades_to_next_tier(self, small_problem):
        chain = FallbackAlgorithm(
            [
                FallbackTier(SlowSolver(delay=5.0), timeout=0.05),
                FallbackTier(GreedyGain()),
            ]
        )
        start = time.monotonic()
        result = chain.solve(small_problem)
        elapsed = time.monotonic() - start
        assert elapsed < 2.0  # the slow tier was abandoned, not awaited
        assert result.meta["fallback_tier"] == 1
        (failure,) = result.meta["fallback_failures"]
        assert "SolveTimeoutError" in failure[1]

    def test_result_matches_serving_tier(self, small_problem):
        """The degraded answer is exactly what the serving tier returns."""
        direct = MatchingHeuristic().solve(small_problem)
        chain = FallbackAlgorithm(
            [FallbackTier(CrashingSolver()), FallbackTier(MatchingHeuristic())]
        )
        via_chain = chain.solve(small_problem)
        assert via_chain.solution == direct.solution
        assert via_chain.reliability == direct.reliability

    def test_all_tiers_failing_raises_exhausted(self, small_problem):
        chain = FallbackAlgorithm(
            [FallbackTier(CrashingSolver()), FallbackTier(CrashingSolver())]
        )
        with pytest.raises(FallbackExhaustedError) as excinfo:
            chain.solve(small_problem)
        assert len(excinfo.value.failures) == 2

    def test_default_chain_solves(self, small_problem):
        result = default_fallback_chain().solve(small_problem)
        assert result.meta["fallback_tier"] == 0
        assert result.expectation_met

    def test_name_lists_tiers(self):
        chain = default_fallback_chain()
        assert chain.name == "Fallback[ILP>Heuristic>Greedy[max_residual]]"


class TestSolveWithTimeout:
    def test_inline_when_unlimited(self, small_problem):
        result = solve_with_timeout(MatchingHeuristic(), small_problem, timeout=None)
        assert result.expectation_met

    def test_timeout_raises(self, small_problem):
        with pytest.raises(SolveTimeoutError):
            solve_with_timeout(SlowSolver(delay=5.0), small_problem, timeout=0.05)

    def test_fast_solve_within_budget(self, small_problem):
        result = solve_with_timeout(GreedyGain(), small_problem, timeout=10.0)
        assert result.reliability > 0

    def test_abandoned_native_solve_lets_the_interpreter_exit(self):
        """An abandoned HiGHS solve still running at interpreter exit must not
        abort the process.  At seed 1000 the solve takes ~30 ms, so it is
        still inside HiGHS when the script returns; on a daemon worker the
        process died with exit code 134 (``terminate called without an
        active exception``)."""
        script = textwrap.dedent(
            """
            from repro.algorithms.fallback import solve_with_timeout
            from repro.algorithms.ilp_exact import ILPAlgorithm
            from repro.experiments.settings import ExperimentSettings
            from repro.experiments.workload import make_trial
            from repro.util.errors import SolveTimeoutError

            problem = make_trial(ExperimentSettings(sfc_length=20), rng=1000).problem
            try:
                solve_with_timeout(ILPAlgorithm(), problem, timeout=1e-3)
            except SolveTimeoutError as exc:
                print(exc)
            """
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, (done.returncode, done.stderr[-2000:])
        assert "wall-clock budget" in done.stdout
