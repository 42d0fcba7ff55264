"""Tests for the system-level request-stream extension."""

from __future__ import annotations

import pytest

from repro.algorithms.base import AugmentationAlgorithm
from repro.algorithms.baselines import GreedyGain, NoAugmentation
from repro.algorithms.heuristic import MatchingHeuristic
from repro.core.solution import AugmentationResult, AugmentationSolution, Placement
from repro.experiments.batch import (
    BatchReport,
    BatchRequestOutcome,
    run_joint_comparison,
    run_request_stream,
)
from repro.experiments.settings import ExperimentSettings


@pytest.fixture
def stream_settings() -> ExperimentSettings:
    return ExperimentSettings(num_aps=30, cloudlet_fraction=0.2, trials=1)


class TestBatchReport:
    def _outcome(self, admitted=True, met=True, reliability=0.95):
        return BatchRequestOutcome(
            name="r",
            admitted=admitted,
            reliability=reliability,
            expectation=0.95,
            expectation_met=met,
            backups=2,
        )

    def test_rates(self):
        report = BatchReport(
            outcomes=[
                self._outcome(admitted=True, met=True),
                self._outcome(admitted=True, met=False, reliability=0.8),
                self._outcome(admitted=False, met=False, reliability=0.0),
            ]
        )
        assert report.num_requests == 3
        assert report.acceptance_rate == pytest.approx(2 / 3)
        assert report.expectation_met_rate == pytest.approx(0.5)
        assert report.mean_reliability == pytest.approx((0.95 + 0.8) / 2)

    def test_empty(self):
        report = BatchReport()
        assert report.acceptance_rate == 0.0
        assert report.expectation_met_rate == 0.0
        assert report.mean_reliability == 0.0


class TestRunRequestStream:
    def test_basic_stream(self, stream_settings):
        report = run_request_stream(
            stream_settings, MatchingHeuristic(), num_requests=10, rng=1
        )
        assert report.num_requests == 10
        assert 0.0 <= report.acceptance_rate <= 1.0
        assert 0.0 <= report.final_utilisation <= 1.0 + 1e-9

    def test_deterministic(self, stream_settings):
        a = run_request_stream(stream_settings, MatchingHeuristic(), 8, rng=5)
        b = run_request_stream(stream_settings, MatchingHeuristic(), 8, rng=5)
        assert [o.reliability for o in a.outcomes] == [
            o.reliability for o in b.outcomes
        ]

    def test_capacity_never_violated(self, stream_settings):
        """The committed ledger must stay feasible through the whole stream
        (this is why violating algorithms are excluded)."""
        report = run_request_stream(
            stream_settings, GreedyGain(), num_requests=30, rng=2
        )
        assert report.final_utilisation <= 1.0 + 1e-9

    def test_saturation_rejects_late_requests(self, stream_settings):
        """Push far more demand than the network holds: acceptance < 1."""
        report = run_request_stream(
            stream_settings, MatchingHeuristic(), num_requests=80, rng=3
        )
        assert report.acceptance_rate < 1.0
        assert report.final_utilisation > 0.7

    def test_early_requests_fare_better(self, stream_settings):
        """Admitted-and-met rate among the first half dominates the second."""
        report = run_request_stream(
            stream_settings, MatchingHeuristic(), num_requests=60, rng=4
        )
        half = len(report.outcomes) // 2
        first = [o for o in report.outcomes[:half]]
        second = [o for o in report.outcomes[half:]]
        first_ok = sum(o.admitted and o.expectation_met for o in first) / len(first)
        second_ok = sum(o.admitted and o.expectation_met for o in second) / len(second)
        assert first_ok >= second_ok

    def test_network_reuse(self, stream_settings):
        from repro.experiments.workload import make_network
        from repro.util.rng import as_rng

        network = make_network(stream_settings, as_rng(9))
        report = run_request_stream(
            stream_settings, MatchingHeuristic(), 5, rng=9, network=network
        )
        assert report.num_requests == 5


class OvershootingSolver(AugmentationAlgorithm):
    """Returns a placement far beyond any cloudlet's capacity.

    Models a buggy or violation-prone backend; committing its solution must
    raise a mid-commit CapacityError inside the stream loop.
    """

    name = "Overshoot"

    def solve(self, problem, rng=None):
        bin_ = next(iter(problem.residuals))
        solution = AugmentationSolution(
            placements=(
                Placement(position=0, k=1, bin=bin_, demand=1e12, gain=0.1, cost=1.0),
            )
        )
        return AugmentationResult(
            algorithm=self.name,
            solution=solution,
            reliability=0.5,
            runtime_seconds=0.0,
            expectation_met=False,
        )


class TestTransactionalCommit:
    """A mid-commit CapacityError must leave the ledger untouched."""

    def test_overshooting_commit_rejects_and_leaks_nothing(self, stream_settings):
        report = run_request_stream(stream_settings, OvershootingSolver(), 5, rng=0)
        # every arrival placed primaries, then blew up mid-commit; the
        # rollback must reclaim the primaries too, so the final ledger is
        # byte-identical to the empty initial state
        assert report.num_requests == 5
        assert report.acceptance_rate == 0.0
        assert all(not o.admitted and o.backups == 0 for o in report.outcomes)
        assert report.final_utilisation == 0.0

    def test_stream_continues_after_mid_commit_failure(self, stream_settings):
        class FlakySolver(AugmentationAlgorithm):
            """Overshoots on the second request only."""

            name = "Flaky"

            def __init__(self):
                self.calls = 0
                self.inner = MatchingHeuristic()
                self.overshoot = OvershootingSolver()

            def solve(self, problem, rng=None):
                self.calls += 1
                if self.calls == 2:
                    return self.overshoot.solve(problem, rng=rng)
                return self.inner.solve(problem, rng=rng)

        report = run_request_stream(stream_settings, FlakySolver(), 3, rng=0)
        assert [o.admitted for o in report.outcomes] == [True, False, True]
        # later requests still commit normally against an uncorrupted ledger
        assert report.outcomes[2].backups > 0


class SecondCallSolver(AugmentationAlgorithm):
    """The heuristic, except on its second call: then ``second(solution)``
    of the heuristic's solution, reported with the primaries-only figures."""

    name = "SecondCall"

    def __init__(self, second):
        self.calls = 0
        self.second = second
        self.inner = MatchingHeuristic()
        self.seen: list[int] = []

    def solve(self, problem, rng=None):
        self.calls += 1
        result = self.inner.solve(problem, rng=rng)
        if self.calls != 2:
            return result
        self.seen.append(len(result.solution.placements))
        reliability = AugmentationSolution.empty().reliability(problem)
        return AugmentationResult(
            algorithm=self.name,
            solution=self.second(result.solution),
            reliability=reliability,
            runtime_seconds=0.0,
            expectation_met=problem.request.meets_expectation(reliability),
        )


class TestJointComparisonCommit:
    """The sequential side commits each request's backups all or nothing."""

    def test_overshoot_scores_the_request_primaries_only(self, stream_settings):
        overshoot = run_joint_comparison(stream_settings, OvershootingSolver(), 4, rng=5)
        primaries_only = run_joint_comparison(stream_settings, NoAugmentation(), 4, rng=5)
        assert overshoot.num_requests == 4
        assert overshoot == primaries_only

    def test_partial_commit_is_released(self, stream_settings):
        """Request 2's good backups are committed before its overshooting
        one fails; they must be released, so request 3 sees the ledger it
        would see had request 2 taken no backup."""

        def overshoot(solution):
            # One more backup, far beyond any residual, on the first bin used.
            extra = Placement(
                position=0, k=99, bin=solution.placements[0].bin, demand=1e12,
                gain=0.1, cost=1.0,
            )
            return AugmentationSolution(solution.placements + (extra,))

        partial = SecondCallSolver(overshoot)
        nothing = SecondCallSolver(lambda solution: AugmentationSolution.empty())
        got = run_joint_comparison(stream_settings, partial, 4, rng=5)
        expected = run_joint_comparison(stream_settings, nothing, 4, rng=5)
        assert partial.seen and partial.seen[0] > 0  # something was committed first
        assert got == expected
