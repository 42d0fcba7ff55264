"""Serial/parallel differential tests: parallelism must be invisible.

The engine's contract (``docs/parallel.md``): for a fixed seed,
``run_point(..., jobs=k)`` returns bit-identical :class:`AggregateStats`
for every ``k`` -- same chunk boundaries, same fold order, same per-trial
and per-algorithm streams.  These tests compare **all** dataclass fields
with exact float equality; the wall-clock runtime fields are made
deterministic by the ``REPRO_FAKE_CLOCK`` counter clock, which worker
processes inherit through the environment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.baselines import GreedyGain, NoAugmentation
from repro.algorithms.heuristic import MatchingHeuristic
from repro.algorithms.ilp_exact import ILPAlgorithm
from repro.algorithms.randomized import RandomizedRounding
from repro.experiments.ablations import run_truncation_ablation
from repro.experiments.batch import run_stream_ensemble
from repro.experiments.figures import run_figure1, run_figure3
from repro.experiments.runner import run_point, run_trial
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workload import make_network
from repro.util.timing import FAKE_CLOCK_ENV

SETTINGS = ExperimentSettings(num_aps=30, cloudlet_fraction=0.2, trials=3)


@pytest.fixture(autouse=True)
def fake_clock(monkeypatch):
    """Deterministic timing so runtime sums compare bit-for-bit."""
    monkeypatch.setenv(FAKE_CLOCK_ENV, "1")


def trio():
    return [ILPAlgorithm(), RandomizedRounding(), MatchingHeuristic()]


class TestRunPointDifferential:
    @pytest.mark.parametrize("seed", [3, 11, 2024])
    def test_jobs_bit_identical(self, seed):
        """jobs in {1, 2, 4} produce equal aggregates, all fields exact."""
        points = [
            run_point(SETTINGS, trio(), trials=6, rng=seed, jobs=jobs)
            for jobs in (1, 2, 4)
        ]
        serial, two, four = points
        assert set(serial) == set(two) == set(four)
        for name in serial:
            # dataclass equality compares every field, floats included
            assert serial[name] == two[name], name
            assert serial[name] == four[name], name

    def test_explicit_chunk_size_bit_identical(self):
        serial = run_point(SETTINGS, trio(), trials=5, rng=7, jobs=1, chunk_size=2)
        parallel = run_point(SETTINGS, trio(), trials=5, rng=7, jobs=3, chunk_size=2)
        for name in serial:
            assert serial[name] == parallel[name]

    def test_parallel_respects_trial_count(self):
        stats = run_point(SETTINGS, [MatchingHeuristic()], trials=7, rng=1, jobs=2)
        assert stats["Heuristic"].trials == 7

    def test_unregistered_lineup_falls_back_inline(self):
        """A custom algorithm (no registry entry, still picklable) works."""
        stats = run_point(
            SETTINGS,
            [MatchingHeuristic(stop_at_expectation=False), NoAugmentation()],
            trials=4,
            rng=5,
            jobs=2,
        )
        assert stats["Heuristic"].trials == 4
        assert stats["NoBackup"].trials == 4

    def test_item_config_parallel(self):
        from repro.core.items import ItemGenerationConfig

        serial = run_point(
            SETTINGS,
            [MatchingHeuristic()],
            trials=4,
            rng=13,
            jobs=1,
            item_config=ItemGenerationConfig.exact(),
        )
        parallel = run_point(
            SETTINGS,
            [MatchingHeuristic()],
            trials=4,
            rng=13,
            jobs=2,
            item_config=ItemGenerationConfig.exact(),
        )
        assert serial["Heuristic"] == parallel["Heuristic"]


class TestAlgorithmStreamDecoupling:
    """The satellite RNG fix: per-algorithm named streams."""

    def test_lineup_independent(self):
        """A randomized algorithm's results do not depend on the lineup."""
        solo = run_trial(SETTINGS, [RandomizedRounding()], rng=42)
        paired = run_trial(
            SETTINGS, [ILPAlgorithm(), RandomizedRounding(), GreedyGain()], rng=42
        )
        assert (
            solo.results["Randomized"].reliability
            == paired.results["Randomized"].reliability
        )
        assert (
            solo.results["Randomized"].solution.placements
            == paired.results["Randomized"].solution.placements
        )

    def test_order_independent(self):
        """Reordering algorithms changes nothing for any of them."""
        forward = run_trial(
            SETTINGS, [RandomizedRounding(), MatchingHeuristic()], rng=9
        )
        backward = run_trial(
            SETTINGS, [MatchingHeuristic(), RandomizedRounding()], rng=9
        )
        for name in ("Randomized", "Heuristic"):
            assert (
                forward.results[name].solution.placements
                == backward.results[name].solution.placements
            )


class TestSweepsDifferential:
    def test_figure1_bit_identical(self):
        kwargs = dict(
            settings=SETTINGS,
            sfc_lengths=[3, 5],
            algorithms=[MatchingHeuristic(), GreedyGain()],
            trials=3,
            rng=17,
        )
        serial = run_figure1(jobs=1, **kwargs)
        parallel = run_figure1(jobs=2, **kwargs)
        assert serial.x_values == parallel.x_values
        for point_s, point_p in zip(serial.points, parallel.points):
            for name in point_s:
                assert point_s[name] == point_p[name]

    def test_figure3_bit_identical(self):
        kwargs = dict(
            settings=SETTINGS,
            fractions=[0.25, 1.0],
            algorithms=[MatchingHeuristic()],
            trials=3,
            rng=23,
        )
        serial = run_figure3(jobs=1, **kwargs)
        parallel = run_figure3(jobs=4, **kwargs)
        for point_s, point_p in zip(serial.points, parallel.points):
            assert point_s["Heuristic"] == point_p["Heuristic"]

    def test_truncation_ablation_still_paired(self):
        """The ablation's pairing survives the unified parallel path."""
        series = run_truncation_ablation(
            SETTINGS.vary(residual_fraction=1.0),
            algorithms=[MatchingHeuristic()],
            trials=3,
            rng=7,
            jobs=2,
        )
        default_point, exact_point = series.points
        assert (
            default_point["Heuristic"].reliability_sum
            == exact_point["Heuristic"].reliability_sum
        )


class TestStreamEnsembleDifferential:
    def test_ensemble_jobs_bit_identical(self):
        settings = ExperimentSettings(num_aps=25, cloudlet_fraction=0.25, trials=1)
        kwargs = dict(
            settings=settings,
            algorithm=MatchingHeuristic(),
            num_requests=5,
            streams=3,
            rng=31,
        )
        serial = run_stream_ensemble(jobs=1, **kwargs)
        parallel = run_stream_ensemble(jobs=2, **kwargs)
        assert [r.outcomes for r in serial] == [r.outcomes for r in parallel]
        assert [r.final_utilisation for r in serial] == [
            r.final_utilisation for r in parallel
        ]

    def test_stream_ensemble_shared_network_bit_identical(self):
        """A shared ``network=`` pickled into every worker task replays the
        serial streams exactly."""
        network = make_network(SETTINGS, np.random.default_rng(5))
        serial, parallel = (
            run_stream_ensemble(
                SETTINGS,
                MatchingHeuristic(),
                num_requests=5,
                streams=3,
                rng=31,
                jobs=jobs,
                network=network,
            )
            for jobs in (1, 2)
        )
        assert [r.outcomes for r in serial] == [r.outcomes for r in parallel]
        assert [r.final_utilisation for r in serial] == [
            r.final_utilisation for r in parallel
        ]
