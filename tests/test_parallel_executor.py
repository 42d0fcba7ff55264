"""Unit tests for the parallel sweep engine's building blocks.

Covers the picklable task specs (satellite 3's round-trip requirement),
the job-count/chunking arithmetic the bit-identity argument rests on, the
algorithm registry, and :class:`ParallelExecutor`'s ordering and fallback
behaviour.
"""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms.baselines import GreedyGain, NoAugmentation
from repro.algorithms.heuristic import MatchingHeuristic
from repro.algorithms.ilp_exact import ILPAlgorithm
from repro.algorithms.randomized import RandomizedRounding
from repro.experiments.settings import DEFAULT_SETTINGS, ExperimentSettings
from repro.parallel import (
    AlgorithmSpec,
    ChunkTask,
    ParallelExecutor,
    TrialTask,
    algorithm_factory,
    build_algorithm,
    chunk_indices,
    default_chunk_size,
    default_jobs,
    register_algorithm,
    resolve_jobs,
    specs_for,
)
from repro.parallel.executor import JOBS_ENV, TARGET_CHUNKS
from repro.util.errors import ValidationError
from repro.util.rng import as_rng, spawn_seed_sequences


class TestResolveJobs:
    def test_none_defaults_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(None) == 3

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(0) == default_jobs()
        monkeypatch.setenv(JOBS_ENV, "2")
        assert resolve_jobs(0) == 2

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "8")
        assert resolve_jobs(5) == 5

    def test_env_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "0")
        assert resolve_jobs(None) == default_jobs()

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            resolve_jobs(-1)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        with pytest.raises(ValidationError):
            resolve_jobs(None)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestChunking:
    def test_chunk_size_depends_only_on_count(self):
        """The bit-identity invariant: worker count never enters."""
        assert default_chunk_size(640) == 10
        assert default_chunk_size(TARGET_CHUNKS) == 1
        assert default_chunk_size(1) == 1
        assert default_chunk_size(TARGET_CHUNKS + 1) == 2

    def test_chunk_indices_cover_range(self):
        bounds = chunk_indices(10, 3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_chunk_indices_exact_division(self):
        assert chunk_indices(6, 3) == [(0, 3), (3, 6)]

    def test_chunk_indices_empty(self):
        assert chunk_indices(0, 5) == []


class TestRegistry:
    @pytest.mark.parametrize(
        "algorithm",
        [
            ILPAlgorithm(),
            RandomizedRounding(),
            MatchingHeuristic(),
            NoAugmentation(),
            GreedyGain(),
            GreedyGain(bin_policy="best_fit"),
        ],
        ids=lambda a: a.name,
    )
    def test_round_trip_by_name(self, algorithm):
        rebuilt = build_algorithm(algorithm.name)
        assert type(rebuilt) is type(algorithm)
        assert vars(rebuilt) == vars(algorithm)

    def test_unknown_name_yields_no_factory(self):
        assert algorithm_factory("NoSuchAlgorithm") is None
        with pytest.raises(ValidationError):
            build_algorithm("NoSuchAlgorithm")

    def test_unknown_greedy_policy_yields_no_factory(self):
        assert algorithm_factory("Greedy[nonexistent_policy]") is None

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            register_algorithm("Heuristic", MatchingHeuristic)


class TestAlgorithmSpec:
    def test_default_instances_use_registry_key(self):
        spec = AlgorithmSpec.from_algorithm(MatchingHeuristic())
        assert spec.key == "Heuristic"
        assert spec.payload is None

    def test_non_default_instance_ships_pickled(self):
        """A customised instance must not be silently replaced by defaults."""
        spec = AlgorithmSpec.from_algorithm(MatchingHeuristic(stop_at_expectation=False))
        assert spec.key is None
        rebuilt = spec.build()
        assert isinstance(rebuilt, MatchingHeuristic)
        assert rebuilt.stop_at_expectation is False

    def test_build_matches_original(self):
        for algorithm in (ILPAlgorithm(), GreedyGain(bin_policy="best_fit")):
            spec = AlgorithmSpec.from_algorithm(algorithm)
            rebuilt = spec.build()
            assert type(rebuilt) is type(algorithm)
            assert vars(rebuilt) == vars(algorithm)

    def test_unpicklable_algorithm_yields_none(self):
        class Closure(MatchingHeuristic):
            def __init__(self):
                super().__init__()
                self.hook = lambda: None  # lambdas cannot be pickled

        assert AlgorithmSpec.from_algorithm(Closure()) is None
        assert specs_for([MatchingHeuristic(), Closure()]) is None

    def test_specs_for_full_lineup(self):
        specs = specs_for([ILPAlgorithm(), RandomizedRounding()])
        assert specs is not None
        assert [s.key for s in specs] == ["ILP", "Randomized"]


class TestPickleRoundTrips:
    """Satellite 3: the task specs must survive the worker boundary."""

    def test_settings_round_trip(self):
        settings = ExperimentSettings(num_aps=30, cloudlet_fraction=0.2, trials=3)
        clone = pickle.loads(pickle.dumps(settings))
        assert clone == settings

    def test_default_settings_round_trip(self):
        clone = pickle.loads(pickle.dumps(DEFAULT_SETTINGS))
        assert clone == DEFAULT_SETTINGS

    def test_trial_task_round_trip(self):
        settings = ExperimentSettings(num_aps=30, cloudlet_fraction=0.2, trials=3)
        (seed,) = spawn_seed_sequences(as_rng(7), 1)
        task = TrialTask(
            settings=settings,
            algorithms=specs_for([MatchingHeuristic()]),
            seed=seed,
            index=0,
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.settings == settings
        assert clone.index == 0
        assert clone.rng().integers(0, 2**31) == task.rng().integers(0, 2**31)
        result = clone.run()
        assert set(result.results) == {"Heuristic"}

    def test_chunk_task_round_trip(self):
        settings = ExperimentSettings(num_aps=30, cloudlet_fraction=0.2, trials=3)
        seeds = tuple(spawn_seed_sequences(as_rng(7), 3))
        chunk = ChunkTask(
            settings=settings,
            algorithms=specs_for([MatchingHeuristic()]),
            seeds=seeds,
            index=1,
        )
        clone = pickle.loads(pickle.dumps(chunk))
        assert clone.index == 1
        assert len(clone.seeds) == 3
        assert clone.settings == settings

    def test_algorithm_spec_round_trip(self):
        spec = AlgorithmSpec.from_algorithm(GreedyGain(bin_policy="best_fit"))
        clone = pickle.loads(pickle.dumps(spec))
        assert vars(clone.build()) == vars(GreedyGain(bin_policy="best_fit"))


def _double(x: int) -> int:
    return 2 * x


class TestParallelExecutor:
    def test_map_ordered_preserves_submission_order(self):
        with ParallelExecutor(jobs=2) as executor:
            assert executor.map_ordered(_double, list(range(12))) == [
                2 * x for x in range(12)
            ]

    def test_serial_inline(self):
        with ParallelExecutor(jobs=1) as executor:
            assert executor.map_ordered(_double, [1, 2, 3]) == [2, 4, 6]

    def test_unpicklable_task_falls_back_inline(self):
        with ParallelExecutor(jobs=2) as executor:
            tasks = [lambda x=x: x for x in range(3)]
            assert executor.map_ordered(lambda thunk: thunk(), tasks) == [0, 1, 2]

    def test_single_task_runs_inline(self):
        with ParallelExecutor(jobs=4) as executor:
            assert executor.map_ordered(_double, [21]) == [42]

    def test_empty_tasks(self):
        with ParallelExecutor(jobs=2) as executor:
            assert executor.map_ordered(_double, []) == []
