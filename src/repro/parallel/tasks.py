"""Picklable work units for the parallel sweep engine.

A sweep data point is ``trials`` independent evaluations of the same
:class:`~repro.experiments.settings.ExperimentSettings`.  The engine ships
each worker a :class:`ChunkTask` -- the settings, the *specs* of the
algorithms (names resolved through :mod:`repro.parallel.registry`, or a
pickled instance for unregistered algorithms), and the pre-spawned
per-trial seed state -- rather than live objects.  The worker rebuilds
algorithms and generators locally, runs its trials through the exact same
:func:`repro.experiments.runner.run_trial` code path the serial engine
uses, and returns one small dict of per-algorithm partial
:class:`~repro.experiments.runner.AggregateStats` per chunk.

:class:`ChunkTask` is the ``REPRO_SHM=0`` transport: each task carries a
full pickled copy of the point's settings/specs/seeds (~2 KB).  With the
zero-pickle layer enabled (:mod:`repro.parallel.shm`, the default) that
state is published once into a shared-memory segment and the pool ships
:class:`~repro.parallel.shm.ShmTask` handles instead; both transports
fold through the same :func:`fold_chunk`, which is why they are
bit-identical.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.algorithms.base import AugmentationAlgorithm
from repro.core.items import ItemGenerationConfig
from repro.experiments.settings import ExperimentSettings
from repro.parallel.registry import algorithm_factory, build_algorithm
from repro.util.errors import ValidationError
from repro.util.rng import generator_from_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us lazily)
    from repro.experiments.runner import AggregateStats


@dataclass(frozen=True)
class AlgorithmSpec:
    """How a worker process rebuilds one algorithm.

    Exactly one of the two fields is set: ``key`` names a registry entry
    whose factory reproduces the caller's instance (constructor state is
    cross-checked before the registry path is trusted), ``payload`` carries
    a pickled instance for algorithms the registry cannot rebuild.
    """

    key: str | None = None
    payload: bytes | None = None

    @classmethod
    def from_algorithm(cls, algorithm: AugmentationAlgorithm) -> "AlgorithmSpec | None":
        """The cheapest faithful spec for ``algorithm``, or ``None``.

        Registry reconstruction is only used when a registered factory
        rebuilds an instance with *identical* constructor state (so e.g. a
        non-default ``MatchingHeuristic(stop_at_expectation=False)`` is
        shipped by pickle, not silently replaced by the default-configured
        registry build).  ``None`` means the algorithm cannot cross a
        process boundary at all; the caller must fall back to inline
        execution.
        """
        factory = algorithm_factory(algorithm.name)
        if factory is not None:
            try:
                candidate = factory()
                if type(candidate) is type(algorithm) and vars(candidate) == vars(
                    algorithm
                ):
                    return cls(key=algorithm.name)
            except Exception:  # pragma: no cover - defensive: fall through to pickle
                pass
        try:
            return cls(payload=pickle.dumps(algorithm))
        except Exception:
            return None

    def build(self) -> AugmentationAlgorithm:
        """Instantiate the algorithm this spec describes."""
        if self.key is not None:
            return build_algorithm(self.key)
        if self.payload is not None:
            algorithm = pickle.loads(self.payload)
            if not isinstance(algorithm, AugmentationAlgorithm):
                raise ValidationError("payload did not unpickle to an algorithm")
            return algorithm
        raise ValidationError("empty AlgorithmSpec")


def specs_for(
    algorithms: Sequence[AugmentationAlgorithm],
) -> tuple[AlgorithmSpec, ...] | None:
    """Specs for a whole lineup, or ``None`` if any algorithm cannot ship."""
    specs = []
    for algorithm in algorithms:
        spec = AlgorithmSpec.from_algorithm(algorithm)
        if spec is None:
            return None
        specs.append(spec)
    return tuple(specs)


@dataclass(frozen=True)
class TrialTask:
    """One trial of one data point, fully described by value.

    Everything a worker needs to replay trial ``index`` of a point:
    settings, algorithm specs, and the trial's pre-spawned
    :class:`numpy.random.SeedSequence` (plus the parent's bit-generator
    family, so the rebuilt stream is bit-identical to the serial path's).
    """

    settings: ExperimentSettings
    algorithms: tuple[AlgorithmSpec, ...]
    seed: np.random.SeedSequence
    index: int = 0
    bit_generator: str = "PCG64"
    validate: bool = True
    item_config: ItemGenerationConfig | None = None

    def rng(self) -> np.random.Generator:
        """The trial's generator, rebuilt from the shipped seed state."""
        return generator_from_seed(self.seed, bit_generator=self.bit_generator)

    def build_algorithms(self) -> list[AugmentationAlgorithm]:
        """Fresh local algorithm instances for this task."""
        return [spec.build() for spec in self.algorithms]

    def run(self):
        """Execute the trial locally; returns a ``TrialOutcome``."""
        from repro.experiments.runner import run_trial

        return run_trial(
            self.settings,
            self.build_algorithms(),
            rng=self.rng(),
            validate=self.validate,
            item_config=self.item_config,
        )


@dataclass(frozen=True)
class ChunkTask:
    """A contiguous block of trials of one data point.

    The unit of work shipped to a worker: settings and algorithm specs once,
    plus the block's seed sequences.  ``index`` is the chunk's position in
    the point's fold order.
    """

    settings: ExperimentSettings
    algorithms: tuple[AlgorithmSpec, ...]
    seeds: tuple[np.random.SeedSequence, ...]
    index: int = 0
    bit_generator: str = "PCG64"
    validate: bool = True
    item_config: ItemGenerationConfig | None = None


def fold_chunk(
    settings: ExperimentSettings,
    algorithms: Sequence[AugmentationAlgorithm],
    seeds: Sequence[np.random.SeedSequence],
    bit_generator: str = "PCG64",
    validate: bool = True,
    item_config: ItemGenerationConfig | None = None,
) -> dict[str, "AggregateStats"]:
    """Run a block of trials and fold them into per-algorithm partials.

    The single fold loop shared by the inline (serial) path and the worker
    path: trial order within the chunk is seed order, so a chunk's partial
    aggregate is the same bits no matter where it is computed.
    """
    from repro.experiments.runner import AggregateStats, run_trial

    stats = {a.name: AggregateStats(a.name) for a in algorithms}
    for seed in seeds:
        outcome = run_trial(
            settings,
            algorithms,
            rng=generator_from_seed(seed, bit_generator=bit_generator),
            validate=validate,
            item_config=item_config,
        )
        for name, result in outcome.results.items():
            stats[name].add(result)
    return stats


def execute_chunk(chunk: ChunkTask) -> dict[str, "AggregateStats"]:
    """Worker entry point: rebuild algorithms, fold the chunk, return partials.

    Module-level (spawn-picklable) on purpose.  Algorithms are rebuilt once
    per chunk, so constructor cost amortises over the chunk's trials.
    """
    return fold_chunk(
        chunk.settings,
        [spec.build() for spec in chunk.algorithms],
        chunk.seeds,
        bit_generator=chunk.bit_generator,
        validate=chunk.validate,
        item_config=chunk.item_config,
    )
