"""Differential suite for the matching backends: every solve bit-identical.

The matching core exposes three backends plus ``"auto"``, the heuristic's
default.  No switch selects a backend for a run, so this suite passes
every backend explicitly and holds each to the exactness contract on the
canonical instance stream of
:func:`repro.experiments.instances.differential_suite`:

* per backend, the incremental engine and the rebuild reference loop of
  ``tests/reference/rebuild.py`` agree placement by placement, round by
  round (the warm backend's shared dual store keyed by global ids makes
  this non-trivial);
* back-to-back engine solves of one problem share no state: each equals
  the reference;
* ``"auto"`` is bit-identical to the dense reference at canonical scale
  (every round sits below ``SPARSE_CUTOFF``), so the default solve is
  exactly the seed behaviour;
* :class:`repro.experiments.runner.AggregateStats` -- the quantity every
  figure is computed from -- is equal **field by field** across backends.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.algorithms.heuristic import MatchingHeuristic
from repro.experiments.instances import differential_suite
from repro.experiments.runner import run_point
from repro.experiments.settings import ExperimentSettings
from repro.matching.mincost import BACKENDS
from tests.reference.rebuild import RebuildHeuristic

SPECS = list(differential_suite(25))
SPEC_IDS = [f"{s.family}-L{s.chain_length}-l{s.radius}-seed{s.seed}" for s in SPECS]

BACKEND_IDS = list(BACKENDS) + ["auto"]


def _signature(result, problem):
    """Everything a solve reports, minus the backend label."""
    meta = {k: v for k, v in result.meta.items() if k != "matching_backend"}
    return (
        result.solution.placements,
        result.reliability,
        result.solution.reliability(problem),
        meta.get("rounds"),
        meta.get("paper_cost_total"),
        tuple(
            (entry["placed"], entry["paper_cost"], entry["reliability"])
            for entry in meta.get("round_trace", ())
        ),
    )


def _solve(problem, backend, algorithm=MatchingHeuristic, **kwargs):
    return algorithm(backend=backend, record_trace=True, **kwargs).solve(problem)


class TestEnginesIdenticalPerBackend:
    @pytest.mark.parametrize("backend", BACKEND_IDS)
    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_incremental_equals_rebuild(self, spec, backend, instance_factory):
        problem = instance_factory(spec)
        inc = _solve(problem, backend)
        reb = _solve(problem, backend, RebuildHeuristic)
        assert _signature(inc, problem) == _signature(reb, problem), (spec, backend)

    @pytest.mark.parametrize("backend", ["sparse", "warm"])
    @pytest.mark.parametrize("spec", SPECS[::6], ids=SPEC_IDS[::6])
    def test_max_fill_regime(self, spec, backend, instance_factory):
        """No expectation stop -- the long-round regime duals persist over."""
        problem = instance_factory(spec)
        inc = _solve(problem, backend, stop_at_expectation=False)
        reb = _solve(problem, backend, RebuildHeuristic, stop_at_expectation=False)
        assert _signature(inc, problem) == _signature(reb, problem), (spec, backend)


class TestCrossBackendAgreement:
    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_auto_is_dense_at_canonical_scale(self, spec, instance_factory):
        """Every canonical round sits below the cutoff, so the default
        ("auto") solve is bit-identical to the historical dense path."""
        problem = instance_factory(spec)
        default = MatchingHeuristic(record_trace=True)
        assert default.backend == "auto"
        via_default = default.solve(problem)
        via_scipy = _solve(problem, "scipy")
        assert _signature(via_default, problem) == _signature(via_scipy, problem), spec

    @pytest.mark.parametrize("spec", SPECS[::4], ids=SPEC_IDS[::4])
    def test_reliability_and_cardinality_agree_everywhere(
        self, spec, instance_factory
    ):
        """Backends may permute tie pairings, but what the figures measure
        -- reliability, backup count, paper cost -- must agree exactly."""
        problem = instance_factory(spec)
        summaries = set()
        for backend in BACKENDS:
            result = _solve(problem, backend)
            summaries.add(
                (
                    result.reliability,
                    len(result.solution.placements),
                    round(result.meta.get("paper_cost_total", 0.0), 9),
                )
            )
        assert len(summaries) == 1, (spec, summaries)


class TestArenaInvariance:
    @pytest.mark.parametrize("backend", ["sparse", "warm"])
    @pytest.mark.parametrize("spec", SPECS[::6], ids=SPEC_IDS[::6])
    def test_arena_on_off_identical(self, spec, backend, instance_factory):
        """Back-to-back solves of one problem share no state: each equals
        the rebuild reference loop, which rebuilds every round from the
        ledger."""
        problem = instance_factory(spec)
        without = _signature(_solve(problem, backend, RebuildHeuristic), problem)
        for _ in range(2):
            assert _signature(_solve(problem, backend), problem) == without, (
                spec,
                backend,
            )


class TestAggregateStatsExact:
    SETTINGS = ExperimentSettings(
        num_aps=40, cloudlet_fraction=0.2, sfc_length=5, trials=6
    )

    def test_field_by_field_across_backends(self):
        """The figure-level aggregate is exact, not approximately equal."""
        reference = None
        for backend in BACKEND_IDS:
            stats = run_point(
                self.SETTINGS,
                [MatchingHeuristic(backend=backend)],
                trials=6,
                rng=97,
            )["Heuristic"]
            # runtime_sum is wall-clock -- the one field that cannot be
            # deterministic across backends; everything else must be exact.
            fields = {
                f.name: getattr(stats, f.name)
                for f in dataclasses.fields(stats)
                if f.name not in ("algorithm", "runtime_sum")
            }
            if reference is None:
                reference = fields
            else:
                assert fields == reference, backend
