"""Batched admission bit-identity: the differential suite.

The streaming service's core contract is that ``mode="batched"`` (wave
coalescing + one amortized union solve per wave) is **bit-identical** to
``mode="sequential"`` (one request per wave) on the same arrival order:
identical admission records and byte-identical per-node ledger state.
Both modes share one round loop, so both are also compared against
:class:`tests.service_reference.ReferenceAdmission`, a
one-request-at-a-time model solved by the heuristic's rebuild engine.
The service solves on the warm backend only; these tests check it on
>= 28 seeded traces and on hypothesis-generated random bursts.

The seeded traces run on a sparse 300-AP network of 30 cloudlets, where
most requests are admitted and waves coalesce, so every seed compares
union solves; the other tests use a small 60-AP network of 6 cloudlets,
where most requests are rejected primary-infeasible.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from repro.experiments.settings import ExperimentSettings
from repro.experiments.workload import make_network, make_request
from repro.netmodel.capacity import CapacityLedger
from repro.netmodel.vnf import VNFCatalog
from repro.service.batch import BatchAdmissionEngine, SERVICE_COST_CAP
from repro.service.server import replay_trace
from repro.service.trace import TracePhase, flash_crowd_phases, synthetic_trace
from repro.topology.gtitm import WaxmanParameters, generate_gtitm_topology
from repro.topology.placement import CloudletPlacementConfig, build_mec_network
from repro.util.errors import ValidationError
from tests.service_reference import ReferenceAdmission

SETTINGS = ExperimentSettings(num_aps=60, capacity_range=(2000, 4000))
WAVE_SETTINGS = ExperimentSettings(
    num_aps=300, capacity_range=(4000, 8000), sfc_length_range=(3, 5)
)


def build_instance(topology_seed: int):
    rng = np.random.default_rng(topology_seed)
    network = make_network(SETTINGS, rng)
    catalog = VNFCatalog.random(rng=rng)
    return network, catalog


def build_wave_instance(topology_seed: int):
    """The sparse network of the seeded traces.  Scaling the Waxman alpha
    down with the size keeps radius-1 domains small, so disjoint requests
    are common and waves hold several members."""
    rng = np.random.default_rng(topology_seed)
    graph = generate_gtitm_topology(
        WAVE_SETTINGS.num_aps,
        params=WaxmanParameters(alpha=30.0 / WAVE_SETTINGS.num_aps),
        rng=rng,
    )
    network = build_mec_network(
        graph,
        config=CloudletPlacementConfig(
            cloudlet_fraction=0.10, capacity_range=WAVE_SETTINGS.capacity_range
        ),
        rng=rng,
    )
    return network, VNFCatalog.random(rng=rng)


# One topology per instance: the differentials vary trace + service seeds.
_NETWORK, _CATALOG = build_instance(1234)
_SMALL = (SETTINGS, _NETWORK, _CATALOG)
_WAVES = (WAVE_SETTINGS, *build_wave_instance(4321))


def service_ledger(network):
    return CapacityLedger({v: network.capacity(v) for v in network.cloudlets})


def flash_trace(trace_seed, requests, instance=_SMALL):
    settings, _, catalog = instance
    return synthetic_trace(
        flash_crowd_phases(requests, base_rate=20.0),
        catalog,
        settings,
        rng=np.random.default_rng(trace_seed),
        holding_time=2.0,
    )


def run_mode(mode, trace_seed, service_seed, requests=40, window=1.0, instance=_SMALL):
    network = instance[1]
    if mode == "reference":
        engine = ReferenceAdmission(network, rng=np.random.default_rng(service_seed))
    else:
        engine = BatchAdmissionEngine(
            network,
            ledger=service_ledger(network),
            mode=mode,
            rng=np.random.default_rng(service_seed),
        )
    trace = flash_trace(trace_seed, requests, instance)
    stats = replay_trace(engine, trace, window=window, keep_records=True)
    return engine, stats


def assert_identical(batched, sequential):
    engine_b, stats_b = batched
    engine_s, stats_s = sequential
    keys_b = [r.identity_key() for r in stats_b.records]
    keys_s = [r.identity_key() for r in stats_s.records]
    assert keys_b == keys_s
    # Per-node ledger state is byte-identical (same per-node allocation
    # sequence in both modes); totals only to tolerance (journal order
    # differs, so the float sum associates differently).
    lb, ls = engine_b.ledger, engine_s.ledger
    assert all(lb.used(v) == ls.used(v) for v in lb.nodes)
    assert lb.total_used() == pytest.approx(ls.total_used(), abs=1e-6)


class TestWarmDifferential:
    """The acceptance criterion: >= 25 seeded traces, batched == sequential
    == reference, each one comparing union solves."""

    @pytest.mark.parametrize("seed", range(25))
    def test_batched_equals_sequential(self, seed):
        runs = {
            mode: run_mode(mode, 1000 + seed, 2000 + seed, requests=60, instance=_WAVES)
            for mode in ("batched", "sequential", "reference")
        }
        assert_identical(runs["batched"], runs["sequential"])
        assert_identical(runs["batched"], runs["reference"])
        # Not vacuous: most of the 60 requests are admitted (40-54 per
        # seed) and several waves solve members together (7-14 per seed).
        stats = runs["batched"][0].stats
        assert stats["admitted"] >= 35
        assert stats["amortized_waves"] >= 5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_short_trace_batched_equals_sequential(self, seed):
        runs = {
            mode: run_mode(mode, 500 + seed, 600 + seed, requests=25, instance=_WAVES)
            for mode in ("batched", "sequential", "reference")
        }
        assert_identical(runs["batched"], runs["sequential"])
        assert_identical(runs["batched"], runs["reference"])
        assert runs["batched"][0].stats["amortized_waves"] >= 1

    def test_union_path_actually_engages(self):
        """Guard against vacuous identity: an engine built with the defaults
        (no backend, no mode) coalesces members into waves of several,
        solved together."""
        network = _WAVES[1]
        engine = BatchAdmissionEngine(
            network, ledger=service_ledger(network), rng=np.random.default_rng(2000)
        )
        replay_trace(engine, flash_trace(1000, 60, _WAVES), window=5.0)
        assert engine.stats["amortized_waves"] >= 5


def _requests_for(count, seed):
    rng = np.random.default_rng(seed)
    return [
        make_request(SETTINGS, _CATALOG, rng, name=f"h-{seed}-{i}")
        for i in range(count)
    ]


class TestHypothesisBursts:
    @given(
        bursts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @hsettings(max_examples=25, deadline=None)
    def test_random_bursts_are_mode_invariant(self, bursts, seed):
        requests = _requests_for(sum(bursts), seed)
        engines = {
            mode: BatchAdmissionEngine(
                _NETWORK,
                ledger=service_ledger(_NETWORK),
                mode=mode,
                rng=np.random.default_rng(seed),
            )
            for mode in ("batched", "sequential")
        }
        engines["reference"] = ReferenceAdmission(
            _NETWORK, rng=np.random.default_rng(seed)
        )
        records = {mode: [] for mode in engines}
        cursor = 0
        for size in bursts:
            burst = requests[cursor : cursor + size]
            cursor += size
            for mode, engine in engines.items():
                records[mode].extend(engine.admit_batch(burst))
        keys = {mode: [r.identity_key() for r in recs] for mode, recs in records.items()}
        assert keys["batched"] == keys["sequential"] == keys["reference"]
        lb = engines["batched"].ledger
        for other in ("sequential", "reference"):
            lo = engines[other].ledger
            assert all(lb.used(v) == lo.used(v) for v in lb.nodes)


class TestEngineContract:
    def test_shed_cap_applies_identically(self):
        requests = _requests_for(10, 3)
        records = {}
        for mode in ("batched", "sequential"):
            engine = BatchAdmissionEngine(
                _NETWORK,
                ledger=service_ledger(_NETWORK),
                mode=mode,
                queue_limit=4,
                rng=np.random.default_rng(3),
            )
            records[mode] = engine.admit_batch(requests)
            assert engine.stats["shed"] == 6
            assert [r.rejected_reason for r in records[mode][4:]] == ["shed"] * 6
        assert [r.identity_key() for r in records["batched"]] == [
            r.identity_key() for r in records["sequential"]
        ]

    def test_departure_releases_all_capacity(self):
        engine = BatchAdmissionEngine(
            _NETWORK, ledger=service_ledger(_NETWORK), rng=np.random.default_rng(4)
        )
        records = engine.admit_batch(_requests_for(8, 4))
        admitted = [r for r in records if r.admitted]
        assert admitted, "expected at least one admission"
        assert engine.ledger.total_used() > 0
        for record in admitted:
            engine.depart(record.name)
        assert engine.ledger.total_used() == 0.0
        assert not engine.ledger.journal

    @pytest.mark.parametrize("mode", ["batched", "sequential"])
    def test_duplicate_live_name_leaks_no_capacity(self, mode):
        """A second request under a live name is rejected before it touches
        the ledger, so departing the name frees everything and frees the
        name."""
        engine = BatchAdmissionEngine(
            _NETWORK,
            ledger=service_ledger(_NETWORK),
            mode=mode,
            rng=np.random.default_rng(6),
        )
        rng = np.random.default_rng(6)
        first, second, third = (
            make_request(SETTINGS, _CATALOG, rng, name="same") for _ in range(3)
        )
        records = engine.admit_batch([first]) + engine.admit_batch([second])
        assert records[0].admitted
        assert records[1].rejected_reason == "duplicate-name"
        engine.depart("same")
        with pytest.raises(ValidationError):
            engine.depart("same")
        assert engine.ledger.total_used() == 0.0
        assert engine.admit_batch([third])[0].admitted

    def test_depart_unknown_request_raises(self):
        engine = BatchAdmissionEngine(
            _NETWORK, ledger=service_ledger(_NETWORK), rng=np.random.default_rng(5)
        )
        with pytest.raises(ValidationError):
            engine.depart("nope")

    def test_invalid_mode_and_queue_limit(self):
        with pytest.raises(ValidationError):
            BatchAdmissionEngine(
                _NETWORK, ledger=service_ledger(_NETWORK), mode="wat"
            )
        with pytest.raises(ValidationError):
            BatchAdmissionEngine(
                _NETWORK, ledger=service_ledger(_NETWORK), queue_limit=0
            )
        for backend in ("scipy", "sparse", "auto"):
            with pytest.raises(ValidationError):
                BatchAdmissionEngine(
                    _NETWORK, ledger=service_ledger(_NETWORK), backend=backend
                )

    def test_admitted_records_are_consistent(self):
        """Admission is best-effort (the heuristic commits what it found);
        ``expectation_met`` must agree with the recorded reliability."""
        engine, stats = run_mode("batched", 42, 43, requests=30)
        met = 0
        for record in stats.records:
            if record.admitted:
                assert record.reliability > 0.0
                assert len(record.primaries) > 0
                met += record.expectation_met
        assert met > 0, "expected some admissions to meet their expectation"
        assert SERVICE_COST_CAP == 2.0**24 - 1.0


class TestTraceShape:
    def test_flash_crowd_phases_partition_requests(self):
        phases = flash_crowd_phases(1000, base_rate=50.0, flash_fraction=0.2)
        assert sum(p.requests for p in phases) == 1000
        assert [p.label for p in phases] == ["poisson", "flash", "poisson"]
        assert phases[1].rate > phases[0].rate

    def test_trace_is_deterministic_under_seed(self):
        def draw():
            return [
                (t, r.name, h, label)
                for t, r, h, label in synthetic_trace(
                    (TracePhase(10, 5.0),),
                    _CATALOG,
                    SETTINGS,
                    rng=np.random.default_rng(7),
                )
            ]

        assert draw() == draw()

    def test_trace_times_monotone(self):
        times = [
            t
            for t, _, _, _ in synthetic_trace(
                flash_crowd_phases(30), _CATALOG, SETTINGS, rng=np.random.default_rng(8)
            )
        ]
        assert times == sorted(times)
        with pytest.raises(ValidationError):
            TracePhase(-1, 5.0)
        with pytest.raises(ValidationError):
            TracePhase(5, 0.0)
