"""The admission engine against the sequential reference model.

:class:`tests.service_reference.ReferenceAdmission` admits one request at
a time and solves it with the heuristic's rebuild engine.  Both engine
modes are compared with it on a sparse 500-AP network where most requests
are admitted and many waves hold several members, with the cost-cap guard
lowered until it trips, and on the duplicate-name rule.  The same network
checks that the engine works on each wave's domain only.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.service.batch as batch_module
from repro.algorithms.heuristic import MatchingHeuristic
from repro.experiments.settings import ExperimentSettings
from repro.experiments.workload import make_request
from repro.matching.incremental import RoundState
from repro.netmodel.capacity import CapacityLedger
from repro.netmodel.vnf import VNFCatalog
from repro.service.batch import SERVICE_COST_CAP, BatchAdmissionEngine
from repro.service.server import replay_trace
from repro.service.trace import flash_crowd_phases, synthetic_trace
from repro.topology.gtitm import WaxmanParameters, generate_gtitm_topology
from repro.topology.placement import CloudletPlacementConfig, build_mec_network
from tests.service_reference import ReferenceAdmission

NUM_APS = 500
SETTINGS = ExperimentSettings(
    num_aps=NUM_APS, capacity_range=(4000, 8000), sfc_length_range=(3, 5)
)
KINDS = ("batched", "sequential", "reference")


def _instance():
    rng = np.random.default_rng(99)
    # Scaling the Waxman alpha down with the size keeps radius-1 domains
    # small, so disjoint requests are common and waves hold several members.
    graph = generate_gtitm_topology(
        NUM_APS, params=WaxmanParameters(alpha=40.0 / NUM_APS), rng=rng
    )
    network = build_mec_network(
        graph,
        config=CloudletPlacementConfig(
            cloudlet_fraction=0.10, capacity_range=SETTINGS.capacity_range
        ),
        rng=rng,
    )
    return network, VNFCatalog.random(rng=rng)


_NETWORK, _CATALOG = _instance()


def make_engine(kind, seed, cost_cap=SERVICE_COST_CAP):
    rng = np.random.default_rng(seed)
    if kind == "reference":
        return ReferenceAdmission(_NETWORK, rng=rng, cost_cap=cost_cap)
    ledger = CapacityLedger({v: _NETWORK.capacity(v) for v in _NETWORK.cloudlets})
    return BatchAdmissionEngine(_NETWORK, ledger=ledger, mode=kind, rng=rng)


def replay(engine, seed):
    """Replay seed's flash-crowd trace through ``engine``; its records and
    per-node ``used``."""
    trace = synthetic_trace(
        flash_crowd_phases(80, base_rate=40.0),
        _CATALOG,
        SETTINGS,
        rng=np.random.default_rng(100 + seed),
        holding_time=1.0,
    )
    stats = replay_trace(engine, trace, window=1.0, keep_records=True)
    return stats.records, [engine.ledger.used(v) for v in engine.ledger.nodes]


def replay_all(seed, cost_cap=SERVICE_COST_CAP):
    """Replay one flash-crowd trace through every kind; records per kind
    and per-node ``used`` per kind."""
    records, used, engines = {}, {}, {}
    for kind in KINDS:
        engine = engines[kind] = make_engine(kind, seed, cost_cap)
        records[kind], used[kind] = replay(engine, seed)
    return records, used, engines


def assert_agree(records, used):
    keys = {kind: [r.identity_key() for r in recs] for kind, recs in records.items()}
    assert keys["batched"] == keys["sequential"] == keys["reference"]
    assert used["batched"] == used["sequential"] == used["reference"]


def named_requests(names, seed):
    rng = np.random.default_rng(seed)
    return [make_request(SETTINGS, _CATALOG, rng, name=name) for name in names]


class TestAmortizedDifferential:
    @pytest.mark.parametrize("seed", range(10))
    def test_modes_and_reference_agree(self, seed):
        records, used, engines = replay_all(seed)
        assert_agree(records, used)
        # Not vacuous: most requests are admitted and many waves amortize.
        stats = engines["batched"].stats
        assert stats["admitted"] > 40
        assert stats["amortized_waves"] >= 5


class TestDomainLocality:
    """The warm engine works on each wave's domain only -- the members'
    ``l``-hop cloudlets: ``admit_batch`` never snapshots the whole ledger,
    and every matching round's rows lie inside the domain of the wave
    being solved.  Records and per-node ``used`` still equal the
    reference, which snapshots the whole network."""

    @pytest.mark.parametrize("mode", ["batched", "sequential"])
    def test_rounds_stay_inside_the_wave_domain(self, mode, monkeypatch):
        seed = 1
        snapshots, rounds, domain = [], [], set()
        residuals = CapacityLedger.residuals
        solve_wave = MatchingHeuristic.solve_wave
        build_csr = RoundState.build_csr

        def spy_residuals(ledger):
            snapshots.append(ledger)
            return residuals(ledger)

        def spy_solve_wave(heuristic, problems):
            domain.clear()
            for problem in problems:
                for v in problem.primary_placement:
                    domain.update(problem.neighborhoods.closed_cloudlets(v))
            return solve_wave(heuristic, problems)

        def spy_build_csr(state):
            graph = build_csr(state)
            rounds.append(set(graph[0]) <= domain)
            return graph

        engine = make_engine(mode, seed)
        with monkeypatch.context() as patch:
            patch.setattr(CapacityLedger, "residuals", spy_residuals)
            patch.setattr(MatchingHeuristic, "solve_wave", spy_solve_wave)
            patch.setattr(RoundState, "build_csr", spy_build_csr)
            records, used = replay(engine, seed)
        assert not snapshots
        assert len(rounds) > 50 and all(rounds)
        # The default cap never trips here, so every live member is solved
        # and the solved problems' domains are the wave's.
        assert not any(r.rejected_reason == "cost-cap" for r in records)

        ref_records, ref_used = replay(make_engine("reference", seed), seed)
        assert [r.identity_key() for r in records] == [
            r.identity_key() for r in ref_records
        ]
        assert used == ref_used


class TestCostCapGuard:
    def test_lowered_cap_rejects_identically(self, monkeypatch):
        cap = 1400.0  # about the median edge-cost sum of this workload
        monkeypatch.setattr(batch_module, "SERVICE_COST_CAP", cap)
        records, used, _ = replay_all(3, cost_cap=cap)
        assert_agree(records, used)
        reasons = Counter(r.rejected_reason for r in records["batched"])
        assert reasons["cost-cap"] > 0
        assert reasons[None] > 0


class TestDuplicateNames:
    def test_repeat_within_a_batch_is_rejected_in_every_kind(self):
        requests = named_requests(["a", "b", "a", "c", "b"], 6)
        keys = {}
        for kind in KINDS:
            records = make_engine(kind, 6).admit_batch(requests)
            assert records[2].rejected_reason == "duplicate-name"
            assert records[4].rejected_reason == "duplicate-name"
            keys[kind] = [r.identity_key() for r in records]
        assert keys["batched"] == keys["sequential"] == keys["reference"]

    @pytest.mark.parametrize("mode", ["batched", "sequential"])
    def test_duplicates_still_take_their_draw(self, mode):
        requests = named_requests(["a", "a", "b"], 7)
        engine = make_engine(mode, 8)
        engine.admit_batch(requests)
        expected = np.random.default_rng(8)
        for request in requests:
            expected.integers(0, len(engine.cloudlets), size=request.chain.length)
        assert engine.rng.integers(2**62) == expected.integers(2**62)
