"""Tests for the admission entry points."""

from __future__ import annotations

import pytest

from repro.admission.admit import admit_request, random_primary_placement
from repro.admission.transaction import Admission, redrawn
from repro.netmodel.capacity import CapacityLedger
from repro.netmodel.graph import MECNetwork
from repro.netmodel.vnf import Request, ServiceFunctionChain, VNFType
from repro.topology.families import line_topology
from repro.util.errors import InfeasibleError


def _request(demands_rels, expectation=0.9):
    types = [
        VNFType(f"f{i}", demand=d, reliability=r)
        for i, (d, r) in enumerate(demands_rels)
    ]
    return Request("r", ServiceFunctionChain(types), expectation)


class TestAdmitRequest:
    def test_allocates_capacity(self, line_network):
        request = _request([(200.0, 0.8), (300.0, 0.85)])
        ledger = CapacityLedger(line_network.capacities)
        outcome = admit_request(line_network, request, ledger)
        assert len(outcome.placement) == 2
        total_used = sum(ledger.used(v) for v in ledger.nodes)
        assert total_used == pytest.approx(500.0)

    def test_reliability_reported(self, line_network):
        request = _request([(200.0, 0.8), (300.0, 0.85)])
        ledger = CapacityLedger(line_network.capacities)
        outcome = admit_request(line_network, request, ledger)
        assert outcome.reliability == pytest.approx(0.8 * 0.85)
        assert not outcome.meets_expectation

    def test_meets_expectation_flag(self, line_network):
        request = _request([(100.0, 0.99)], expectation=0.95)
        ledger = CapacityLedger(line_network.capacities)
        outcome = admit_request(line_network, request, ledger)
        assert outcome.meets_expectation

    def test_capacity_aware_replanning(self):
        """A long chain must spread over cloudlets when one cannot hold it all."""
        network = MECNetwork(line_topology(3), {0: 500.0, 1: 500.0, 2: 500.0})
        request = _request([(400.0, 0.9)] * 3)
        ledger = CapacityLedger(network.capacities)
        outcome = admit_request(network, request, ledger)
        assert len(set(outcome.placement)) == 3  # one primary per cloudlet

    def test_replan_checks_only_the_unplaced_positions(self):
        """Regression: the plan puts both primaries on cloudlet 0, which
        then cannot hold the second; the re-plan for position 1 once
        demanded a candidate for the placed position 0 as well and rejected
        this request, although (0, 1) fits."""
        network = MECNetwork(line_topology(2), {0: 450.0, 1: 150.0})
        request = _request([(400.0, 0.9), (100.0, 0.9)])
        ledger = CapacityLedger(network.capacities)
        outcome = admit_request(network, request, ledger)
        assert outcome.placement == (0, 1)
        assert (ledger.used(0), ledger.used(1)) == (400.0, 100.0)

    def test_infeasible_rolls_back(self):
        network = MECNetwork(line_topology(3), {0: 500.0})
        request = _request([(400.0, 0.9)] * 2)  # second cannot fit anywhere
        ledger = CapacityLedger(network.capacities)
        with pytest.raises(InfeasibleError):
            admit_request(network, request, ledger)
        assert ledger.used(0) == 0.0

    def test_transport_reliability_mode(self, line_network):
        request = _request([(200.0, 0.8)])
        ledger = CapacityLedger(line_network.capacities)
        outcome = admit_request(
            line_network, request, ledger, use_transport_reliability=True
        )
        assert outcome.reliability == pytest.approx(0.8)  # edges default to 1.0


class TestRandomPrimaryPlacement:
    def test_unconstrained_on_cloudlets(self, ring_network):
        request = _request([(100.0, 0.8)] * 4)
        placement = random_primary_placement(ring_network, request, rng=1)
        assert len(placement) == 4
        assert all(v in ring_network.cloudlets for v in placement)

    def test_deterministic_with_seed(self, ring_network):
        request = _request([(100.0, 0.8)] * 5)
        a = random_primary_placement(ring_network, request, rng=9)
        b = random_primary_placement(ring_network, request, rng=9)
        assert a == b

    # The capacity-checked draw is the transaction's ``redrawn`` policy.
    def test_ledger_constrained(self):
        network = MECNetwork(line_topology(3), {0: 450.0, 1: 450.0, 2: 450.0})
        request = _request([(400.0, 0.9)] * 3)
        ledger = CapacityLedger(network.capacities)
        admission = Admission(ledger, request, redrawn(network.cloudlets, 3))
        assert sorted(admission.primaries) == [0, 1, 2]  # forced to spread

    def test_ledger_infeasible_rolls_back(self):
        network = MECNetwork(line_topology(2), {0: 450.0, 1: 450.0})
        request = _request([(400.0, 0.9)] * 3)
        ledger = CapacityLedger(network.capacities)
        with pytest.raises(InfeasibleError):
            Admission(ledger, request, redrawn(network.cloudlets, 3))
        assert all(ledger.used(v) == 0.0 for v in ledger.nodes)

    def test_unconstrained_ignores_capacity(self):
        network = MECNetwork(line_topology(2), {0: 10.0, 1: 10.0})
        request = _request([(400.0, 0.9)] * 3)
        placement = random_primary_placement(network, request, rng=3)
        assert len(placement) == 3  # the experimental convention
