"""Tests for BMCGAP item generation."""

from __future__ import annotations

import math

import pytest

from repro.core.items import (
    BackupItem,
    ItemGenerationConfig,
    generate_items,
    items_by_position,
)
from repro.core.reliability import item_gain, paper_cost
from repro.netmodel.graph import MECNetwork
from repro.netmodel.neighborhoods import NeighborhoodIndex
from repro.netmodel.vnf import Request, ServiceFunctionChain, VNFType
from repro.topology.families import line_topology
from repro.util.errors import ValidationError
from tests.reference.items import capacity_bound_items


def _make_request(types, expectation=0.95):
    return Request("r", ServiceFunctionChain(types), expectation=expectation)


@pytest.fixture
def line5():
    """Line 0-1-2-3-4, all cloudlets, capacity 1000."""
    return MECNetwork(line_topology(5), {v: 1000.0 for v in range(5)})


class TestCapacityBound:
    """The ``K_i`` count of the scalar reference loop the kernel is checked
    against (``tests/test_kernels_differential.py``)."""

    def test_sum_of_floors(self):
        residuals = {0: 1000.0, 1: 550.0, 2: 0.0}
        assert capacity_bound_items(residuals, [0, 1, 2], 250.0) == 4 + 2 + 0

    def test_missing_bins_are_zero(self):
        assert capacity_bound_items({}, [0, 1], 100.0) == 0

    def test_invalid_demand(self):
        with pytest.raises(ValidationError):
            capacity_bound_items({0: 100.0}, [0], 0.0)


class TestGenerateItems:
    def test_k_i_formula(self, line5):
        """K_i = sum over N_1^+(v) of floor(C'_u / c(f))."""
        func = VNFType("f", demand=300.0, reliability=0.8)
        request = _make_request([func], expectation=0.9999999)
        index = line5.neighborhoods(1)
        residuals = {v: 1000.0 for v in range(5)}
        items = generate_items(
            request, [2], index, residuals, config=ItemGenerationConfig.exact()
        )
        # N_1^+(2) = {1, 2, 3}; floor(1000/300) = 3 each -> K = 9
        assert len(items) == 9
        assert [it.k for it in items] == list(range(1, 10))

    def test_allowed_bins_are_lhop_cloudlets_with_room(self, line5):
        func = VNFType("f", demand=300.0, reliability=0.8)
        request = _make_request([func])
        index = line5.neighborhoods(1)
        residuals = {0: 1000.0, 1: 1000.0, 2: 100.0, 3: 1000.0, 4: 1000.0}
        items = generate_items(
            request, [2], index, residuals, config=ItemGenerationConfig.exact()
        )
        assert items  # bins {1, 3}: node 2 lacks room
        for it in items:
            assert it.bins == (1, 3)

    def test_no_usable_bins_no_items(self, line5):
        func = VNFType("f", demand=300.0, reliability=0.8)
        request = _make_request([func])
        index = line5.neighborhoods(1)
        residuals = {v: 100.0 for v in range(5)}
        assert generate_items(request, [2], index, residuals) == []

    def test_costs_and_gains_match_formulas(self, line5):
        func = VNFType("f", demand=400.0, reliability=0.85)
        request = _make_request([func])
        index = line5.neighborhoods(1)
        items = generate_items(
            request, [0], index, {v: 1000.0 for v in range(5)},
            config=ItemGenerationConfig.exact(),
        )
        for it in items:
            assert it.cost == pytest.approx(paper_cost(0.85, it.k))
            assert it.gain == pytest.approx(item_gain(0.85, it.k))
            assert it.demand == 400.0
            assert it.function_name == "f"

    def test_positions_independent(self, line5):
        f1 = VNFType("a", demand=500.0, reliability=0.8)
        f2 = VNFType("b", demand=500.0, reliability=0.9)
        request = _make_request([f1, f2], expectation=0.9999999)
        index = line5.neighborhoods(1)
        items = generate_items(
            request, [0, 4], index, {v: 1000.0 for v in range(5)},
            config=ItemGenerationConfig.exact(),
        )
        by_pos = items_by_position(items)
        # position 0: bins {0, 1} (N_1^+(0)), 2 each -> K = 4
        assert len(by_pos[0]) == 4
        assert by_pos[0][0].bins == (0, 1)
        # position 1: bins {3, 4}
        assert len(by_pos[1]) == 4
        assert by_pos[1][0].bins == (3, 4)

    def test_repeated_function_gets_separate_items(self, line5):
        func = VNFType("f", demand=500.0, reliability=0.8)
        request = _make_request([func, func], expectation=0.9999999)
        index = line5.neighborhoods(1)
        items = generate_items(
            request, [2, 2], index, {v: 1000.0 for v in range(5)},
            config=ItemGenerationConfig.exact(),
        )
        by_pos = items_by_position(items)
        assert set(by_pos) == {0, 1}
        assert len(by_pos[0]) == len(by_pos[1]) == 6

    def test_placement_length_mismatch(self, line5):
        func = VNFType("f", demand=100.0, reliability=0.8)
        request = _make_request([func, func])
        with pytest.raises(ValidationError):
            generate_items(request, [0], line5.neighborhoods(1), {0: 100.0})

    def test_index_without_cloudlets_raises(self):
        func = VNFType("f", demand=100.0, reliability=0.8)
        index = NeighborhoodIndex(line_topology(5), 1)  # no cloudlets argument
        with pytest.raises(KeyError, match="built with cloudlets"):
            generate_items(
                _make_request([func]), [2], index, {v: 1000.0 for v in range(5)}
            )

    def test_non_positive_demand_raises(self, line5):
        func = VNFType("f", demand=100.0, reliability=0.8)
        object.__setattr__(func, "demand", 0.0)  # VNFType itself rejects 0
        with pytest.raises(ValidationError, match="demand must be > 0"):
            generate_items(
                _make_request([func]), [2], line5.neighborhoods(1),
                {v: 1000.0 for v in range(5)},
            )

    def test_gain_floor_truncates(self, line5):
        func = VNFType("f", demand=100.0, reliability=0.9)
        request = _make_request([func], expectation=0.9999999)
        index = line5.neighborhoods(1)
        items = generate_items(
            request, [2], index, {v: 1000.0 for v in range(5)},
            config=ItemGenerationConfig(gain_floor=1e-4, budget_headroom=None),
        )
        assert items
        assert all(it.gain >= 1e-4 for it in items)
        # the next item would be below the floor
        next_k = items[-1].k + 1
        assert item_gain(0.9, next_k) < 1e-4

    def test_budget_cap_truncates_but_suffices(self, line5):
        """The cap keeps enough items for one function to cover the needed gain.

        Two r=0.9 functions with a 0.85 expectation need only ~0.048 nats of
        gain, so each position's first backup (~0.095 nats) already covers the
        padded target: the cap binds far below the capacity bound.
        """
        func = VNFType("f", demand=100.0, reliability=0.9)
        request = _make_request([func, func], expectation=0.85)
        index = line5.neighborhoods(1)
        items = generate_items(
            request, [2, 2], index, {v: 1000.0 for v in range(5)},
            config=ItemGenerationConfig(gain_floor=None, budget_headroom=0.5),
        )
        by_pos = items_by_position(items)
        needed = -math.log(0.9 * 0.9) + math.log(0.85)
        for group in by_pos.values():
            # each position alone can cover the needed gain...
            assert sum(it.gain for it in group) >= needed
            # ...and was truncated far below the capacity bound (30 items)
            assert len(group) <= 3

    def test_expectation_already_met_no_budget_items(self, line5):
        """Zero needed gain -> the budget cap prunes everything."""
        func = VNFType("f", demand=100.0, reliability=0.99)
        request = _make_request([func], expectation=0.95)
        items = generate_items(
            request, [2], line5.neighborhoods(1), {v: 1000.0 for v in range(5)},
            config=ItemGenerationConfig(gain_floor=None, budget_headroom=0.5),
        )
        assert items == []

    def test_hard_cap(self, line5):
        func = VNFType("f", demand=100.0, reliability=0.5)
        request = _make_request([func], expectation=0.9999999)
        items = generate_items(
            request, [2], line5.neighborhoods(1), {v: 1000.0 for v in range(5)},
            config=ItemGenerationConfig(
                gain_floor=None, budget_headroom=None, max_backups_per_function=3
            ),
        )
        assert len(items) == 3


class TestItemGenerationConfig:
    def test_exact_disables_everything(self):
        config = ItemGenerationConfig.exact()
        assert config.gain_floor is None
        assert config.budget_headroom is None
        assert config.max_backups_per_function is None

    def test_invalid_values(self):
        with pytest.raises(ValidationError):
            ItemGenerationConfig(gain_floor=-1.0)
        with pytest.raises(ValidationError):
            ItemGenerationConfig(budget_headroom=-0.1)
        with pytest.raises(ValidationError):
            ItemGenerationConfig(max_backups_per_function=-1)


class TestItemsByPosition:
    def test_groups_and_sorts(self):
        items = [
            BackupItem(1, 2, "f", 10.0, 0.1, 1.0, (0,)),
            BackupItem(1, 1, "f", 10.0, 0.2, 0.5, (0,)),
            BackupItem(0, 1, "g", 20.0, 0.3, 0.4, (1,)),
        ]
        grouped = items_by_position(items)
        assert [it.k for it in grouped[1]] == [1, 2]
        assert len(grouped[0]) == 1

    def test_non_prefix_rejected(self):
        items = [BackupItem(0, 2, "f", 10.0, 0.1, 1.0, (0,))]
        with pytest.raises(ValidationError):
            items_by_position(items)

    def test_key_property(self):
        item = BackupItem(3, 2, "f", 10.0, 0.1, 1.0, (0,))
        assert item.key == (3, 2)
