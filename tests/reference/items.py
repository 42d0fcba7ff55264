"""The scalar BMCGAP item loop (Section 4.2-4.3), reference for the kernel.

:func:`generate_items_scalar` walks the chain position by position in
plain Python, exactly as the paper states the reduction; the array kernel
(:func:`repro.kernels.items.generate_items_vectorized`) must emit the
bit-identical item sequence (``tests/test_kernels_differential.py``).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.core.items import (
    BackupItem,
    ItemGenerationConfig,
    _budget_cap,
    gain_ladder,
    paper_cost_ladder,
)
from repro.util.errors import ValidationError


def capacity_bound_items(
    residuals: Mapping[int, float], bins: Sequence[int], demand: float
) -> int:
    """``K_i = sum_{u in bins} floor(C'_u / demand)`` (Section 4.3)."""
    if demand <= 0:
        raise ValidationError(f"demand must be > 0, got {demand}")
    total = 0
    for u in bins:
        residual = residuals.get(u, 0.0)
        if residual > 0:
            total += int((residual + 1e-9) / demand)
    return total


def generate_items_scalar(
    request,
    primary_placement: Sequence[int],
    neighborhoods,
    residuals: Mapping[int, float],
    config: ItemGenerationConfig,
) -> list[BackupItem]:
    """The items of :func:`repro.core.items.generate_items`, one at a time."""
    chain = request.chain
    # Gain still needed to lift the baseline (primaries-only) reliability to
    # the expectation: (-log u_baseline) - (-log rho_j).
    needed_gain = max(
        0.0, -math.log(chain.primaries_reliability()) - request.budget
    )

    items: list[BackupItem] = []
    for i, func in enumerate(chain):
        v = primary_placement[i]
        candidate_bins = tuple(
            u
            for u in neighborhoods.closed_cloudlets(v)
            if residuals.get(u, 0.0) + 1e-9 >= func.demand
        )
        if not candidate_bins:
            continue

        k_max = capacity_bound_items(residuals, candidate_bins, func.demand)
        if config.budget_headroom is not None and func.reliability < 1.0:
            k_max = min(
                k_max, _budget_cap(func.reliability, needed_gain, config.budget_headroom)
            )
        if config.max_backups_per_function is not None:
            k_max = min(k_max, config.max_backups_per_function)

        gains = gain_ladder(func.reliability, k_max)
        costs = paper_cost_ladder(func.reliability, k_max)
        for k in range(1, k_max + 1):
            gain = gains[k - 1]
            if config.gain_floor is not None and gain < config.gain_floor:
                break  # gains are decreasing in k; nothing further survives
            items.append(
                BackupItem(
                    position=i,
                    k=k,
                    function_name=func.name,
                    demand=func.demand,
                    gain=gain,
                    cost=costs[k - 1],
                    bins=candidate_bins,
                )
            )
    return items
