"""Vectorized BMCGAP item generation (Section 4.2-4.3 reduction).

The scalar generator this module replaced (kept as the differential
reference in ``tests/reference/items.py``) walks every chain position in
Python: a generator expression filters the candidate bins, a helper sums
``floor(C'_u / c(f_i))`` bin by bin, every ladder access copies a tuple
slice, and one frozen-dataclass constructor call per item pays seven
``object.__setattr__`` round trips.

This module strips the per-item constant factors:

* **candidate bins and ``K_i``** -- one pass per position over the
  memoized ``closed_cloudlets`` tuple of its primary filters the
  candidates and accumulates ``K_i``, with the ``l``-hop sets served by
  the batched CSR kernel (:meth:`NeighborhoodIndex.prefetch` on the
  chain's primaries).  Generation reads the residuals of the primaries'
  neighborhoods only, so a map holding just the request's domain yields
  the same items -- ``tests/test_kernels_differential.py`` proves both
  bit-identical to the scalar reference loop;
* **ladders** -- full per-``r`` tuples memoized here and served without
  the per-call slice copies of :func:`paper_cost_ladder` /
  :func:`gain_ladder`; the *values* come from those very scalar
  functions, so they are bit-identical by construction (``np.log`` is not
  guaranteed to round like ``math.log``, hence nothing is recomputed
  vectorised) -- asserted exhaustively by
  ``tests/test_kernels_differential.py``;
* **items** -- the same ``BackupItem`` sequence (same ordering, same
  Python-float fields) assembled via ``__new__`` + direct ``__dict__``
  stores instead of the frozen-dataclass constructor;
* **edge universe** -- an :class:`ItemPlan` records the per-position
  ``(base, keep, bins, costs, demand)`` segments for free at generation
  time; the flattened (item, bin) arrays the incremental matching engine
  needs materialise lazily on first solve, replacing
  :class:`repro.matching.incremental._ProblemStatics`' per-edge loop.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from repro.core.items import (
    _LADDER_MEMO_LIMIT,
    BackupItem,
    ItemGenerationConfig,
    _budget_cap,
    gain_ladder,
    paper_cost_ladder,
)
from repro.util.errors import ValidationError

#: Fit/positivity slack, identical to the scalar reference's literal
#: ``1e-9`` (the ledger's ``EPS`` has the same value).
_SLACK = 1e-9


# -- bit-identical ladder tuples ----------------------------------------------
#
# Bounded like the scalar ladder memos they are built from: each memo is
# emptied when it reaches ``_LADDER_MEMO_LIMIT`` reliabilities.

_COST_TUPLES: dict[float, tuple[float, ...]] = {}
_GAIN_TUPLES: dict[float, tuple[float, ...]] = {}


def cost_tuple(reliability: float, k_max: int) -> tuple[float, ...]:
    """Paper costs ``c(f, k, .)`` for ``k = 1..>=k_max``, without per-call
    tuple copies.

    Returns the full memoized tuple (possibly longer than ``k_max``);
    ``cost_tuple(r, k)[k - 1] == paper_cost(r, k)`` exactly -- the values
    are produced by :func:`repro.core.items.paper_cost_ladder` itself.
    """
    ladder = _COST_TUPLES.get(reliability)
    if ladder is None or len(ladder) < k_max:
        if ladder is None and len(_COST_TUPLES) >= _LADDER_MEMO_LIMIT:
            _COST_TUPLES.clear()
        ladder = paper_cost_ladder(reliability, max(k_max, 8))
        _COST_TUPLES[reliability] = ladder
    return ladder


def gain_tuple(reliability: float, k_max: int) -> tuple[float, ...]:
    """Solver gains ``g(f, k)`` for ``k = 1..>=k_max``; same contract as
    :func:`cost_tuple`, values from :func:`repro.core.items.gain_ladder`."""
    ladder = _GAIN_TUPLES.get(reliability)
    if ladder is None or len(ladder) < k_max:
        if ladder is None and len(_GAIN_TUPLES) >= _LADDER_MEMO_LIMIT:
            _GAIN_TUPLES.clear()
        ladder = gain_ladder(reliability, max(k_max, 8))
        _GAIN_TUPLES[reliability] = ladder
    return ladder


# -- the edge-universe plan ----------------------------------------------------


class ItemPlan:
    """The (item, bin) edge universe of one generated instance, recorded as
    per-position segments and flattened lazily.

    A segment is ``(base, keep, bins, costs, demand)``: items ``base ..
    base + keep - 1`` (generation order) each allow every cloudlet in
    ``bins``, with cost ``costs[k - 1]`` for the ``k``-th.  The flat
    parallel arrays -- in the exact item-major/bin order
    :class:`repro.matching.incremental._ProblemStatics` derives from
    ``problem.items`` -- materialise on first access (the first solve on
    the dense or sparse backend), so problem *construction* never pays for
    them; the warm backend reads the segments themselves.
    """

    __slots__ = ("_segments", "_arrays")

    def __init__(
        self,
        segments: list[tuple[int, int, tuple, tuple[float, ...], float]],
    ):
        self._segments = segments
        self._arrays: tuple[np.ndarray, ...] | None = None

    @property
    def segments(self) -> list[tuple[int, int, tuple, tuple[float, ...], float]]:
        """The ``(base, keep, bins, costs, demand)`` segments, in item order."""
        return self._segments

    def _materialize(self) -> tuple[np.ndarray, ...]:
        arrays = self._arrays
        if arrays is None:
            edge_item: list[int] = []
            edge_node: list = []
            edge_cost: list[float] = []
            edge_demand: list[float] = []
            for base, keep, bins, costs, demand in self._segments:
                num_bins = len(bins)
                bins_list = list(bins)
                for k in range(keep):
                    edge_item.extend([base + k] * num_bins)
                    edge_node += bins_list
                    edge_cost.extend([costs[k]] * num_bins)
                edge_demand.extend([demand] * (keep * num_bins))
            arrays = self._arrays = (
                np.asarray(edge_item, dtype=np.intp),
                np.asarray(edge_node, dtype=np.intp),
                np.asarray(edge_cost, dtype=np.float64),
                np.asarray(edge_demand, dtype=np.float64),
            )
        return arrays

    @property
    def edge_item(self) -> np.ndarray:
        return self._materialize()[0]

    @property
    def edge_node(self) -> np.ndarray:
        return self._materialize()[1]

    @property
    def edge_cost(self) -> np.ndarray:
        return self._materialize()[2]

    @property
    def edge_demand(self) -> np.ndarray:
        return self._materialize()[3]

    @property
    def max_node(self) -> int:
        node = self._materialize()[1]
        return int(node.max()) if node.size else -1

    @property
    def min_node(self) -> int:
        node = self._materialize()[1]
        return int(node.min()) if node.size else 0


_PLANS: "WeakKeyDictionary[object, ItemPlan]" = WeakKeyDictionary()


def adopt_plan(problem: object, plan: ItemPlan) -> None:
    """Attach the generation-time edge plan to a (just built) problem."""
    _PLANS[problem] = plan


def plan_of(problem: object) -> ItemPlan | None:
    """The edge plan recorded for ``problem`` at generation time, if any."""
    return _PLANS.get(problem)


# -- vectorized generation -----------------------------------------------------


def generate_items_vectorized(
    request,
    primary_placement: Sequence[int],
    neighborhoods,
    residuals: Mapping[int, float],
    config: ItemGenerationConfig,
) -> tuple[list[BackupItem], ItemPlan | None]:
    """Array-native :func:`repro.core.items.generate_items`.

    Returns ``(items, plan)`` with ``items`` the ``BackupItem`` list and
    ``plan`` the lazily flattened edge universe (``None`` when cloudlet ids
    are not plain ints).  ``residuals`` needs only the cloudlets of the
    primaries' neighborhoods; absent ones count as empty.  Raises
    ``KeyError`` for an index built without cloudlets and
    :class:`~repro.util.errors.ValidationError` for a non-positive demand.
    """
    integer_ids = neighborhoods.integer_cloudlet_ids
    if integer_ids is None:
        raise KeyError(
            "no cloudlet-restricted neighborhoods; was the index built with cloudlets?"
        )
    # Gain still needed to lift the baseline reliability to the expectation
    # (identical expression to the scalar reference).
    needed_gain = max(
        0.0, -math.log(request.chain.primaries_reliability()) - request.budget
    )
    if neighborhoods.radius > 1:
        # One batched CSR BFS covers every primary of the chain; at
        # radius <= 1 the sets come off the adjacency dict, nothing to batch.
        neighborhoods.prefetch(primary_placement)
    # Warm-set lookups bypass the accessor's miss handling (package-internal
    # shortcut; closed_cloudlets fills the same dict on a miss).
    cached_bins = neighborhoods._closed_cloudlets.get
    closed = neighborhoods.closed_cloudlets
    get = residuals.get
    headroom = config.budget_headroom
    max_backups = config.max_backups_per_function
    floor = config.gain_floor

    new_item = BackupItem.__new__
    items: list[BackupItem] = []
    segments: list[tuple[int, int, tuple, tuple[float, ...], float]] = []
    for i, func in enumerate(request.chain):
        demand = func.demand
        if demand <= 0.0:
            raise ValidationError(f"demand must be > 0, got {demand}")
        v = primary_placement[i]
        neighborhood_bins = cached_bins(v)
        if neighborhood_bins is None:
            neighborhood_bins = closed(v)

        bins_list: list = []
        k_bound = 0
        for u in neighborhood_bins:
            res = get(u, 0.0)
            slack = res + _SLACK
            if slack >= demand:
                # Same fit test as the scalar reference; the count floor((C'_u
                # + 1e-9) / c(f_i)) applies only to positive residuals.
                bins_list.append(u)
                if res > 0.0:
                    k_bound += int(slack / demand)
        if not bins_list:
            continue
        r = func.reliability
        k_max = k_bound
        if headroom is not None and r < 1.0:
            cap = _budget_cap(r, needed_gain, headroom)
            if cap < k_max:
                k_max = cap
        if max_backups is not None and max_backups < k_max:
            k_max = max_backups
        if k_max <= 0:
            continue

        gains = gain_tuple(r, k_max)
        keep = k_max
        if floor is not None:
            # First k with gain below the floor ends the prefix -- gains
            # decrease in k, mirroring the scalar reference's ``break``.
            for j in range(k_max):
                if gains[j] < floor:
                    keep = j
                    break
        if keep == 0:
            continue

        costs = cost_tuple(r, keep)
        bins = tuple(bins_list)
        name = func.name
        base = len(items)
        for k in range(1, keep + 1):
            # Same field values as BackupItem(...), without the frozen-
            # dataclass __setattr__ round trips.
            item = new_item(BackupItem)
            d = item.__dict__
            d["position"] = i
            d["k"] = k
            d["function_name"] = name
            d["demand"] = demand
            d["gain"] = gains[k - 1]
            d["cost"] = costs[k - 1]
            d["bins"] = bins
            items.append(item)
        if integer_ids:
            segments.append((base, keep, bins, costs, demand))

    return items, ItemPlan(segments) if integer_ids else None
