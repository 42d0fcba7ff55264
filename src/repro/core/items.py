"""BMCGAP item generation (Section 4.2-4.3 reduction).

For each chain position ``i`` with function ``f_i`` whose primary instance
sits on cloudlet ``v_i``, the reduction creates up to

    K_i = sum_{u in N_l^+(v_i), u cloudlet} floor(C'_u / c(f_i))

candidate items, the k-th of which represents "the k-th secondary instance
of position i".  Item ``(i, k)`` may be packed into any *allowed bin*: a
cloudlet ``u in N_l^+(v_i)`` with residual capacity at least ``c(f_i)`` at
generation time.  Its paper cost is ``c(f_i, k, u) = -log(r_i (1-r_i)^k)``
(identical across allowed bins) and its solver gain is
``g_i(k) = log R_i(k) - log R_i(k-1)``.

Items whose primary's neighborhood contains no usable cloudlet simply do not
exist -- Eqs. (11)-(13) of the ILP are realised as variable elimination, not
as big-M rows.

Truncation.  ``K_i`` as defined can be large (tens of items per position at
full capacity) while the gain of the k-th backup decays geometrically like
``(1 - r)^k``.  :class:`ItemGenerationConfig` therefore supports two sound
truncations, both enabled by default:

* ``gain_floor``: drop items whose gain falls below a floor (default 1e-12
  -- far below float-representable differences in the reported reliability);
* ``budget_headroom``: drop items beyond the prefix length at which the
  *single* function could absorb the entire gain still needed to reach the
  expectation, ``(-log u_baseline) - (-log rho_j)``, with slack (a solution
  placing more backups of one function than that has already reached the
  expectation, so the surplus would be trimmed anyway).  Only sound under
  the stop-at-expectation semantics -- max-fill studies should use
  :meth:`ItemGenerationConfig.exact`.

Set both to ``None`` to generate the literal ``K_i`` items of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.reliability import _check_r, cumulative_gain
from repro.netmodel.neighborhoods import NeighborhoodIndex
from repro.netmodel.vnf import Request
from repro.util.errors import ValidationError

# -- memoized per-function ladders -------------------------------------------------
#
# The Eq. 3 cost ``c(f_i, k, u) = -log(r_i (1-r_i)^k)`` depends only on
# ``(r_i, k)`` -- not on residuals, bins, or the round -- and the same holds
# for the gain ``g_i(k)`` and the accumulative reliability ``R_i(k)``.  The
# ladders below are therefore computed once per instance reliability and
# shared across items, problems, and batch requests drawn from one catalog.
#
# A ladder grows by its missing entries in one loop: ``r`` is checked once
# per extension, and each entry is the scalar function's own expression
# (``-log r - k * log1p(-r)`` for ``paper_cost``, ``1 - (1-r)^(n+1)`` for
# ``function_reliability``, ``log R(k) - log R(k-1)`` for ``item_gain``,
# with ``r == 1`` handled as they handle it), so memoized and scalar values
# are bit-identical.
#
# A sweep draws a fresh catalog, with new reliabilities, for every trial, and
# no later trial hits them; so a memo that reaches ``_LADDER_MEMO_LIMIT``
# reliabilities is emptied before it takes another.  A replay's catalog
# (a few dozen types) never reaches the limit.

_LADDER_MEMO_LIMIT = 1024


def _cost_entries(r: float, start: int, stop: int) -> list[float]:
    """``paper_cost(r, k)`` for ``k = start + 1 .. stop``."""
    if r >= 1.0:
        return [math.inf] * (stop - start)
    neg_log_r = -math.log(r)
    log_q = math.log1p(-r)
    return [neg_log_r - k * log_q for k in range(start + 1, stop + 1)]


def _gain_entries(r: float, start: int, stop: int) -> list[float]:
    """``item_gain(r, k)`` for ``k = start + 1 .. stop``."""
    if r >= 1.0:
        return [0.0] * (stop - start)
    q = 1.0 - r
    # log R(k) for k = start .. stop
    logs = [math.log(1.0 - q ** (k + 1)) for k in range(start, stop + 1)]
    return [b - a for a, b in zip(logs, logs[1:])]


def _reliability_entries(r: float, start: int, stop: int) -> list[float]:
    """``function_reliability(r, n)`` for ``n = start .. stop - 1``."""
    if r >= 1.0:
        return [1.0] * (stop - start)
    q = 1.0 - r
    return [1.0 - q ** (n + 1) for n in range(start, stop)]


_LADDER_ENTRIES = {
    "cost": _cost_entries,
    "gain": _gain_entries,
    "reliability": _reliability_entries,
}

_LADDER_CACHES: dict[str, dict[float, list[float]]] = {
    kind: {} for kind in _LADDER_ENTRIES
}


def _extend_ladder(kind: str, r: float, length: int) -> list[float]:
    cache = _LADDER_CACHES[kind]
    ladder = cache.get(r)
    if ladder is None:
        if len(cache) >= _LADDER_MEMO_LIMIT:
            cache.clear()
        ladder = cache[r] = []
    have = len(ladder)
    if have < length:
        _check_r(r)
        ladder += _LADDER_ENTRIES[kind](r, have, length)
    return ladder


def paper_cost_ladder(reliability: float, k_max: int) -> tuple[float, ...]:
    """Paper costs ``c(f, k, .)`` for ``k = 1..k_max``, memoized per ``r``.

    ``paper_cost_ladder(r, k)[k - 1] == paper_cost(r, k)`` exactly.
    """
    if k_max < 0:
        raise ValidationError(f"k_max must be >= 0, got {k_max}")
    return tuple(_extend_ladder("cost", reliability, k_max)[:k_max])


def gain_ladder(reliability: float, k_max: int) -> tuple[float, ...]:
    """Solver gains ``g(f, k)`` for ``k = 1..k_max``, memoized per ``r``.

    ``gain_ladder(r, k)[k - 1] == item_gain(r, k)`` exactly.
    """
    if k_max < 0:
        raise ValidationError(f"k_max must be >= 0, got {k_max}")
    return tuple(_extend_ladder("gain", reliability, k_max)[:k_max])


def reliability_ladder(reliability: float, k_max: int) -> tuple[float, ...]:
    """``R(f, k)`` for ``k = 0..k_max``, memoized per ``r``.

    ``reliability_ladder(r, k)[k] == function_reliability(r, k)`` exactly;
    the incremental matching engine uses these for its expectation checks.
    """
    if k_max < 0:
        raise ValidationError(f"k_max must be >= 0, got {k_max}")
    return tuple(_extend_ladder("reliability", reliability, k_max + 1)[: k_max + 1])


@dataclass(frozen=True)
class BackupItem:
    """One candidate secondary VNF instance -- an item of the BMCGAP.

    Attributes
    ----------
    position:
        Chain position index ``i`` (0-based) this backup belongs to.
    k:
        Backup ordinal within the position, ``1 <= k <= K_i``.
    function_name:
        Name of the VNF type at the position (diagnostics only).
    demand:
        Computing resource ``c(f_i)`` one instance consumes.
    gain:
        Solver gain ``g_i(k)`` (reduction of ``-log u_j``).
    cost:
        Paper cost ``c(f_i, k, .)`` -- identical for every allowed bin.
    bins:
        Allowed cloudlets: ``u in N_l^+(v_i)`` with enough residual capacity
        for at least one instance at generation time.
    """

    position: int
    k: int
    function_name: str
    demand: float
    gain: float
    cost: float
    bins: tuple[int, ...]

    @property
    def key(self) -> tuple[int, int]:
        """``(position, k)`` -- unique identity of the item in a problem."""
        return (self.position, self.k)


@dataclass(frozen=True)
class ItemGenerationConfig:
    """Controls of the BMCGAP item generation.

    Attributes
    ----------
    gain_floor:
        Drop items with gain below this value (``None`` disables).
    budget_headroom:
        When set (default), per-position item counts are additionally capped
        at the smallest prefix whose cumulative gain reaches
        ``budget * (1 + budget_headroom)`` -- items beyond that can never be
        part of a budget-respecting optimal prefix.  ``None`` disables.
    max_backups_per_function:
        Hard per-position cap, applied last (``None`` disables).
    """

    gain_floor: float | None = 1e-12
    budget_headroom: float | None = 0.5
    max_backups_per_function: int | None = None

    def __post_init__(self) -> None:
        if self.gain_floor is not None and self.gain_floor < 0:
            raise ValidationError(f"gain_floor must be >= 0, got {self.gain_floor}")
        if self.budget_headroom is not None and self.budget_headroom < 0:
            raise ValidationError(f"budget_headroom must be >= 0, got {self.budget_headroom}")
        if self.max_backups_per_function is not None and self.max_backups_per_function < 0:
            raise ValidationError(
                f"max_backups_per_function must be >= 0, got {self.max_backups_per_function}"
            )

    @classmethod
    def exact(cls) -> "ItemGenerationConfig":
        """No truncation: generate the paper's literal ``K_i`` items."""
        return cls(gain_floor=None, budget_headroom=None, max_backups_per_function=None)


def generate_items(
    request: Request,
    primary_placement: Sequence[int],
    neighborhoods: NeighborhoodIndex,
    residuals: Mapping[int, float],
    config: ItemGenerationConfig | None = None,
) -> list[BackupItem]:
    """Generate the BMCGAP items of an augmentation instance.

    Parameters
    ----------
    request:
        The admitted request (chain + expectation).
    primary_placement:
        Cloudlet node id ``v_i`` hosting the primary of each chain position;
        must have one entry per chain position.
    neighborhoods:
        ``l``-hop neighborhood index built over the AP graph *with*
        cloudlet restriction (see :meth:`MECNetwork.neighborhoods`).
    residuals:
        Residual capacity per cloudlet at generation time.
    config:
        Truncation controls; defaults to the sound truncations described in
        the module docstring.

    Returns
    -------
    list[BackupItem]
        Items sorted by ``(position, k)``.  Positions whose neighborhood has
        no usable cloudlet contribute no items.
    """
    return generate_items_with_plan(
        request, primary_placement, neighborhoods, residuals, config=config
    )[0]


def generate_items_with_plan(
    request: Request,
    primary_placement: Sequence[int],
    neighborhoods: NeighborhoodIndex,
    residuals: Mapping[int, float],
    config: ItemGenerationConfig | None = None,
) -> tuple[list[BackupItem], object | None]:
    """:func:`generate_items`, plus the kernel's flattened edge universe.

    Generation runs in :func:`repro.kernels.items.generate_items_vectorized`;
    the second element is its :class:`~repro.kernels.items.ItemPlan` (the
    (item, bin) edge arrays the incremental matching engine adopts), or
    ``None`` when the cloudlet ids are not plain ints.  The scalar loop the
    kernel replaced is kept in ``tests/reference/items.py`` as the
    differential reference (``tests/test_kernels_differential.py``).
    """
    chain = request.chain
    if len(primary_placement) != chain.length:
        raise ValidationError(
            f"primary placement has {len(primary_placement)} entries "
            f"for a chain of length {chain.length}"
        )
    # Deferred: repro.kernels.items imports this module.
    from repro.kernels.items import generate_items_vectorized

    return generate_items_vectorized(
        request, primary_placement, neighborhoods, residuals,
        config or ItemGenerationConfig(),
    )


def _budget_cap(r: float, needed_gain: float, headroom: float) -> int:
    """Smallest prefix length whose cumulative gain covers the needed gain.

    An optimal expectation-stopping solution never uses more than this many
    backups of one function: the cumulative gain of the prefix alone already
    exceeds the entire gain still needed (with ``headroom`` slack), so any
    solution using more has reached the expectation and would be trimmed.
    A single extra item of slack is kept so trimming decisions stay interior.
    """
    if needed_gain <= 0:
        return 0
    target = needed_gain * (1.0 + headroom)
    k = 1
    # cumulative_gain(r, k) -> -log r as k -> inf; if even the limit cannot
    # cover the padded budget, the cap is not binding -- return a count high
    # enough that capacity/gain-floor truncation dominates instead.
    limit = -math.log(r)
    if limit <= target:
        return 1_000_000
    while cumulative_gain(r, k) < target:
        k += 1
    return k + 1  # one item of slack beyond the covering prefix


def items_by_position(items: Sequence[BackupItem]) -> dict[int, list[BackupItem]]:
    """Group items by chain position, each group sorted by ``k``."""
    grouped: dict[int, list[BackupItem]] = {}
    for item in items:
        grouped.setdefault(item.position, []).append(item)
    for group in grouped.values():
        group.sort(key=lambda it: it.k)
        for expected_k, item in enumerate(group, start=1):
            if item.k != expected_k:
                raise ValidationError(
                    f"items of position {item.position} are not a contiguous prefix: "
                    f"expected k={expected_k}, found k={item.k}"
                )
    return grouped
