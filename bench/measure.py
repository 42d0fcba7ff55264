"""Statistics and process measurements the benchmark computes itself.

Percentiles live here, on numpy, rather than in ``repro.util.stats``, so a
change to the program under test cannot redefine a benchmark metric.
"""

from __future__ import annotations

import hashlib
import math
import os
from pathlib import Path

import numpy as np

#: The guide's rule: report a percentile only when at least this many
#: independent samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def weighted_percentile(values, weights, q: float) -> float:
    """The ``q``-th percentile of ``values`` where sample ``i`` counts ``weights[i]`` times.

    Inverted-CDF definition: the smallest value whose cumulative weight
    reaches ``q`` percent of the total.  With unit weights this equals
    ``numpy.percentile(values, q, method="inverted_cdf")``.
    """
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if v.shape != w.shape or v.ndim != 1 or not len(v):
        raise ValueError("values and weights must be equal-length, non-empty 1-d")
    if np.any(w < 0) or not np.any(w > 0):
        raise ValueError("weights must be non-negative with a positive total")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    order = np.argsort(v, kind="stable")
    cumulative = np.cumsum(w[order])
    target = q / 100.0 * cumulative[-1]
    index = int(np.searchsorted(cumulative, target, side="left"))
    return float(v[order][min(index, len(v) - 1)])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` distinct unit-weight samples lie beyond their ``q``-th percentile."""
    return count - math.ceil(q / 100.0 * count)


def units_beyond(values, weights, q: float) -> int:
    """How many samples lie strictly above the weighted ``q``-th percentile.

    With request weights a few heavy windows can hold the percentile, so
    the rule counts the windows themselves, not the requests in them.
    """
    if not len(values):
        return 0
    cut = weighted_percentile(values, weights, q)
    return int(np.count_nonzero(np.asarray(values, dtype=np.float64) > cut))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``, as ``statistics.quantiles(values, n=4)`` gives them."""
    import statistics

    values = list(values)
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q1, median, q3)


def rss_mb(pid: int | None = None) -> float:
    """Resident set size of ``pid`` plus every live descendant, in MB (Linux ``/proc``)."""
    total_kb = 0
    for proc in [pid or os.getpid(), *descendants(pid)]:
        try:
            status = Path(f"/proc/{proc}/status").read_text()
        except OSError:  # the process ended between listing and reading
            continue
        for line in status.splitlines():
            if line.startswith("VmRSS:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def children(pid: int | None = None) -> list[int]:
    """Direct child pids of ``pid`` (default: this process)."""
    pid = pid or os.getpid()
    found: list[int] = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            found.extend(int(p) for p in (task / "children").read_text().split())
        except OSError:
            continue
    return found


def descendants(pid: int | None = None) -> list[int]:
    """Every live descendant pid of ``pid``, breadth first."""
    out: list[int] = []
    frontier = children(pid)
    while frontier:
        out.extend(frontier)
        frontier = [grandchild for child in frontier for grandchild in children(child)]
    return out


class Digest:
    """SHA-256 over a stream of ``repr`` lines -- the correctness fingerprint."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, value: object) -> None:
        self._hash.update(repr(value).encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
