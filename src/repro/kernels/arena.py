"""Per-thread reusable matrix buffers for the matching pipeline.

Every :class:`~repro.algorithms.heuristic.MatchingHeuristic` solve used to
allocate a fresh set of NumPy scratch arrays (the round engine's residual
snapshot and index maps) plus a fresh
:class:`~repro.matching.mincost.MatchingWorkspace` for the padded
assignment matrices.  On a request stream those allocations repeat
thousands of times with essentially the same shapes.

:class:`MatrixArena` is a pool of named, growable flat buffers that the
round engine leases views of instead.  Leased buffers are always fully
(re)initialised by their consumer before use, so reuse can never leak
state between solves -- the differential suites assert arena-leased
solves are bit-identical to the reference round loop in
``tests/reference/rebuild.py``, which allocates fresh buffers.

The warm-started matching backend
(:class:`~repro.matching.warmstart.DualReusingSolver`) leases its state
from the same pool under the ``warm_*`` names: ``warm_u`` / ``warm_v`` /
``warm_vd`` hold the persistent LAP duals and ``warm_match_col4row`` /
``warm_match_row4col`` the persistent global matching of the delta
re-solve engine (all sized by the global node/item spaces, so they
survive every round of a solve).  The dual/matching buffers look like an
exception to the "fully re-initialised before use" rule, but are not:
the solver initialises them at
construction and thereafter they are solver *state*, reused only within
the one solve that owns the lease -- which is also why at most one live
arena-backed warm solver may exist per arena.

Locality contract (see ``docs/performance.md``)
-----------------------------------------------
An arena is **thread-local and process-local**, never shared and never
pickled:

* :func:`thread_arena` hands each thread its own instance.  Per-*thread*
  (not merely per-process) matters because the solver fallback chain
  (:mod:`repro.algorithms.fallback`) abandons timed-out solves on daemon
  worker threads that may still be running -- a process-wide arena would
  let an abandoned solve scribble over the replacement solve's matrices.
* The parallel sweep executor (:mod:`repro.parallel`) forks worker
  processes; :func:`thread_arena` re-creates the pool after a fork (pid
  guard) so a child never aliases its parent's buffers.
* :meth:`MatrixArena.__reduce__` raises, so an arena can never ride along
  a pickled task payload by accident.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.matching.mincost import MatchingWorkspace


class MatrixArena:
    """A pool of named growable buffers plus one shared matching workspace.

    Buffers are keyed by purpose name; :meth:`take` returns a length-
    ``size`` view of the named flat buffer, growing it when a larger
    request arrives.  One consumer per name may be active at a time (the
    round engine's per-solve usage satisfies this; use :func:`thread_arena`
    so concurrent threads never share a pool).
    """

    __slots__ = ("workspace", "_pools", "_arange")

    def __init__(self) -> None:
        self.workspace = MatchingWorkspace()
        self._pools: dict[str, np.ndarray] = {}
        self._arange: np.ndarray | None = None

    def take(self, name: str, size: int, dtype) -> np.ndarray:
        """A length-``size`` view of the named buffer (contents arbitrary --
        the consumer must initialise every element it will read)."""
        pool = self._pools.get(name)
        if pool is None or pool.size < size or pool.dtype != np.dtype(dtype):
            grow = size if pool is None else max(size, 2 * pool.size)
            pool = self._pools[name] = np.empty(grow, dtype=dtype)
        return pool[:size]

    def arange(self, size: int) -> np.ndarray:
        """A read-only-by-convention view of ``[0, size)`` as ``intp``.

        Growing keeps previously handed-out views valid (the old array
        stays alive behind them) and the values are immutable by contract.
        """
        cur = self._arange
        if cur is None or cur.size < size:
            cur = self._arange = np.arange(max(size, 64), dtype=np.intp)
        return cur[:size]

    def __reduce__(self):
        # The never-pickle contract the shared-memory distribution layer
        # (repro.parallel.shm) is built around: state crosses the process
        # boundary only as read-only views over published segments plus
        # value-like metadata -- mutable scratch like this arena is rebuilt
        # locally by each worker, never serialised.
        raise TypeError(
            "MatrixArena is thread/process-local and must never be pickled; "
            "each worker creates its own via thread_arena() "
            "(see docs/performance.md and docs/parallel.md)"
        )


_LOCAL = threading.local()


def thread_arena() -> MatrixArena:
    """The calling thread's arena, created on first use.

    Re-created after a ``fork`` (the parallel executor's worker processes
    inherit the parent's thread-local storage), so parent and child never
    alias one pool.
    """
    pid = os.getpid()
    if getattr(_LOCAL, "pid", None) != pid:
        _LOCAL.arena = MatrixArena()
        _LOCAL.pid = pid
    return _LOCAL.arena
