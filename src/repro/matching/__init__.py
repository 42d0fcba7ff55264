"""Bipartite matching substrate for the heuristic (Algorithm 2).

Algorithm 2 repeatedly solves *minimum-cost maximum matching* on bipartite
graphs between cloudlets and remaining BMCGAP items.  This subpackage
provides:

* :func:`~repro.matching.mincost.min_cost_max_matching` -- the wrapper that
  reduces min-cost *maximum* matching with forbidden edges to a padded
  square assignment problem solved by
  :func:`scipy.optimize.linear_sum_assignment` (the ``"scipy"`` backend,
  the Hungarian-method solver the paper names);
* :func:`~repro.matching.mincost.min_cost_max_matching_arrays` -- the
  array-based entry point used by the incremental engine, with a reusable
  :class:`~repro.matching.mincost.MatchingWorkspace` matrix buffer;
* :func:`~repro.matching.sparse.sparse_min_cost_max_matching` -- the CSR
  backend (``"sparse"``): the real edge set plus dummy columns handed to
  ``scipy.sparse.csgraph``, skipping the dense ``(n+m)^2`` padding;
* :class:`~repro.matching.warmstart.DualReusingSolver` -- the ``"warm"``
  backend: a sparse JV solver whose dual potentials *and matching* persist
  across Algorithm 2's rounds (factories:
  :func:`~repro.matching.incremental.warm_solver_for` and
  :meth:`~repro.matching.incremental.RoundState.warm_solver`); delta rounds keep
  still-valid pairs and re-augment only orphans
  (:meth:`~repro.matching.warmstart.DualReusingSolver.solve_round_delta`);
  both entry points take Algorithm 2's shrinking rounds only and reject a
  grown round with ``ValidationError``.  It comes with
  :class:`~repro.matching.warmstart.WarmStats` counters and the
  ``REPRO_WARM_DELTA`` switch
  (:func:`~repro.matching.warmstart.warm_delta_enabled`).  A round is a
  row-major CSR of plain lists
  (:meth:`~repro.matching.incremental.RoundState.build_csr`), and
  everything after the round graph's build runs on plain lists;
* :class:`~repro.matching.incremental.RoundState` -- the incremental round
  engine for Algorithm 2's hot path: static edge universe, delta-maintained
  residuals committed through its own ``allocate``, bit-identical to
  rebuilding ``G_l`` from a ledger every round, in each backend's own
  representation (per-node item lists pruned in place for ``"warm"``, a
  flattened NumPy universe for the dense and sparse backends, each built
  on first use); it also holds a *wave* of problems with disjoint
  cloudlets on one residual snapshot.

The ``"auto"`` backend and its dense/sparse cutoff live in
:mod:`repro.matching.mincost`.  The callers pick the backend: the
heuristic's solo solves run on ``"auto"`` and the admission service's
waves on ``"warm"``.
"""

from repro.matching.incremental import RoundState, warm_solver_for
from repro.matching.mincost import (
    BACKENDS,
    SPARSE_CUTOFF,
    MatchEdge,
    MatchingWorkspace,
    min_cost_max_matching,
    min_cost_max_matching_arrays,
    resolve_backend,
    select_backend,
)
from repro.matching.sparse import sparse_min_cost_max_matching
from repro.matching.warmstart import (
    DualReusingSolver,
    WarmStats,
    warm_delta_enabled,
    warm_min_cost_max_matching,
)

__all__ = [
    "BACKENDS",
    "SPARSE_CUTOFF",
    "DualReusingSolver",
    "MatchEdge",
    "MatchingWorkspace",
    "RoundState",
    "min_cost_max_matching",
    "min_cost_max_matching_arrays",
    "resolve_backend",
    "select_backend",
    "sparse_min_cost_max_matching",
    "warm_delta_enabled",
    "warm_min_cost_max_matching",
    "warm_solver_for",
    "WarmStats",
]
