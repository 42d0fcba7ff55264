"""Sparse constraint-matrix construction for the ILP of Section 4.4.

Variables.  One binary ``x_{i,k,u}`` per (generated item, allowed bin) pair.
Item generation already applied Eqs. (11)-(13): a variable exists only when
``u`` is a cloudlet in ``N_l^+(v_i)`` with room for at least one instance,
so no big-M rows or fix-to-zero constraints are needed.

Constraints.

* Eq. (8) -- each item is placed at most once: for every item ``(i, k)``,
  ``sum_u x_{i,k,u} <= 1``;
* Eq. (9) -- cloudlet capacity: for every cloudlet ``u``,
  ``sum_{(i,k)} c(f_i) x_{i,k,u} <= C'_u``.

There is no budget row: the pipeline trims overshoot after solving (see
:func:`repro.core.solution.trim_to_expectation`).

Objective.  The solvers *minimise* ``c @ x`` with ``c = -gain``, i.e. they
maximise the total reliability gain -- the internally consistent reading of
the paper's objective (5)-(7); DESIGN.md section 1 discusses the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.problem import AugmentationProblem
from repro.util.errors import ValidationError

#: A variable key: (chain position, backup ordinal k, cloudlet bin).
VarKey = tuple[int, int, int]


@dataclass(frozen=True)
class AssignmentModel:
    """The assembled LP/ILP: ``min c @ x  s.t.  A_ub @ x <= b_ub, 0 <= x <= 1``.

    Attributes
    ----------
    var_keys:
        ``(position, k, bin)`` identity of each variable, in column order.
    objective:
        The minimisation vector ``c`` (negated gains).
    a_ub, b_ub:
        Sparse inequality system (item rows, then capacity rows).
    item_rows, capacity_rows:
        Row-index ranges for diagnostics and tests.
    """

    var_keys: tuple[VarKey, ...]
    objective: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    item_rows: range
    capacity_rows: range

    @property
    def num_vars(self) -> int:
        """Number of variables."""
        return len(self.var_keys)

    @property
    def num_constraints(self) -> int:
        """Number of inequality rows."""
        return self.a_ub.shape[0]

    def column_of(self, key: VarKey) -> int:
        """Column index of a variable key (testing helper; linear scan)."""
        try:
            return self.var_keys.index(key)
        except ValueError:
            raise KeyError(f"no variable {key}") from None


def build_model(problem: AugmentationProblem) -> AssignmentModel:
    """Assemble the sparse model of an augmentation problem instance.

    Parameters
    ----------
    problem:
        The instance (items already generated/truncated).

    Raises
    ------
    ValidationError
        If the problem generated no items (the model would be empty; the
        caller should short-circuit to the empty solution instead).
    """
    items = problem.items
    if not items:
        raise ValidationError("cannot build a model with zero items")

    var_keys: list[VarKey] = []
    gains: list[float] = []
    demands: list[float] = []
    for item in items:
        for u in item.bins:
            var_keys.append((item.position, item.k, u))
            gains.append(item.gain)
            demands.append(item.demand)
    num_vars = len(var_keys)

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    # Eq. (8): one row per item.
    item_row_of: dict[tuple[int, int], int] = {
        (it.position, it.k): r for r, it in enumerate(items)
    }
    for col, (pos, k, _u) in enumerate(var_keys):
        rows.append(item_row_of[(pos, k)])
        cols.append(col)
        vals.append(1.0)
    num_item_rows = len(items)

    # Eq. (9): one row per cloudlet that appears as a bin.
    bins_in_use = sorted({u for it in items for u in it.bins})
    cap_row_of = {u: num_item_rows + i for i, u in enumerate(bins_in_use)}
    for col, (_pos, _k, u) in enumerate(var_keys):
        rows.append(cap_row_of[u])
        cols.append(col)
        vals.append(demands[col])
    num_rows = num_item_rows + len(bins_in_use)

    a_ub = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(num_rows, num_vars), dtype=float
    )
    b_ub = np.empty(num_rows)
    b_ub[:num_item_rows] = 1.0
    for u, r in cap_row_of.items():
        b_ub[r] = problem.residuals.get(u, 0.0)

    return AssignmentModel(
        var_keys=tuple(var_keys),
        objective=-np.asarray(gains, dtype=float),
        a_ub=a_ub,
        b_ub=b_ub,
        item_rows=range(0, num_item_rows),
        capacity_rows=range(num_item_rows, num_item_rows + len(bins_in_use)),
    )


@dataclass(frozen=True)
class AggregatedModel:
    """The symmetry-free reformulation of the augmentation ILP.

    The literal Eq. (8)-(13) model has one binary per (item, bin) pair;
    items of one position are bin-interchangeable, so exact solvers waste
    enormous effort proving optimality across symmetric solutions.  This
    reformulation aggregates:

    * binary **gain steps** ``z_{i,k}`` -- "position ``i`` has at least
      ``k`` backups *somewhere*", worth gain ``g_i(k)``;
    * integer **bin counts** ``y_{i,u}`` -- how many backups of position
      ``i`` sit on cloudlet ``u``, bounded by ``floor(C'_u / c_i)``;
    * per-position balance ``sum_k z_{i,k} = sum_u y_{i,u}`` and the usual
      capacity rows ``sum_i c_i y_{i,u} <= C'_u``.

    Because ``g_i(k)`` is strictly decreasing, optima select ``z`` prefixes
    automatically, and any feasible ``y`` decomposes into a per-item
    assignment (items are interchangeable) -- so the optimal objective
    equals the assignment formulation's, with none of its symmetry.
    The test suite asserts the equivalence instance by instance.

    Attributes
    ----------
    z_keys / y_keys:
        Identities of the two variable blocks, in column order (z block
        first).
    objective:
        Minimisation vector (negated gains on the z block, zeros on y).
    a_ub / b_ub:
        Capacity rows over the y block.
    a_eq / b_eq:
        Per-position balance rows.
    upper:
        Per-variable integer upper bounds (1 for z, bin capacity for y).
    """

    z_keys: tuple[tuple[int, int], ...]
    y_keys: tuple[tuple[int, int], ...]
    objective: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    upper: np.ndarray

    @property
    def num_vars(self) -> int:
        """Total variables (z block + y block)."""
        return len(self.z_keys) + len(self.y_keys)


def build_aggregated_model(problem: AugmentationProblem) -> AggregatedModel:
    """Assemble the aggregated (symmetry-free) model of an instance."""
    items = problem.items
    if not items:
        raise ValidationError("cannot build a model with zero items")
    grouped: dict[int, list] = {}
    for item in items:
        grouped.setdefault(item.position, []).append(item)
    for group in grouped.values():
        group.sort(key=lambda it: it.k)

    z_keys: list[tuple[int, int]] = []
    gains: list[float] = []
    for position, group in sorted(grouped.items()):
        for item in group:
            z_keys.append((position, item.k))
            gains.append(item.gain)

    y_keys: list[tuple[int, int]] = []
    y_upper: list[float] = []
    for position, group in sorted(grouped.items()):
        demand = group[0].demand
        for u in group[0].bins:
            residual = problem.residuals.get(u, 0.0)
            cap = int((residual + 1e-9) / demand)
            if cap > 0:
                y_keys.append((position, u))
                y_upper.append(float(min(cap, len(group))))

    nz, ny = len(z_keys), len(y_keys)
    z_col = {key: c for c, key in enumerate(z_keys)}
    y_col = {key: nz + c for c, key in enumerate(y_keys)}

    # capacity rows over y
    bins_in_use = sorted({u for _pos, u in y_keys})
    cap_row = {u: r for r, u in enumerate(bins_in_use)}
    demand_of = {pos: group[0].demand for pos, group in grouped.items()}
    rows, cols, vals = [], [], []
    for (pos, u), col in y_col.items():
        rows.append(cap_row[u])
        cols.append(col)
        vals.append(demand_of[pos])
    a_ub = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(bins_in_use), nz + ny), dtype=float
    )
    b_ub = np.array([problem.residuals.get(u, 0.0) for u in bins_in_use])

    # balance rows: sum_k z - sum_u y = 0 per position
    positions = sorted(grouped)
    bal_row = {pos: r for r, pos in enumerate(positions)}
    rows, cols, vals = [], [], []
    for (pos, _k), col in z_col.items():
        rows.append(bal_row[pos])
        cols.append(col)
        vals.append(1.0)
    for (pos, _u), col in y_col.items():
        rows.append(bal_row[pos])
        cols.append(col)
        vals.append(-1.0)
    a_eq = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(positions), nz + ny), dtype=float
    )
    b_eq = np.zeros(len(positions))

    objective = np.concatenate([-np.asarray(gains), np.zeros(ny)])
    upper = np.concatenate([np.ones(nz), np.asarray(y_upper)])
    return AggregatedModel(
        z_keys=tuple(z_keys),
        y_keys=tuple(y_keys),
        objective=objective,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        upper=upper,
    )


def assignments_from_aggregated(
    model: AggregatedModel, values: np.ndarray
) -> dict[tuple[int, int], int]:
    """Decode an aggregated solution into per-item bin assignments.

    Position ``i``'s selected count ``m_i = sum_k z_{i,k}`` is distributed
    over bins according to ``y_{i,u}``; items ``k = 1..m_i`` are assigned
    to those bin slots in sorted-bin order (items are interchangeable, so
    any pairing is optimal and feasible).
    """
    nz = len(model.z_keys)
    counts: dict[int, int] = {}
    for c, (pos, _k) in enumerate(model.z_keys):
        if values[c] > 0.5:
            counts[pos] = counts.get(pos, 0) + 1
    slots: dict[int, list[int]] = {}
    for c, (pos, u) in enumerate(model.y_keys):
        copies = int(round(values[nz + c]))
        if copies > 0:
            slots.setdefault(pos, []).extend([u] * copies)

    assignments: dict[tuple[int, int], int] = {}
    for pos, m in counts.items():
        bins = sorted(slots.get(pos, []))
        # balance rows guarantee len(bins) == m
        for k, u in zip(range(1, m + 1), bins):
            assignments[(pos, k)] = u
    return assignments

