"""A from-scratch branch-and-bound MILP solver.

The paper's "ILP solution" presumes access to an exact integer programming
solver; offline we have no PuLP/Gurobi, so this module implements the
classic LP-based branch-and-bound from first principles:

* **relaxation**: each node solves the LP relaxation (HiGHS via
  :func:`scipy.optimize.linprog`) under the node's 0/1 variable fixings;
* **bounding**: a node is pruned when its LP bound cannot beat the
  incumbent (minimisation: ``lp_bound >= incumbent - tol``);
* **branching**: most-fractional variable; two children fix it to 0 / 1;
* **search order**: best-first on the LP bound (a heap), which reaches
  strong incumbents quickly on these assignment-structured models;
* **incumbents**: every solved relaxation contributes one.  Integral
  optima are taken as-is; fractional ones are *rounded down* to an
  integer-feasible point -- sound here because every constraint row of an
  :class:`AssignmentModel` has non-negative coefficients with a ``<=``
  sense, so decreasing any variable preserves feasibility.  The root's
  round-down already gives a near-optimal incumbent on these models,
  which is what keeps the tree small despite the heavy bin symmetry
  (items of one function are interchangeable across bins; equal-bound
  subtrees are pruned as soon as the incumbent matches the optimum).

The solver is exact: it terminates with the proven optimum (within
``options.absolute_gap``) or raises after ``options.max_nodes`` nodes.  On
the augmentation models of this repository the LP relaxation is naturally
near-integral (assignment rows + knapsack rows), so trees stay small on
the instances ``tests/test_solvers_bnb.py`` checks against HiGHS; at the
Figure 1 sizes most solves run past 10 s (``docs/algorithms.md``).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from repro.solvers.model import AssignmentModel
from repro.util.errors import InfeasibleError, ReproError


class NodeLimitExceeded(ReproError):
    """Branch-and-bound explored ``max_nodes`` nodes without proving optimality."""


@dataclass(frozen=True)
class BnBOptions:
    """Branch-and-bound controls.

    Attributes
    ----------
    integrality_tol:
        Values within this of an integer count as integral.
    absolute_gap:
        Terminate when the best open bound is within this of the incumbent.
        The default (1e-6) matches the practical exactness of the HiGHS
        backend (scipy's ``milp`` exposes only a relative gap, leaving
        ~1e-6 absolute slack); demanding much less makes the tree explode
        on bin-symmetric augmentation models whose near-optimal integer
        points differ by ~1e-7 tail-item gains.
    max_nodes:
        Hard node budget; exceeding it raises :class:`NodeLimitExceeded`.
    """

    integrality_tol: float = 1e-6
    absolute_gap: float = 1e-6
    max_nodes: int = 200_000


@dataclass(frozen=True)
class BnBSolution:
    """Proven-optimal integer solution."""

    objective: float
    values: np.ndarray
    nodes_explored: int


@dataclass(order=True)
class _Node:
    """A search node ordered by its LP bound (best-first)."""

    bound: float
    tiebreak: int
    fixed_zero: frozenset[int] = field(compare=False)
    fixed_one: frozenset[int] = field(compare=False)


def _solve_relaxation(
    model: AssignmentModel, fixed_zero: frozenset[int], fixed_one: frozenset[int]
) -> tuple[float, np.ndarray] | None:
    """LP optimum under the node's fixings, or ``None`` if infeasible."""
    lower = np.zeros(model.num_vars)
    upper = np.ones(model.num_vars)
    if fixed_zero:
        upper[list(fixed_zero)] = 0.0
    if fixed_one:
        lower[list(fixed_one)] = 1.0
    result = linprog(
        c=model.objective,
        A_ub=model.a_ub,
        b_ub=model.b_ub,
        bounds=np.column_stack([lower, upper]),
        method="highs",
    )
    if not result.success:
        return None
    return float(result.fun), np.asarray(result.x, dtype=float)


def _most_fractional(values: np.ndarray, tol: float) -> int | None:
    """Index of the variable farthest from integrality, or ``None`` if integral."""
    frac = np.abs(values - np.rint(values))
    idx = int(np.argmax(frac))
    return idx if frac[idx] > tol else None


def solve_bnb(
    model: AssignmentModel, options: BnBOptions | None = None
) -> BnBSolution:
    """Solve ``min c @ x`` over 0/1 ``x`` subject to the model's rows.

    Raises
    ------
    InfeasibleError
        If even the root relaxation is infeasible (malformed model -- the
        augmentation relaxation always admits x = 0).
    NodeLimitExceeded
        If the node budget runs out before optimality is proven.
    """
    options = options or BnBOptions()

    root = _solve_relaxation(model, frozenset(), frozenset())
    if root is None:
        raise InfeasibleError("root LP relaxation is infeasible")
    root_bound, root_values = root

    incumbent_obj = np.inf
    incumbent_values: np.ndarray | None = None
    counter = itertools.count()  # FIFO tiebreak for equal bounds
    heap: list[_Node] = []

    def offer_incumbent(values: np.ndarray) -> None:
        """Round an LP point down to {0,1} and keep it if it improves.

        Sound because every A_ub row has non-negative coefficients with a
        ``<=`` sense: decreasing variables cannot break feasibility, and
        fixed-to-one variables sit at 1.0 in the LP so they survive the
        rounding unchanged.
        """
        nonlocal incumbent_obj, incumbent_values
        rounded = np.where(values >= 1.0 - options.integrality_tol, 1.0, 0.0)
        obj = float(model.objective @ rounded)
        if obj < incumbent_obj:
            incumbent_obj = obj
            incumbent_values = rounded

    offer_incumbent(root_values)
    branch_var = _most_fractional(root_values, options.integrality_tol)
    if branch_var is None:
        return BnBSolution(root_bound, np.rint(root_values), nodes_explored=1)
    heapq.heappush(
        heap, _Node(root_bound, next(counter), frozenset(), frozenset())
    )

    nodes = 1
    while heap:
        node = heapq.heappop(heap)
        if node.bound >= incumbent_obj - options.absolute_gap:
            break  # best-first: every remaining node is at least as bad
        relax = _solve_relaxation(model, node.fixed_zero, node.fixed_one)
        nodes += 1
        if nodes > options.max_nodes:
            raise NodeLimitExceeded(
                f"exceeded {options.max_nodes} nodes (incumbent {incumbent_obj})"
            )
        if relax is None:
            continue
        bound, values = relax
        offer_incumbent(values)
        if bound >= incumbent_obj - options.absolute_gap:
            continue
        var = _most_fractional(values, options.integrality_tol)
        if var is None:
            continue  # integral: offer_incumbent above already captured it
        for fixed_zero, fixed_one in (
            (node.fixed_zero | {var}, node.fixed_one),
            (node.fixed_zero, node.fixed_one | {var}),
        ):
            heapq.heappush(
                heap, _Node(bound, next(counter), frozenset(fixed_zero), frozenset(fixed_one))
            )

    if incumbent_values is None:
        # No integral point was ever produced by the relaxations.  x = 0 is
        # always feasible for the augmentation models, so fall back to it;
        # reaching this with a non-trivial optimum would be a logic error
        # caught by the cross-backend tests.
        incumbent_values = np.zeros(model.num_vars)
        incumbent_obj = 0.0
    return BnBSolution(
        objective=float(incumbent_obj),
        values=incumbent_values,
        nodes_explored=nodes,
    )
