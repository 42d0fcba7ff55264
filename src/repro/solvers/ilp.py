"""Exact 0/1 solutions of the augmentation ILP.

One engine: the symmetry-free aggregated model of
:func:`repro.solvers.model.build_aggregated_model`, solved by HiGHS
(:func:`scipy.optimize.milp`).  It is the "ILP" curve of the figures.  The
paper's literal assignment model, solved by HiGHS or by a pure-Python
branch-and-bound, lives in ``tests/reference/`` as the oracle the test
suite checks this optimum against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.solvers.model import AggregatedModel, assignments_from_aggregated
from repro.util.errors import InfeasibleError


@dataclass(frozen=True)
class ILPSolution:
    """An exact integer optimum.

    Attributes
    ----------
    objective:
        Optimal ``c @ x`` (negated gain).
    assignments:
        ``(position, k) -> bin`` for selected items.
    meta:
        Backend diagnostics (MIP gap etc.).
    """

    objective: float
    assignments: dict[tuple[int, int], int]
    meta: dict[str, object] = field(default_factory=dict)

    @property
    def total_gain(self) -> float:
        """Optimal total gain (``-objective``)."""
        return -self.objective

    @property
    def num_placed(self) -> int:
        """Number of items placed."""
        return len(self.assignments)


def solve_ilp_aggregated(model: AggregatedModel) -> ILPSolution:
    """Solve the symmetry-free aggregated formulation with HiGHS.

    Its optimum equals the literal assignment model's on the same instance
    (the test suite pins this against the assignment-ILP and
    branch-and-bound oracles), but it is orders of magnitude faster on
    wide-radius instances where bin symmetry cripples the literal
    formulation.
    """
    constraints = [
        LinearConstraint(
            model.a_ub, ub=model.b_ub, lb=np.full(model.a_ub.shape[0], -np.inf)
        ),
        LinearConstraint(model.a_eq, lb=model.b_eq, ub=model.b_eq),
    ]
    result = milp(
        c=model.objective,
        constraints=constraints,
        integrality=np.ones(model.num_vars),
        bounds=Bounds(np.zeros(model.num_vars), model.upper),
        options={"mip_rel_gap": 1e-9},
    )
    if not result.success:
        raise InfeasibleError(f"aggregated MILP failed: {result.message}")
    values = np.rint(np.asarray(result.x, dtype=float))
    objective = float(model.objective @ values)
    return ILPSolution(
        objective=objective,
        assignments=assignments_from_aggregated(model, values),
        meta={
            "backend": "highs-aggregated",
            "mip_gap": float(getattr(result, "mip_gap", 0.0) or 0.0),
        },
    )
