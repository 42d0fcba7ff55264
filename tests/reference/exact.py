"""The paper's literal assignment ILP, the oracle for the aggregated engine.

:class:`repro.algorithms.ilp_exact.ILPAlgorithm` solves the symmetry-free
aggregated model.  This module keeps the literal Eqs. (8)-(13) model of
:func:`repro.solvers.model.build_model` -- one binary per (item, bin) pair
-- solved exactly by HiGHS or by the pure-Python branch-and-bound of
:mod:`tests.reference.branch_and_bound`, so the suites can check that both
formulations and both solvers reach the same optimum.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.algorithms.base import (
    AugmentationAlgorithm,
    early_exit_result,
    finalize_result,
)
from repro.algorithms.ilp_exact import repair_prefix
from repro.core.problem import AugmentationProblem
from repro.core.solution import AugmentationResult, AugmentationSolution
from repro.solvers.ilp import ILPSolution
from repro.solvers.model import AssignmentModel, build_model
from repro.util.errors import InfeasibleError, ValidationError
from repro.util.rng import RandomState
from repro.util.timing import Stopwatch
from tests.reference.branch_and_bound import BnBOptions, solve_bnb

BACKENDS = ("highs", "bnb")


def assignments_from_values(
    model: AssignmentModel, values: np.ndarray, threshold: float = 0.5
) -> dict[tuple[int, int], int]:
    """Decode a 0/1 (or rounded) solution vector into item -> bin assignments.

    Values above ``threshold`` are treated as selected; if several bins of
    one item exceed the threshold (possible only for malformed inputs), the
    largest value wins.
    """
    chosen: dict[tuple[int, int], tuple[float, int]] = {}
    for col, (pos, k, u) in enumerate(model.var_keys):
        val = float(values[col])
        if val > threshold:
            prev = chosen.get((pos, k))
            if prev is None or val > prev[0]:
                chosen[(pos, k)] = (val, u)
    return {key: bin_ for key, (_v, bin_) in chosen.items()}


def solve_ilp(
    model: AssignmentModel,
    backend: str = "highs",
    bnb_options: BnBOptions | None = None,
) -> ILPSolution:
    """Solve the ILP exactly with the chosen backend."""
    if backend not in BACKENDS:
        raise ValidationError(f"unknown ILP backend {backend!r}; choose from {BACKENDS}")
    if backend == "bnb":
        bnb = solve_bnb(model, options=bnb_options)
        return ILPSolution(
            objective=bnb.objective,
            assignments=assignments_from_values(model, bnb.values),
            meta={"backend": "bnb", "nodes": bnb.nodes_explored},
        )

    constraints = LinearConstraint(
        model.a_ub, ub=model.b_ub, lb=np.full(model.num_constraints, -np.inf)
    )
    result = milp(
        c=model.objective,
        constraints=constraints,
        integrality=np.ones(model.num_vars),
        bounds=Bounds(0.0, 1.0),
        # HiGHS's default relative MIP gap (1e-4) lets it stop with enough
        # suboptimality for the heuristic to "beat" the "exact" solution on
        # tail items with ~1e-7 gains; an exact-zero gap makes it prove
        # optimality through massive bin symmetry (minutes on unrestricted-
        # radius instances).  1e-7 relative keeps the error far below the
        # 1e-6 absolute exactness the repository guarantees (objectives are
        # O(1) nats) while pruning symmetric ties.
        options={"mip_rel_gap": 1e-7},
    )
    if not result.success:
        raise InfeasibleError(f"MILP failed: {result.message}")
    values = np.rint(np.asarray(result.x, dtype=float))
    # Recompute the objective from the rounded values so tiny solver noise in
    # result.fun cannot leak into optimality comparisons.
    objective = float(model.objective @ values)
    return ILPSolution(
        objective=objective,
        assignments=assignments_from_values(model, values),
        meta={"backend": "highs", "mip_gap": float(getattr(result, "mip_gap", 0.0) or 0.0)},
    )


class AssignmentILP(AugmentationAlgorithm):
    """The exact comparator on the assignment model (``"highs"`` or ``"bnb"``).

    The solver may break ties between equal-gain items of one position
    with a non-prefix selection, so the result is re-keyed to the canonical
    prefix before the expectation trim.
    """

    name = "AssignmentILP"

    def __init__(self, backend: str = "highs", stop_at_expectation: bool = True):
        self.backend = backend
        self.stop_at_expectation = stop_at_expectation

    def solve(
        self, problem: AugmentationProblem, rng: RandomState = None
    ) -> AugmentationResult:
        """Solve one instance to optimality.  ``rng`` is ignored."""
        if problem.baseline_meets_expectation:
            return early_exit_result(problem, self.name)
        if not problem.items:
            return finalize_result(
                problem,
                AugmentationSolution.empty(),
                algorithm=self.name,
                runtime_seconds=0.0,
                stop_at_expectation=False,
                meta={"no_items": True},
            )
        with Stopwatch() as sw:
            model = build_model(problem)
            ilp = solve_ilp(model, backend=self.backend)
            assignments = repair_prefix(problem, ilp.assignments)
            solution = AugmentationSolution.from_assignments(problem, assignments)
        return finalize_result(
            problem,
            solution,
            algorithm=self.name,
            runtime_seconds=sw.elapsed,
            stop_at_expectation=self.stop_at_expectation,
            meta={"optimal_gain": ilp.total_gain, "num_vars": model.num_vars, **ilp.meta},
        )
