"""LP/ILP model layer for the augmentation problem (Section 4.4).

The paper formulates the augmentation problem as an integer linear program
over binary variables ``x_{i,k,u}`` ("the k-th secondary of position i goes
to cloudlet u").  This subpackage provides:

* :mod:`~repro.solvers.model` -- the sparse constraint-matrix builders:
  the literal Eqs. (8)-(13) assignment model, with Eqs. (11)-(13) realised
  as variable elimination (variables are only created for allowed
  item-bin pairs), and its symmetry-free aggregated reformulation;
* :mod:`~repro.solvers.lp` -- the LP relaxation (``x in [0, 1]``) of the
  assignment model, solved with HiGHS via :func:`scipy.optimize.linprog`;
  feeds Algorithm 1;
* :mod:`~repro.solvers.ilp` -- the exact 0/1 optimum of the aggregated
  model via HiGHS MILP (:func:`scipy.optimize.milp`);
* :mod:`~repro.solvers.multi` -- the exact joint multi-request solver.

The assignment ILP and a pure-Python branch-and-bound (PuLP/Gurobi are not
available offline) are kept in ``tests/reference/`` as the oracles the
aggregated optimum is checked against.
"""

from repro.solvers.ilp import ILPSolution, solve_ilp_aggregated
from repro.solvers.lp import LPSolution, solve_lp
from repro.solvers.model import (
    AggregatedModel,
    AssignmentModel,
    build_aggregated_model,
    build_model,
)
from repro.solvers.multi import JointSolution, solve_joint

__all__ = [
    "AggregatedModel",
    "AssignmentModel",
    "JointSolution",
    "ILPSolution",
    "LPSolution",
    "build_aggregated_model",
    "build_model",
    "solve_ilp_aggregated",
    "solve_joint",
    "solve_lp",
]
