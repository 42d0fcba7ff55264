"""Initial request admission: primary VNF instance placement (Section 4.1).

Before augmentation, a request's *primary* instances must be placed.  The
paper adopts the auxiliary-DAG technique of Ma et al. [15]: build a layered
directed acyclic graph whose layer ``i`` holds the candidate cloudlets for
function ``f_i``, weight edges by ``-log`` reliability, and read the
maximum-reliability placement off a shortest path.

Entry points:

* :class:`~repro.admission.transaction.Admission` -- one request's ledger
  transaction (primaries, backups, abort), which every admitting caller uses;
* :func:`~repro.admission.admit.admit_request` -- the DAG-based admission
  (used by the examples and integration tests);
* :func:`~repro.admission.admit.random_primary_placement` -- uniform,
  capacity-blind placement onto cloudlets, which is what the paper's
  *experiments* use ("Each VNF instance in the primary SFC deployed randomly
  into cloudlets", Section 7.1).
"""

from repro.admission.admit import (
    AdmissionOutcome,
    admit_request,
    random_primary_placement,
)
from repro.admission.dag import AdmissionDAG, most_reliable_path_weights
from repro.admission.transaction import Admission, drawn, planned, redrawn

__all__ = [
    "Admission",
    "AdmissionDAG",
    "AdmissionOutcome",
    "admit_request",
    "drawn",
    "most_reliable_path_weights",
    "planned",
    "random_primary_placement",
    "redrawn",
]
