"""Reference implementations the differential suites check production code against.

Each module keeps the straightforward engine a fast path in ``src/``
replaced, so the bit-identity and exact-optimum contracts stay tested
without a runtime switch in the library:

* :mod:`tests.reference.items` -- the scalar BMCGAP item loop, the
  reference for :func:`repro.kernels.items.generate_items_vectorized`;
* :mod:`tests.reference.rebuild` -- Algorithm 2's full-rebuild round loop,
  the reference for :class:`repro.algorithms.heuristic.MatchingHeuristic`'s
  incremental rounds;
* :mod:`tests.reference.scan` -- the full-array ``argmin`` sweep of the
  warm LAP core, the reference for the heap sweep of
  :class:`repro.matching.warmstart.DualReusingSolver`;
* :mod:`tests.reference.trim` -- the expectation trim recomputing the
  chain reliability per candidate, the reference for the ladder trim of
  :func:`repro.core.solution.trim_to_expectation`;
* :mod:`tests.reference.waxman` -- the whole-matrix Waxman generator with
  its pairwise component join, the reference for the row-blocked
  :func:`repro.topology.gtitm.generate_gtitm_topology`, and the row-blocked
  generator built through networkx's ``add_*`` calls, the reference for
  its direct fill of the graph's dicts;
* :mod:`tests.reference.draws` -- the scalar-draw VNF catalog and cloudlet
  capacities, the references for the one-call draws of
  :meth:`repro.netmodel.vnf.VNFCatalog.random` and
  :func:`repro.topology.placement.assign_cloudlets`;
* :mod:`tests.reference.exact` -- the paper's literal assignment ILP
  (``solve_ilp`` on HiGHS or the branch-and-bound, and the
  ``AssignmentILP`` algorithm), the oracle for the aggregated model that
  :class:`repro.algorithms.ilp_exact.ILPAlgorithm` solves;
* :mod:`tests.reference.branch_and_bound` -- a pure-Python best-first
  LP-based branch-and-bound over 0/1 assignment models, the second exact
  solver behind that oracle;
* :mod:`tests.reference.admission` -- the capacity-checked branch of
  ``random_primary_placement`` and ``admit_request``'s own re-planning
  loop, the references for the ``redrawn`` and ``planned`` policies of
  :class:`repro.admission.transaction.Admission`.
"""
