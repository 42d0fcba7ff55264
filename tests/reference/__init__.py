"""Reference implementations the differential suites check production code against.

Each module keeps the straightforward engine a fast path in ``src/``
replaced, so the bit-identity contracts stay tested without a runtime
switch in the library:

* :mod:`tests.reference.items` -- the scalar BMCGAP item loop, the
  reference for :func:`repro.kernels.items.generate_items_vectorized`;
* :mod:`tests.reference.rebuild` -- Algorithm 2's full-rebuild round loop,
  the reference for :class:`repro.algorithms.heuristic.MatchingHeuristic`'s
  incremental rounds;
* :mod:`tests.reference.scan` -- the full-array ``argmin`` sweep of the
  warm LAP core, the reference for the heap sweep of
  :class:`repro.matching.warmstart.DualReusingSolver`;
* :mod:`tests.reference.waxman` -- the whole-matrix Waxman generator with
  its pairwise component join, the reference for the row-blocked
  :func:`repro.topology.gtitm.generate_gtitm_topology`.
"""
