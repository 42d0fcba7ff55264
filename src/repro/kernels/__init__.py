"""Array-native construction kernels.

The modules below implement the hot paths of instance construction with
NumPy bulk operations:

* :mod:`repro.kernels.csr` -- CSR adjacency + vectorized multi-source
  truncated BFS, serving ``N_l^+(v)`` masks to
  :class:`repro.netmodel.neighborhoods.NeighborhoodIndex` (checked against
  networkx by ``tests/test_kernels_csr.py``);
* :mod:`repro.kernels.items` -- vectorized BMCGAP item generation
  (candidate bins, ``K_i`` capacity counts, and Lemma 4.1 cost ladders),
  bit-identical to the scalar reference loop in ``tests/reference/items.py``
  (``tests/test_kernels_differential.py``).

They are wired through ``MECNetwork.neighborhoods`` and
``AugmentationProblem.build``.  See ``docs/performance.md``.
"""
