"""Tagged-particle statistics of the discrete-time parallel-update TASEP
with step initial condition.

Layers, from exact to asymptotic:

- combinatorics: 01 matrices, left-down last passage, dual RSK, Schur weights,
  and the enumerated law of the tagged path (exact rational arithmetic).
- system: the simulator (vectorized, reproducible counter-based streams) and
  the deterministic mean-position law.
- finite_kernel: the exact finite-size multi-time determinant formula.
- special / limit_kernels / scaling: special functions, the four limiting
  kernels, and the lattice <-> scaled-coordinate maps.
- fredholm: windowed discrete and Nystrom continuous Fredholm determinants,
  the onset determinant, and the reference laws (TW-GUE, GOE^2, Gaussian).
- harness / cli: experiment configs, figure reproduction, KS comparison.
"""

__version__ = "0.1.0"
