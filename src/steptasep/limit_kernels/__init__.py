"""Limiting kernels, special functions, and scaling maps.

The finite-system determinants converge, under four different scaling
regimes, to Fredholm determinants of a small family of kernels: a discrete
Hermite kernel at the onset of motion, the extended Airy kernel in the bulk
KPZ regime, a rank-perturbed Airy kernel at the critical defect strength,
and Gaussian/rank-n kernels beyond it.  This subpackage holds the kernel
evaluators, the special functions they are built from, and the coordinate
maps between lattice quantities and scaled variables.
"""
