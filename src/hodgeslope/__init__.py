"""Exact slope-stability calculus for graded Higgs data, generalized
opers, and filtered connections, cross-validated by a brute-force
destabilizer search."""

__version__ = "0.1.0"
