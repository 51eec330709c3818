"""Exact slope-stability calculus for graded Higgs data, generalized
opers, and filtered connections; the tests check its closed-form tower
search against a brute-force enumeration of subsystem profiles."""

__version__ = "0.1.0"
