"""Harder-Narasimhan profile algebra on numerical invariants.

A profile lists the (rank, degree) data of the successive semistable
quotients of a filtration, from top slope down.  Validity means the
quotient slopes strictly decrease.  Tensoring a valid profile with a
semistable bundle shifts every quotient slope uniformly, so validity is
preserved; this is the numerical content of the fact that tensoring
preserves the Harder-Narasimhan filtration.
"""

from __future__ import annotations

from itertools import accumulate

from .slope_core import BundleData, Frozen, slope_excess, tensor


class HNProfile(Frozen):
    """Quotient data of a filtration, top slope first.

    Every quotient must be attested semistable; the slope ordering is a
    separate check (``validate_hn``), so ill-ordered profiles can be
    represented and diagnosed.
    """

    _fields = ("quotients",)

    def __init__(self, quotients: tuple[BundleData, ...]) -> None:
        quotients = tuple(quotients)
        if not quotients:
            raise ValueError("a profile needs at least one quotient")
        for i, q in enumerate(quotients):
            if q.semistable is not True:
                raise ValueError(f"quotient {i} must be flagged semistable")
        self.__dict__["quotients"] = quotients


def validate_hn(p: HNProfile) -> None:
    """Raise ValueError at the first index whose slope is not above the next."""
    for i, (a, b) in enumerate(zip(p.quotients, p.quotients[1:])):
        if slope_excess(a.degree, a.rank, b.degree, b.rank) <= 0:
            raise ValueError(f"invalid profile: slopes do not strictly decrease at index {i}")


def tensor_hn(p: HNProfile, w: BundleData) -> HNProfile:
    """Tensor every quotient of a valid profile with the semistable ``w``.

    The results are flagged semistable (a semistable quotient tensored
    with a semistable bundle stays semistable in the characteristic-zero
    setting this transform encodes) and all slopes shift by slope(w), so
    the output is valid whenever the input is.
    """
    if w.semistable is not True:
        raise ValueError("flag precondition violated: tensor factor must be flagged semistable")
    validate_hn(p)
    return HNProfile(tuple([tensor(q, w, semistable=True) for q in p.quotients]))


def hn_polygon(p: HNProfile) -> list[tuple[int, int]]:
    """Cumulative (rank, degree) lattice points from (0, 0).

    The slope of segment i is the slope of quotient i, so the polygon is
    strictly concave exactly when ``validate_hn`` accepts the profile.
    """
    return list(zip(accumulate([q.rank for q in p.quotients], initial=0),
                    accumulate([q.degree for q in p.quotients], initial=0)))
