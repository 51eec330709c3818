"""Harder-Narasimhan profile algebra on numerical invariants.

A profile lists the (rank, degree) data of the successive semistable
quotients of a filtration, from top slope down.  Validity means the
quotient slopes strictly decrease.  Tensoring a valid profile with a
semistable bundle shifts every quotient slope uniformly, so validity is
preserved; this is the numerical content of the fact that tensoring
preserves the Harder-Narasimhan filtration.
"""

from __future__ import annotations

from collections.abc import Sequence

from .slope_core import BundleData, Frozen, slope, tensor


class HNValidation(Frozen):
    """Outcome of a validity check; ``first_violation`` is the left index
    of the first adjacent pair whose slopes fail to strictly decrease."""

    _fields = ("valid", "first_violation")

    def __init__(self, valid: bool, first_violation: int | None = None) -> None:
        fields = self.__dict__
        fields["valid"] = valid
        fields["first_violation"] = first_violation

    def __bool__(self) -> bool:
        return self.valid


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


def validate_hn(p: HNProfile) -> HNValidation:
    """True iff the quotient slopes strictly decrease along the list."""
    for i in range(len(p.quotients) - 1):
        if slope(p.quotients[i]) <= slope(p.quotients[i + 1]):
            return HNValidation(False, i)
    return HNValidation(True)


def tensor_hn(p: HNProfile, w: BundleData) -> HNProfile:
    """Tensor every quotient with the semistable bundle ``w``.

    The results are flagged semistable (a semistable quotient tensored
    with a semistable bundle stays semistable in the characteristic-zero
    setting this transform encodes) and all slopes shift by slope(w), so
    the output validates whenever the input does.
    """
    if w.semistable is not True:
        raise ValueError("flag precondition violated: tensor factor must be flagged semistable")
    check = validate_hn(p)
    if not check:
        raise ValueError(
            f"invalid profile: slopes do not strictly decrease at index {check.first_violation}"
        )
    products = (tensor(q, w) for q in p.quotients)
    return HNProfile(tuple(BundleData(t.rank, t.degree, semistable=True) for t in products))


def hn_polygon(p: HNProfile) -> list[tuple[int, int]]:
    """Cumulative (rank, degree) lattice points from (0, 0).

    The polygon of a valid profile is strictly concave: the slope of
    segment i is the slope of quotient i.
    """
    check = validate_hn(p)
    if not check:
        raise ValueError(
            f"invalid profile: slopes do not strictly decrease at index {check.first_violation}"
        )
    points = [(0, 0)]
    rank_total = 0
    degree_total = 0
    for q in p.quotients:
        rank_total += q.rank
        degree_total += q.degree
        points.append((rank_total, degree_total))
    return points


def is_strictly_concave(points: Sequence[tuple[int, int]]) -> bool:
    """Whether successive segment slopes strictly decrease.

    Assumes x strictly increases along the points, as in a polygon of
    cumulative ranks.
    """
    for i in range(len(points) - 2):
        x0, y0 = points[i]
        x1, y1 = points[i + 1]
        x2, y2 = points[i + 2]
        if (y1 - y0) * (x2 - x1) <= (y2 - y1) * (x1 - x0):
            return False
    return True
