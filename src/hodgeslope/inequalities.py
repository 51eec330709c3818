"""The two Chebyshev sum inequalities and the tower power-sum inequality.

These are the arithmetic backbone of the semistability criterion: the
Chebyshev inequalities bound the degree of a graded subobject by reordered
sums, and the power-sum inequality says the partial tower slopes increase
with the truncation grade.  Everything is evaluated exactly and reported
with both side values as a witness.  A Chebyshev check makes one integer
pass per sequence: it reads each entry's integer ratio once, scales the
sequence to integers over the lcm of its denominators and checks their
order, then compares n * sum(A_i B_i) with sum(A) * sum(B) as integers and
returns the two sides as exact rationals over Da * Db.  No command decides
through this module: verify-inequalities runs hodge_system.verify_hodge_sums.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from fractions import Fraction

from .slope_core import Frozen

Number = int | Fraction


class SequencePair(Frozen):
    """Two rational sequences of equal positive length."""

    _fields = ("a", "b")

    def __init__(self, a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> None:
        a = tuple(Fraction(x) for x in a)
        b = tuple(Fraction(x) for x in b)
        if len(a) != len(b):
            raise ValueError(f"sequence lengths differ: {len(a)} vs {len(b)}")
        if not a:
            raise ValueError("sequences must be nonempty")
        fields = self.__dict__
        fields["a"] = a
        fields["b"] = b


class InequalityCheck(Frozen):
    """Outcome of one exact inequality evaluation, lhs <= rhs."""

    _fields = ("holds", "lhs", "rhs")

    def __init__(self, holds: bool, lhs: Fraction, rhs: Fraction) -> None:
        fields = self.__dict__
        fields["holds"] = holds
        fields["lhs"] = lhs
        fields["rhs"] = rhs

    def __bool__(self) -> bool:
        return self.holds


def _integers(seq: tuple[Fraction, ...], name: str, increasing: bool) -> tuple[list[int], int]:
    """Integers A and one positive denominator D with seq[i] == A[i] / D,
    D the lcm of the entries' denominators, reading each entry once.  Order,
    sums and products of the A[i] are those of the entries, scaled by
    positive powers of D.  Raise at the first index where seq breaks the
    order: nondecreasing when ``increasing``, nonincreasing otherwise."""
    ratios = [x.as_integer_ratio() for x in seq]
    den = math.lcm(*[d for _, d in ratios])
    ints = [n * (den // d) for n, d in ratios]
    broken = operator.gt if increasing else operator.lt
    if any(map(broken, ints, ints[1:])):
        index = list(map(broken, ints, ints[1:])).index(True)
        order = "nondecreasing" if increasing else "nonincreasing"
        raise ValueError(f"sequence {name} is not {order} at index {index}")
    return ints, den


def chebyshev_upper(p: SequencePair) -> InequalityCheck:
    """For a nonincreasing and b nondecreasing:
    n * sum(a_i b_i) <= sum(a_i) * sum(b_j).

    A paper statement: the acceptance suite checks it, and the benchmark's
    probe calls it and its tracer times it, so it stays in the library."""
    a, da = _integers(p.a, "a", False)
    b, db = _integers(p.b, "b", True)
    cross, total, den = len(a) * sum(map(operator.mul, a, b)), sum(a) * sum(b), da * db
    return InequalityCheck(cross <= total, Fraction(cross, den), Fraction(total, den))


def chebyshev_lower(p: SequencePair) -> InequalityCheck:
    """For a and b both nondecreasing:
    sum(b_j) * sum(a_i) <= n * sum(a_i b_i).

    A paper statement: the acceptance suite checks it, and the benchmark's
    probe calls it and its tracer times it, so it stays in the library."""
    a, da = _integers(p.a, "a", True)
    b, db = _integers(p.b, "b", True)
    cross, total, den = len(a) * sum(map(operator.mul, a, b)), sum(a) * sum(b), da * db
    return InequalityCheck(total <= cross, Fraction(total, den), Fraction(cross, den))


def weighted_power_sum(d: int, k: int) -> int:
    """sum over i = 0..k of i * d^(i-1); the i = 0 term is 0 by
    convention, also when d = 1.  Closed form, exact for every integer d."""
    if k < 0:
        return 0
    if d == 1:
        return k * (k + 1) // 2
    return (k * d ** (k + 1) - (k + 1) * d**k + 1) // (d - 1) ** 2


def geometric_sum(d: int, k: int) -> int:
    """sum over j = 0..k of d^j.  Closed form, exact for every integer d."""
    if k < 0:
        return 0
    if d == 1:
        return k + 1
    return (d ** (k + 1) - 1) // (d - 1)


def hodge_sum_inequality(d: int, r: int, n: int) -> InequalityCheck:
    """For d >= 1 and 0 <= r <= n:

    (sum_{i<=r} i d^(i-1)) (sum_{j<=n} d^j)
        <= (sum_{i<=n} i d^(i-1)) (sum_{j<=r} d^j).

    This is exactly the statement that partial tower slopes are monotone
    in the truncation grade.  A paper statement: the acceptance suite
    checks it and the benchmark's tracer counts its calls, so it stays in
    the library; verify-inequalities evaluates no pair, as the proof in
    hodge_system.verify_hodge_sums establishes every one.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if r < 0 or r > n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    lhs = weighted_power_sum(d, r) * geometric_sum(d, n)
    rhs = weighted_power_sum(d, n) * geometric_sum(d, r)
    return InequalityCheck(lhs <= rhs, Fraction(lhs), Fraction(rhs))


def make_pair(a: Iterable[Number], b: Iterable[Number]) -> SequencePair:
    """Convenience constructor coercing plain numbers to rationals.  The
    acceptance suite and the benchmark's probe build their Chebyshev pairs
    with it, so it stays in the library."""
    return SequencePair(tuple(a), tuple(b))
