"""The two Chebyshev sum inequalities and the tower power-sum inequality.

These are the arithmetic backbone of the semistability criterion: the
Chebyshev inequalities bound the degree of a graded subobject by reordered
sums, and the power-sum inequality says the partial tower slopes increase
with the truncation grade.  Everything is evaluated exactly and reported
with both side values as a witness.  A Chebyshev check makes one integer
pass per sequence: it reads each entry's integer ratio once, scales the
sequence to integers over the lcm of its denominators and checks their
order, then compares n * sum(A_i B_i) with sum(A) * sum(B) as integers and
returns the two sides as exact rationals over Da * Db.

The power-sum sweep compares adjacent grades only.  With
W(k) = sum_{i<=k} i d^(i-1) and S(k) = sum_{j<=k} d^j >= 1, the inequality
W(r) S(n) <= W(n) S(r) for a pair r <= n says W(r)/S(r) <= W(n)/S(n), so
every pair holds exactly when the sequence W(k)/S(k) is nondecreasing,
that is when each adjacent pair (k-1, k) holds.  A sweep up to n_max makes
one pass per degree, carrying W, S and the power of d as running sums and
comparing each adjacent pair as it goes, and reports, as checked, the
(n_max+1)(n_max+2)/2 pairs those n_max comparisons establish.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from fractions import Fraction

from .slope_core import Frozen, InconsistencyError, refusal

Number = int | Fraction

#: Largest sweep hodge_sum_sweep runs, counted in pairs established.  The
#: adjacent checks would allow far more, but the golden corpus and the
#: tests record the refusals, and the limit keeps the one stderr line per
#: degree that verify-inequalities writes bounded.
MAX_SWEEP_CHECKS = 20_000


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
    the library; the sweep compares the same products in _adjacent_failures.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if r < 0 or r > n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    lhs = weighted_power_sum(d, r) * geometric_sum(d, n)
    rhs = weighted_power_sum(d, n) * geometric_sum(d, r)
    return InequalityCheck(lhs <= rhs, Fraction(lhs), Fraction(rhs))


def _adjacent_failures(d: int, n_max: int) -> list[tuple[int, int]]:
    """The adjacent pairs (k-1, k), 1 <= k <= n_max, on which the power-sum
    inequality fails for this d, in one pass: W(k) = W(k-1) + k d^(k-1)
    and S(k) = S(k-1) + d^k, and the pair fails when W(k-1) S(k) > W(k) S(k-1)."""
    failures = []
    w, s, power = 0, 1, 1  # W(k-1), S(k-1) and d^(k-1) at k = 1
    for k in range(1, n_max + 1):
        w_k = w + k * power
        power *= d
        s_k = s + power
        if w * s_k > w_k * s:
            failures.append((k - 1, k))
        w, s = w_k, s_k
    return failures


def hodge_sum_sweep(d_max: int, n_max: int) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """Establish the power-sum inequality for 1 <= d <= d_max and every
    pair 0 <= r <= n <= n_max.  Returns one (d, checked, failures) row per
    d: checked counts the (n_max+1)(n_max+2)/2 pairs established, and
    failures lists the adjacent pairs (k-1, k) that fail (expected empty).
    All pairs hold exactly when the n_max adjacent ones do (see the module
    docstring).  A sweep of more than MAX_SWEEP_CHECKS pairs is refused.
    """
    if d_max < 1 or n_max < 0:
        raise ValueError("need d_max >= 1 and n_max >= 0")
    pairs = (n_max + 1) * (n_max + 2) // 2
    checks = d_max * pairs
    if checks > MAX_SWEEP_CHECKS:
        raise refusal(lambda: f"sweep too large: {checks} checks, the limit is {MAX_SWEEP_CHECKS}")
    return [(d, pairs, _adjacent_failures(d, n_max)) for d in range(1, d_max + 1)]


def verify_hodge_sums(d_max: int, n_max: int) -> list[tuple[int, int]]:
    """Run the sweep and return one (d, checked) row per d; a failure of
    the proved inequality raises InconsistencyError."""
    rows = hodge_sum_sweep(d_max, n_max)
    if any(failures for _, _, failures in rows):
        raise InconsistencyError("a proved inequality failed on the sweep")
    return [(d, checked) for d, checked, _ in rows]


def make_pair(a: Iterable[Number], b: Iterable[Number]) -> SequencePair:
    """Convenience constructor coercing plain numbers to rationals.  The
    acceptance suite and the benchmark's probe build their Chebyshev pairs
    with it, so it stays in the library."""
    return SequencePair(tuple(a), tuple(b))
