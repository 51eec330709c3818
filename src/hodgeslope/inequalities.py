"""The two Chebyshev sum inequalities and the tower power-sum inequality.

These are the arithmetic backbone of the semistability criterion: the
Chebyshev inequalities bound the degree of a graded subobject by reordered
sums, and the power-sum inequality says the partial tower slopes increase
with the truncation grade.  Everything is evaluated exactly and reported
with both side values as a witness.  The Chebyshev checks scale each
sequence to integers over one common denominator, compare integers, and
return the two sides as exact rationals.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .slope_core import InconsistencyError

Number = Union[int, Fraction]

#: Largest sweep hodge_sum_sweep runs.  Every command line must end in
#: bounded time, and the golden corpus and the tests record the refusal.
MAX_SWEEP_CHECKS = 20_000


@dataclass(frozen=True)
class SequencePair:
    """Two rational sequences of equal positive length."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(Fraction(x) for x in self.a))
        object.__setattr__(self, "b", tuple(Fraction(x) for x in self.b))
        if len(self.a) != len(self.b):
            raise ValueError(f"sequence lengths differ: {len(self.a)} vs {len(self.b)}")
        if not self.a:
            raise ValueError("sequences must be nonempty")


@dataclass(frozen=True)
class InequalityCheck:
    """Outcome of one exact inequality evaluation, lhs <= rhs."""

    holds: bool
    lhs: Fraction
    rhs: Fraction

    def __bool__(self) -> bool:
        return self.holds


def _scaled(seq: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integers A and one positive denominator D with seq[i] == A[i] / D,
    D the lcm of the entries' denominators.  Order, sums and products of
    the A[i] are those of the entries, scaled by positive powers of D."""
    ratios = [x.as_integer_ratio() for x in seq]
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _require_monotone(seq: list[int], name: str, increasing: bool) -> None:
    """Raise at the first index where seq breaks the order: nondecreasing
    when ``increasing``, nonincreasing otherwise."""
    broken = list(map(operator.gt if increasing else operator.lt, seq, seq[1:]))
    if any(broken):
        order = "nondecreasing" if increasing else "nonincreasing"
        raise ValueError(f"sequence {name} is not {order} at index {broken.index(True)}")


def _scaled_sums(p: SequencePair, a_increasing: bool) -> tuple[int, int, int]:
    """n * sum(A_i B_i) and sum(A) * sum(B) over the integer scalings of
    a (checked monotone in the given direction) and b (checked
    nondecreasing), with the common denominator Da * Db of both."""
    a, da = _scaled(p.a)
    _require_monotone(a, "a", a_increasing)
    b, db = _scaled(p.b)
    _require_monotone(b, "b", True)
    return len(a) * sum(map(operator.mul, a, b)), sum(a) * sum(b), da * db


def chebyshev_upper(p: SequencePair) -> InequalityCheck:
    """For a nonincreasing and b nondecreasing:
    n * sum(a_i b_i) <= sum(a_i) * sum(b_j)."""
    cross, total, den = _scaled_sums(p, a_increasing=False)
    return InequalityCheck(cross <= total, Fraction(cross, den), Fraction(total, den))


def chebyshev_lower(p: SequencePair) -> InequalityCheck:
    """For a and b both nondecreasing:
    sum(b_j) * sum(a_i) <= n * sum(a_i b_i)."""
    cross, total, den = _scaled_sums(p, a_increasing=True)
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


def _hodge_sides(w_r: int, s_r: int, w_n: int, s_n: int) -> tuple[int, int]:
    """Both sides of the power-sum inequality W(r) S(n) <= W(n) S(r)."""
    return w_r * s_n, w_n * s_r


def hodge_sum_inequality(d: int, r: int, n: int) -> InequalityCheck:
    """For d >= 1 and 0 <= r <= n:

    (sum_{i<=r} i d^(i-1)) (sum_{j<=n} d^j)
        <= (sum_{i<=n} i d^(i-1)) (sum_{j<=r} d^j).

    This is exactly the statement that partial tower slopes are monotone
    in the truncation grade.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if r < 0 or r > n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    lhs, rhs = _hodge_sides(
        weighted_power_sum(d, r), geometric_sum(d, r),
        weighted_power_sum(d, n), geometric_sum(d, n),
    )
    return InequalityCheck(lhs <= rhs, Fraction(lhs), Fraction(rhs))


def hodge_sum_sweep(
    d_max: int, n_max: int
) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """Exhaustively evaluate the power-sum inequality for 1 <= d <= d_max
    and 0 <= r <= n <= n_max.  Returns one (d, checked, failures) row per
    d, where failures lists the offending (r, n) pairs (expected empty).
    A sweep of more than MAX_SWEEP_CHECKS checks is refused.  Each d
    tabulates W(0..n_max) and S(0..n_max) once, so a check is one pair of
    multiplications.
    """
    if d_max < 1 or n_max < 0:
        raise ValueError("need d_max >= 1 and n_max >= 0")
    checks = d_max * (n_max + 1) * (n_max + 2) // 2
    if checks > MAX_SWEEP_CHECKS:
        raise ValueError(f"sweep too large: {checks} checks, the limit is {MAX_SWEEP_CHECKS}")
    rows = []
    for d in range(1, d_max + 1):
        w = [weighted_power_sum(d, k) for k in range(n_max + 1)]
        s = [geometric_sum(d, k) for k in range(n_max + 1)]
        checked = 0
        failures: list[tuple[int, int]] = []
        for n in range(n_max + 1):
            for r in range(n + 1):
                checked += 1
                lhs, rhs = _hodge_sides(w[r], s[r], w[n], s[n])
                if lhs > rhs:
                    failures.append((r, n))
        rows.append((d, checked, failures))
    return rows


def verify_hodge_sums(d_max: int, n_max: int) -> list[tuple[int, int]]:
    """Run the sweep and return one (d, checked) row per d; a failure of
    the proved inequality raises InconsistencyError."""
    rows = hodge_sum_sweep(d_max, n_max)
    if any(failures for _, _, failures in rows):
        raise InconsistencyError("a proved inequality failed on the sweep")
    return [(d, checked) for d, checked, _ in rows]


def make_pair(a: Iterable[Number], b: Iterable[Number]) -> SequencePair:
    """Convenience constructor coercing plain numbers to rationals."""
    return SequencePair(tuple(a), tuple(b))
