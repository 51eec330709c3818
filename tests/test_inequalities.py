from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodgeslope.hodge_system import (
    MAX_SWEEP_CHECKS,
    derive_components,
    verify_hodge_sums,
)
from hodgeslope.inequalities import (
    InequalityCheck,
    SequencePair,
    chebyshev_lower,
    chebyshev_upper,
    geometric_sum,
    hodge_sum_inequality,
    make_pair,
    weighted_power_sum,
)
from hodgeslope.slope_core import BundleData, GeometricContext

from support import outcome, slope, totals


def reference_weighted_power_sum(d: int, k: int) -> int:
    """Term-by-term sum over i = 0..k of i * d^(i-1), the reference for
    the closed form."""
    return sum(i * d ** (i - 1) for i in range(1, k + 1))


def reference_geometric_sum(d: int, k: int) -> int:
    """Term-by-term sum over j = 0..k of d^j."""
    return sum(d**j for j in range(k + 1))


def reference_hodge_sum_sweep(d_max: int, n_max: int):
    """Every pair r <= n <= n_max checked on its own, over closed-form
    tables: the all-pairs sweep the proof is tested against."""
    rows = []
    for d in range(1, d_max + 1):
        w = [weighted_power_sum(d, k) for k in range(n_max + 1)]
        s = [geometric_sum(d, k) for k in range(n_max + 1)]
        checked = 0
        failures = []
        for n in range(n_max + 1):
            for r in range(n + 1):
                checked += 1
                if w[r] * s[n] > w[n] * s[r]:
                    failures.append((r, n))
        rows.append((d, checked, failures))
    return rows


def line_events(call, *args) -> int:
    """Line events traced while call(*args) runs: a measure of the work
    the interpreter does that does not depend on the host's speed."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    return count


def largest_n_max(d_max: int) -> int:
    """The largest n_max whose sweep stays within MAX_SWEEP_CHECKS."""
    n_max = 0
    while d_max * (n_max + 2) * (n_max + 3) // 2 <= MAX_SWEEP_CHECKS:
        n_max += 1
    return n_max


@st.composite
def sweep_sizes(draw) -> tuple[int, int]:
    d_max = draw(st.integers(1, 6))
    return d_max, draw(st.integers(0, largest_n_max(d_max)))


def reference_nonincreasing(seq: tuple[Fraction, ...], name: str) -> None:
    for i in range(len(seq) - 1):
        if seq[i] < seq[i + 1]:
            raise ValueError(f"sequence {name} is not nonincreasing at index {i}")


def reference_nondecreasing(seq: tuple[Fraction, ...], name: str) -> None:
    for i in range(len(seq) - 1):
        if seq[i] > seq[i + 1]:
            raise ValueError(f"sequence {name} is not nondecreasing at index {i}")


def reference_upper(p: SequencePair) -> InequalityCheck:
    """The upper inequality evaluated term by term over Fraction, the
    reference for the integer evaluation."""
    reference_nonincreasing(p.a, "a")
    reference_nondecreasing(p.b, "b")
    n = len(p.a)
    lhs = n * sum(x * y for x, y in zip(p.a, p.b))
    rhs = sum(p.a) * sum(p.b)
    return InequalityCheck(lhs <= rhs, Fraction(lhs), Fraction(rhs))


def reference_lower(p: SequencePair) -> InequalityCheck:
    """The lower inequality evaluated term by term over Fraction."""
    reference_nondecreasing(p.a, "a")
    reference_nondecreasing(p.b, "b")
    n = len(p.a)
    lhs = sum(p.b) * sum(p.a)
    rhs = n * sum(x * y for x, y in zip(p.a, p.b))
    return InequalityCheck(lhs <= rhs, Fraction(lhs), Fraction(rhs))


def sides(check, pair: SequencePair) -> tuple:
    """A check's (holds, lhs, rhs) with the side types."""
    result = check(pair)
    return result.holds, result.lhs, result.rhs, type(result.lhs), type(result.rhs)


# small integers repeat often, so equal entries and zeros are common
RATIONALS = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)


@st.composite
def ordered_sequence(draw, length: int) -> list[Fraction]:
    """A sequence sorted either way, or left as drawn (usually not monotone)."""
    seq = draw(st.lists(RATIONALS, min_size=length, max_size=length))
    order = draw(st.sampled_from(["ascending", "descending", "as drawn"]))
    if order == "as drawn":
        return seq
    return sorted(seq, reverse=order == "descending")


@st.composite
def sequence_pairs(draw) -> SequencePair:
    length = draw(st.integers(1, 12))
    return make_pair(draw(ordered_sequence(length)), draw(ordered_sequence(length)))


def monotone_pair(rng: random.Random, length: int, a_increasing: bool):
    a = sorted(
        (Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(length)),
        reverse=not a_increasing,
    )
    b = sorted(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(length))
    return make_pair(a, b)


class TestChebyshev:
    def test_upper_examples(self):
        check = chebyshev_upper(make_pair([3, 2, 1], [1, 2, 3]))
        assert check.holds and (check.lhs, check.rhs) == (30, 36)
        check = chebyshev_upper(make_pair([1, 0], [0, 1]))
        assert check.holds and (check.lhs, check.rhs) == (0, 1)

    def test_lower_examples(self):
        check = chebyshev_lower(make_pair([1, 2, 3], [1, 2, 3]))
        assert check.holds and (check.lhs, check.rhs) == (36, 42)
        check = chebyshev_lower(make_pair([0, 1], [0, 1]))
        assert check.holds and (check.lhs, check.rhs) == (1, 2)

    def test_constant_sequences_give_equality(self):
        for n, c in [(1, 5), (4, -3), (6, 0)]:
            pair = make_pair([c] * n, [c] * n)
            up = chebyshev_upper(pair)
            low = chebyshev_lower(pair)
            assert up.lhs == up.rhs == n * n * c * c
            assert low.lhs == low.rhs

    def test_monotonicity_violations_name_first_index(self):
        with pytest.raises(ValueError, match="a is not nonincreasing at index 0"):
            chebyshev_upper(make_pair([1, 2], [1, 2]))
        with pytest.raises(ValueError, match="b is not nondecreasing at index 1"):
            chebyshev_upper(make_pair([3, 2, 1], [1, 3, 2]))
        with pytest.raises(ValueError, match="a is not nondecreasing at index 0"):
            chebyshev_lower(make_pair([2, 1], [1, 2]))
        # when both sequences break their order, the error names a
        with pytest.raises(ValueError, match="sequence a is not nonincreasing at index 1"):
            chebyshev_upper(make_pair([2, 1, 3], [1, 0, 2]))
        with pytest.raises(ValueError, match="sequence a is not nondecreasing at index 0"):
            chebyshev_lower(make_pair([2, 1, 3], [1, 0, 2]))

    @pytest.mark.parametrize("check, a, b, error", [
        (chebyshev_upper, [3, 2, 2, Fraction(5, 2)], [0, 1, 1, 2], "a is not nonincreasing"),
        (chebyshev_upper, [3, 2, 2, 1], [0, 1, 1, Fraction(1, 2)], "b is not nondecreasing"),
        (chebyshev_lower, [0, 1, 1, Fraction(1, 2)], [0, 1, 2, 3], "a is not nondecreasing"),
    ])
    def test_a_break_at_the_last_adjacent_index(self, check, a, b, error):
        with pytest.raises(ValueError, match=f"{error} at index 2"):
            check(make_pair(a, b))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            make_pair([1], [1, 2])
        with pytest.raises(ValueError, match="nonempty"):
            make_pair([], [])

    def test_common_denominator_past_64_bits(self):
        # the denominators' lcms exceed 2^105 and 2^189, so no side fits a machine word
        a = sorted([Fraction(7, 2**64 + 1), Fraction(-3, 2**40 + 1), Fraction(-1, 3)])
        b = sorted([Fraction(-5, 2**61 - 1), Fraction(1, 2**64 + 13), Fraction(2, 2**64 + 1)])
        for check, reference, pair in ((chebyshev_upper, reference_upper, make_pair(a[::-1], b)),
                                       (chebyshev_lower, reference_lower, make_pair(a, b))):
            result = check(pair)
            assert outcome(sides, check, pair) == outcome(sides, reference, pair)
            assert min(result.lhs.denominator, result.rhs.denominator) > 2**64

    def test_each_entry_read_once_per_check(self, monkeypatch):
        rng = random.Random(19)
        checks = []
        for length in (1, 4, 10):
            pair = monotone_pair(rng, length, a_increasing=True)
            checks += [(chebyshev_lower, pair), (chebyshev_upper, make_pair(pair.a[::-1], pair.b))]
        reads = 0
        as_integer_ratio = Fraction.as_integer_ratio

        def counted(self):
            nonlocal reads
            reads += 1
            return as_integer_ratio(self)

        monkeypatch.setattr(Fraction, "as_integer_ratio", counted)
        for check, pair in checks:
            reads = 0
            check(pair)
            assert reads == len(pair.a) + len(pair.b)

    def test_random_monotone_pairs(self):
        rng = random.Random(20260809)
        for _ in range(500):
            length = rng.randint(1, 10)
            assert chebyshev_upper(monotone_pair(rng, length, a_increasing=False)).holds
            assert chebyshev_lower(monotone_pair(rng, length, a_increasing=True)).holds


class TestChebyshevAgainstReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pair=sequence_pairs())
    def test_same_sides_and_errors_as_the_fraction_reference(self, pair):
        assert outcome(sides, chebyshev_upper, pair) == outcome(sides, reference_upper, pair)
        assert outcome(sides, chebyshev_lower, pair) == outcome(sides, reference_lower, pair)


class TestHodgeSum:
    def test_sum_helpers(self):
        # d=1: weighted sum is the triangular number, geometric sum counts terms
        assert weighted_power_sum(1, 3) == 6
        assert geometric_sum(1, 3) == 4
        assert weighted_power_sum(2, 2) == 1 + 2 * 2
        assert geometric_sum(2, 2) == 7
        # the i = 0 term never contributes, even when d = 1
        assert weighted_power_sum(1, 0) == 0
        assert weighted_power_sum(5, 0) == 0

    def test_closed_forms_match_term_sums(self):
        # empty sums (k < 0) stay the int 0, where the closed forms alone
        # would give a float (d > 1) or a wrong value (d = 1)
        for d in range(1, 9):
            for k in range(-2, 151):
                w = weighted_power_sum(d, k)
                s = geometric_sum(d, k)
                assert type(w) is int and type(s) is int
                assert w == reference_weighted_power_sum(d, k), (d, k)
                assert s == reference_geometric_sum(d, k), (d, k)

    def test_gap_identity_over_term_sums(self):
        # the proof's steps: the gap g(k) = k S(k-1) - d W(k-1) is
        # sum_{i<k} (k-i) d^i, and W(k-1) S(k) - W(k) S(k-1) = -d^(k-1) g(k);
        # for d >= 1, g(k) >= k and d^(k-1) >= 1, so every adjacent pair holds
        for d in range(-8, 10):
            w = [reference_weighted_power_sum(d, k) for k in range(152)]
            s = [reference_geometric_sum(d, k) for k in range(152)]
            gaps = [k * s[k - 1] - d * w[k - 1] for k in range(1, 152)]
            assert gaps[0] == 1, d
            for k in range(1, 151):
                gap = gaps[k - 1]
                assert gap == sum((k - i) * d**i for i in range(k)), (d, k)
                assert gaps[k] == gap + s[k], (d, k)
                assert w[k - 1] * s[k] - w[k] * s[k - 1] == -(d ** (k - 1)) * gap, (d, k)
                if d >= 1:
                    assert gap >= k and d ** (k - 1) >= 1, (d, k)

    def test_the_proof_needs_d_at_least_one(self):
        # below d = 1 the adjacent pairs do not all hold strictly, which is
        # why the sweep refuses d_max < 1: at d = -1 every even k fails, and
        # at d = 0 every k >= 2 is an equality
        for d, fails, ties in ((-1, range(2, 61, 2), ()), (0, (), range(2, 61))):
            w = [reference_weighted_power_sum(d, k) for k in range(61)]
            s = [reference_geometric_sum(d, k) for k in range(61)]
            gaps = [w[k - 1] * s[k] - w[k] * s[k - 1] for k in range(1, 61)]
            assert [k for k in range(1, 61) if gaps[k - 1] > 0] == list(fails), d
            assert [k for k in range(1, 61) if gaps[k - 1] == 0] == list(ties), d

    def test_examples(self):
        check = hodge_sum_inequality(2, 1, 2)
        assert check.holds and (check.lhs, check.rhs) == (7, 15)
        check = hodge_sum_inequality(1, 1, 3)
        assert check.holds and (check.lhs, check.rhs) == (4, 12)

    def test_equality_at_r_equals_n(self):
        for d in (1, 2, 3):
            for n in range(6):
                check = hodge_sum_inequality(d, n, n)
                assert check.holds and check.lhs == check.rhs

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hodge_sum_inequality(0, 0, 1)
        with pytest.raises(ValueError):
            hodge_sum_inequality(2, 3, 1)

    def test_small_exhaustive_sweep(self):
        assert verify_hodge_sums(4, 8) == 9 * 10 // 2

    def test_sweep_equals_per_pair_checks(self):
        pairs = [(r, n) for n in range(13) for r in range(n + 1)]
        for d in range(1, 5):
            assert [(r, n) for r, n in pairs if not hodge_sum_inequality(d, r, n)] == []
        assert verify_hodge_sums(4, 12) == len(pairs)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(size=sweep_sizes())
    @example(size=(1, largest_n_max(1)))
    @example(size=(6, largest_n_max(6)))
    def test_sweep_matches_the_all_pairs_reference(self, size):
        rows = reference_hodge_sum_sweep(*size)
        assert all(not failures for _, _, failures in rows)
        assert [(d, checked) for d, checked, _ in rows] == [
            (d, verify_hodge_sums(*size)) for d in range(1, size[0] + 1)
        ]

    def test_sweep_checks_adjacent_pairs_only(self):
        # no pair is evaluated: doubling n_max leaves the work unchanged
        assert 3 * verify_hodge_sums(3, 100) == 15_453
        assert line_events(verify_hodge_sums, 3, 100) == line_events(verify_hodge_sums, 3, 50)

    def test_sweep_size_limit(self):
        # 3 * 101 * 102 / 2 = 15,453 checks run; 3 * 301 * 302 / 2 do not
        assert 3 * verify_hodge_sums(3, 100) == 15_453 <= MAX_SWEEP_CHECKS
        with pytest.raises(ValueError, match="sweep too large: 136353 checks"):
            verify_hodge_sums(3, 300)

    @pytest.mark.parametrize("d_max", range(1, 7))
    def test_sweep_limit_is_exact(self, d_max):
        # the largest accepted n_max for each d_max, and the first refused one
        n_max = largest_n_max(d_max)
        pairs = (n_max + 1) * (n_max + 2) // 2
        assert verify_hodge_sums(d_max, n_max) == pairs
        assert d_max * pairs <= MAX_SWEEP_CHECKS
        checks = d_max * (n_max + 2) * (n_max + 3) // 2
        with pytest.raises(ValueError, match=(
                f"^sweep too large: {checks} checks, the limit is {MAX_SWEEP_CHECKS}$")):
            verify_hodge_sums(d_max, n_max + 1)

    @pytest.mark.parametrize("d_max, n_max", [(0, 5), (-1, 5), (1, -1), (0, -1)])
    def test_sweep_argument_check(self, d_max, n_max):
        with pytest.raises(ValueError, match=r"^need d_max >= 1 and n_max >= 0$"):
            verify_hodge_sums(d_max, n_max)

    def test_an_over_long_sweep_count_is_report_too_large(self):
        # the refusal's count would print past the digit limit
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError, match=f"^report too large: .* more than {limit} digits$"):
            verify_hodge_sums(1, 10**limit)

    def test_matches_partial_slope_monotonicity(self):
        # the inequality is exactly monotonicity of partial tower slopes
        base = BundleData(1, 0)
        for d in (1, 2, 3):
            context = GeometricContext(0, d, 1)
            sys = derive_components(base, context, 6)
            for n in range(7):
                for r in range(n + 1):
                    check = hodge_sum_inequality(d, r, n)
                    partial_r, partial_n = (
                        slope(totals(sys.components[: k + 1])) for k in (r, n)
                    )
                    assert check.holds == (partial_r <= partial_n)
                    expected = slope(base) + Fraction(
                        weighted_power_sum(d, r), geometric_sum(d, r)
                    )
                    assert partial_r == expected
