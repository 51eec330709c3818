from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodgeslope import inequalities
from hodgeslope.hodge_system import derive_components, partial_slope
from hodgeslope.inequalities import (
    MAX_SWEEP_CHECKS,
    InequalityCheck,
    SequencePair,
    _power_sum_tables,
    chebyshev_lower,
    chebyshev_upper,
    geometric_sum,
    hodge_sum_inequality,
    hodge_sum_sweep,
    make_pair,
    verify_hodge_sums,
    weighted_power_sum,
)
from hodgeslope.slope_core import BundleData, GeometricContext, InconsistencyError, slope


def reference_weighted_power_sum(d: int, k: int) -> int:
    """Term-by-term sum over i = 0..k of i * d^(i-1), the reference for
    the closed form."""
    return sum(i * d ** (i - 1) for i in range(1, k + 1))


def reference_geometric_sum(d: int, k: int) -> int:
    """Term-by-term sum over j = 0..k of d^j."""
    return sum(d**j for j in range(k + 1))


def reference_hodge_sum_sweep(d_max: int, n_max: int):
    """Every pair r <= n <= n_max checked on its own, over closed-form
    tables: the all-pairs sweep the adjacent-pair one is tested against."""
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


def outcome(check, pair: SequencePair):
    """(holds, lhs, rhs) with the side types, or the ValueError text."""
    try:
        result = check(pair)
    except ValueError as exc:
        return str(exc)
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

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            make_pair([1], [1, 2])
        with pytest.raises(ValueError, match="nonempty"):
            make_pair([], [])

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
        assert outcome(chebyshev_upper, pair) == outcome(reference_upper, pair)
        assert outcome(chebyshev_lower, pair) == outcome(reference_lower, pair)


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

    def test_running_sum_tables_match_closed_forms_and_term_sums(self):
        for d in range(1, 9):
            w, s = _power_sum_tables(d, 150)
            assert len(w) == len(s) == 151
            for k in range(151):
                assert type(w[k]) is int and type(s[k]) is int
                assert w[k] == weighted_power_sum(d, k) == reference_weighted_power_sum(d, k)
                assert s[k] == geometric_sum(d, k) == reference_geometric_sum(d, k)

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
        rows = hodge_sum_sweep(4, 8)
        assert all(not failures for _, _, failures in rows)
        assert sum(checked for _, checked, _ in rows) == 4 * (9 * 10 // 2)

    def test_sweep_equals_per_pair_checks(self):
        rows = []
        for d in range(1, 5):
            pairs = [(r, n) for n in range(13) for r in range(n + 1)]
            failures = [(r, n) for r, n in pairs if not hodge_sum_inequality(d, r, n)]
            rows.append((d, len(pairs), failures))
        assert hodge_sum_sweep(4, 12) == rows

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(size=sweep_sizes())
    @example(size=(1, largest_n_max(1)))
    @example(size=(6, largest_n_max(6)))
    def test_sweep_matches_the_all_pairs_reference(self, size):
        rows = hodge_sum_sweep(*size)
        assert all(not failures for _, _, failures in rows)
        assert rows == reference_hodge_sum_sweep(*size)

    def test_sweep_checks_adjacent_pairs_only(self, monkeypatch):
        calls = []
        sides = inequalities._hodge_sides

        def counted(*sums):
            calls.append(sums)
            return sides(*sums)

        monkeypatch.setattr(inequalities, "_hodge_sides", counted)
        rows = hodge_sum_sweep(3, 100)
        assert sum(checked for _, checked, _ in rows) == 15_453
        assert len(calls) <= 3 * 100

    @pytest.mark.parametrize("d, k", [(1, 1), (2, 5), (3, 8)])
    def test_a_failing_adjacent_pair_is_reported_alone(self, monkeypatch, d, k):
        sides = inequalities._hodge_sides
        broken = (weighted_power_sum(d, k), geometric_sum(d, k))

        def failing_at_k(w_r, s_r, w_n, s_n):
            lhs, rhs = sides(w_r, s_r, w_n, s_n)
            return (rhs + 1, rhs) if (w_n, s_n) == broken else (lhs, rhs)

        monkeypatch.setattr(inequalities, "_hodge_sides", failing_at_k)
        rows = hodge_sum_sweep(3, 8)
        assert [(e, failures) for e, _, failures in rows] == [
            (e, [(k - 1, k)] if e == d else []) for e in (1, 2, 3)
        ]
        with pytest.raises(InconsistencyError, match="proved inequality failed"):
            verify_hodge_sums(3, 8)

    def test_sweep_tabulates_sums_once_per_degree(self, monkeypatch):
        calls = []

        def counted(d, k):
            calls.append((d, k))
            return weighted_power_sum(d, k)

        monkeypatch.setattr(inequalities, "weighted_power_sum", counted)
        rows = hodge_sum_sweep(3, 40)
        assert sum(checked for _, checked, _ in rows) == 3 * 41 * 42 // 2
        assert len(calls) <= 3 * 41

    def test_sweep_size_limit(self):
        # 3 * 101 * 102 / 2 = 15,453 checks run; 3 * 301 * 302 / 2 do not
        assert sum(c for _, c in verify_hodge_sums(3, 100)) == 15_453 <= MAX_SWEEP_CHECKS
        with pytest.raises(ValueError, match="sweep too large: 136353 checks"):
            hodge_sum_sweep(3, 300)

    def test_failed_check_is_an_inconsistency(self, monkeypatch):
        monkeypatch.setattr(inequalities, "_hodge_sides", lambda *sums: (1, 0))
        with pytest.raises(InconsistencyError, match="proved inequality failed"):
            verify_hodge_sums(1, 2)

    def test_matches_partial_slope_monotonicity(self):
        # the inequality is exactly monotonicity of partial tower slopes
        base = BundleData(1, 0)
        for d in (1, 2, 3):
            context = GeometricContext(0, d, 1)
            sys = derive_components(base, context, 6)
            for n in range(7):
                for r in range(n + 1):
                    check = hodge_sum_inequality(d, r, n)
                    assert check.holds == (partial_slope(sys, r) <= partial_slope(sys, n))
                    expected = slope(base) + Fraction(
                        weighted_power_sum(d, r), geometric_sum(d, r)
                    )
                    assert partial_slope(sys, r) == expected
