from __future__ import annotations

import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeslope.slope_core import (
    BundleData,
    SEMISTABLE,
    STABLE,
    GeometricContext,
    _as_bool,
    _as_int,
    _check_keys,
    _is_prime,
    format_slope,
    max_subsheaf_degree,
    slope_excess,
    subsheaf_degree_row,
    tensor,
)

from support import outcome, slope, totals


def reference_check_keys(obj, what, required, optional=frozenset()) -> dict:
    """The field check as first written, with the set algebra on every
    call: the reference ``_check_keys`` is compared against."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = set(required) - obj.keys()
    if missing:
        raise ValueError(f"{what} is missing field(s): {', '.join(sorted(missing))}")
    unknown = obj.keys() - set(required) - set(optional)
    if unknown:
        raise ValueError(f"{what} has unknown field(s): {', '.join(sorted(unknown))}")
    return obj


def reference_bundle_from_json(obj) -> BundleData:
    """``BundleData.from_json`` as first written, type-checking every field
    before the constructor: the reference the one-path version is compared
    against."""
    data = reference_check_keys(obj, "bundle", {"rank", "degree"}, {"semistable", "stable"})
    return BundleData(
        rank=_as_int(data["rank"], "bundle rank"),
        degree=_as_int(data["degree"], "bundle degree"),
        semistable=_as_bool(data["semistable"], "bundle semistable flag")
        if "semistable" in data
        else None,
        stable=_as_bool(data["stable"], "bundle stable flag") if "stable" in data else None,
    )


def reference_context_from_json(obj) -> GeometricContext:
    """``GeometricContext.from_json`` as first written, in the same way."""
    data = reference_check_keys(
        obj, "context", {"characteristic", "dim", "omega_degree"}, {"omega_semistable", "omega_stable"}
    )
    return GeometricContext(
        characteristic=_as_int(data["characteristic"], "characteristic"),
        dim=_as_int(data["dim"], "dim"),
        omega_degree=_as_int(data["omega_degree"], "omega_degree"),
        omega_semistable=_as_bool(data["omega_semistable"], "omega_semistable")
        if "omega_semistable" in data
        else False,
        omega_stable=_as_bool(data["omega_stable"], "omega_stable")
        if "omega_stable" in data
        else False,
    )


FIELD = st.sampled_from(["rank", "degree", "stable", "theta", "a", "b", ""])
#: JSON values an integer field or a flag may hold, valid and not
NUMBER = st.sampled_from([1, 2, 0, -1, None, True, "x", []])
FLAG = st.sampled_from([True, False, None, 0, "null"])


class TestCheckKeys:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        obj=st.one_of(
            st.dictionaries(FIELD, st.integers()),
            st.lists(FIELD),
            st.integers(),
            st.text(),
            st.none(),
        ),
        required=st.frozensets(FIELD),
        optional=st.frozensets(FIELD),
    )
    def test_matches_the_set_algebra(self, obj, required, optional):
        new = outcome(_check_keys, obj, "thing", required, required | optional)
        assert new == outcome(reference_check_keys, obj, "thing", required, optional)
        if new[0] == "returned":
            assert new[1] is obj


class TestBundleData:
    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            BundleData(0, 3)
        with pytest.raises(ValueError):
            BundleData(-2, 3)

    def test_stable_normalizes_semistable(self):
        b = BundleData(2, 1, stable=True)
        assert b.semistable is True

    def test_stable_contradicts_not_semistable(self):
        with pytest.raises(ValueError):
            BundleData(2, 1, semistable=False, stable=True)

    def test_not_semistable_normalizes_not_stable(self):
        b = BundleData(2, 1, semistable=False)
        assert b.stable is False

    def test_json_round_trip(self):
        b = BundleData(3, -7, semistable=True)
        assert BundleData.from_json(b.to_json()) == b
        bare = BundleData(1, 0)
        assert bare.to_json() == {"rank": 1, "degree": 0}

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            BundleData.from_json({"rank": 1, "degree": 0, "slope": 0})

    def test_json_rejects_bool_rank(self):
        with pytest.raises(ValueError):
            BundleData.from_json({"rank": True, "degree": 0})

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"rank": "x", "degree": 0, "semistable": None}, "bundle rank must be an integer"),
            ({"rank": 0, "degree": 0, "semistable": None}, "bundle semistable flag must be a boolean"),
            ({"rank": 1, "degree": 0, "stable": None}, "bundle stable flag must be a boolean"),
            ({"rank": 1, "degree": None}, "bundle degree must be an integer"),
            ({"rank": 0, "degree": "x"}, "bundle degree must be an integer"),
            ({"rank": 0, "degree": 0, "semistable": False, "stable": True}, "rank must be a positive integer, got 0"),
        ],
    )
    def test_json_null_is_no_flag_and_types_come_first(self, obj, message):
        # a JSON null never reads as an unattested flag; texts and their
        # order as recorded before the type checks moved into the constructor
        with pytest.raises(ValueError) as info:
            BundleData.from_json(obj)
        assert str(info.value) == message

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        st.fixed_dictionaries(
            {"rank": NUMBER, "degree": NUMBER}, optional={"semistable": FLAG, "stable": FLAG}
        )
    )
    def test_json_matches_the_reference(self, obj):
        assert outcome(BundleData.from_json, obj) == outcome(reference_bundle_from_json, obj)


class TestGeometricContext:
    def test_characteristic_must_be_zero_or_prime(self):
        for char in (0, 2, 3, 5, 101):
            GeometricContext(char, 1, 0)
        for char in (1, 4, 6, 9, -2):
            with pytest.raises(ValueError):
                GeometricContext(char, 1, 0)

    @pytest.mark.parametrize(
        "char, accepted",
        [
            (10**18 + 3, True),
            ((10**9 + 7) * (10**9 + 9), False),
            (3215031751, False),  # strong pseudoprime to bases 2, 3, 5 and 7
            (2**64, False),
        ],
    )
    def test_large_characteristic_decided_fast(self, char, accepted):
        start = time.perf_counter()
        if accepted:
            GeometricContext(char, 1, 0)
        else:
            with pytest.raises(ValueError, match="characteristic must be"):
                GeometricContext(char, 1, 0)
        assert time.perf_counter() - start < 1.0

    def test_primality_matches_trial_division(self):
        def trial(p):
            return p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))

        for char in range(1, 20_000):
            assert _is_prime(char) is trial(char), char

    def test_small_characteristics_decided_by_trial_division(self, monkeypatch):
        # the witnesses are every prime up to 37, so a number below 41^2 =
        # 1681 that none of them divides is prime without Miller-Rabin,
        # whose modular powers are never taken there
        from hodgeslope import slope_core

        powers = []

        def counted_pow(*args):
            powers.append(args)
            return pow(*args)

        monkeypatch.setattr(slope_core, "pow", counted_pow, raising=False)

        def trial(p):
            return p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))

        for char in range(-2, 5000):
            assert _is_prime(char) is trial(char), char
            if char < 41 * 41:
                assert powers == [], char
        assert (_is_prime(1677), _is_prime(1679), _is_prime(1681)) == (False, False, False)
        assert (_is_prime(1693), _is_prime(1763)) == (True, False)  # 1763 = 41 * 43
        # 1681 = 41^2 is the first composite past the shortcut: it is
        # decided by Miller-Rabin
        powers.clear()
        assert _is_prime(1681) is False and powers

    def test_dim_positive(self):
        with pytest.raises(ValueError):
            GeometricContext(0, 0, 0)

    def test_omega_stable_needs_semistable(self):
        with pytest.raises(ValueError):
            GeometricContext(0, 1, 2, omega_semistable=False, omega_stable=True)

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        st.fixed_dictionaries(
            {
                "characteristic": st.one_of(NUMBER, st.sampled_from([3, 4, 2**64 + 13])),
                "dim": NUMBER,
                "omega_degree": NUMBER,
            },
            optional={"omega_semistable": FLAG, "omega_stable": FLAG},
        )
    )
    def test_json_matches_the_reference(self, obj):
        assert outcome(GeometricContext.from_json, obj) == outcome(reference_context_from_json, obj)

    def test_json_round_trip(self):
        ctx = GeometricContext(7, 2, 3, omega_semistable=True)
        assert GeometricContext.from_json(ctx.to_json()) == ctx


class TestSlope:
    """Slopes as integer pairs: ``slope_excess`` compares two, and
    ``format_slope`` writes one, each against the exact ``Fraction``."""

    def test_examples(self):
        # the sign of the excess is that of mu - mu_ref
        assert slope_excess(-2, 2, -1, 1) == 0
        assert slope_excess(0, 1, 0, 5) == 0
        assert slope_excess(8, 3, 5, 2) > 0
        assert slope_excess(-1, 2, 0, 1) < 0

    def test_lowest_terms(self):
        assert format_slope(6, 4) == "3/2"
        assert format_slope(0, 7) == "0/1"
        assert format_slope(-6, 4) == "-3/2"

    def test_format(self):
        assert format_slope(8, 3) == "8/3"
        assert format_slope(2, 1) == "2/1"
        assert format_slope(-1, 2) == "-1/2"

    def test_format_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert len(format_slope(10**limit - 1, 7)) == limit + 2
        with pytest.raises(ValueError, match=f"^report too large: .* more than {limit} digits$"):
            format_slope(1, 10**limit)

    @settings(max_examples=300, deadline=None)
    @given(
        degree=st.one_of(
            st.just(0), st.integers(-(2**20), 2**20), st.integers(2**64, 2**130),
            st.integers(-(2**130), -(2**64)),
        ),
        rank=st.one_of(st.integers(1, 2**20), st.integers(2**64, 2**130)),
        common=st.one_of(st.just(1), st.integers(2, 2**70)),
    )
    def test_format_matches_fraction(self, degree, rank, common):
        # a common factor makes the reduction do work
        degree, rank = degree * common, rank * common
        x = Fraction(degree, rank)
        assert format_slope(degree, rank) == f"{x.numerator}/{x.denominator}"

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.tuples(st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
        b=st.tuples(st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
        common=st.integers(1, 50),
    )
    def test_excess_matches_fraction(self, a, b, common):
        # equal slopes arise when b is a multiple of a
        (degree, rank), (ref_degree, ref_rank) = a, b
        for ref in ((ref_degree, ref_rank), (degree * common, rank * common)):
            excess = slope_excess(degree, rank, *ref)
            difference = Fraction(degree, rank) - Fraction(*ref)
            assert (excess > 0, excess == 0) == (difference > 0, difference == 0)


class TestDirectSum:
    """The tests' direct-sum reference, ``support.totals``."""

    def test_examples(self):
        total = totals([BundleData(2, -2), BundleData(2, 2)])
        assert (total.rank, total.degree) == (4, 0)
        single = totals([BundleData(1, 5)])
        assert (single.rank, single.degree) == (1, 5)
        mixed = totals([BundleData(1, 3), BundleData(2, -3)])
        assert (mixed.rank, mixed.degree) == (3, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty direct sum"):
            totals([])

    def test_flags_dropped(self):
        total = totals([BundleData(1, 0, semistable=True, stable=True)])
        assert total.semistable is None and total.stable is None

    def test_slope_between_component_slopes(self):
        rng = random.Random(7)
        for _ in range(200):
            parts = [
                BundleData(rng.randint(1, 5), rng.randint(-10, 10))
                for _ in range(rng.randint(1, 4))
            ]
            slopes = [slope(p) for p in parts]
            assert min(slopes) <= slope(totals(parts)) <= max(slopes)


class TestTensorProduct:
    def test_examples(self):
        # genus-2 curve: rank-2 degree-2 bundle twisted down by the cotangent line
        twisted = tensor(BundleData(2, 2), BundleData(1, -2))
        assert (twisted.rank, twisted.degree) == (2, -2)
        assert tensor(BundleData(1, 5), BundleData(2, 0)).to_json() == {
            "rank": 2,
            "degree": 10,
        }

    def test_trivial_line_is_identity(self):
        a = BundleData(3, -4)
        t = tensor(a, BundleData(1, 0))
        assert (t.rank, t.degree) == (a.rank, a.degree)

    def test_slope_additivity(self):
        rng = random.Random(11)
        for _ in range(300):
            a = BundleData(rng.randint(1, 9), rng.randint(-30, 30))
            b = BundleData(rng.randint(1, 9), rng.randint(-30, 30))
            assert slope(tensor(a, b)) == slope(a) + slope(b)


class TestMaxSubsheafDegree:
    def test_semistable_examples(self):
        ambient = BundleData(2, 2, semistable=True)
        assert max_subsheaf_degree(1, ambient, SEMISTABLE) == 1
        for r, d in [(3, 5), (2, -7), (4, 0)]:
            full = BundleData(r, d, semistable=True)
            assert max_subsheaf_degree(r, full, SEMISTABLE) == d

    def test_stable_strict_bound(self):
        ambient = BundleData(2, 2, semistable=True, stable=True)
        # largest integer strictly below 1 * mu = 1
        assert max_subsheaf_degree(1, ambient, STABLE) == 0
        # full rank keeps the ambient degree
        assert max_subsheaf_degree(2, ambient, STABLE) == 2

    def test_floor_respects_negative_slopes(self):
        ambient = BundleData(2, -1, semistable=True)
        # 1 * mu = -1/2, floor is -1
        assert max_subsheaf_degree(1, ambient, SEMISTABLE) == -1

    def test_rank_out_of_range(self):
        ambient = BundleData(2, 2, semistable=True)
        for bad in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                max_subsheaf_degree(bad, ambient, SEMISTABLE)

    def test_missing_flag_rejected(self):
        with pytest.raises(ValueError, match="flag precondition violated"):
            max_subsheaf_degree(1, BundleData(2, 2), SEMISTABLE)
        with pytest.raises(ValueError, match="flag precondition violated"):
            max_subsheaf_degree(1, BundleData(2, 2, semistable=True), STABLE)

    def test_stable_bound_gap_exactly_on_integral_slopes(self):
        rng = random.Random(13)
        for _ in range(200):
            rank = rng.randint(1, 6)
            ambient = BundleData(rank, rng.randint(-12, 12), semistable=True, stable=True)
            mu = slope(ambient)
            for r in range(1, rank + 1):
                loose = max_subsheaf_degree(r, ambient, SEMISTABLE)
                strict = max_subsheaf_degree(r, ambient, STABLE)
                assert strict <= loose
                gap_expected = r < rank and (r * mu).denominator == 1
                assert (strict < loose) == gap_expected

    def test_monotone_in_rank_for_nonnegative_slope(self):
        # monotonicity holds on nonnegative slopes only; for negative slopes
        # the bound floor(r * mu) genuinely decreases with the rank
        rng = random.Random(17)
        for _ in range(200):
            rank = rng.randint(1, 6)
            ambient = BundleData(rank, rng.randint(0, 12), semistable=True, stable=True)
            for mode in (SEMISTABLE, STABLE):
                bounds = [max_subsheaf_degree(r, ambient, mode) for r in range(1, rank + 1)]
                assert bounds == sorted(bounds)

    def test_negative_slope_bound_decreases(self):
        ambient = BundleData(2, -2, semistable=True)
        assert max_subsheaf_degree(1, ambient, SEMISTABLE) == -1
        assert max_subsheaf_degree(2, ambient, SEMISTABLE) == -2


class TestSubsheafDegreeRow:
    def test_rows_match_exact_rationals_and_cells(self):
        # every cap from 1 (below the rank) to the rank, degrees of both signs
        rng = random.Random(19)
        negative = 0
        for _ in range(200):
            rank = rng.randint(1, 8)
            ambient = BundleData(rank, rng.randint(-20, 20), semistable=True, stable=True)
            negative += ambient.degree < 0
            mu = slope(ambient)
            for cap in range(1, rank + 1):
                ranks = range(1, cap + 1)
                loose = subsheaf_degree_row(ambient, SEMISTABLE, ranks)
                strict = subsheaf_degree_row(ambient, STABLE, ranks)
                assert loose == [math.floor(r * mu) for r in ranks]
                assert strict == [math.ceil(r * mu) - 1 if r < rank else ambient.degree for r in ranks]
                for mode, row in ((SEMISTABLE, loose), (STABLE, strict)):
                    assert row == [max_subsheaf_degree(r, ambient, mode) for r in ranks]
        assert negative

    def test_flag_checked_once_and_named(self):
        with pytest.raises(ValueError, match="component 4 is not flagged semistable"):
            subsheaf_degree_row(BundleData(2, 2), SEMISTABLE, range(1, 3), "component 4")
        with pytest.raises(ValueError, match="ambient bundle is not flagged stable"):
            subsheaf_degree_row(BundleData(2, 2, semistable=True), STABLE, range(1, 3))
