from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from hodgeslope.slope_core import (
    BundleData,
    GeometricContext,
    SubsheafMode,
    _is_prime,
    direct_sum,
    format_rational,
    max_subsheaf_degree,
    slope,
    tensor,
)


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

    def test_dim_positive(self):
        with pytest.raises(ValueError):
            GeometricContext(0, 0, 0)

    def test_omega_stable_needs_semistable(self):
        with pytest.raises(ValueError):
            GeometricContext(0, 1, 2, omega_semistable=False, omega_stable=True)

    def test_json_round_trip(self):
        ctx = GeometricContext(7, 2, 3, omega_semistable=True)
        assert GeometricContext.from_json(ctx.to_json()) == ctx


class TestSlope:
    def test_examples(self):
        assert slope(BundleData(2, -2)) == Fraction(-1)
        assert slope(BundleData(1, 0)) == 0
        assert slope(BundleData(3, 8)) == Fraction(8, 3)

    def test_lowest_terms(self):
        s = slope(BundleData(4, 6))
        assert (s.numerator, s.denominator) == (3, 2)

    def test_format(self):
        assert format_rational(Fraction(8, 3)) == "8/3"
        assert format_rational(Fraction(2)) == "2/1"
        assert format_rational(Fraction(-1, 2)) == "-1/2"


class TestDirectSum:
    def test_examples(self):
        total = direct_sum([BundleData(2, -2), BundleData(2, 2)])
        assert (total.rank, total.degree) == (4, 0)
        single = direct_sum([BundleData(1, 5)])
        assert (single.rank, single.degree) == (1, 5)
        mixed = direct_sum([BundleData(1, 3), BundleData(2, -3)])
        assert (mixed.rank, mixed.degree) == (3, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty direct sum"):
            direct_sum([])

    def test_flags_dropped(self):
        total = direct_sum([BundleData(1, 0, semistable=True, stable=True)])
        assert total.semistable is None and total.stable is None

    def test_slope_between_component_slopes(self):
        rng = random.Random(7)
        for _ in range(200):
            parts = [
                BundleData(rng.randint(1, 5), rng.randint(-10, 10))
                for _ in range(rng.randint(1, 4))
            ]
            slopes = [slope(p) for p in parts]
            assert min(slopes) <= slope(direct_sum(parts)) <= max(slopes)


class TestTensor:
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
        assert max_subsheaf_degree(1, ambient, SubsheafMode.SEMISTABLE) == 1
        for r, d in [(3, 5), (2, -7), (4, 0)]:
            full = BundleData(r, d, semistable=True)
            assert max_subsheaf_degree(r, full, SubsheafMode.SEMISTABLE) == d

    def test_stable_strict_bound(self):
        ambient = BundleData(2, 2, semistable=True, stable=True)
        # largest integer strictly below 1 * mu = 1
        assert max_subsheaf_degree(1, ambient, SubsheafMode.STABLE) == 0
        # full rank keeps the ambient degree
        assert max_subsheaf_degree(2, ambient, SubsheafMode.STABLE) == 2

    def test_floor_respects_negative_slopes(self):
        ambient = BundleData(2, -1, semistable=True)
        # 1 * mu = -1/2, floor is -1
        assert max_subsheaf_degree(1, ambient, SubsheafMode.SEMISTABLE) == -1

    def test_rank_out_of_range(self):
        ambient = BundleData(2, 2, semistable=True)
        for bad in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                max_subsheaf_degree(bad, ambient, SubsheafMode.SEMISTABLE)

    def test_missing_flag_rejected(self):
        with pytest.raises(ValueError, match="flag precondition violated"):
            max_subsheaf_degree(1, BundleData(2, 2), SubsheafMode.SEMISTABLE)
        with pytest.raises(ValueError, match="flag precondition violated"):
            max_subsheaf_degree(1, BundleData(2, 2, semistable=True), SubsheafMode.STABLE)

    def test_stable_bound_gap_exactly_on_integral_slopes(self):
        rng = random.Random(13)
        for _ in range(200):
            rank = rng.randint(1, 6)
            ambient = BundleData(rank, rng.randint(-12, 12), semistable=True, stable=True)
            mu = slope(ambient)
            for r in range(1, rank + 1):
                loose = max_subsheaf_degree(r, ambient, SubsheafMode.SEMISTABLE)
                strict = max_subsheaf_degree(r, ambient, SubsheafMode.STABLE)
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
            for mode in SubsheafMode:
                bounds = [max_subsheaf_degree(r, ambient, mode) for r in range(1, rank + 1)]
                assert bounds == sorted(bounds)

    def test_negative_slope_bound_decreases(self):
        ambient = BundleData(2, -2, semistable=True)
        assert max_subsheaf_degree(1, ambient, SubsheafMode.SEMISTABLE) == -1
        assert max_subsheaf_degree(2, ambient, SubsheafMode.SEMISTABLE) == -2
