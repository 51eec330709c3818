from __future__ import annotations

import itertools
import random

import pytest

from hodgeslope.hn_profiles import HNProfile, hn_polygon, tensor_hn, validate_hn
from hodgeslope.slope_core import BundleData, tensor

from support import (
    hn_valid,
    is_strictly_concave,
    random_quotients,
    random_valid_profile,
    slope,
    totals,
)


def ss(rank: int, degree: int) -> BundleData:
    return BundleData(rank, degree, semistable=True)


class TestValidation:
    def test_examples(self):
        assert hn_valid(HNProfile((ss(1, 5), ss(2, 2))))
        assert hn_valid(HNProfile((ss(1, 0),)))
        with pytest.raises(
            ValueError, match="^invalid profile: slopes do not strictly decrease at index 0$"
        ):
            validate_hn(HNProfile((ss(1, 1), ss(1, 1))))

    def test_reports_first_violation_only(self):
        profile = HNProfile((ss(1, 5), ss(1, 2), ss(1, 3), ss(1, 9)))
        with pytest.raises(ValueError, match="at index 1$"):
            validate_hn(profile)

    def test_quotients_must_be_flagged(self):
        with pytest.raises(ValueError, match="flagged semistable"):
            HNProfile((BundleData(1, 5),))
        with pytest.raises(ValueError, match="quotient 1"):
            HNProfile((ss(1, 5), BundleData(1, 2, semistable=False)))

    def test_nonempty(self):
        with pytest.raises(ValueError):
            HNProfile(())


class TestTensor:
    def test_examples(self):
        result = tensor_hn(HNProfile((ss(1, 5), ss(2, 2))), ss(2, 0))
        assert [(q.rank, q.degree) for q in result.quotients] == [(2, 10), (4, 4)]
        assert all(q.semistable is True for q in result.quotients)
        result = tensor_hn(HNProfile((ss(1, 2),)), ss(1, -2))
        assert [(q.rank, q.degree) for q in result.quotients] == [(1, 0)]

    def test_trivial_line_is_identity_on_invariants(self):
        profile = HNProfile((ss(1, 5), ss(2, 2)))
        result = tensor_hn(profile, ss(1, 0))
        assert [(q.rank, q.degree) for q in result.quotients] == [
            (q.rank, q.degree) for q in profile.quotients
        ]

    def test_factor_must_be_flagged(self):
        with pytest.raises(ValueError, match="flag precondition violated"):
            tensor_hn(HNProfile((ss(1, 5),)), BundleData(2, 0))

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError, match="strictly decrease at index 0"):
            tensor_hn(HNProfile((ss(1, 1), ss(1, 1))), ss(1, 0))

    def test_preserves_validity_and_totals(self):
        rng = random.Random(43)
        for _ in range(300):
            profile = random_valid_profile(rng)
            w = ss(rng.randint(1, 4), rng.randint(-20, 20))
            result = tensor_hn(profile, w)
            assert hn_valid(result)
            expected = tensor(totals(profile.quotients), w)
            total = totals(result.quotients)
            assert (total.rank, total.degree) == (expected.rank, expected.degree)

    def test_slopes_shift_uniformly(self):
        profile = HNProfile((ss(2, 7), ss(3, 3), ss(1, -4)))
        w = ss(3, 2)
        result = tensor_hn(profile, w)
        for before, after in zip(profile.quotients, result.quotients):
            assert slope(after) == slope(before) + slope(w)


class TestPolygon:
    def test_examples(self):
        assert hn_polygon(HNProfile((ss(1, 5), ss(2, 2)))) == [(0, 0), (1, 5), (3, 7)]
        assert hn_polygon(HNProfile((ss(3, -4),))) == [(0, 0), (3, -4)]
        assert hn_polygon(HNProfile((ss(2, 10), ss(4, 4)))) == [(0, 0), (2, 10), (6, 14)]

    def test_ill_ordered_profile_gives_its_cumulative_sums(self):
        profile = HNProfile((ss(1, 1), ss(1, 1), ss(2, 5)))
        points = hn_polygon(profile)
        assert points == [(0, 0), (1, 1), (2, 2), (4, 7)]
        assert not hn_valid(profile) and not is_strictly_concave(points)

    def test_segment_slopes_are_quotient_slopes(self):
        rng = random.Random(47)
        for _ in range(100):
            profile = random_valid_profile(rng)
            points = hn_polygon(profile)
            for q, (a, b) in zip(profile.quotients, itertools.pairwise(points)):
                from fractions import Fraction

                assert Fraction(b[1] - a[1], b[0] - a[0]) == slope(q)

    def test_concavity_equivalent_to_validity(self):
        rng = random.Random(53)
        for _ in range(400):
            quotients = random_quotients(rng, rng.randint(1, 5))
            profile = HNProfile(tuple(quotients))
            points = [(0, 0)]
            for q in quotients:
                points.append((points[-1][0] + q.rank, points[-1][1] + q.degree))
            assert is_strictly_concave(points) == hn_valid(profile)
