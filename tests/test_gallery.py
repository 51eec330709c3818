from __future__ import annotations

from fractions import Fraction

import pytest

from hodgeslope import gallery
from hodgeslope.gallery import (
    BUILDERS,
    build_entry,
    checked_entry,
    example_injective_not_iso,
    example_strictly_semistable,
    example_surjective_not_iso,
    example_unstable_component,
    recompute_verdict,
)
from hodgeslope.hn_profiles import HNProfile
from hodgeslope.hodge_system import NO, YES, Verdict
from hodgeslope.slope_core import BundleData, InconsistencyError

from support import hn_valid, slope, total_slope


class TestStrictlySemistable:
    def test_genus_two_data(self):
        entry = example_strictly_semistable(2)
        assert [(c.rank, c.degree) for c in entry.system.components] == [(2, -2), (2, 2)]
        assert total_slope(entry.system) == 0
        assert entry.expected.certificate.entries == ((1, -1), (1, 1))
        assert slope(entry.expected.certificate) == 0

    def test_total_degree_always_zero(self):
        for g in (1, 2, 3, 7):
            entry = example_strictly_semistable(g)
            assert total_slope(entry.system) == 0

    def test_genus_three(self):
        entry = example_strictly_semistable(3)
        assert [(c.rank, c.degree) for c in entry.system.components] == [(2, -4), (2, 4)]
        assert entry.expected.certificate.entries == ((1, -2), (1, 2))

    def test_genus_one_degenerates(self):
        entry = example_strictly_semistable(1)
        assert entry.system.context.omega_degree == 0
        assert all(slope(c) == 0 for c in entry.system.components)

    def test_verdict_reproduced_by_search(self):
        for g in (1, 2, 3):
            entry = example_strictly_semistable(g)
            verdict = recompute_verdict(entry)
            assert verdict.semistable == YES
            assert verdict.stable == NO
            # equal-slope witness: zero gap
            assert slope(verdict.certificate) == total_slope(entry.system)

    def test_genus_validated(self):
        with pytest.raises(ValueError):
            example_strictly_semistable(0)


class TestSurjectiveNotIso:
    def test_stated_slope(self):
        entry = example_surjective_not_iso(2, 3)
        assert total_slope(entry.system) == Fraction(8, 3)
        assert slope(entry.expected.certificate) == 3

    def test_slope_gap_formula(self):
        for g, d in [(2, 3), (2, 5), (3, 5)]:
            entry = example_surjective_not_iso(g, d)
            mu = total_slope(entry.system)
            assert mu == Fraction(2 * d + 2 * g - 2, 3)
            assert mu < d
            verdict = recompute_verdict(entry)
            assert verdict.semistable == NO
            assert slope(verdict.certificate) - mu == d - mu

    def test_degree_hypothesis_enforced(self):
        with pytest.raises(ValueError, match="d > 2g-2"):
            example_surjective_not_iso(2, 2)
        with pytest.raises(ValueError):
            example_surjective_not_iso(1, 5)


class TestInjectiveNotIso:
    def test_verdicts(self):
        for g, d0 in [(2, 4), (2, 1), (5, 2)]:
            entry = example_injective_not_iso(g, d0)
            assert total_slope(entry.system) == 0
            verdict = recompute_verdict(entry)
            assert verdict.semistable == NO
            assert slope(verdict.certificate) == d0

    def test_positive_degree_required(self):
        with pytest.raises(ValueError):
            example_injective_not_iso(2, 0)


class TestUnstableComponent:
    def test_component_data(self):
        entry = example_unstable_component(2, 1)
        e0, e1 = entry.system.components
        assert (e0.rank, e0.degree) == (1, 1)
        assert (e1.rank, e1.degree) == (2, -1)
        assert e1.semistable is False
        assert total_slope(entry.system) == 0

    def test_line_degrees(self):
        entry = example_unstable_component(3, 2)
        e1 = entry.system.components[1]
        # lines of degree -2*2-(2*3-2) = -8 and 2+2*3-2 = 6
        assert e1.degree == -8 + 6

    def test_side_hn_profile_validates(self):
        # E_1 splits as two lines of degrees d0+2g-2 and -2d0-(2g-2); its
        # HN profile puts the larger-slope line first
        for g, d0 in [(2, 1), (2, 3), (3, 2)]:
            l2 = BundleData(1, d0 + 2 * g - 2, semistable=True, stable=True)
            l1 = BundleData(1, -2 * d0 - (2 * g - 2), semistable=True, stable=True)
            hn = HNProfile((l2, l1))
            assert hn_valid(hn)
            e1 = example_unstable_component(g, d0).system.components[1]
            assert (l1.rank + l2.rank, l1.degree + l2.degree) == (e1.rank, e1.degree)

    def test_verdicts(self):
        for g, d0 in [(2, 1), (2, 3), (3, 2)]:
            entry = example_unstable_component(g, d0)
            verdict = recompute_verdict(entry)
            assert verdict.semistable == NO
            assert slope(verdict.certificate) == d0 == d0 - total_slope(entry.system)

    def test_positive_degree_required(self):
        with pytest.raises(ValueError):
            example_unstable_component(2, 0)


class TestRegistry:
    def test_default_entries_reproduce_expectations(self):
        for name, builder in BUILDERS.items():
            entry = builder()
            verdict = recompute_verdict(entry)
            assert verdict.semistable is entry.expected.semistable, name
            assert verdict.stable is entry.expected.stable, name

    def test_build_entry_dispatch(self):
        entry = build_entry("injective-not-iso", d0=7)
        assert slope(entry.expected.certificate) == 7

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown gallery entry"):
            build_entry("nonexistent")

    def test_wrong_parameter(self):
        # only the parameters missing from the builder's signature are named
        for name, params, refused in [
            ("strictly-semistable", {"d0": 3}, ["d0"]),
            ("surjective-not-iso", {"g": 2, "d0": 3}, ["d0"]),
            ("injective-not-iso", {"g": 3, "d_line": 5, "d0": 2}, ["d_line"]),
            ("unstable-component", {"d_line": 5, "g": 2, "d0": 1}, ["d_line"]),
            ("strictly-semistable", {"d_line": 5, "d0": 2}, ["d0", "d_line"]),
        ]:
            with pytest.raises(ValueError) as raised:
                build_entry(name, **params)
            assert str(raised.value) == f"entry {name!r} does not accept parameters {refused}"

    def test_checked_entry_reports_drift(self, monkeypatch):
        entry, verdict = checked_entry("strictly-semistable", g=3)
        assert (verdict.semistable, verdict.stable) == (YES, NO)
        monkeypatch.setattr(gallery, "recompute_verdict", lambda entry: Verdict(YES, YES))
        with pytest.raises(InconsistencyError, match="drifted"):
            checked_entry("strictly-semistable", g=3)


#: The corpus's parameter ranges of the families whose invariant line E_0
#: is the declared destabilizing prefix.
DECLARED_FAMILIES = [
    (example_surjective_not_iso, {"g": g, "d_line": d})
    for g in range(2, 6)
    for d in range(2 * g - 1, 2 * g + 6)
] + [
    (builder, {"g": g, "d0": d0})
    for builder in (example_injective_not_iso, example_unstable_component)
    for g in range(2, 6)
    for d0 in range(1, 7)
]


class TestDeclaredFamilies:
    @pytest.mark.parametrize(
        "builder, params",
        DECLARED_FAMILIES,
        ids=[f"{b.__name__}-{sorted(p.items())}" for b, p in DECLARED_FAMILIES],
    )
    def test_prefix_is_the_one_declared_witness(self, builder, params):
        entry = builder(**params)
        witness = entry.expected.certificate
        assert entry.system.theta == (witness,)
        e0 = entry.system.components[0]
        assert witness.entries == ((e0.rank, e0.degree),)
        assert recompute_verdict(entry) == entry.expected
