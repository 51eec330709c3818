from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from hodgeslope.gallery import example_strictly_semistable
from hodgeslope.hodge_system import (
    NO,
    PROV_INCONCLUSIVE,
    UNKNOWN,
    YES,
    HodgeSystem,
    ISOMORPHISMS,
    Verdict,
    criterion_semistable,
    criterion_stable,
    derive_components,
    merge_verdicts,
    system_from_json,
    system_to_json,
    transport_subsystem,
)
from hodgeslope.oper import ConnectionPair, connection_verdict
from hodgeslope.profiles import SubsystemProfile
from hodgeslope.search_oracle import (
    MODES, PROV_DECLARED, _declared_verdict, check_declared, verdict_from_search,
)
from hodgeslope.slope_core import SEMISTABLE, STABLE, BundleData, GeometricContext, format_slope

from support import curve, slope, stable_tower, total_slope, totals


def partial_slope(sys: HodgeSystem, k: int) -> Fraction:
    """Slope of E_0 + ... + E_k."""
    return slope(totals(sys.components[: k + 1]))


class TestConstruction:
    def test_isomorphism_tower_validated(self):
        ctx = curve(2)
        with pytest.raises(ValueError, match="incompatible with the isomorphism tower"):
            HodgeSystem(ctx, (BundleData(2, -2), BundleData(2, 1)), ISOMORPHISMS)

    def test_declared_mode_accepts_any_components(self):
        ctx = curve(2)
        sys = HodgeSystem(ctx, (BundleData(1, 3), BundleData(2, 1)), ())
        assert sys.n == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HodgeSystem(curve(2), (), ISOMORPHISMS)

    @pytest.mark.parametrize("theta", ["bogus", [], None])
    def test_unknown_theta_rejected(self, theta):
        # a bare string is refused, not read as a tuple of its characters
        with pytest.raises(
            ValueError, match="^theta must be 'isomorphisms' or a tuple of declared profiles$"
        ):
            HodgeSystem(curve(2), (BundleData(1, 0),), theta)

    @pytest.mark.parametrize("entry", [((1, 0),), [[1, 0]], BundleData(1, 0), None])
    def test_declared_theta_of_non_profiles_rejected(self, entry):
        # refused at construction, not left to fail later in a verdict or
        # a writer, also behind a valid profile
        components = (BundleData(1, 0, True), BundleData(1, 2, True))
        for theta in [(entry,), (SubsystemProfile(((1, 0),)), entry)]:
            with pytest.raises(
                ValueError, match="^theta must be 'isomorphisms' or a tuple of declared profiles$"
            ):
                HodgeSystem(curve(2), components, theta)

    def test_isomorphisms_token_is_stored_as_the_constant(self):
        # a token read from JSON is an equal string, not the same object
        token = "".join(["isomorph", "isms"])
        assert token is not ISOMORPHISMS
        assert HodgeSystem(curve(2), (BundleData(1, 0),), token).theta is ISOMORPHISMS

    def test_totals_are_the_whole_systems(self):
        sys = HodgeSystem(curve(2), (BundleData(1, 3), BundleData(2, -5)), ())
        assert (sys.total_rank, sys.total_degree) == (3, -2)
        assert total_slope(sys) == Fraction(-2, 3)


class TestDeriveComponents:
    def test_rank_one_tower(self):
        sys = derive_components(BundleData(1, 0), curve(2), 3)
        assert [(c.rank, c.degree) for c in sys.components] == [
            (1, 0),
            (1, 2),
            (1, 4),
            (1, 6),
        ]

    def test_height_zero_is_identity(self):
        base = BundleData(3, 7, semistable=True)
        sys = derive_components(base, curve(2), 0)
        assert sys.components == (base,)

    def test_example_tower_data(self):
        sys = derive_components(BundleData(2, -2), curve(2), 1)
        assert [(c.rank, c.degree) for c in sys.components] == [(2, -2), (2, 2)]

    def test_higher_dimension_formulas(self):
        ctx = GeometricContext(0, 2, 3, omega_semistable=True)
        sys = derive_components(BundleData(2, 1, semistable=True), ctx, 2)
        # rank d^i * r0; degree i d^(i-1) w r0 + d^i e0
        assert [(c.rank, c.degree) for c in sys.components] == [
            (2, 1),
            (4, 1 * 1 * 3 * 2 + 2 * 1),
            (8, 2 * 2 * 3 * 2 + 4 * 1),
        ]

    def test_flag_inheritance_needs_semistable_omega(self):
        base = BundleData(2, -2, semistable=True)
        inherited = derive_components(base, curve(2), 1)
        assert all(c.semistable is True for c in inherited.components)
        bare_ctx = GeometricContext(0, 1, 2, omega_semistable=False)
        dropped = derive_components(base, bare_ctx, 1)
        assert dropped.components[0].semistable is True
        assert dropped.components[1].semistable is None

    @pytest.mark.parametrize(
        "char, dim, inherited",
        [(5, 2, None), (5, 1, True), (0, 2, True)],
        ids=["char5-d2", "char5-d1", "char0-d2"],
    )
    def test_flag_inheritance_needs_a_tensor_safe_context(self, char, dim, inherited):
        # in characteristic p a tensor product with a rank d > 1 cotangent
        # bundle need not stay semistable, so nothing is inherited there
        ctx = GeometricContext(char, dim, 2, omega_semistable=True)
        sys = derive_components(BundleData(2, 1, semistable=True), ctx, 2)
        assert sys.components[0].semistable is True
        assert [c.semistable for c in sys.components[1:]] == [inherited, inherited]

    def test_stable_flag_never_inherited(self):
        base = BundleData(2, -2, semistable=True, stable=True)
        sys = derive_components(base, curve(2), 1)
        assert sys.components[1].stable is None

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            derive_components(BundleData(1, 0), curve(2), -1)


class TestSlopes:
    def test_partial_slope_examples(self):
        sys = derive_components(BundleData(1, 0), curve(2), 3)
        assert partial_slope(sys, 1) == 1
        assert partial_slope(sys, 0) == slope(sys.components[0])
        assert partial_slope(example_strictly_semistable().system, 1) == 0

    def test_total_slope(self):
        # the whole system's slope as a report writes it, from the totals
        # the system summed when it was built
        def rendered(sys: HodgeSystem) -> str:
            return format_slope(sys.total_degree, sys.total_rank)

        assert rendered(example_strictly_semistable().system) == "0/1"
        single = derive_components(BundleData(3, 7), curve(2), 0)
        assert rendered(single) == "7/3"
        declared = HodgeSystem(curve(2), (BundleData(1, 3), BundleData(2, 1)), ())
        assert rendered(declared) == "4/3"

    def test_partial_slope_monotone_and_capped(self):
        rng = random.Random(23)
        for _ in range(100):
            d = rng.randint(1, 2)
            w = rng.randint(0, 4)
            ctx = GeometricContext(0, d, w, omega_semistable=True)
            sys = derive_components(BundleData(rng.randint(1, 3), rng.randint(-5, 5)), ctx, 3)
            values = [partial_slope(sys, k) for k in range(4)]
            assert values[-1] == total_slope(sys)
            for a, b in zip(values, values[1:]):
                assert a <= b
                if w > 0:
                    assert a < b


class TestTransport:
    def test_identity_transport(self):
        sys = example_strictly_semistable().system
        profile = transport_subsystem(sys, sys.components[0])
        assert profile.entries == tuple((c.rank, c.degree) for c in sys.components)
        assert slope(profile) == total_slope(sys)

    def test_destabilizer_pattern(self):
        sys = derive_components(BundleData(2, -2), curve(2), 1)
        profile = transport_subsystem(sys, BundleData(1, 0))
        assert profile.entries == ((1, 0), (1, 2))
        assert slope(profile) == 1 > total_slope(sys)

    def test_degree_zero_cotangent(self):
        sys = derive_components(BundleData(2, 0), curve(0), 1)
        profile = transport_subsystem(sys, BundleData(1, 1))
        assert profile.entries == ((1, 1), (1, 1))
        assert slope(profile) == 1 > total_slope(sys)

    def test_rank_overflow_rejected(self):
        sys = example_strictly_semistable().system
        with pytest.raises(ValueError, match="exceeds base rank"):
            transport_subsystem(sys, BundleData(3, 0))

    def test_slope_difference_identity(self):
        rng = random.Random(29)
        for _ in range(300):
            d = rng.randint(1, 3)
            ctx = GeometricContext(0, d, rng.randint(0, 5), omega_semistable=True)
            base = BundleData(rng.randint(1, 4), rng.randint(-9, 9))
            sys = derive_components(base, ctx, rng.randint(0, 3))
            f0 = BundleData(rng.randint(1, base.rank), rng.randint(-9, 9))
            profile = transport_subsystem(sys, f0)
            assert slope(profile) - total_slope(sys) == slope(f0) - slope(base)


class TestCriterionSemistable:
    def test_all_components_semistable(self):
        verdict = criterion_semistable(example_strictly_semistable().system)
        assert verdict.semistable == YES
        assert verdict.stable == UNKNOWN

    def test_single_component(self):
        sys = derive_components(BundleData(2, 5, semistable=True), curve(2), 0)
        assert criterion_semistable(sys).semistable == YES

    def test_converse_with_destabilizer_datum(self):
        base = BundleData(2, 1, semistable=False)
        sys = derive_components(base, curve(2), 1)
        verdict = criterion_semistable(sys, base_destabilizer=BundleData(1, 1))
        assert verdict.semistable == NO
        assert verdict.stable == NO
        assert verdict.certificate is not None
        assert slope(verdict.certificate) == 2 > total_slope(sys)

    def test_converse_needs_characteristic_zero(self):
        base = BundleData(2, 1, semistable=False)
        sys = derive_components(base, curve(2, char=5), 1)
        verdict = criterion_semistable(sys, base_destabilizer=BundleData(1, 1))
        assert verdict.semistable == UNKNOWN

    def test_unknown_without_datum(self):
        sys = derive_components(BundleData(2, 1, semistable=False), curve(2), 1)
        assert criterion_semistable(sys).semistable == UNKNOWN

    def test_invalid_datum_rejected(self):
        sys = derive_components(BundleData(2, 1, semistable=False), curve(2), 1)
        with pytest.raises(ValueError, match="proper subsheaf"):
            criterion_semistable(sys, base_destabilizer=BundleData(2, 3))
        with pytest.raises(ValueError, match="does not exceed"):
            criterion_semistable(sys, base_destabilizer=BundleData(1, 0))

    def test_negative_cotangent_degree_rejected(self):
        sys = derive_components(BundleData(1, 0, semistable=True), curve(-2), 1)
        with pytest.raises(ValueError, match="hypothesis violated"):
            criterion_semistable(sys)

    def test_declared_mode_rejected(self):
        declared = HodgeSystem(curve(2), (BundleData(1, 3),), ())
        with pytest.raises(ValueError, match="isomorphism structure"):
            criterion_semistable(declared)

    def test_no_verdict_certificate_beats_total_slope(self):
        rng = random.Random(31)
        for _ in range(100):
            rank = rng.randint(2, 4)
            degree = rng.randint(-5, 5)
            base = BundleData(rank, degree, semistable=False)
            ctx = GeometricContext(0, rng.randint(1, 2), rng.randint(0, 4), omega_semistable=True)
            sys = derive_components(base, ctx, rng.randint(0, 3))
            sub_rank = rng.randint(1, rank - 1)
            # force a strictly larger slope
            sub_degree = (sub_rank * degree) // rank + 1
            verdict = criterion_semistable(sys, base_destabilizer=BundleData(sub_rank, sub_degree))
            assert verdict.semistable == NO
            assert slope(verdict.certificate) > total_slope(sys)


class TestCriterionStable:
    def test_all_components_stable(self):
        e0 = BundleData(2, -2, semistable=True, stable=True)
        e1 = BundleData(2, 2, semistable=True, stable=True)
        sys = HodgeSystem(curve(2), (e0, e1), ISOMORPHISMS)
        verdict = criterion_stable(sys)
        assert verdict.stable == YES
        assert verdict.semistable == YES

    def test_strictly_semistable_tower_not_stable(self):
        # the criterion answers the stable side only; the merge takes the
        # semistable side from the semistability criterion
        sys = example_strictly_semistable().system
        verdict = criterion_stable(sys)
        assert (verdict.semistable, verdict.stable) == (UNKNOWN, NO)
        assert verdict.certificate is None
        merged = merge_verdicts(criterion_semistable(sys), criterion_stable(sys))
        assert (merged.semistable, merged.stable) == (YES, NO)

    def test_equal_slope_datum_builds_certificate(self):
        sys = example_strictly_semistable().system
        verdict = criterion_stable(sys, equal_slope_sub=BundleData(1, -1))
        assert verdict.stable == NO
        assert verdict.certificate.entries == ((1, -1), (1, 1))
        assert slope(verdict.certificate) == total_slope(sys)

    def test_equal_slope_datum_validated(self):
        sys = example_strictly_semistable().system
        with pytest.raises(ValueError, match="match the base slope"):
            criterion_stable(sys, equal_slope_sub=BundleData(1, 0))
        # the base has rank 2, so a proper subsheaf has rank 1
        with pytest.raises(ValueError, match="^equal-slope datum must be a proper subsheaf"):
            criterion_stable(sys, equal_slope_sub=BundleData(2, -2))

    def test_single_stable_component(self):
        sys = derive_components(BundleData(2, 1, semistable=True, stable=True), curve(2), 0)
        assert criterion_stable(sys).stable == YES

    def test_unknown_off_curves(self):
        ctx = GeometricContext(0, 2, 3, omega_semistable=True)
        base = BundleData(2, 1, semistable=True, stable=False)
        e1 = BundleData(
            4, 1 * 1 * 3 * 2 + 2 * 1, semistable=True, stable=False
        )
        sys = HodgeSystem(ctx, (base, e1), ISOMORPHISMS)
        assert criterion_stable(sys) == Verdict(provenance=PROV_INCONCLUSIVE)

    def test_nonpositive_cotangent_degree_is_inconclusive(self):
        # outside the hypothesis the answer is unknown, never yes: at w = 0
        # the prefix E_0 reaches mu(E)
        for w in (0, -1):
            sys = stable_tower(2, 1, curve(w), 1)
            assert criterion_stable(sys) == Verdict(provenance=PROV_INCONCLUSIVE), w

    def test_each_criterion_answers_yes_exactly_on_its_hypothesis(self):
        # uniform and mixed (semistable, stable) flags over small towers:
        # stable=yes exactly when w > 0 and every component is attested
        # stable; semistable=yes, for w >= 0, exactly when every component
        # is attested semistable
        flags = [(True, None), (True, True), (True, False), (None, None), (False, None)]
        for d, w, n, r0 in itertools.product((1, 2), range(-1, 3), range(3), range(1, 4)):
            context = GeometricContext(0, d, w, omega_semistable=True)
            shape = derive_components(BundleData(r0, 1), context, n).components
            choices = [[flag] * (n + 1) for flag in flags] + [
                [flags[(i + k) % len(flags)] for i in range(n + 1)] for k in range(len(flags))
            ]
            for chosen in choices:
                components = tuple(
                    BundleData(c.rank, c.degree, semistable=ss, stable=st)
                    for c, (ss, st) in zip(shape, chosen)
                )
                sys = HodgeSystem(context, components, ISOMORPHISMS)
                case = (d, w, n, r0, chosen)
                stable = criterion_stable(sys).stable == YES
                assert stable == (w > 0 and sys.components_stable is True), case
                if w >= 0:
                    semistable = criterion_semistable(sys).semistable == YES
                    assert semistable == (sys.components_semistable is True), case


class TestMergeVerdicts:
    """The certificate a merge keeps is the one that backs its surviving
    no: a semistable no's before a stable no's, and none for a merge that
    has no no."""

    A = SubsystemProfile(((1, 5),))
    B = SubsystemProfile(((1, 6),))
    C = SubsystemProfile(((1, 7),))

    def test_a_semistable_no_is_backed_by_a_semistable_no(self):
        # the first verdict's certificate backs only a stable no
        v = merge_verdicts(Verdict(UNKNOWN, NO, self.A, "x"), Verdict(NO, NO, self.B, "y"))
        assert v == Verdict(NO, NO, self.B, "x; y")

    def test_a_stable_no_is_backed_by_the_first_certified_one(self):
        # the criterion's converse may say no without a certificate
        v = merge_verdicts(Verdict(YES, NO, None, "converse"), Verdict(YES, NO, self.C, "oracle"))
        assert v == Verdict(YES, NO, self.C, "converse; oracle")

    @pytest.mark.parametrize("later", [
        Verdict(YES, NO, C, "oracle"), Verdict(YES, YES, C, "oracle"), Verdict(YES, UNKNOWN),
    ])
    def test_a_stable_yes_carries_no_certificate(self, later):
        v = merge_verdicts(Verdict(YES, YES, provenance="criteria"), later)
        assert (v.semistable, v.stable, v.certificate) == (YES, YES, None)

    def test_declared_profiles_refuting_semistability_come_first(self):
        # (1, 0) only meets mu(E) = 0, so it refutes stability alone;
        # (1, 1) exceeds it and refutes both sides
        meets, exceeds = SubsystemProfile(((1, 0),)), SubsystemProfile(((1, 1),))
        sys = HodgeSystem(curve(1), (BundleData(2, 0), BundleData(2, 0)), (meets, exceeds))
        assert check_declared(sys, meets) == Verdict(UNKNOWN, NO, meets, PROV_DECLARED)
        assert _declared_verdict(sys) == Verdict(NO, NO, exceeds, PROV_DECLARED)

    def test_a_single_verdict_is_its_own_merge(self):
        """Every verdict the library returns has a provenance and a
        certificate only on a no side, so merging it alone gives it back:
        ``merge_verdicts`` needs no rule of its own for one verdict."""
        rng = random.Random(32)
        verdicts = []
        for _ in range(150):
            d, w, n = rng.randint(1, 2), rng.randint(-1, 3), rng.randint(0, 2)
            context = GeometricContext(rng.choice((0, 0, 3)), d, w, rng.random() < 0.8)
            r0, e0 = rng.randint(1, 4), rng.randint(-4, 4)
            flags = rng.choice(
                ((True, True), (True, None), (True, False), (False, None), (None, None))
            )
            tower = derive_components(BundleData(r0, e0), context, n).components
            sys = HodgeSystem(context, tuple(BundleData(c.rank, c.degree, *flags) for c in tower))
            g = gcd(r0, e0)
            if w >= 0:
                # a destabilizer of the base above its slope, and an equal-slope one
                above = BundleData(1, e0 // r0 + 1) if r0 > 1 else None
                verdicts.append(criterion_semistable(sys, above))
            if w > 0:
                equal = BundleData(r0 // g, e0 // g) if g > 1 else None
                verdicts.append(criterion_stable(sys, equal))
            for mode in MODES if flags[0] else ():
                verdicts.append(verdict_from_search(sys, mode, SEMISTABLE))
                if flags[1]:
                    verdicts.append(verdict_from_search(sys, mode, STABLE))
            profiles = tuple(
                SubsystemProfile(tuple(
                    (rng.randint(1, c.rank), rng.randint(-4, 8)) for c in tower[:k]
                ))
                for k in range(1, n + 2)
            )
            declared = HodgeSystem(context, sys.components, profiles)
            for profile in profiles:
                try:
                    verdicts.append(check_declared(declared, profile))
                except ValueError:  # over a bound: a refusal, not a verdict
                    pass
            try:
                verdicts.append(_declared_verdict(declared))
            except ValueError:
                pass
            pair = ConnectionPair(BundleData(r0, e0), rng.random() < 0.5,
                                  context=rng.choice((context, None)))
            verdicts.append(connection_verdict(pair, rng.choice((None, *verdicts))))
        assert {(v.semistable, v.stable, v.certificate is None) for v in verdicts} >= {
            (NO, NO, False), (YES, NO, False), (UNKNOWN, NO, True), (UNKNOWN, NO, False),
            (YES, YES, True), (YES, UNKNOWN, True), (UNKNOWN, UNKNOWN, True),
        }
        for v in verdicts:
            assert merge_verdicts(v) == v, v


class TestJson:
    def test_round_trip_isomorphisms(self):
        sys = example_strictly_semistable().system
        assert system_from_json(system_to_json(sys)) == sys

    def test_round_trip_declared(self):
        witness = SubsystemProfile(((1, 3),))
        sys = HodgeSystem(
            curve(2), (BundleData(1, 3), BundleData(2, 1)), (witness,)
        )
        assert system_from_json(system_to_json(sys)) == sys

    def test_unknown_fields_rejected(self):
        doc = system_to_json(example_strictly_semistable().system)
        doc["extra"] = 1
        with pytest.raises(ValueError, match="unknown"):
            system_from_json(doc)

    def test_bad_theta_rejected(self):
        doc = system_to_json(example_strictly_semistable().system)
        doc["theta"] = "declared"
        with pytest.raises(ValueError):
            system_from_json(doc)
