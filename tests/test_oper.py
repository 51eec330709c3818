from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeslope.hn_profiles import HNProfile
from hodgeslope.hodge_system import (
    ISOMORPHISMS,
    NO,
    UNKNOWN,
    YES,
    criterion_semistable,
    criterion_stable,
)
from hodgeslope.oper import (
    PROV_GRADED_TRANSFER,
    ConnectionPair,
    GriffithsFiltration,
    OperCheck,
    connection_verdict,
    graded_of_filtration,
    is_generalized_oper,
    oper_semistability,
    oper_verdict,
    pair_from_json,
)
from hodgeslope.slope_core import BundleData, GeometricContext, _check_keys

from support import (
    curve,
    filtration_to_json,
    hn_valid,
    outcome,
    pair_to_json,
    run,
    slope,
    slope_text,
    totals,
    write_doc,
)


def iso_filtration(
    graded: tuple[BundleData, ...], context: GeometricContext
) -> GriffithsFiltration:
    return GriffithsFiltration(
        context,
        graded,
        transversal=True,
        theta_squares_to_zero=True,
        theta_iso=True,
    )


def tower_pieces(base: BundleData, context: GeometricContext, length: int):
    pieces = [base]
    for _ in range(length - 1):
        prev = pieces[-1]
        pieces.append(
            BundleData(
                context.dim * prev.rank,
                context.dim * prev.degree + prev.rank * context.omega_degree,
                semistable=prev.semistable,
            )
        )
    return tuple(pieces)


class TestFiltrationConstruction:
    def test_consistent_tower_accepted(self):
        f = iso_filtration((BundleData(1, 0), BundleData(1, 2)), curve(2))
        assert len(f.graded) == 2

    def test_no_graded_pieces_rejected(self):
        with pytest.raises(ValueError, match="^a filtration needs at least one graded piece$"):
            GriffithsFiltration(curve(2), (), True, True, False)

    def test_degree_relation_enforced(self):
        with pytest.raises(ValueError, match="expected \\(rank 1, degree 2\\)"):
            iso_filtration((BundleData(1, 0), BundleData(1, 1)), curve(2))

    def test_rank_relation_enforced(self):
        ctx = GeometricContext(0, 2, 1)
        with pytest.raises(ValueError, match="isomorphism relation"):
            iso_filtration((BundleData(1, 0), BundleData(1, 1)), ctx)

    def test_no_relation_without_iso_flag(self):
        f = GriffithsFiltration(
            curve(2),
            (BundleData(1, 0), BundleData(2, 7)),
            transversal=True,
            theta_squares_to_zero=True,
            theta_iso=False,
        )
        assert not f.theta_iso

    def test_json_round_trip(self):
        f = iso_filtration((BundleData(1, 0, semistable=True), BundleData(1, 2, semistable=True)), curve(2))
        assert GriffithsFiltration.from_json(filtration_to_json(f)) == f

    def test_totals_sum_the_pieces(self):
        rng = random.Random(32)
        for _ in range(100):
            pieces = tuple(
                BundleData(rng.randint(1, 4), rng.randint(-9, 9)) for _ in range(rng.randint(1, 4))
            )
            f = GriffithsFiltration(curve(rng.randint(-2, 3)), pieces, True, True, False)
            whole = totals(pieces)
            assert (f.total_rank, f.total_degree) == (whole.rank, whole.degree)


def reference_filtration_from_json(obj) -> GriffithsFiltration:
    """``GriffithsFiltration.from_json`` as written before its fields went
    positionally: each part read by keyword, a bundle's JSON null passed on
    as its text.  The reference the positional reader is compared against."""
    keys = GriffithsFiltration._keys
    data = _check_keys(obj, "griffiths filtration", keys, keys)
    if not isinstance(data["graded"], list) or not data["graded"]:
        raise ValueError("graded must be a nonempty JSON array")
    context = GeometricContext(
        **_check_keys(data["context"], "context", GeometricContext._required, GeometricContext._keys)
    )
    graded = []
    for g in data["graded"]:
        piece = _check_keys(g, "bundle", BundleData._required, BundleData._keys)
        graded.append(BundleData(**{k: "null" if v is None else v for k, v in piece.items()}))
    return GriffithsFiltration(**{**data, "context": context, "graded": tuple(graded)})


def mostly(valid, invalid):
    """A draw from ``valid`` three times in four, else from ``invalid``."""
    return st.sampled_from([valid, valid, valid, invalid]).flatmap(lambda strategy: strategy)


#: Contexts, valid and not: missing, unknown, null and mistyped fields, a
#: composite characteristic, and values that are no JSON object
CONTEXT = mostly(
    st.sampled_from([
        {"characteristic": 0, "dim": 1, "omega_degree": 2},
        {"characteristic": 3, "dim": 2, "omega_degree": 1, "omega_semistable": True},
    ]),
    st.sampled_from([
        {"characteristic": 0, "dim": "1", "omega_degree": 2},
        {"characteristic": 4, "dim": 1, "omega_degree": 2},
        {"characteristic": 0, "dim": 1},
        {"characteristic": 0, "dim": 1, "omega_degree": 2, "omega_stable": None},
        {"characteristic": 0, "dim": 1, "omega_degree": 2, "slope": 0},
        None, [], "context",
    ]),
)
#: Pieces, valid and not.  The valid ones are on the towers of the two
#: valid contexts, (1, 0), (1, 2), (1, 4) on the curve and (1, 0), (2, 1),
#: (4, 4) at d = 2, so a drawn list is on a tower or off it.
PIECE = mostly(
    st.sampled_from([
        {"rank": 1, "degree": 0},
        {"rank": 1, "degree": 2, "semistable": True},
        {"rank": 2, "degree": 1},
        {"rank": 1, "degree": 4},
        {"rank": 4, "degree": 4, "stable": False},
    ]),
    st.sampled_from([
        {"rank": 1, "degree": "0"},
        {"rank": 0, "degree": 0},
        {"rank": 1, "degree": 0, "stable": None},
        {"rank": 1},
        {"rank": 1, "degree": 0, "theta": 1},
        None, 3,
    ]),
)
TOWER = st.sampled_from([
    [{"rank": 1, "degree": 0}, {"rank": 1, "degree": 2}, {"rank": 1, "degree": 4}],
    [{"rank": 1, "degree": 0}, {"rank": 2, "degree": 1}, {"rank": 4, "degree": 4}],
])
GRADED = mostly(
    st.one_of(TOWER, st.lists(PIECE, min_size=1, max_size=3)),
    st.sampled_from([[], {}, "[]", None]),
)
FLAG = mostly(st.booleans(), st.sampled_from([None, 0, "true"]))
FIELDS = {
    "context": CONTEXT,
    "graded": GRADED,
    "transversal": FLAG,
    "theta_squares_to_zero": FLAG,
    "theta_iso": FLAG,
}


@st.composite
def filtration_objects(draw) -> dict:
    """Every field; one time in four a field is missing or an unknown one
    is added."""
    obj = draw(st.fixed_dictionaries(FIELDS))
    shape = draw(st.sampled_from(range(8)))
    if shape == 0:
        del obj[draw(st.sampled_from(sorted(FIELDS)))]
    elif shape == 1:
        obj["total"] = draw(FLAG)
    return obj


class TestFiltrationFromJson:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(filtration_objects())
    def test_matches_the_reference(self, obj):
        expected = outcome(reference_filtration_from_json, obj)
        assert outcome(GriffithsFiltration.from_json, obj) == expected


class TestGradedOfFiltration:
    def test_iso_tower_becomes_isomorphism_system(self):
        f = iso_filtration((BundleData(1, 0), BundleData(1, 2)), curve(2))
        system = graded_of_filtration(f)
        assert system.theta is ISOMORPHISMS
        total = totals(system.components)
        assert (total.rank, total.degree) == (2, 2)

    def test_single_piece(self):
        f = iso_filtration((BundleData(3, -1),), curve(2))
        system = graded_of_filtration(f)
        assert system.n == 0

    def test_non_iso_becomes_declared(self):
        f = GriffithsFiltration(
            curve(2),
            (BundleData(1, 0), BundleData(2, 7)),
            transversal=True,
            theta_squares_to_zero=True,
            theta_iso=False,
        )
        assert graded_of_filtration(f).theta == ()

    def test_flags_required(self):
        f = GriffithsFiltration(
            curve(2),
            (BundleData(1, 0),),
            transversal=False,
            theta_squares_to_zero=True,
            theta_iso=False,
        )
        with pytest.raises(ValueError, match="Higgs-inducing"):
            graded_of_filtration(f)

    def test_total_slope_matches(self):
        f = iso_filtration(
            tower_pieces(BundleData(2, 1, semistable=True), curve(4), 3), curve(4)
        )
        system = graded_of_filtration(f)
        assert Fraction(system.total_degree, system.total_rank) == slope(totals(f.graded))


class TestOperRecognition:
    def test_classical_rank_one_tower(self):
        pieces = tower_pieces(BundleData(1, 0, semistable=True), curve(2), 3)
        check = is_generalized_oper(iso_filtration(pieces, curve(2)))
        assert check and check.classical and not check.reasons

    def test_higher_rank_tower_not_classical(self):
        ctx = curve(1)
        pieces = (BundleData(2, 0, semistable=True), BundleData(2, 2, semistable=True))
        check = is_generalized_oper(iso_filtration(pieces, ctx))
        assert check and not check.classical

    def test_failing_clauses_listed(self):
        f = GriffithsFiltration(
            curve(2),
            (BundleData(1, 0), BundleData(2, 5)),
            transversal=False,
            theta_squares_to_zero=True,
            theta_iso=False,
        )
        check = is_generalized_oper(f)
        assert not check
        assert "filtration is not transversal" in check.reasons
        assert "graded maps are not all isomorphisms" in check.reasons
        assert any("not flagged semistable" in r for r in check.reasons)

    def test_truth_is_the_absence_of_failing_clauses(self):
        # there is no separate flag that could contradict the reasons
        assert OperCheck() and OperCheck((), classical=True)
        assert not OperCheck(("filtration is not transversal",))


class TestOperSemistability:
    def test_rank_two_tower(self):
        pieces = (
            BundleData(2, -2, semistable=True),
            BundleData(2, 2, semistable=True),
        )
        verdict = oper_semistability(iso_filtration(pieces, curve(2)))
        assert verdict.semistable == YES

    def test_single_piece(self):
        f = iso_filtration((BundleData(2, 3, semistable=True),), curve(2))
        assert oper_semistability(f).semistable == YES

    def test_rank_one_tower(self):
        pieces = tower_pieces(BundleData(1, 0, semistable=True), curve(2), 3)
        assert [(p.rank, p.degree) for p in pieces] == [(1, 0), (1, 2), (1, 4)]
        assert oper_semistability(iso_filtration(pieces, curve(2))).semistable == YES

    def test_not_an_oper_rejected(self):
        f = GriffithsFiltration(
            curve(2),
            (BundleData(1, 0),),
            transversal=True,
            theta_squares_to_zero=True,
            theta_iso=False,
        )
        with pytest.raises(ValueError, match="not a generalized oper"):
            oper_semistability(f)

    def test_negative_cotangent_degree_rejected(self):
        f = iso_filtration((BundleData(1, 5, semistable=True),), curve(-2))
        with pytest.raises(ValueError, match="hypothesis violated"):
            oper_semistability(f)

    def test_succeeds_whenever_recognized_and_degree_nonnegative(self):
        rng = random.Random(59)
        for _ in range(100):
            d = rng.randint(1, 2)
            w = rng.randint(0, 4)
            ctx = GeometricContext(0, d, w, omega_semistable=True)
            base = BundleData(rng.randint(1, 3), rng.randint(-5, 5), semistable=True)
            pieces = tower_pieces(base, ctx, rng.randint(1, 3))
            f = iso_filtration(pieces, ctx)
            assert is_generalized_oper(f)
            assert oper_semistability(f).semistable == YES

    def test_is_the_verdict_of_oper_verdict(self):
        """On a generalized oper it is ``oper_verdict``'s verdict; on any
        other filtration it refuses with the clauses ``oper_verdict`` finds."""
        rng = random.Random(32)
        opers = 0
        for _ in range(200):
            ctx = GeometricContext(rng.choice((0, 3)), rng.randint(1, 2), rng.randint(0, 3), True)
            base = BundleData(rng.randint(1, 3), rng.randint(-5, 5), rng.choice((True, None)))
            pieces = tower_pieces(base, ctx, rng.randint(1, 3))
            flags = [rng.random() < 0.8 for _ in range(3)]
            if not flags[2]:  # any pieces may then follow the first
                pieces = pieces[:1] + tuple(BundleData(p.rank, p.degree + 1) for p in pieces[1:])
            f = GriffithsFiltration(ctx, pieces, *flags)
            check, verdict = oper_verdict(f)
            if check:
                opers += 1
                assert oper_semistability(f) == verdict
                continue
            with pytest.raises(ValueError) as refused:
                oper_semistability(f)
            assert str(refused.value) == "not a generalized oper: " + "; ".join(check.reasons)
        assert 0 < opers < 200


class TestConnectionPair:
    def test_totals_validated(self):
        f = iso_filtration((BundleData(1, 0), BundleData(1, 2)), curve(2))
        ConnectionPair(BundleData(2, 2), flat=True, filtration=f)
        with pytest.raises(ValueError, match="total invariants do not match"):
            ConnectionPair(BundleData(2, 1), flat=True, filtration=f)

    def test_slope_identity(self, capsys, tmp_path):
        # check-connection reports mu_total as the slope of the graded
        # sums, "p/q" in lowest terms
        rng = random.Random(61)
        for _ in range(100):
            ctx = GeometricContext(0, rng.randint(1, 2), rng.randint(0, 3), omega_semistable=True)
            base = BundleData(rng.randint(1, 3), rng.randint(-4, 4), semistable=True)
            pieces = tower_pieces(base, ctx, rng.randint(1, 3))
            total = totals(pieces)
            pair = ConnectionPair(total, flat=bool(rng.getrandbits(1)), filtration=iso_filtration(pieces, ctx))
            doc = write_doc(tmp_path, {"connection_pair": pair_to_json(pair)})
            code, report, _ = run(capsys, ["check-connection", doc])
            assert code == 0
            assert report["mu_total"] == slope_text(slope(totals(pieces)))

    def test_json_round_trip(self):
        f = iso_filtration((BundleData(1, 0, semistable=True), BundleData(1, 2, semistable=True)), curve(2))
        pair = ConnectionPair(BundleData(2, 2), flat=False, filtration=f)
        doc = {"total": pair.total.to_json(), "flat": False, "filtration": filtration_to_json(f)}
        assert pair_from_json(doc) == pair
        bare = ConnectionPair(BundleData(3, 0), flat=True, context=curve(2))
        doc = {"total": bare.total.to_json(), "flat": True, "context": curve(2).to_json()}
        assert pair_from_json(doc) == bare

    def test_pair_given_both_contexts_is_refused(self):
        f = iso_filtration((BundleData(1, 0), BundleData(1, 2)), curve(2, char=5))
        pair = ConnectionPair(BundleData(2, 2), flat=True, filtration=f)
        assert pair.context == curve(2, char=5)
        refusal = "^a filtered pair takes its filtration's context and no other$"
        with pytest.raises(ValueError, match=refusal):
            ConnectionPair(BundleData(2, 2), flat=True, filtration=f, context=curve(2))
        doc = {
            "total": {"rank": 2, "degree": 2},
            "flat": True,
            "filtration": filtration_to_json(f),
            "context": curve(2).to_json(),
        }
        with pytest.raises(ValueError, match=refusal):
            pair_from_json(doc)


class TestConnectionVerdict:
    def test_flat_characteristic_zero_without_filtration(self):
        pair = ConnectionPair(BundleData(3, 0), flat=True, context=curve(2))
        verdict = connection_verdict(pair)
        assert verdict.semistable == YES

    def test_flat_characteristic_zero_overrides_unknown_graded(self):
        f = iso_filtration((BundleData(1, 3), BundleData(1, 5)), curve(2))
        pair = ConnectionPair(BundleData(2, 8), flat=True, filtration=f)
        unknown = criterion_semistable(graded_of_filtration(f))
        assert unknown.semistable == UNKNOWN
        verdict = connection_verdict(pair, unknown)
        assert verdict.semistable == YES

    def test_graded_transfer_in_positive_characteristic(self):
        ctx = curve(2, char=5)
        pieces = (BundleData(1, 0, semistable=True), BundleData(1, 2, semistable=True))
        f = iso_filtration(pieces, ctx)
        pair = ConnectionPair(BundleData(2, 2), flat=True, filtration=f)
        graded_verdict = criterion_semistable(graded_of_filtration(f))
        verdict = connection_verdict(pair, graded_verdict)
        assert verdict.semistable == YES

    def test_stability_transfers(self):
        ctx = curve(2, char=5)
        pieces = (
            BundleData(2, -1, semistable=True, stable=True),
            BundleData(2, 3, semistable=True, stable=True),
        )
        f = iso_filtration(pieces, ctx)
        pair = ConnectionPair(BundleData(4, 2), flat=True, filtration=f)
        graded = graded_of_filtration(f)
        graded_verdict = criterion_stable(graded)
        verdict = connection_verdict(pair, graded_verdict)
        assert verdict.stable == YES
        assert verdict.semistable == YES

    def test_unknown_without_any_route(self):
        pair = ConnectionPair(BundleData(3, 0), flat=True, context=curve(2, char=5))
        assert connection_verdict(pair).semistable == UNKNOWN
        pair = ConnectionPair(BundleData(3, 0), flat=True)
        assert connection_verdict(pair).semistable == UNKNOWN


#: W's attestations for each kind of W, and the truth for the pair
#: (F^*F_*W, nabla) on each side: None where the kind leaves a side open.
FROBENIUS_KINDS = {
    "stable": ((True, True), (YES, YES)),
    "semistable": ((True, None), (YES, None)),
    "strictly semistable": ((True, False), (YES, NO)),
    "not semistable": ((False, False), (NO, NO)),
}


def frobenius_family():
    """Each (p, g, r, e, kind) of the family: characteristic p, genus g, W
    of type (r, e), and a kind of W that exists.  A strictly semistable W
    needs an equal-slope proper subsheaf, so gcd(r, e) > 1; a line bundle
    is stable."""
    for p in (2, 3, 5, 7):
        for g in (2, 3):
            for r in (1, 2, 3):
                for e in range(-2, 3):
                    for kind in FROBENIUS_KINDS:
                        if kind == "strictly semistable" and gcd(r, e) == 1:
                            continue
                        if kind == "not semistable" and r == 1:
                            continue
                        yield p, g, r, e, kind


class TestFrobeniusDirectImages:
    """Frobenius direct images on a curve X of genus g >= 2 in
    characteristic p, checked against the literature.

    F^*F_*W carries its canonical connection, which is flat, and its
    canonical filtration, whose graded maps are isomorphisms with
    gr^l = W (x) K^l for l = 0..p-1 (Joshi, Ramanan, Xia and Yu, Compositio
    Math. 142, 2006): the isomorphism tower over W with w = 2g - 2, of
    total degree p*(e + r(p-1)(g-1)).  F_*W is stable for stable W and
    semistable for semistable W (Sun, Invent. Math. 173, 2008), and by
    Cartier descent the invariant subsheaves of F^*F_*W are the pullbacks
    of subsheaves of F_*W, so the pair is as stable as F_*W.  A subsheaf
    W' of W gives the invariant F^*F_*W', whose slope exceeds the pair's
    by (mu(W') - mu(W)) up to a positive factor: an equal-slope W' makes
    the pair not stable, a destabilizing one not semistable.
    """

    def test_every_definite_side_agrees_with_the_literature(self, capsys, tmp_path):
        """Each definite side must equal the truth; an unknown is a gap.
        The pair is flat of nonzero degree in characteristic p, so a rule
        that holds only in characteristic 0 must leave it alone."""
        tally: Counter = Counter()
        for p, g, r, e, kind in frobenius_family():
            flags, truth = FROBENIUS_KINDS[kind]
            pieces = tuple(BundleData(r, e + l * r * (2 * g - 2), *flags) for l in range(p))
            f = iso_filtration(pieces, curve(2 * g - 2, char=p))
            pair = ConnectionPair(totals(pieces), flat=True, filtration=f)
            assert pair.total.degree == p * (e + r * (p - 1) * (g - 1))
            if pair.total.degree != 0:
                tally["nonzero degree"] += 1
            documents = {
                "check-connection": {"connection_pair": pair_to_json(pair)},
                "check-oper": {"griffiths_filtration": filtration_to_json(f)},
            }
            for command, payload in documents.items():
                code, report, _ = run(capsys, [command, write_doc(tmp_path, payload)])
                assert code == 0
                for side, true in zip(("semistable", "stable"), truth):
                    if report[side] == UNKNOWN:
                        tally[command, side, "gap"] += 1
                        continue
                    assert report[side] == true, (command, side, p, g, r, e, kind, report)
                    tally[command, side, "agrees"] += 1
                if command == "check-connection" and flags[0]:
                    assert report["provenance"] == PROV_GRADED_TRANSFER, (p, g, r, e, kind)
                if command == "check-oper" and report["generalized_oper"]:
                    assert report["semistable"] == YES
                    tally["generalized opers"] += 1
        assert tally == {
            "nonzero degree": 342,
            ("check-connection", "semistable", "agrees"): 272,
            ("check-connection", "semistable", "gap"): 80,
            ("check-connection", "stable", "agrees"): 120,
            ("check-connection", "stable", "gap"): 232,
            ("check-oper", "semistable", "agrees"): 272,
            ("check-oper", "semistable", "gap"): 80,
            ("check-oper", "stable", "gap"): 352,
            "generalized opers": 272,
        }


class TestHnBridge:
    """A generalized oper's filtration, read from the top grade down, is the
    Harder-Narasimhan filtration of the underlying bundle when the
    cotangent degree is positive: the graded slopes then strictly rise."""

    def test_reversed_graded_is_valid_profile(self):
        pieces = tower_pieces(BundleData(2, -3, semistable=True), curve(2), 3)
        f = iso_filtration(pieces, curve(2))
        assert is_generalized_oper(f)
        assert hn_valid(HNProfile(tuple(reversed(f.graded))))

    def test_needs_positive_cotangent_degree(self):
        # at cotangent degree 0 every graded piece has the same slope
        pieces = tower_pieces(BundleData(1, 0, semistable=True), curve(0), 2)
        f = iso_filtration(pieces, curve(0))
        assert is_generalized_oper(f)
        assert not hn_valid(HNProfile(tuple(reversed(f.graded))))

    def test_needs_oper(self):
        # pieces not attested semistable: not an oper, and not the
        # quotients of a Harder-Narasimhan profile
        f = iso_filtration((BundleData(1, 0), BundleData(1, 2)), curve(2))
        assert not is_generalized_oper(f)
        with pytest.raises(ValueError, match="must be flagged semistable"):
            HNProfile(tuple(reversed(f.graded)))
