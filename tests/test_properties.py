"""Hypothesis property tests: the transport identity over random towers,
the tower relation that systems and filtrations share, JSON round trips
of every wire type through serialized text, and the invariants every
Verdict keeps."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hodgeslope.hodge_system import (
    ISOMORPHISMS,
    NO,
    UNKNOWN,
    YES,
    HodgeSystem,
    Verdict,
    derive_components,
    system_from_json,
    system_to_json,
    tower_component,
    transport_subsystem,
)
from hodgeslope.oper import ConnectionPair, GriffithsFiltration, pair_from_json
from hodgeslope.profiles import SubsystemProfile
from hodgeslope.slope_core import BundleData, GeometricContext

from support import filtration_to_json, pair_to_json, slope, total_slope

ATTESTATIONS = st.sampled_from([None, True, False])
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def contexts(draw) -> GeometricContext:
    semistable = draw(st.booleans())
    return GeometricContext(
        characteristic=draw(st.sampled_from([0, 2, 3, 5, 7, 2**61 - 1])),
        dim=draw(st.integers(1, 4)),
        omega_degree=draw(st.integers(-10, 10)),
        omega_semistable=semistable,
        omega_stable=semistable and draw(st.booleans()),
    )


@st.composite
def bundles(draw, rank=st.integers(1, 8), degree=st.integers(-50, 50)) -> BundleData:
    semistable, stable = draw(ATTESTATIONS), draw(ATTESTATIONS)
    assume(not (stable is True and semistable is False))
    return BundleData(draw(rank), draw(degree), semistable, stable)


profiles = st.builds(
    SubsystemProfile,
    st.lists(st.tuples(st.integers(1, 10), st.integers(-50, 50)), min_size=1, max_size=6),
)


@st.composite
def filtrations(draw) -> GriffithsFiltration:
    context = draw(contexts())
    theta_iso = draw(st.booleans())
    if theta_iso:
        base = draw(bundles())
        graded = []
        for i in range(draw(st.integers(1, 4))):
            rank, degree = tower_component(base, context, i)
            graded.append(draw(bundles(st.just(rank), st.just(degree))))
    else:
        graded = draw(st.lists(bundles(), min_size=1, max_size=4))
    return GriffithsFiltration(
        context, tuple(graded), draw(st.booleans()), draw(st.booleans()), theta_iso
    )


@st.composite
def systems(draw) -> HodgeSystem:
    context = draw(contexts())
    if draw(st.booleans()):
        return derive_components(draw(bundles()), context, draw(st.integers(0, 4)))
    components = draw(st.lists(bundles(), min_size=1, max_size=4))
    return HodgeSystem(context, tuple(components), tuple(draw(st.lists(profiles, max_size=3))))


@st.composite
def pairs(draw) -> ConnectionPair:
    filtration = draw(st.none() | filtrations())
    if filtration is None:
        # only a pair without a filtration is given a context of its own
        context = draw(st.none() | contexts())
        return ConnectionPair(draw(bundles()), draw(st.booleans()), context=context)
    rank = sum(g.rank for g in filtration.graded)
    degree = sum(g.degree for g in filtration.graded)
    total = draw(bundles(st.just(rank), st.just(degree)))
    return ConnectionPair(total, draw(st.booleans()), filtration)


def through_text(obj: object) -> object:
    """The wire form as a document carries it: serialized and parsed back."""
    return json.loads(json.dumps(obj))


class TestTransportIdentity:
    @PROPERTY_SETTINGS
    @given(
        context=contexts(),
        base=bundles(),
        n=st.integers(0, 6),
        data=st.data(),
    )
    def test_slope_excess_is_transported_exactly(self, context, base, n, data):
        # slope(profile) - mu(E) = mu(f0) - mu(E_0), for every f0 of rank
        # at most rank(E_0), whatever its slope
        sys = derive_components(base, context, n)
        f0 = BundleData(
            data.draw(st.integers(1, base.rank)), data.draw(st.integers(-200, 200))
        )
        profile = transport_subsystem(sys, f0)
        assert slope(profile) - total_slope(sys) == slope(f0) - slope(sys.components[0])


class TestTowerRelation:
    @PROPERTY_SETTINGS
    @given(
        context=contexts(),
        base=bundles(),
        n=st.integers(1, 5),
        data=st.data(),
    )
    def test_perturbed_piece_is_named_by_both(self, context, base, n, data):
        # one check states the relation for systems and for filtrations
        # with isomorphism graded maps; each names piece k in its own words
        pieces = list(derive_components(base, context, n).components)
        k = data.draw(st.integers(1, n))
        rank, degree = tower_component(base, context, k)
        if data.draw(st.booleans()):
            got = (data.draw(st.integers(1, rank + 5).filter(lambda r: r != rank)), degree)
        else:
            got = (rank, degree + data.draw(st.integers(-5, 5).filter(bool)))
        pieces[k] = BundleData(*got)
        pieces = tuple(pieces)
        detail = f"expected (rank {rank}, degree {degree}), got (rank {got[0]}, degree {got[1]})"
        with pytest.raises(ValueError) as system_error:
            HodgeSystem(context, pieces, ISOMORPHISMS)
        assert str(system_error.value) == (
            f"component {k} is incompatible with the isomorphism tower: {detail}"
        )
        with pytest.raises(ValueError) as filtration_error:
            GriffithsFiltration(context, pieces, True, True, theta_iso=True)
        assert str(filtration_error.value) == (
            f"graded piece {k} violates the isomorphism relation: {detail}"
        )
        # without the isomorphism structure the same pieces are accepted
        HodgeSystem(context, pieces, ())
        GriffithsFiltration(context, pieces, True, True, theta_iso=False)


class TestJsonRoundTrips:
    @PROPERTY_SETTINGS
    @given(bundle=bundles())
    def test_bundle(self, bundle):
        assert BundleData.from_json(through_text(bundle.to_json())) == bundle

    @PROPERTY_SETTINGS
    @given(context=contexts())
    def test_context(self, context):
        assert GeometricContext.from_json(through_text(context.to_json())) == context

    @PROPERTY_SETTINGS
    @given(profile=profiles)
    def test_profile(self, profile):
        assert SubsystemProfile.from_json(through_text(profile.to_json())) == profile

    @PROPERTY_SETTINGS
    @given(filtration=filtrations())
    def test_filtration(self, filtration):
        assert GriffithsFiltration.from_json(through_text(filtration_to_json(filtration))) == filtration

    @PROPERTY_SETTINGS
    @given(system=systems())
    def test_system(self, system):
        assert system_from_json(through_text(system_to_json(system))) == system

    @PROPERTY_SETTINGS
    @given(pair=pairs())
    def test_pair(self, pair):
        assert pair_from_json(through_text(pair_to_json(pair))) == pair


class TestVerdictInvariants:
    @pytest.mark.parametrize(
        "semistable, stable, certified",
        list(itertools.product((YES, NO, UNKNOWN), (YES, NO, UNKNOWN), (False, True))),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(profile=profiles, provenance=st.text(max_size=20))
    def test_construction(self, semistable, stable, certified, profile, provenance):
        # stable=yes needs semistable=yes, semistable=no needs a
        # certificate and forces stable=no, and nothing else changes
        certificate = profile if certified else None
        invalid = (stable == YES and semistable != YES) or (
            semistable == NO and certificate is None
        )
        if invalid:
            with pytest.raises(ValueError):
                Verdict(semistable, stable, certificate, provenance)
            return
        v = Verdict(semistable, stable, certificate, provenance)
        assert v.semistable is semistable
        assert v.stable is (NO if semistable == NO else stable)
        assert v.certificate is certificate
        assert v.provenance is provenance
