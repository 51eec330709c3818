"""Worked example families on curves, with declared destabilizers and
expected verdicts.

Each constructor pins a family by its genus and degree parameters and
returns the system, the witnessing subobject profile, and the verdict the
package must reproduce: one strictly semistable isomorphism tower, and
three families that fail semistability because a graded map degenerates or
a component is unstable.  Line bundle data that the families are built
from (square roots of the cotangent bundle, large-degree twists) enters
only through the resulting integer degrees.
"""

from __future__ import annotations

from collections.abc import Callable

from .hn_profiles import HNProfile, validate_hn
from .hodge_system import (
    Answer,
    Declared,
    HodgeSystem,
    ISOMORPHISMS,
    Isomorphisms,
    Verdict,
)
from .profiles import SubsystemProfile
from .search_oracle import (
    PROV_DECLARED,
    PROV_ORACLE,
    check_declared,
    verdict_from_search,
)
from .slope_core import BundleData, Frozen, GeometricContext, InconsistencyError, direct_sum


class GalleryEntry(Frozen):
    _fields = ("name", "system", "declared_subobject", "expected")

    def __init__(
        self,
        name: str,
        system: HodgeSystem,
        declared_subobject: SubsystemProfile | None,
        expected: Verdict,
    ) -> None:
        fields = self.__dict__
        fields["name"] = name
        fields["system"] = system
        fields["declared_subobject"] = declared_subobject
        fields["expected"] = expected


def _curve_context(g: int) -> GeometricContext:
    # genus-g curve: the cotangent bundle is a line bundle of degree 2g-2
    return GeometricContext(
        characteristic=0,
        dim=1,
        omega_degree=2 * g - 2,
        omega_semistable=True,
        omega_stable=True,
    )


def example_strictly_semistable(g: int = 2) -> GalleryEntry:
    """Rank-2 tower E_0 + E_1 with strictly semistable components.

    E_1 has rank 2 and degree 2g-2, E_0 is its twist down by the cotangent
    line bundle, and the total degree is 0.  An equal-slope line subbundle
    of E_1 transports to an invariant subobject of slope 0, so the system
    is semistable but not stable.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    context = _curve_context(g)
    e0 = BundleData(2, -(2 * g - 2), semistable=True, stable=False)
    e1 = BundleData(2, 2 * g - 2, semistable=True, stable=False)
    system = HodgeSystem(context, (e0, e1), ISOMORPHISMS)
    witness = SubsystemProfile(((1, -(g - 1)), (1, g - 1)))
    expected = Verdict(Answer.YES, Answer.NO, witness, PROV_ORACLE)
    return GalleryEntry("strictly-semistable", system, witness, expected)


def example_surjective_not_iso(g: int = 2, d_line: int = 3) -> GalleryEntry:
    """Line bundle E_0 of degree d > 2g-2 under a rank-2 extension E_1.

    The graded map out of E_1 is surjective but not an isomorphism, and
    the invariant line E_0 has slope d above the total slope
    (2d + 2g - 2) / 3.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    if d_line <= 2 * g - 2:
        raise ValueError("hypothesis d > 2g-2 violated")
    context = _curve_context(g)
    e0 = BundleData(1, d_line, semistable=True, stable=True)
    e1 = BundleData(2, d_line + 2 * g - 2, semistable=True)
    witness = SubsystemProfile(((1, d_line),))
    system = HodgeSystem(context, (e0, e1), Declared((witness,)))
    expected = Verdict(Answer.NO, Answer.NO, witness, PROV_DECLARED)
    return GalleryEntry("surjective-not-iso", system, witness, expected)


def example_injective_not_iso(g: int = 2, d0: int = 4) -> GalleryEntry:
    """Dual pair of line bundles E_0, E_1 with an injective graded map.

    The total degree is 0 and the invariant line E_0 has positive degree
    d0, so the system is not semistable.  The genus only gates the
    existence of a nonzero graded map, not the verdict.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    if d0 < 1:
        raise ValueError("the invariant line must have positive degree")
    context = _curve_context(g)
    e0 = BundleData(1, d0, semistable=True, stable=True)
    e1 = BundleData(1, -d0, semistable=True, stable=True)
    witness = SubsystemProfile(((1, d0),))
    system = HodgeSystem(context, (e0, e1), Declared((witness,)))
    expected = Verdict(Answer.NO, Answer.NO, witness, PROV_DECLARED)
    return GalleryEntry("injective-not-iso", system, witness, expected)


def unstable_component_lines(g: int, d0: int) -> tuple[BundleData, BundleData]:
    """The two line summands of the non-semistable grade-1 component."""
    l1 = BundleData(1, -2 * d0 - (2 * g - 2), semistable=True, stable=True)
    l2 = BundleData(1, d0 + 2 * g - 2, semistable=True, stable=True)
    return l1, l2


def unstable_component_hn(g: int, d0: int) -> HNProfile:
    """Harder-Narasimhan profile of that component: the larger-slope line
    first."""
    l1, l2 = unstable_component_lines(g, d0)
    return HNProfile((l2, l1))


def example_unstable_component(g: int = 2, d0: int = 1) -> GalleryEntry:
    """Degree-0 system whose grade-1 component splits unstably.

    E_1 is a sum of two lines of degrees -2d0-(2g-2) and d0+2g-2, so it is
    not semistable; the invariant line E_0 of degree d0 destabilizes the
    total.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    if d0 < 1:
        raise ValueError("the invariant line must have positive degree")
    context = _curve_context(g)
    e0 = BundleData(1, d0, semistable=True, stable=True)
    l1, l2 = unstable_component_lines(g, d0)
    summed = direct_sum([l1, l2])
    e1 = BundleData(summed.rank, summed.degree, semistable=False, stable=False)
    hn = unstable_component_hn(g, d0)
    if not validate_hn(hn):
        raise ValueError("the component's Harder-Narasimhan data failed to validate")
    witness = SubsystemProfile(((1, d0),))
    system = HodgeSystem(context, (e0, e1), Declared((witness,)))
    expected = Verdict(Answer.NO, Answer.NO, witness, PROV_DECLARED)
    return GalleryEntry("unstable-component", system, witness, expected)


BUILDERS: dict[str, Callable[..., GalleryEntry]] = {
    "strictly-semistable": example_strictly_semistable,
    "surjective-not-iso": example_surjective_not_iso,
    "injective-not-iso": example_injective_not_iso,
    "unstable-component": example_unstable_component,
}


def build_entry(name: str, **params: int) -> GalleryEntry:
    if name not in BUILDERS:
        raise ValueError(f"unknown gallery entry {name!r}; choose from {sorted(BUILDERS)}")
    try:
        return BUILDERS[name](**params)
    except TypeError:
        raise ValueError(f"entry {name!r} does not accept parameters {sorted(params)}")


def default_entries() -> list[GalleryEntry]:
    return [builder() for builder in BUILDERS.values()]


def recompute_verdict(entry: GalleryEntry, budget: int | None = None) -> Verdict:
    """Reproduce the entry's verdict by search (isomorphism towers) or by
    judging the declared subobject."""
    if isinstance(entry.system.theta, Isomorphisms):
        return verdict_from_search(entry.system, budget=budget)
    assert entry.declared_subobject is not None
    return check_declared(entry.system, entry.declared_subobject)


def checked_entry(name: str, **params: int) -> tuple[GalleryEntry, Verdict]:
    """Build an entry and reproduce its verdict; a verdict that drifted
    from the recorded expectation raises InconsistencyError."""
    entry = build_entry(name, **params)
    recomputed = recompute_verdict(entry)
    if (recomputed.semistable, recomputed.stable) != (
        entry.expected.semistable,
        entry.expected.stable,
    ):
        raise InconsistencyError("gallery verdict drifted from the recorded expectation")
    return entry, recomputed
