"""Worked example families on curves, with expected verdicts.

Each constructor pins a family by its genus and degree parameters and
returns the system and the verdict the package must reproduce, whose
certificate is the witnessing subobject profile: one strictly semistable
isomorphism tower, and three families that fail semistability because a
graded map degenerates or a component is unstable.  In those three the
invariant line E_0 is the declared destabilizing prefix, so one
constructor, ``_prefix_destabilizes``, builds them from their E_1.  Line
bundle data that the families are built from (square roots of the
cotangent bundle, large-degree twists) enters only through the resulting
integer degrees.
"""

from __future__ import annotations

from collections.abc import Callable

from .hodge_system import ISOMORPHISMS, NO, YES, HodgeSystem, Verdict
from .profiles import SubsystemProfile
from .search_oracle import PROV_DECLARED, PROV_ORACLE, system_verdict, verdict_from_search
from .slope_core import BundleData, Frozen, GeometricContext, InconsistencyError


class GalleryEntry(Frozen):
    _fields = ("system", "expected")

    def __init__(self, system: HodgeSystem, expected: Verdict) -> None:
        fields = self.__dict__
        fields["system"] = system
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


def _prefix_destabilizes(g: int, d0: int, e1: BundleData) -> GalleryEntry:
    """The stable line E_0 of degree d0 over E_1 on a genus-g curve, with
    the prefix ((1, d0),) declared as the destabilizing subobject."""
    e0 = BundleData(1, d0, semistable=True, stable=True)
    witness = SubsystemProfile(((1, d0),))
    system = HodgeSystem(_curve_context(g), (e0, e1), (witness,))
    return GalleryEntry(system, Verdict(NO, NO, witness, PROV_DECLARED))


def example_strictly_semistable(g: int = 2) -> GalleryEntry:
    """Rank-2 tower E_0 + E_1 with strictly semistable components.

    E_1 has rank 2 and degree 2g-2, E_0 is its twist down by the cotangent
    line bundle, and the total degree is 0.  An equal-slope line subbundle
    of E_1 transports to an invariant subobject of slope 0, so the system
    is semistable but not stable.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    e0 = BundleData(2, -(2 * g - 2), semistable=True, stable=False)
    e1 = BundleData(2, 2 * g - 2, semistable=True, stable=False)
    system = HodgeSystem(_curve_context(g), (e0, e1), ISOMORPHISMS)
    witness = SubsystemProfile(((1, -(g - 1)), (1, g - 1)))
    return GalleryEntry(system, Verdict(YES, NO, witness, PROV_ORACLE))


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
    return _prefix_destabilizes(g, d_line, BundleData(2, d_line + 2 * g - 2, semistable=True))


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
    return _prefix_destabilizes(g, d0, BundleData(1, -d0, semistable=True, stable=True))


def example_unstable_component(g: int = 2, d0: int = 1) -> GalleryEntry:
    """Degree-0 system whose grade-1 component splits unstably.

    E_1 = (2, -d0) is the sum of two lines of degrees -2d0-(2g-2) and
    d0+2g-2, so it is attested not semistable; the invariant line E_0 of
    degree d0 destabilizes the total.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    if d0 < 1:
        raise ValueError("the invariant line must have positive degree")
    return _prefix_destabilizes(g, d0, BundleData(2, -d0, semistable=False, stable=False))


BUILDERS: dict[str, Callable[..., GalleryEntry]] = {
    "strictly-semistable": example_strictly_semistable,
    "surjective-not-iso": example_surjective_not_iso,
    "injective-not-iso": example_injective_not_iso,
    "unstable-component": example_unstable_component,
}


def build_entry(name: str, **params: int) -> GalleryEntry:
    if name not in BUILDERS:
        raise ValueError(f"unknown gallery entry {name!r}; choose from {sorted(BUILDERS)}")
    builder = BUILDERS[name]
    # the builder's own parameter names, read without importing inspect
    code = builder.__code__
    refused = sorted(set(params).difference(code.co_varnames[: code.co_argcount]))
    if refused:
        raise ValueError(f"entry {name!r} does not accept parameters {refused}")
    return builder(**params)


def recompute_verdict(entry: GalleryEntry) -> Verdict:
    """Reproduce the entry's verdict: an isomorphism tower by search, a
    declared system as ``check-system`` decides it, by judging its
    declared profiles."""
    if entry.system.theta is ISOMORPHISMS:
        return verdict_from_search(entry.system)
    return system_verdict(entry.system)


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
