"""Systems of Hodge bundles at the level of numerical invariants.

A system is a graded bundle E = E_0 + ... + E_n whose Higgs field lowers
the grade by one.  When every graded map is an isomorphism onto the
previous piece tensored with the cotangent bundle, the component
invariants are forced by the base component and the ambient geometry:

    rank(E_i)   = d^i * rank(E_0)
    degree(E_i) = i * d^(i-1) * w * rank(E_0) + d^i * degree(E_0)

with d the dimension and w the cotangent degree.  That tower shape is what
the semistability and stability criteria consume.  Verdicts are
three-valued; the criteria are one-directional outside characteristic zero
(and, for stability, outside curves), and this module never over-claims.

Two statements are recorded here as documentation only, with no operation
behind them: for dimension at least 2 one expects stable towers to force
polystable components, and every criterion below survives replacing the
cotangent bundle by an arbitrary semistable bundle of nonnegative degree
(the context already carries exactly the data needed for that reading).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .profiles import SubsystemProfile, certificate_json
from .slope_core import (
    BundleData,
    Frozen,
    GeometricContext,
    _check_keys,
    direct_sum,
    slope,
)

PROV_TOWER_SEMISTABLE = "semistable components in an isomorphism tower"
PROV_TOWER_STABLE = "stable components in an isomorphism tower"
PROV_BASE_TRANSPORT = "transported destabilizer of the base component"
PROV_CURVE_CONVERSE = "non-stable component of a curve tower in characteristic zero"
PROV_INCONCLUSIVE = "criteria inconclusive"


class Answer(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class Isomorphisms(Frozen):
    """Every graded map is an isomorphism onto the next-lower piece
    tensored with the cotangent bundle."""


class Declared(Frozen):
    """No isomorphism structure is asserted; invariant subobjects are
    declared explicitly as profiles (possibly none)."""

    _fields = ("profiles",)

    def __init__(self, profiles: tuple[SubsystemProfile, ...] = ()) -> None:
        self.__dict__["profiles"] = tuple(profiles)


ThetaMode = Isomorphisms | Declared
ISOMORPHISMS = Isomorphisms()


def tower_component(base: BundleData, context: GeometricContext, i: int) -> tuple[int, int]:
    """(rank, degree) of the i-th piece of the tensor tower over ``base``.

    The i = 0 piece is the base itself; the degree term i * d^(i-1) is read
    as 0 at i = 0, also when d = 1.
    """
    if i == 0:
        return base.rank, base.degree
    d = context.dim
    w = context.omega_degree
    return (
        d**i * base.rank,
        i * d ** (i - 1) * w * base.rank + d**i * base.degree,
    )


class HodgeSystem(Frozen):
    """Graded components E_0..E_n with the grade-lowering structure mode.

    In ``Isomorphisms`` mode the component invariants must satisfy the
    tower formulas; any hand-supplied list violating them is rejected at
    construction.
    """

    _fields = ("context", "components", "theta")

    def __init__(
        self,
        context: GeometricContext,
        components: tuple[BundleData, ...],
        theta: ThetaMode = ISOMORPHISMS,
    ) -> None:
        components = tuple(components)
        if not components:
            raise ValueError("a system needs at least one component")
        if not isinstance(theta, (Isomorphisms, Declared)):
            raise ValueError("theta must be an Isomorphisms or Declared mode")
        if isinstance(theta, Isomorphisms):
            base = components[0]
            for i, comp in enumerate(components):
                rank, degree = tower_component(base, context, i)
                if (comp.rank, comp.degree) != (rank, degree):
                    raise ValueError(
                        f"component {i} is incompatible with the isomorphism tower: "
                        f"expected (rank {rank}, degree {degree}), "
                        f"got (rank {comp.rank}, degree {comp.degree})"
                    )
        fields = self.__dict__
        fields["context"] = context
        fields["components"] = components
        fields["theta"] = theta

    @property
    def n(self) -> int:
        return len(self.components) - 1


class Verdict(Frozen):
    """Three-valued semistability/stability verdict with optional certificate.

    A ``semistable = no`` verdict always carries a destabilizing
    certificate and forces ``stable = no``.  A ``stable = no`` verdict may
    lack a certificate when the witnessing datum was not supplied.
    """

    _fields = ("semistable", "stable", "certificate", "provenance")

    def __init__(
        self,
        semistable: Answer = Answer.UNKNOWN,
        stable: Answer = Answer.UNKNOWN,
        certificate: SubsystemProfile | None = None,
        provenance: str = "",
    ) -> None:
        if stable is Answer.YES and semistable is not Answer.YES:
            raise ValueError("stable=yes forces semistable=yes")
        if semistable is Answer.NO:
            if stable is Answer.UNKNOWN:
                stable = Answer.NO
            if certificate is None:
                raise ValueError("a semistable=no verdict needs a destabilizing certificate")
        fields = self.__dict__
        fields["semistable"] = semistable
        fields["stable"] = stable
        fields["certificate"] = certificate
        fields["provenance"] = provenance


def verdict_json(v: Verdict, mu_total: Fraction | None = None) -> dict:
    cert = None
    if v.certificate is not None:
        cert = certificate_json(
            v.certificate, mu_total if mu_total is not None else v.certificate.slope
        )
    return {
        "semistable": v.semistable.value,
        "stable": v.stable.value,
        "certificate": cert,
        "provenance": v.provenance,
    }


def _require_isomorphisms(sys: HodgeSystem) -> None:
    if not isinstance(sys.theta, Isomorphisms):
        raise ValueError("operation requires isomorphism structure on the graded maps")


def derive_components(base: BundleData, context: GeometricContext, n: int) -> HodgeSystem:
    """Build the isomorphism tower of height ``n`` over ``base``.

    Components above the base inherit the base's semistable attestation
    only when the cotangent bundle is attested semistable (a semistable
    piece at grade 1 forces that anyway); the stable attestation is never
    inherited.
    """
    if n < 0:
        raise ValueError("tower height must be nonnegative")
    inherit = base.semistable if context.omega_semistable else None
    components = [base]
    for i in range(1, n + 1):
        rank, degree = tower_component(base, context, i)
        components.append(BundleData(rank, degree, semistable=inherit))
    return HodgeSystem(context, tuple(components), ISOMORPHISMS)


def partial_slope(sys: HodgeSystem, k: int) -> Fraction:
    """Slope of E_0 + ... + E_k.

    Equals mu(E_0) + w * (sum i*d^(i-1)) / (sum d^i) over i = 0..k; the
    base slope term is part of the value.
    """
    _require_isomorphisms(sys)
    if not 0 <= k <= sys.n:
        raise ValueError(f"k={k} out of range 0..{sys.n}")
    return slope(direct_sum(sys.components[: k + 1]))


def total_slope(sys: HodgeSystem) -> Fraction:
    """Slope of the whole system; works in either structure mode."""
    return slope(direct_sum(sys.components))


def transport_subsystem(sys: HodgeSystem, f0: BundleData) -> SubsystemProfile:
    """Tower a subobject datum of the base through the isomorphisms.

    The profile has entries (d^p * rank(f0), p*d^(p-1)*w*rank(f0) +
    d^p*degree(f0)) for p = 0..n, and satisfies exactly

        slope(profile) - mu(E) = mu(f0) - mu(E_0).
    """
    _require_isomorphisms(sys)
    base = sys.components[0]
    if f0.rank > base.rank:
        raise ValueError(f"subobject rank {f0.rank} exceeds base rank {base.rank}")
    return SubsystemProfile(
        tuple(tower_component(f0, sys.context, p) for p in range(sys.n + 1))
    )


def criterion_semistable(
    sys: HodgeSystem, base_destabilizer: BundleData | None = None
) -> Verdict:
    """Semistability verdict for an isomorphism tower of nonnegative
    cotangent degree.

    All components attested semistable gives yes.  In characteristic zero
    with a semistable cotangent bundle, a base component attested NOT
    semistable together with the (rank, degree) datum of its maximal
    destabilizing subsheaf gives no, certified by transporting the datum.
    Anything else is unknown.
    """
    _require_isomorphisms(sys)
    if sys.context.omega_degree < 0:
        raise ValueError("hypothesis violated: the cotangent degree must be nonnegative")
    components = sys.components
    if all(c.semistable is True for c in components):
        return Verdict(semistable=Answer.YES, provenance=PROV_TOWER_SEMISTABLE)
    base = components[0]
    if (
        base_destabilizer is not None
        and sys.context.characteristic == 0
        and sys.context.omega_semistable
        and base.semistable is False
    ):
        if not 1 <= base_destabilizer.rank < base.rank:
            raise ValueError("destabilizing datum must be a proper subsheaf of the base")
        if slope(base_destabilizer) <= slope(base):
            raise ValueError("destabilizing datum does not exceed the base slope")
        certificate = transport_subsystem(sys, base_destabilizer)
        return Verdict(Answer.NO, Answer.NO, certificate, PROV_BASE_TRANSPORT)
    return Verdict(provenance=PROV_INCONCLUSIVE)


def criterion_stable(
    sys: HodgeSystem, equal_slope_sub: BundleData | None = None
) -> Verdict:
    """Stability verdict for an isomorphism tower of positive cotangent
    degree.

    All components attested stable gives yes.  On a curve in
    characteristic zero, any component attested NOT stable gives no; the
    certificate is the transport of an equal-slope proper subobject datum
    of the base when one is supplied.  Anything else is unknown.
    """
    _require_isomorphisms(sys)
    if sys.context.omega_degree <= 0:
        raise ValueError("hypothesis violated: the cotangent degree must be positive")
    components = sys.components
    if all(c.stable is True for c in components):
        return Verdict(Answer.YES, Answer.YES, provenance=PROV_TOWER_STABLE)
    semistable_side = (
        Answer.YES if all(c.semistable is True for c in components) else Answer.UNKNOWN
    )
    if (
        sys.context.characteristic == 0
        and sys.context.dim == 1
        and any(c.stable is False for c in components)
    ):
        certificate = None
        if equal_slope_sub is not None:
            base = components[0]
            if not 1 <= equal_slope_sub.rank < base.rank:
                raise ValueError("equal-slope datum must be a proper subsheaf of the base")
            if slope(equal_slope_sub) != slope(base):
                raise ValueError("equal-slope datum must match the base slope")
            certificate = transport_subsystem(sys, equal_slope_sub)
        return Verdict(semistable_side, Answer.NO, certificate, PROV_CURVE_CONVERSE)
    provenance = PROV_TOWER_SEMISTABLE if semistable_side is Answer.YES else PROV_INCONCLUSIVE
    return Verdict(semistable_side, Answer.UNKNOWN, provenance=provenance)


def merge_verdicts(primary: Verdict, secondary: Verdict) -> Verdict:
    """Combine two verdicts on the same object side by side.

    Each side takes the primary's answer unless that is unknown.  The
    certificate is one that justifies a surviving no, and the provenance
    lists every source that decided something, in order.
    """
    semistable = (
        primary.semistable if primary.semistable is not Answer.UNKNOWN else secondary.semistable
    )
    stable = primary.stable if primary.stable is not Answer.UNKNOWN else secondary.stable
    # a certificate is only meaningful when it justifies a surviving no
    certificate = None
    if semistable is Answer.NO:
        for v in (primary, secondary):
            if v.semistable is Answer.NO and v.certificate is not None:
                certificate = v.certificate
                break
    elif stable is Answer.NO:
        for v in (primary, secondary):
            if v.stable is Answer.NO and v.certificate is not None:
                certificate = v.certificate
                break
    parts: list[str] = []
    for v in (primary, secondary):
        if v.provenance and v.provenance != PROV_INCONCLUSIVE and v.provenance not in parts:
            parts.append(v.provenance)
    provenance = "; ".join(parts) if parts else PROV_INCONCLUSIVE
    return Verdict(semistable, stable, certificate, provenance)


def criteria_verdict(sys: HodgeSystem) -> Verdict:
    """The criteria's joint verdict on an isomorphism tower: the
    semistability criterion, merged with the stability criterion when the
    cotangent degree is positive."""
    verdict = criterion_semistable(sys)
    if sys.context.omega_degree > 0:
        verdict = merge_verdicts(verdict, criterion_stable(sys))
    return verdict


def system_to_json(sys: HodgeSystem) -> dict:
    if isinstance(sys.theta, Isomorphisms):
        theta: object = "isomorphisms"
    else:
        theta = {"declared": [p.to_json() for p in sys.theta.profiles]}
    return {
        "context": sys.context.to_json(),
        "components": [c.to_json() for c in sys.components],
        "theta": theta,
    }


def system_from_json(obj: object) -> HodgeSystem:
    data = _check_keys(obj, "hodge system", {"context", "components", "theta"})
    context = GeometricContext.from_json(data["context"])
    if not isinstance(data["components"], list) or not data["components"]:
        raise ValueError("components must be a nonempty JSON array")
    components = tuple(BundleData.from_json(c) for c in data["components"])
    raw_theta = data["theta"]
    if raw_theta == "isomorphisms":
        theta: ThetaMode = ISOMORPHISMS
    else:
        inner = _check_keys(raw_theta, "theta", {"declared"})
        if not isinstance(inner["declared"], list):
            raise ValueError("declared profiles must be a JSON array")
        theta = Declared(tuple(SubsystemProfile.from_json(p) for p in inner["declared"]))
    return HodgeSystem(context, components, theta)
