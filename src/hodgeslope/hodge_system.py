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

The tower's degree sums are the power sums W(k) = sum_{i<=k} i d^(i-1)
and S(k) = sum_{j<=k} d^j >= 1.  Its partial slopes W(k)/S(k) increase with
the grade: W(r) S(n) <= W(n) S(r), r <= n, as verify_hodge_sums proves.

Two statements are recorded here as documentation only, with no operation
behind them: for dimension at least 2 one expects stable towers to force
polystable components, and every criterion below survives replacing the
cotangent bundle by an arbitrary semistable bundle of nonnegative degree
(the context already carries exactly the data needed for that reading).
"""

from __future__ import annotations

from .profiles import SubsystemProfile
from .slope_core import (
    BundleData,
    Frozen,
    GeometricContext,
    _check_keys,
    format_slope,
    refusal,
    slope_excess,
)

PROV_TOWER_SEMISTABLE = "semistable components in an isomorphism tower"
PROV_TOWER_STABLE = "stable components in an isomorphism tower"
PROV_BASE_TRANSPORT = "transported destabilizer of the base component"
PROV_CURVE_CONVERSE = "non-stable component of a curve tower in characteristic zero"
PROV_INCONCLUSIVE = "criteria inconclusive"

_THETA_FIELDS = frozenset({"declared"})


#: The three answers a verdict side takes, as the reports write them.
YES, NO, UNKNOWN = "yes", "no", "unknown"


#: A system's theta when every graded map is an isomorphism onto the
#: next-lower piece tensored with the cotangent bundle.  Otherwise theta is
#: the tuple of declared invariant subobject profiles, possibly empty.
ISOMORPHISMS = "isomorphisms"


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


#: Largest sweep verify_hodge_sums accepts, counted in pairs established.
#: The proof costs nothing per pair, but the golden corpus and the tests
#: record the refusals, and the limit keeps the one stderr line per degree
#: that verify-inequalities writes bounded.
MAX_SWEEP_CHECKS = 20_000


def verify_hodge_sums(d_max: int, n_max: int) -> int:
    """Establish the power-sum inequality for 1 <= d <= d_max and every
    pair 0 <= r <= n <= n_max, and return the pairs established per d.  A
    sweep of more than MAX_SWEEP_CHECKS pairs is refused.

    No pair is evaluated: the proof holds for every d >= 1.
    W(k-1) S(k) - W(k) S(k-1) = -d^(k-1) g(k) with
    g(k) = sum_{i<k} (k-i) d^i; the i = 0 term alone gives g(k) >= k >= 1,
    and d^(k-1) >= 1, so each adjacent pair holds strictly, and as S >= 1
    they chain by transitivity to all (n_max+1)(n_max+2)/2 pairs.
    """
    if d_max < 1 or n_max < 0:
        raise ValueError("need d_max >= 1 and n_max >= 0")
    pairs = (n_max + 1) * (n_max + 2) // 2
    checks = d_max * pairs
    if checks > MAX_SWEEP_CHECKS:
        raise refusal(lambda: f"sweep too large: {checks} checks, the limit is {MAX_SWEEP_CHECKS}")
    return pairs


def require_tower(pieces: tuple[BundleData, ...], context: GeometricContext, what: str) -> None:
    """Reject pieces off the tensor tower over pieces[0]; ``what.format(i)`` names piece i."""
    for i, piece in enumerate(pieces):
        rank, degree = tower_component(pieces[0], context, i)
        if (piece.rank, piece.degree) != (rank, degree):
            raise refusal(lambda: f"{what.format(i)}: expected (rank {rank}, degree {degree}), "
                          f"got (rank {piece.rank}, degree {piece.degree})")


def _join(flags: list[bool | None]) -> bool | None:
    """The three-valued conjunction of attestations; None when it is unknown."""
    return False if False in flags else None if None in flags else True


class HodgeSystem(Frozen):
    """Graded components E_0..E_n with the grade-lowering structure theta.

    With theta ``ISOMORPHISMS`` the component invariants must satisfy the
    tower formulas; any hand-supplied list violating them is rejected at
    construction.  Any other theta is a tuple of declared profiles.
    ``total_rank`` and ``total_degree`` are those of the whole system,
    summed once at construction, and ``components_semistable`` and
    ``components_stable`` join the components' attestations, each flag
    read there once: True if all are attested, False if one is attested not.
    """

    _fields = ("context", "components", "theta")
    _keys = frozenset(_fields)  # all required: a document states its theta

    def __init__(
        self,
        context: GeometricContext,
        components: tuple[BundleData, ...],
        theta: str | tuple[SubsystemProfile, ...] = ISOMORPHISMS,
    ) -> None:
        components = tuple(components)
        if not components:
            raise ValueError("a system needs at least one component")
        if theta == ISOMORPHISMS:
            theta = ISOMORPHISMS
            require_tower(
                components, context, "component {} is incompatible with the isomorphism tower"
            )
        elif not (isinstance(theta, tuple)
                  and all(isinstance(p, SubsystemProfile) for p in theta)):
            raise ValueError(f"theta must be {ISOMORPHISMS!r} or a tuple of declared profiles")
        self._fill(context, components, theta)

    def _fill(self, context, components, theta) -> None:
        self.__dict__.update(
            context=context,
            components=components,
            theta=theta,
            total_rank=sum([c.rank for c in components]),
            total_degree=sum([c.degree for c in components]),
            components_semistable=_join([c.semistable for c in components]),
            components_stable=_join([c.stable for c in components]),
        )

    @classmethod
    def _trusted(cls, context, components, theta) -> "HodgeSystem":
        """A system of parts known to pass ``__init__``'s checks, not run again."""
        system = object.__new__(cls)
        system._fill(context, components, theta)
        return system

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
        semistable: str = UNKNOWN,
        stable: str = UNKNOWN,
        certificate: SubsystemProfile | None = None,
        provenance: str = "",
    ) -> None:
        if stable == YES and semistable != YES:
            raise ValueError("stable=yes forces semistable=yes")
        if semistable == NO:
            if stable == UNKNOWN:
                stable = NO
            if certificate is None:
                raise ValueError("a semistable=no verdict needs a destabilizing certificate")
        fields = self.__dict__
        fields["semistable"] = semistable
        fields["stable"] = stable
        fields["certificate"] = certificate
        fields["provenance"] = provenance


def verdict_json(v: Verdict, mu_total: str) -> dict:
    """The wire form of a verdict, with the total slope ``mu_total`` rendered."""
    cert = v.certificate
    return {
        "semistable": v.semistable,
        "stable": v.stable,
        "certificate": None if cert is None else {
            "profile": cert.to_json(),
            "slope": format_slope(cert.degree, cert.rank),
            "mu_total": mu_total,
        },
        "provenance": v.provenance,
    }


def require_isomorphisms(sys: HodgeSystem, what: str) -> None:
    """Refuse a declared system: ``what`` needs every graded map an isomorphism."""
    if sys.theta is not ISOMORPHISMS:
        raise ValueError(f"{what} requires isomorphism structure")


def derive_components(base: BundleData, context: GeometricContext, n: int) -> HodgeSystem:
    """Build the isomorphism tower of height ``n`` over ``base``.

    Components above the base inherit the base's semistable attestation
    only when the cotangent bundle is attested semistable (a semistable
    piece at grade 1 forces that anyway) and the tensor product of
    semistable bundles is known to stay semistable: in characteristic zero,
    or when the cotangent bundle is a line bundle (d = 1).  In
    characteristic p a tensor product with a rank d > 1 bundle need not
    stay semistable (A. Langer, *Semistable sheaves in positive
    characteristic*, Ann. of Math. 159, 2004).  The stable attestation is
    never inherited.
    """
    if n < 0:
        raise ValueError("tower height must be nonnegative")
    tensor_safe = context.characteristic == 0 or context.dim == 1
    inherit = base.semistable if context.omega_semistable and tensor_safe else None
    components = [base]
    for i in range(1, n + 1):
        rank, degree = tower_component(base, context, i)
        components.append(BundleData(rank, degree, semistable=inherit))
    return HodgeSystem(context, tuple(components), ISOMORPHISMS)


def transport_subsystem(sys: HodgeSystem, f0: BundleData) -> SubsystemProfile:
    """Tower a subobject datum of the base through the isomorphisms.

    The profile has entries (d^p * rank(f0), p*d^(p-1)*w*rank(f0) +
    d^p*degree(f0)) for p = 0..n, and satisfies exactly

        slope(profile) - mu(E) = mu(f0) - mu(E_0).
    """
    require_isomorphisms(sys, "transport")
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
    require_isomorphisms(sys, "the semistability criterion")
    if sys.context.omega_degree < 0:
        raise ValueError("hypothesis violated: the cotangent degree must be nonnegative")
    if sys.components_semistable is True:
        return Verdict(semistable=YES, provenance=PROV_TOWER_SEMISTABLE)
    base, context = sys.components[0], sys.context
    if (base_destabilizer is not None and context.characteristic == 0
            and context.omega_semistable and base.semistable is False):
        if not 1 <= base_destabilizer.rank < base.rank:
            raise ValueError("destabilizing datum must be a proper subsheaf of the base")
        if slope_excess(base_destabilizer.degree, base_destabilizer.rank,
                        base.degree, base.rank) <= 0:
            raise ValueError("destabilizing datum does not exceed the base slope")
        certificate = transport_subsystem(sys, base_destabilizer)
        return Verdict(NO, NO, certificate, PROV_BASE_TRANSPORT)
    return Verdict(provenance=PROV_INCONCLUSIVE)


def criterion_stable(
    sys: HodgeSystem, equal_slope_sub: BundleData | None = None
) -> Verdict:
    """Stability verdict for an isomorphism tower of positive cotangent
    degree; the semistable side is ``criterion_semistable``'s.

    All components attested stable gives yes, which forces semistable=yes.
    On a curve in characteristic zero, any component attested NOT stable
    gives no; the certificate is the transport of an equal-slope proper
    subobject datum of the base when one is supplied.  Anything else, and
    any tower of nonpositive cotangent degree (at 0, E_0 reaches mu(E)), is
    unknown on both sides.
    """
    require_isomorphisms(sys, "the stability criterion")
    if sys.context.omega_degree <= 0:
        return Verdict(provenance=PROV_INCONCLUSIVE)
    if sys.components_stable is True:
        return Verdict(YES, YES, provenance=PROV_TOWER_STABLE)
    if sys.context.characteristic == 0 and sys.context.dim == 1 and sys.components_stable is False:
        certificate = None
        if equal_slope_sub is not None:
            base = sys.components[0]
            if not 1 <= equal_slope_sub.rank < base.rank:
                raise ValueError("equal-slope datum must be a proper subsheaf of the base")
            if slope_excess(equal_slope_sub.degree, equal_slope_sub.rank,
                            base.degree, base.rank) != 0:
                raise ValueError("equal-slope datum must match the base slope")
            certificate = transport_subsystem(sys, equal_slope_sub)
        return Verdict(UNKNOWN, NO, certificate, PROV_CURVE_CONVERSE)
    return Verdict(provenance=PROV_INCONCLUSIVE)


def first_no(verdicts: tuple[Verdict, ...], side: str) -> Verdict | None:
    """The verdict that justifies a no on ``side``, "semistable" or
    "stable": the first of ``verdicts`` that answers no there and carries a
    certificate, or None."""
    for v in verdicts:
        if getattr(v, side) == NO and v.certificate is not None:
            return v
    return None


def merge_verdicts(*verdicts: Verdict) -> Verdict:
    """Combine verdicts on the same object side by side.

    Each side takes the first answer that is not unknown.  The certificate
    is ``first_no``'s for the surviving no, semistable before stable, and
    the provenance lists every source that decided something, in order.  A
    single verdict is its own merge, as every verdict the library builds
    has a provenance and a certificate only on a no side.
    """
    semistable = stable = UNKNOWN
    for v in verdicts:
        if semistable == UNKNOWN:
            semistable = v.semistable
        if stable == UNKNOWN:
            stable = v.stable
    # a certificate is only meaningful when it justifies a surviving no,
    # and a merged semistable no always comes with a stable no
    backing = None
    if stable == NO:
        backing = first_no(verdicts, "semistable" if semistable == NO else "stable")
    parts: list[str] = []
    for v in verdicts:
        if v.provenance and v.provenance != PROV_INCONCLUSIVE and v.provenance not in parts:
            parts.append(v.provenance)
    provenance = "; ".join(parts) if parts else PROV_INCONCLUSIVE
    return Verdict(semistable, stable, backing and backing.certificate, provenance)


def system_to_json(sys: HodgeSystem) -> dict:
    theta = sys.theta
    return {
        "context": sys.context.to_json(),
        "components": [c.to_json() for c in sys.components],
        "theta": theta if theta is ISOMORPHISMS else {"declared": [p.to_json() for p in theta]},
    }


def system_from_json(obj: object) -> HodgeSystem:
    data = _check_keys(obj, "hodge system", HodgeSystem._keys, HodgeSystem._keys)
    context = GeometricContext.from_json(data["context"])
    if not isinstance(data["components"], list) or not data["components"]:
        raise ValueError("components must be a nonempty JSON array")
    components = tuple(BundleData.from_json(c) for c in data["components"])
    theta = data["theta"]
    if theta != ISOMORPHISMS:
        inner = _check_keys(theta, "theta", _THETA_FIELDS, _THETA_FIELDS)
        if not isinstance(inner["declared"], list):
            raise ValueError("declared profiles must be a JSON array")
        theta = tuple(SubsystemProfile.from_json(p) for p in inner["declared"])
    return HodgeSystem(context, components, theta)
