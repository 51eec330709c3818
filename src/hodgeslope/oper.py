"""Filtration-side calculus: Griffiths-transversal filtrations and
connection pairs.

A filtration is carried by its graded pieces plus boolean attestations:
transversality, square-zero of the induced graded field, and whether every
graded map is an isomorphism.  The connection itself, its curvature, and
transversality are never computed; the transfers consume only their truth.
A generalized oper (transversal, square-zero, isomorphisms, semistable
pieces) induces a semistable graded Higgs structure, and that in turn
makes the filtered connection pair semistable.  Flatness in
characteristic zero makes the pair semistable with no filtration at all,
since a flat bundle has vanishing first Chern class.

Semistability of a pair is read subsheaf-wise against invariant
subobjects; that definition never mentions the curvature, so it applies
verbatim to non-flat connections.
"""

from __future__ import annotations

from .hn_profiles import HNProfile
from .hodge_system import (
    Answer,
    Declared,
    HodgeSystem,
    ISOMORPHISMS,
    Verdict,
    criteria_verdict,
    criterion_semistable,
    tower_component,
)
from .slope_core import (
    BundleData,
    Frozen,
    GeometricContext,
    _as_bool,
    _check_keys,
)

PROV_OPER = "generalized oper reduction"
PROV_GRADED_TRANSFER = "graded semistability transfer"
PROV_FLAT_CHAR_ZERO = "flat connection in characteristic zero"
PROV_NO_TRANSFER = "no applicable transfer"
PROV_NOT_OPER = "not a generalized oper"


class GriffithsFiltration(Frozen):
    """Graded pieces gr^0..gr^(n-1) of a filtration plus its attestations.

    When every graded map is attested an isomorphism, consecutive pieces
    must satisfy rank(gr^i) = d * rank(gr^(i-1)) and degree(gr^i) =
    d * degree(gr^(i-1)) + rank(gr^(i-1)) * w, that is, form the tensor
    tower over gr^0; inconsistent values are rejected at construction.
    """

    _fields = ("context", "graded", "transversal", "theta_squares_to_zero", "theta_iso")

    def __init__(
        self,
        context: GeometricContext,
        graded: tuple[BundleData, ...],
        transversal: bool,
        theta_squares_to_zero: bool,
        theta_iso: bool,
    ) -> None:
        graded = tuple(graded)
        if not graded:
            raise ValueError("a filtration needs at least one graded piece")
        flags = {
            "transversal": transversal,
            "theta_squares_to_zero": theta_squares_to_zero,
            "theta_iso": theta_iso,
        }
        for name, flag in flags.items():
            if not isinstance(flag, bool):
                raise ValueError(f"{name} must be a boolean")
        if theta_iso:
            for i, cur in enumerate(graded):
                want_rank, want_degree = tower_component(graded[0], context, i)
                if (cur.rank, cur.degree) != (want_rank, want_degree):
                    raise ValueError(
                        f"graded piece {i} violates the isomorphism relation: "
                        f"expected (rank {want_rank}, degree {want_degree}), "
                        f"got (rank {cur.rank}, degree {cur.degree})"
                    )
        fields = self.__dict__
        fields["context"] = context
        fields["graded"] = graded
        fields.update(flags)

    def to_json(self) -> dict:
        return {
            "context": self.context.to_json(),
            "graded": [g.to_json() for g in self.graded],
            "transversal": self.transversal,
            "theta_squares_to_zero": self.theta_squares_to_zero,
            "theta_iso": self.theta_iso,
        }

    @staticmethod
    def from_json(obj: object) -> "GriffithsFiltration":
        data = _check_keys(
            obj,
            "griffiths filtration",
            {"context", "graded", "transversal", "theta_squares_to_zero", "theta_iso"},
        )
        if not isinstance(data["graded"], list) or not data["graded"]:
            raise ValueError("graded must be a nonempty JSON array")
        return GriffithsFiltration(
            context=GeometricContext.from_json(data["context"]),
            graded=tuple(BundleData.from_json(g) for g in data["graded"]),
            transversal=_as_bool(data["transversal"], "transversal"),
            theta_squares_to_zero=_as_bool(
                data["theta_squares_to_zero"], "theta_squares_to_zero"
            ),
            theta_iso=_as_bool(data["theta_iso"], "theta_iso"),
        )


class ConnectionPair(Frozen):
    """A bundle with a connection, optionally filtered.

    ``flat`` attests vanishing curvature.  When a filtration is present
    its graded totals must match the total invariants.
    """

    _fields = ("total", "flat", "filtration")

    def __init__(
        self,
        total: BundleData,
        flat: bool,
        filtration: GriffithsFiltration | None = None,
    ) -> None:
        if not isinstance(flat, bool):
            raise ValueError("flat must be a boolean")
        if filtration is not None:
            rank_total = sum(g.rank for g in filtration.graded)
            degree_total = sum(g.degree for g in filtration.graded)
            if (total.rank, total.degree) != (rank_total, degree_total):
                raise ValueError(
                    "total invariants do not match the graded pieces: "
                    f"expected (rank {rank_total}, degree {degree_total}), "
                    f"got (rank {total.rank}, degree {total.degree})"
                )
        fields = self.__dict__
        fields["total"] = total
        fields["flat"] = flat
        fields["filtration"] = filtration


class OperCheck(Frozen):
    """Recognition outcome with the failing clauses spelled out.

    ``classical`` refines a positive outcome: every graded piece is a
    line bundle.
    """

    _fields = ("ok", "reasons", "classical")

    def __init__(self, ok: bool, reasons: tuple[str, ...] = (), classical: bool = False) -> None:
        fields = self.__dict__
        fields["ok"] = ok
        fields["reasons"] = reasons
        fields["classical"] = classical

    def __bool__(self) -> bool:
        return self.ok


def graded_of_filtration(f: GriffithsFiltration) -> HodgeSystem:
    """The graded system induced by a Higgs-inducing filtration.

    Requires transversality and a square-zero induced field; the system
    gets isomorphism structure exactly when the graded maps have it.
    """
    if not (f.transversal and f.theta_squares_to_zero):
        raise ValueError(
            "not a Higgs-inducing filtration: transversality and a square-zero "
            "induced field are required"
        )
    theta = ISOMORPHISMS if f.theta_iso else Declared()
    return HodgeSystem(f.context, f.graded, theta)


def is_generalized_oper(f: GriffithsFiltration) -> OperCheck:
    """Recognize a generalized oper; list every failing clause."""
    reasons = []
    if not f.transversal:
        reasons.append("filtration is not transversal")
    if not f.theta_squares_to_zero:
        reasons.append("induced field does not square to zero")
    if not f.theta_iso:
        reasons.append("graded maps are not all isomorphisms")
    for i, piece in enumerate(f.graded):
        if piece.semistable is not True:
            reasons.append(f"graded piece {i} is not flagged semistable")
    ok = not reasons
    classical = ok and all(piece.rank == 1 for piece in f.graded)
    return OperCheck(ok, tuple(reasons), classical)


def oper_verdict(f: GriffithsFiltration) -> tuple[OperCheck, Verdict]:
    """Recognition outcome and verdict: the oper reduction for a
    generalized oper, an unknown verdict for anything else."""
    check = is_generalized_oper(f)
    if not check:
        return check, Verdict(provenance=PROV_NOT_OPER)
    return check, oper_semistability(f)


def oper_semistability(f: GriffithsFiltration) -> Verdict:
    """Semistability of the graded system of a generalized oper."""
    check = is_generalized_oper(f)
    if not check:
        raise ValueError("not a generalized oper: " + "; ".join(check.reasons))
    if f.context.omega_degree < 0:
        raise ValueError("hypothesis violated: the cotangent degree must be nonnegative")
    inner = criterion_semistable(graded_of_filtration(f))
    return Verdict(inner.semistable, inner.stable, inner.certificate, PROV_OPER)


def connection_verdict(
    pair: ConnectionPair,
    graded_verdict: Verdict | None = None,
    characteristic: int | None = None,
) -> Verdict:
    """Semistability of a connection pair via the available transfers.

    A semistable (respectively stable) graded verdict transfers to the
    pair.  Independently, a flat connection in characteristic zero makes
    the pair semistable with no filtration at all.  The characteristic is
    read off the filtration when present; ``characteristic`` supplies it
    otherwise.  With no applicable transfer the verdict is unknown, never
    an error.
    """
    if pair.filtration is not None:
        characteristic = pair.filtration.context.characteristic
    semistable = Answer.UNKNOWN
    stable = Answer.UNKNOWN
    sources = []
    if graded_verdict is not None:
        if graded_verdict.semistable is Answer.YES:
            semistable = Answer.YES
            sources.append(PROV_GRADED_TRANSFER)
        if graded_verdict.stable is Answer.YES:
            stable = Answer.YES
            semistable = Answer.YES
    if semistable is not Answer.YES and characteristic == 0 and pair.flat:
        semistable = Answer.YES
        sources.append(PROV_FLAT_CHAR_ZERO)
    provenance = "; ".join(sources) if sources else PROV_NO_TRANSFER
    return Verdict(semistable, stable, provenance=provenance)


def pair_verdict(
    pair: ConnectionPair, ambient: GeometricContext | None = None
) -> Verdict:
    """Decide a connection pair.

    A filtration that induces an isomorphism tower of nonnegative
    cotangent degree contributes the criteria's verdict on that tower;
    ``connection_verdict`` then applies the transfers, reading the
    characteristic from ``ambient`` when there is no filtration.
    """
    graded_verdict = None
    f = pair.filtration
    if (
        f is not None
        and f.transversal
        and f.theta_squares_to_zero
        and f.theta_iso
        and f.context.omega_degree >= 0
    ):
        graded_verdict = criteria_verdict(graded_of_filtration(f))
    characteristic = ambient.characteristic if ambient is not None else None
    return connection_verdict(pair, graded_verdict, characteristic=characteristic)


def filtration_hn_profile(f: GriffithsFiltration) -> HNProfile:
    """Read a generalized oper's filtration as the Harder-Narasimhan
    profile of the underlying bundle.

    With positive cotangent degree the graded slopes strictly increase, so
    the reversed graded list is a valid profile.
    """
    check = is_generalized_oper(f)
    if not check:
        raise ValueError("not a generalized oper: " + "; ".join(check.reasons))
    if f.context.omega_degree <= 0:
        raise ValueError(
            "the graded slopes strictly increase only for positive cotangent degree"
        )
    return HNProfile(tuple(reversed(f.graded)))


def pair_to_json(pair: ConnectionPair, context: GeometricContext | None = None) -> dict:
    out: dict = {"total": pair.total.to_json(), "flat": pair.flat}
    if pair.filtration is not None:
        out["filtration"] = pair.filtration.to_json()
    elif context is not None:
        out["context"] = context.to_json()
    return out


def pair_from_json(obj: object) -> tuple[ConnectionPair, GeometricContext | None]:
    """Parse a connection pair document.

    An optional ``context`` field supplies ambient data (in particular the
    characteristic) for pairs carrying no filtration; with a filtration
    the filtration's own context is authoritative.
    """
    data = _check_keys(obj, "connection pair", {"total", "flat"}, {"filtration", "context"})
    filtration = (
        GriffithsFiltration.from_json(data["filtration"]) if "filtration" in data else None
    )
    ambient = GeometricContext.from_json(data["context"]) if "context" in data else None
    pair = ConnectionPair(
        total=BundleData.from_json(data["total"]),
        flat=_as_bool(data["flat"], "flat"),
        filtration=filtration,
    )
    return pair, ambient
