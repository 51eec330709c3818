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
since a flat bundle has vanishing first Chern class.  A pair has one
context, which states that characteristic: its filtration's, or for a
pair without a filtration an optional one of its own.

Semistability of a pair is read subsheaf-wise against invariant
subobjects; that definition never mentions the curvature, so it applies
verbatim to non-flat connections.
"""

from __future__ import annotations

from .hodge_system import (
    ISOMORPHISMS,
    UNKNOWN,
    YES,
    HodgeSystem,
    Verdict,
    criterion_semistable,
    criterion_stable,
    merge_verdicts,
    require_tower,
)
from .slope_core import (
    BundleData,
    Frozen,
    GeometricContext,
    _as_bool,
    _check_keys,
    refusal,
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
    ``total_rank`` and ``total_degree`` sum the pieces once, at construction.
    """

    _fields = ("context", "graded", "transversal", "theta_squares_to_zero", "theta_iso")
    _keys = frozenset(_fields)

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
            _as_bool(flag, name)
        if theta_iso:
            require_tower(graded, context, "graded piece {} violates the isomorphism relation")
        fields = self.__dict__
        fields["context"] = context
        fields["graded"] = graded
        fields.update(flags)
        fields["total_rank"] = sum([g.rank for g in graded])
        fields["total_degree"] = sum([g.degree for g in graded])

    @staticmethod
    def from_json(obj: object) -> "GriffithsFiltration":
        keys = GriffithsFiltration._keys
        data = _check_keys(obj, "griffiths filtration", keys, keys)
        graded = data["graded"]
        if not isinstance(graded, list) or not graded:
            raise ValueError("graded must be a nonempty JSON array")
        return GriffithsFiltration(
            GeometricContext.from_json(data["context"]),
            tuple([BundleData.from_json(g) for g in graded]),
            data["transversal"],
            data["theta_squares_to_zero"],
            data["theta_iso"],
        )


class ConnectionPair(Frozen):
    """A bundle with a connection, optionally filtered, in one context.

    ``flat`` attests vanishing curvature.  A filtered pair's graded totals
    must match the total invariants, and its context is the filtration's:
    it may not be given another.  A pair without a filtration may be given
    a context; without one its characteristic is unknown.
    """

    _fields = ("total", "flat", "filtration", "context")
    _keys = frozenset(_fields)
    _required = frozenset({"total", "flat"})

    def __init__(
        self,
        total: BundleData,
        flat: bool,
        filtration: GriffithsFiltration | None = None,
        context: GeometricContext | None = None,
    ) -> None:
        _as_bool(flat, "flat")
        if filtration is not None:
            if context is not None:
                raise ValueError("a filtered pair takes its filtration's context and no other")
            context = filtration.context
            if (total.rank, total.degree) != (filtration.total_rank, filtration.total_degree):
                raise refusal(
                    lambda: "total invariants do not match the graded pieces: "
                    f"expected (rank {filtration.total_rank}, degree {filtration.total_degree}), "
                    f"got (rank {total.rank}, degree {total.degree})"
                )
        fields = self.__dict__
        fields["total"] = total
        fields["flat"] = flat
        fields["filtration"] = filtration
        fields["context"] = context


class OperCheck(Frozen):
    """Recognition outcome with the failing clauses spelled out; it is
    true exactly when no clause fails.

    ``classical`` refines a positive outcome: every graded piece is a
    line bundle.
    """

    _fields = ("reasons", "classical")

    def __init__(self, reasons: tuple[str, ...] = (), classical: bool = False) -> None:
        fields = self.__dict__
        fields["reasons"] = reasons
        fields["classical"] = classical

    def __bool__(self) -> bool:
        return not self.reasons


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
    # the filtration's constructor has made every check HodgeSystem's would:
    # its pieces are a nonempty tuple, on the tower when theta_iso holds
    return HodgeSystem._trusted(f.context, f.graded, ISOMORPHISMS if f.theta_iso else ())


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
    classical = not reasons and all(piece.rank == 1 for piece in f.graded)
    return OperCheck(tuple(reasons), classical)


def oper_verdict(f: GriffithsFiltration) -> tuple[OperCheck, Verdict]:
    """Recognition outcome and verdict: the oper reduction for a
    generalized oper, an unknown verdict for anything else."""
    check = is_generalized_oper(f)
    if not check:
        return check, Verdict(provenance=PROV_NOT_OPER)
    inner = criterion_semistable(graded_of_filtration(f))
    return check, Verdict(inner.semistable, inner.stable, inner.certificate, PROV_OPER)


def oper_semistability(f: GriffithsFiltration) -> Verdict:
    """``oper_verdict``'s verdict, refusing a filtration that is not a generalized oper."""
    check, verdict = oper_verdict(f)
    if not check:
        raise ValueError("not a generalized oper: " + "; ".join(check.reasons))
    return verdict


def connection_verdict(pair: ConnectionPair, graded_verdict: Verdict | None = None) -> Verdict:
    """Semistability of a connection pair via the one transfer that applies.

    A semistable graded verdict transfers to the pair, with its stable=yes
    when it has one.  Failing that, a flat connection in characteristic
    zero makes the pair semistable with no filtration at all; the
    characteristic is the pair's context's, unknown when it has none.  With
    no applicable transfer the verdict is unknown, never an error.
    """
    if graded_verdict is not None and graded_verdict.semistable == YES:
        stable = YES if graded_verdict.stable == YES else UNKNOWN
        return Verdict(YES, stable, provenance=PROV_GRADED_TRANSFER)
    context = pair.context
    if pair.flat and context is not None and context.characteristic == 0:
        return Verdict(YES, provenance=PROV_FLAT_CHAR_ZERO)
    return Verdict(provenance=PROV_NO_TRANSFER)


def pair_verdict(pair: ConnectionPair) -> Verdict:
    """Decide a connection pair.

    A filtration that induces an isomorphism tower of nonnegative
    cotangent degree contributes the merge of the two criteria's verdicts
    on that tower; ``connection_verdict`` then applies the transfers.
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
        graded = graded_of_filtration(f)
        graded_verdict = merge_verdicts(criterion_semistable(graded), criterion_stable(graded))
    return connection_verdict(pair, graded_verdict)


def pair_from_json(obj: object) -> ConnectionPair:
    """Parse a connection pair document.

    A pair carries its context in its ``filtration`` or, without one, in
    an optional ``context`` field; a document that gives both is refused.
    """
    data = _check_keys(obj, "connection pair", ConnectionPair._required, ConnectionPair._keys)
    filtration = (
        GriffithsFiltration.from_json(data["filtration"]) if "filtration" in data else None
    )
    context = GeometricContext.from_json(data["context"]) if "context" in data else None
    return ConnectionPair(BundleData.from_json(data["total"]), data["flat"], filtration, context)
