"""Fixtures and independent references that several test modules share.

Each is stated here once and imported by every test that uses it.  The
references recompute, in their own terms, what the library computes or
reads: ``totals`` sums invariants, ``slope`` and ``total_slope`` are the
exact rationals the library compares by cross-multiplication, and
``slope_text`` writes one as the reports do; ``is_strictly_concave``
judges a polygon, and ``filtration_to_json`` and ``pair_to_json`` write
documents that ``GriffithsFiltration.from_json`` and ``pair_from_json``
read back.
``hn_valid`` reads ``validate_hn``'s check as a truth value.
``load_tracer`` reads the benchmark's tracer, whose names the library
must keep.
"""

from __future__ import annotations

import random
import types
from collections.abc import Iterable, Sequence
from fractions import Fraction
from pathlib import Path

from hodgeslope.hn_profiles import HNProfile, validate_hn
from hodgeslope.hodge_system import ISOMORPHISMS, HodgeSystem, derive_components
from hodgeslope.oper import ConnectionPair, GriffithsFiltration
from hodgeslope.slope_core import BundleData, GeometricContext


def curve(w: int, char: int = 0) -> GeometricContext:
    """A curve whose cotangent line bundle has degree ``w``, attested
    semistable and stable."""
    return GeometricContext(char, 1, w, omega_semistable=True, omega_stable=True)


def semistable_tower(r0: int, e0: int, context: GeometricContext, n: int) -> HodgeSystem:
    """The isomorphism tower of height ``n`` over ``E_0 = (r0, e0)``, its
    base attested semistable and its upper components as derived."""
    return derive_components(BundleData(r0, e0, semistable=True), context, n)


def stable_tower(r0: int, e0: int, context: GeometricContext, n: int) -> HodgeSystem:
    """The same tower by the formulas, every component attested stable."""
    derived = derive_components(BundleData(r0, e0), context, n)
    components = tuple(
        BundleData(c.rank, c.degree, semistable=True, stable=True)
        for c in derived.components
    )
    return HodgeSystem(context, components, ISOMORPHISMS)


def random_quotients(rng: random.Random, length: int) -> list[BundleData]:
    """``length`` quotients attested semistable, in no particular order."""
    return [
        BundleData(rng.randint(1, 4), rng.randint(-20, 20), semistable=True)
        for _ in range(length)
    ]


def random_valid_profile(rng: random.Random) -> HNProfile:
    """One to five random quotients, one per slope, top slope first."""
    quotients = random_quotients(rng, rng.randint(1, 5))
    by_slope: dict = {}
    for q in quotients:
        by_slope.setdefault(slope(q), q)
    return HNProfile(tuple(by_slope[s] for s in sorted(by_slope, reverse=True)))


def totals(parts: Iterable[BundleData]) -> BundleData:
    """Rank and degree of a direct sum, with no flags: semistability of a
    sum is never inferred from its summands."""
    summands = tuple(parts)
    if not summands:
        raise ValueError("empty direct sum")
    return BundleData(
        rank=sum(p.rank for p in summands),
        degree=sum(p.degree for p in summands),
    )


def slope(x) -> Fraction:
    """The slope of a bundle or a profile: its degree over its rank."""
    return Fraction(x.degree, x.rank)


def total_slope(sys: HodgeSystem) -> Fraction:
    """The slope of a whole system, summed from its components."""
    return slope(totals(sys.components))


def slope_text(x: Fraction) -> str:
    """A rational as a report writes it, ``"p/q"`` in lowest terms."""
    return f"{x.numerator}/{x.denominator}"


def is_strictly_concave(points: Sequence[tuple[int, int]]) -> bool:
    """Whether successive segment slopes strictly decrease.

    Assumes x strictly increases along the points, as in a polygon of
    cumulative ranks.
    """
    for i in range(len(points) - 2):
        x0, y0 = points[i]
        x1, y1 = points[i + 1]
        x2, y2 = points[i + 2]
        if (y1 - y0) * (x2 - x1) <= (y2 - y1) * (x1 - x0):
            return False
    return True


def hn_valid(p: HNProfile) -> bool:
    """Whether ``validate_hn`` accepts the profile, rather than raising."""
    try:
        validate_hn(p)
    except ValueError:
        return False
    return True


def filtration_to_json(f: GriffithsFiltration) -> dict:
    """A griffiths_filtration payload."""
    return {
        "context": f.context.to_json(),
        "graded": [g.to_json() for g in f.graded],
        "transversal": f.transversal,
        "theta_squares_to_zero": f.theta_squares_to_zero,
        "theta_iso": f.theta_iso,
    }


def pair_to_json(pair: ConnectionPair) -> dict:
    """A connection_pair payload; the context is written only for a pair
    without a filtration, whose context is its own."""
    out: dict = {"total": pair.total.to_json(), "flat": pair.flat}
    if pair.filtration is not None:
        out["filtration"] = filtration_to_json(pair.filtration)
    elif pair.context is not None:
        out["context"] = pair.context.to_json()
    return out


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    """``perfbench/tracer.py`` run from its source, not imported as a
    package module, so the benchmark directory gains no bytecode cache."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    code = compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec")
    exec(code, module.__dict__)
    return module
