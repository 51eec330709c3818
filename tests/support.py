"""Fixtures and independent references that several test modules share.

Each is stated here once and imported by every test that uses it.  The
references recompute, in their own terms, what the library computes or
reads: ``totals`` sums invariants, ``slope`` and ``total_slope`` are the
exact rationals the library compares by cross-multiplication, and
``slope_text`` writes one as the reports do; ``is_strictly_concave``
judges a polygon, and ``filtration_to_json`` and ``pair_to_json`` write
documents that ``GriffithsFiltration.from_json`` and ``pair_from_json``
read back.
``hn_valid`` reads ``validate_hn``'s check as a truth value, ``outcome``
any check as what it returned or the text it raised, and the counting
bundle ``CountedBundle`` counts each read of a bundle's four fields.
``load_tracer`` reads the benchmark's tracer, whose names the library
must keep.  One runner runs the CLI in process: ``write_doc`` writes a
document, and ``run_raw`` returns the exit code, stdout and stderr of
``cli.main`` on an argv, ``run`` with the stdout read as JSON.
``run_python`` runs a fresh interpreter with the package's source
directory on the path, which ``python_env`` gives.

The split model is the ground truth for isomorphism towers.  A model is
its summands ``((r_j, e_j), ...)``, each the type of a stable bundle S_j,
the degrees ``omega = (w_1, ..., w_d)`` of a split cotangent bundle
Omega = M_1 + ... + M_d of degree w = sum(omega), and the height ``n``:
E_0 is the sum of the S_j and E_i = E_0 (x) Omega^i, in any
characteristic.  E_i is the sum, over the words u of length i in the
letters 1..d, of S_j (x) M_u with M_u = M_{u_1} (x) ... (x) M_{u_i}, of
slope mu(S_j) + w(u) for w(u) = w_{u_1} + ... + w_{u_i}.
``split_components`` writes the components with their true
attestations, ``split_whole`` sums them, and ``split_document`` writes a
model as a ``hodge_system`` document that forgets attestations at
random.  The model is stated in its own integers: none of its functions
names library code, so its truths never read the library's tower.

At any d, theta maps S_j (x) M_u into (S_j (x) M_{u'}) (x) Omega, where
u' is u less its last letter.  So for each summand a set of words closed
under dropping the last letter spans a theta-invariant coordinate
subsystem, and every union of those exists.  They refute:
``split_refutations`` finds the best of them.  The subsheaf bound
``best_bound_excess``, built from ``summand_bound``, limits every
theta-invariant subsystem, so it confirms; ``split_truth`` reads both.
On a curve (d = 1, omega = (w,)) the invariant subsystems are exactly
the decreasing chains G_0 >= ... >= G_n of subsheaves of E_0,
F_i = G_i (x) Omega^i, and ``split_truth`` proves that the bound and the
chains of coordinate sub-sums always agree in sign, so there the model
is exact.  All of it is integer arithmetic.  One brute force,
``best_coordinate_excess`` in ``test_split_model``, tries every
coordinate subsystem at any d; on a curve its closed word sets are the
chains of coordinate sub-sums.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import subprocess
import sys
import types
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import hodgeslope
from hodgeslope import cli
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


def outcome(check, *args) -> tuple:
    """("returned", value) or ("raised", the ValueError's text): how a
    reader and its reference are compared."""
    try:
        return ("returned", check(*args))
    except ValueError as exc:
        return ("raised", str(exc))


class CountedBundle(BundleData):
    """A bundle that counts each read of its four fields in ``reads``."""

    reads: Counter = Counter()

    def __getattribute__(self, name: str):
        if name in BundleData._fields:
            CountedBundle.reads[name] += 1
        return super().__getattribute__(name)


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


def python_env() -> dict:
    """The environment with the package's source directory on the path."""
    src = str(Path(hodgeslope.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_python(*args: str, timeout: float = 60, preexec_fn=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with the package's source directory on the path."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=python_env(),
        preexec_fn=preexec_fn,
    )


def write_doc(tmp_path: Path, payload: dict, name: str = "doc.json") -> str:
    """Write ``payload`` as JSON under ``tmp_path`` and return its path."""
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_raw(capsys, argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in process: its exit code, stdout and stderr."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run(capsys, argv: list[str]) -> tuple[int, dict, str]:
    """``run_raw`` with the stdout read as JSON."""
    code, out, err = run_raw(capsys, argv)
    return code, json.loads(out), err


Summands = tuple[tuple[int, int], ...]


def summand_bound(r: int, e: int, s: int) -> int:
    """The largest degree of a rank-``s`` subsheaf of a stable bundle of
    type ``(r, e)``: below the slope unless it is the whole bundle, so
    ceil(s*e/r) - 1 for 0 < s < r."""
    if s == 0:
        return 0
    if s == r:
        return e
    return -((-s * e) // r) - 1


def subsheaf_bound(summands: Summands) -> list[int]:
    """The largest degree a rank-s subsheaf of the sum of the S_j can
    have, as a row indexed by s from 0 to the whole rank: the best
    ``summand_bound`` sum over ranks s_j with sum s.  A subsheaf's images
    in S_1, S_2, ... filter it with pieces of rank s_j in S_j, so its
    degree is at most this."""
    best = {0: 0}  # rank -> largest degree over the summands so far
    for r, e in summands:
        step: dict[int, int] = {}
        for total, degree in best.items():
            for part in range(r + 1):
                value = degree + summand_bound(r, e, part)
                step[total + part] = max(step.get(total + part, value), value)
        best = step
    return [best[s] for s in range(len(best))]


class SplitComponent(NamedTuple):
    """A component E_i of a split model with its true attestations."""

    rank: int
    degree: int
    semistable: bool
    stable: bool


def split_components(
    summands: Summands, omega: tuple[int, ...], n: int
) -> tuple[SplitComponent, ...]:
    """E_0..E_n with their true attestations.  With R and E the sums of
    the r_j and e_j, d = len(omega) and w = sum(omega), E_i has rank R*d^i
    and degree d^i*E + i*d^(i-1)*w*R, the second term read as 0 at i = 0
    (where d^(i-1) would be a fraction).  E_i is a sum of stable bundles,
    so it is semistable exactly when they share one slope: every S_j has
    the same slope, and for i >= 1 every w_k is the same.  It is stable
    exactly when it is one stable summand: one S_j, and i = 0 or d = 1 (so
    every rank-1 component is stable)."""
    big_r, big_e = sum(r for r, _ in summands), sum(e for _, e in summands)
    d, w = len(omega), sum(omega)
    r0, e0 = summands[0]
    same_slope = all(e * r0 == e0 * r for r, e in summands)
    same_w = len(set(omega)) == 1
    return tuple(
        SplitComponent(
            big_r * d**i,
            big_e * d**i + (i * d ** (i - 1) * w * big_r if i else 0),
            same_slope and (i == 0 or same_w),
            len(summands) == 1 and (i == 0 or d == 1),
        )
        for i in range(n + 1)
    )


def split_whole(summands: Summands, omega: tuple[int, ...], n: int) -> tuple[int, int]:
    """(rank, degree) of E_0 + ... + E_n."""
    components = split_components(summands, omega, n)
    return sum(c.rank for c in components), sum(c.degree for c in components)


def _excess(degree: int, rank: int, whole: tuple[int, int]) -> int:
    """Positive, zero or negative as degree/rank is above, at or below the
    slope of ``whole``, a (rank, degree) pair."""
    whole_rank, whole_degree = whole
    return degree * whole_rank - whole_degree * rank


def best_bound_excess(summands: Summands, omega: tuple[int, ...], n: int) -> int | None:
    """The largest ``_excess`` any proper subsystem can have by the
    subsheaf bound, or None when there is no proper subsystem.

    theta is injective, so a nonzero invariant subsystem F has ranks
    r_0 >= 1 and r_i <= min(rank E_i, d*r_(i-1)), not all full.  E_i is
    the sum of the stable S_j (x) M_u, of type (r_j, e_j + r_j*w(u)) for
    the words u of length i, so deg F_i is at most ``subsheaf_bound`` over
    those at rank r_i.  One rank programme over the chains, which also
    carries whether a chain is yet proper, takes the largest sum of
    R*b_i(r_i) - D*r_i, with (R, D) the whole system's rank and degree."""
    whole = split_whole(summands, omega, n)
    d = len(omega)
    # (rank of the last F_i, proper so far) -> the largest excess so far;
    # the start lets F_0 take any rank of E_0
    best = {(sum(r for r, _ in summands), False): 0}
    for i in range(n + 1):
        shifts = [sum(u) for u in itertools.product(omega, repeat=i)]
        parts = tuple((r, e + r * shift) for r, e in summands for shift in shifts)
        row = [_excess(b, s, whole) for s, b in enumerate(subsheaf_bound(parts))]
        full = len(row) - 1
        step: dict[tuple[int, bool], int] = {}
        for (last, proper), value in best.items():
            for s in range(0 if i else 1, min(full, d * last) + 1):
                key = s, proper or s < full
                step[key] = max(step.get(key, value + row[s]), value + row[s])
        best = step
    proper = [value for (_, is_proper), value in best.items() if is_proper]
    return max(proper) if proper else None


def split_truth(
    summands: Summands, omega: tuple[int, ...], n: int
) -> tuple[bool | None, bool | None]:
    """(semistable, stable) of the split model as far as it decides them:
    False where a coordinate subsystem refutes the side
    (``split_refutations``), True where ``best_bound_excess`` confirms it,
    at most 0 for semistability and below 0 for stability, and None where
    neither decides.  Every theta-invariant subsystem lies within the
    bound, and every coordinate subsystem exists, so a side is never both.

    On a curve (omega = (w,)) every side is decided: the bound and the best
    coordinate chain, which the tests' brute force
    ``best_coordinate_excess`` finds, always agree in sign:

    Sort the summands by slope, highest first; let p_a be the rank of the
    first a of them and P the concave polygon through their partial sums
    (p_a, deg).  A rank-s_j piece of S_j has degree at most s_j*mu(S_j),
    and ranks s_j summing to s earn the most when they go to the highest
    slopes first, so every rank-s subsheaf of E_0 has degree at most
    entry s of ``subsheaf_bound``, which is <= P(s).  Over real chains
    R >= s_0 >= ... >= s_n >= 0, the bound's excess over mu(E), divided
    by the whole rank, is then at most F(s) = sum_i (P(s_i) + (i*w - mu(E))*s_i), which is 0
    at the empty system and at the whole one.  The planes s_i = p_a and
    s_i = s_(i+1) cut the chains into cells on each of which F is affine,
    so F reaches its maximum M >= 0 at a vertex.  Each coordinate of a
    vertex is pinned, directly or through equal neighbours, to some p_a,
    so nested prefix sums of the sorted summands realize the vertex as a
    coordinate chain whose excess is F there.  If the bound is above 0, so is M, at
    a vertex that is neither the empty system nor the whole one.  If
    instead a proper chain s* meets the bound at 0 and M = 0, then
    F(s*) = 0, and F vanishes on the least face of a cell through s*.
    That face has a proper vertex unless it is the diagonal from the
    empty system to the whole one, which lies in one cell only when there
    is one summand; and then a partial rank's bound is strictly below P,
    so s* cannot meet it.  So the bound and the coordinate chains agree
    on both sides.  With no proper coordinate chain (one summand and
    n = 0) the bound is below 0 or, for a line bundle, has no proper
    subsystem at all."""
    refuted = split_refutations(summands, omega, n)
    bound = best_bound_excess(summands, omega, n)
    confirmed = (True, True) if bound is None else (bound <= 0, bound < 0)
    assert not any(no is False and yes for no, yes in zip(refuted, confirmed)), (refuted, bound)
    return tuple(yes or no for no, yes in zip(refuted, confirmed))


def random_split_model(rng: random.Random, max_rank: int = 2) -> tuple[Summands, int, int]:
    """One to three summands of rank at most ``max_rank``, a cotangent
    degree in -2..3 and a height in 0..3."""
    summands = tuple(
        (rng.randint(1, max_rank), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))
    )
    return summands, rng.randint(-2, 3), rng.randint(0, 3)


def split_document(
    rng: random.Random, summands: Summands, omega: tuple[int, ...], n: int,
    characteristic: int = 0, keep: float = 0.5,
) -> dict:
    """A ``hodge_system`` document of the model.  Each component flag is
    kept with chance ``keep`` and forgotten otherwise.  The cotangent
    bundle's stable flag is kept or forgotten at random, and so is its
    semistable flag when the stable one is forgotten.  Omega is
    semistable exactly when every w_k is the same, and stable exactly when
    d = 1.  A kept stable flag brings semistable=true with it, and a kept
    semistable=false brings stable=false, as a reader infers them."""
    omega_stable = len(omega) == 1 and rng.random() < 0.5
    omega_semistable = len(set(omega)) == 1 and (omega_stable or rng.random() < 0.5)
    context = {
        "characteristic": characteristic,
        "dim": len(omega),
        "omega_degree": sum(omega),
        "omega_semistable": omega_semistable,
        "omega_stable": omega_stable,
    }
    components = []
    for c in split_components(summands, omega, n):
        semistable = c.semistable if rng.random() < keep else None
        stable = c.stable if rng.random() < keep else None
        if stable:
            semistable = True
        if semistable is False:
            stable = False
        entry = {"rank": c.rank, "degree": c.degree, "semistable": semistable, "stable": stable}
        components.append({key: value for key, value in entry.items() if value is not None})
    return {"hodge_system": {
        "context": context, "components": components, "theta": "isomorphisms"
    }}


def split_refutations(
    summands: Summands, omega: tuple[int, ...], n: int
) -> tuple[bool | None, bool | None]:
    """(semistable, stable) as far as the coordinate subsystems decide
    them: False when one refutes the side, None otherwise.  Semistability
    falls to a subsystem above mu(E), stability to a proper one at or
    above it.

    Each coordinate S_j (x) M_u adds a fixed excess over mu(E), so the
    best subsystem is a tree programme over the words.  With N coordinates
    in all, it maximizes (N + 1) * excess less the subsystem's number of
    coordinates, that is the excess first and then the fewest
    coordinates.  The whole system has excess 0 and N coordinates, so it
    is the best exactly when no proper subsystem reaches excess 0."""
    whole = split_whole(summands, omega, n)
    big_n = len(summands) * sum(len(omega) ** i for i in range(n + 1))

    @functools.cache  # the value depends on the summand, the length and w(u) alone
    def best(r: int, e: int, i: int, shift: int) -> int:
        """The best value of a word u of length i with w(u) = shift together
        with a set of its extensions closed under dropping the last letter."""
        value = (big_n + 1) * _excess(e + r * shift, r, whole) - 1
        for w_k in omega if i < n else ():
            value += max(best(r, e, i + 1, shift + w_k), 0)
        return value

    tops = [best(r, e, 0, 0) for r, e in summands]
    spare = sum(max(top, 0) for top in tops)
    # a subsystem holds the empty word of at least one summand
    found = max(spare - max(top, 0) + top for top in tops)
    return (False if found > 0 else None), (False if found > -big_n else None)


def random_tower_model(rng: random.Random) -> tuple[Summands, tuple[int, ...], int]:
    """A model at d = 2 or 3: one to three summands of rank at most 2, w_k
    in -1..2 and a height in 0..2.  Half the time every summand has the
    type of the first, and half the time every w_k is the same, so that
    semistable towers are common."""
    d = rng.choice((2, 3))
    summands = [(rng.randint(1, 2), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        summands = [summands[0]] * len(summands)
    omega = [rng.randint(-1, 2) for _ in range(d)]
    if rng.random() < 0.5:
        omega = [omega[0]] * d
    return tuple(summands), tuple(omega), rng.randint(0, 2)
