"""Destabilizer search over invariant subobject profiles.

Independent of the criteria, this module finds the admissible graded
subobject profile of largest slope of an isomorphism tower.  Admissibility
means: contiguous support starting at grade 0, positive ranks bounded by
the component ranks, a rank-chain constraint, and at each grade the largest
degree the component's attestation allows (slope maximization never
benefits from a smaller degree, which collapses the search to a finite
one).  The whole system is excluded, mirroring the proper-subsheaf
quantifier.

The maximum is exact and takes polynomial time, by Dinkelbach's parametric
method (W. Dinkelbach, *On nonlinear fractional programming*, Management
Sci. 13(7), 1967): for a candidate slope p/q, a dynamic programme over
(grade, rank) maximizes sum(q * degree_i - p * rank_i) over admissible
chains.  A positive maximum is reached by a chain of larger slope, which
becomes the next candidate; a zero maximum proves the candidate optimal.
The tests keep a brute-force enumeration of every profile as the
reference the solver is checked against.

Two rank-chain modes are provided.  The monotone mode requires
rank(F_i) <= rank(F_{i-1}), which is immediate from the embedding
F_i -> F_{i-1} tensor Omega when the cotangent rank d is 1 but is an
extra assertion for d > 1; the conservative mode only requires
rank(F_i) <= d * rank(F_{i-1}).  The monotone mode is the default; the
conservative mode exists to hunt for discrepancies, and any system where
the conservative search finds a violating profile that the monotone search
misses should be treated as a finding, never silently resolved.

The module also decides whole systems (``system_verdict``): a declared
system by its declared profiles, an isomorphism tower by the criteria
cross-checked against the search.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import accumulate

from .hodge_system import (
    Answer,
    HodgeSystem,
    Isomorphisms,
    Verdict,
    criteria_verdict,
    merge_verdicts,
    total_slope,
)
from .profiles import SubsystemProfile
from .slope_core import InconsistencyError, SubsheafMode, max_subsheaf_degree

PROV_ORACLE = "oracle"
PROV_DECLARED = "declared invariant profile"
PROV_DECLARED_FULL = "declared profile equals the whole system"
PROV_DECLARED_SLACK = "declared profile does not destabilize"

#: The solver's own limit: (grade, rank) cells it tabulates.  Its work is
#: linear in them per Dinkelbach step, so a larger search is refused rather
#: than left to run for seconds.
MAX_RANK_CELLS = 1 << 18


class BudgetExceededError(ValueError):
    """The search is larger than its budget or the solver's cell limit."""


class ConstraintMode(Enum):
    """Rank-chain constraint imposed on admissible profiles."""

    # values are the CLI/document tokens (--mode paper|conservative)
    MONOTONE = "paper"
    CONSERVATIVE = "conservative"


def profile_space_size(sys: HodgeSystem) -> int:
    """Upper bound on the number of rank assignments: prod(rank(E_i) + 1)."""
    size = 1
    for comp in sys.components:
        size *= comp.rank + 1
    return size


def _rank_step(sys: HodgeSystem, mode: ConstraintMode) -> int:
    """The rank at grade i is at most this factor times the rank at grade i-1."""
    return 1 if mode is ConstraintMode.MONOTONE else sys.context.dim


def _degree_bounds(
    sys: HodgeSystem,
    mode: ConstraintMode,
    subsheaf_mode: SubsheafMode,
    budget: int | None,
) -> list[list[int]]:
    """Validate oracle preconditions and tabulate degree bounds per grade
    and rank, for the ranks a chain can reach (entry 0 is rank 0).

    An explicit budget caps the rank assignments prod(rank(E_i) + 1); the
    table itself is capped at MAX_RANK_CELLS cells.
    """
    if not isinstance(sys.theta, Isomorphisms):
        raise ValueError("oracle requires isomorphism structure")
    if budget is not None:
        size = profile_space_size(sys)
        if size > budget:
            raise BudgetExceededError(
                f"budget exceeded: {size} rank assignments, budget is {budget}"
            )
    step = _rank_step(sys, mode)
    caps = [sys.components[0].rank]
    for comp in sys.components[1:]:
        caps.append(min(comp.rank, step * caps[-1]))
    cells = sum(caps)
    if cells > MAX_RANK_CELLS:
        raise BudgetExceededError(
            f"search too large: {cells} rank cells, the solver's limit is {MAX_RANK_CELLS}"
        )
    bounds = []
    for i, (comp, cap) in enumerate(zip(sys.components, caps)):
        flag = comp.semistable if subsheaf_mode is SubsheafMode.SEMISTABLE else comp.stable
        if flag is not True:
            raise ValueError(
                f"flag precondition violated: component {i} is not flagged {subsheaf_mode.value}"
            )
        bounds.append([0] + [max_subsheaf_degree(r, comp, subsheaf_mode) for r in range(1, cap + 1)])
    return bounds


def _tables(
    bounds: list[list[int]], step: int, whole: bool, p: int, q: int
) -> tuple[list[list[int]], list[int | None]]:
    """Suffix tables of the chain value sum(q * degree_i - p * rank_i).

    values[i][r] is the best value of a chain from grade i on that has rank
    r at grade i.  full[i] is the same for r = rank(E_i) along a chain equal
    to the whole system through grade i, which must leave it before the top
    grade (None when it cannot); it exists only when the whole system is
    admissible (``whole``).
    """
    n = len(bounds) - 1
    values: list[list[int]] = [[]] * (n + 1)
    full: list[int | None] = [None] * (n + 1)
    below: list[int] = []  # prefix maxima of the next grade's values; index 0 is stopping
    for i in range(n, -1, -1):
        b = bounds[i]
        if i == n:
            v = [q * b[r] - p * r for r in range(len(b))]
        else:
            h = len(below) - 1
            v = [q * b[r] - p * r + below[min(h, step * r)] for r in range(len(b))]
            if whole:
                rest = below[h - 1] if full[i + 1] is None else max(below[h - 1], full[i + 1])
                full[i] = q * b[-1] - p * (len(b) - 1) + rest
        values[i] = v
        below = list(accumulate(v, max))
    return values, full


def _best_chain(
    bounds: list[list[int]], step: int, whole: bool, p: int, q: int
) -> tuple[int, list[int]] | None:
    """The largest value sum(q * degree_i - p * rank_i) of a proper chain,
    with the lexicographically smallest rank chain reaching it, or None
    when no proper chain exists.

    Comparing entry lists is comparing rank vectors, and a prefix sorts
    before its extensions, so the chain stops as soon as it meets the
    maximum and otherwise takes the smallest rank that can still meet it.
    """
    values, full = _tables(bounds, step, whole, p, q)
    first = values[0][1:]
    if whole:
        first[-1] = full[0]
    target = max((v for v in first if v is not None), default=None)
    if target is None:
        return None  # a single line bundle: the only chain is the whole system
    ranks: list[int] = []
    acc, cap = 0, len(bounds[0]) - 1
    for i, v in enumerate(values):
        if ranks and acc == target:
            break
        top = len(v) - 1
        for r in range(1, min(top, cap) + 1):
            value = full[i] if whole and r == top else v[r]
            if value is not None and acc + value == target:
                break
        ranks.append(r)
        acc += q * bounds[i][r] - p * r
        whole = whole and r == top  # the chain so far is still the whole system's
        cap = step * r
    return target, ranks


def max_slope_profile(
    sys: HodgeSystem,
    mode: ConstraintMode = ConstraintMode.MONOTONE,
    subsheaf_mode: SubsheafMode = SubsheafMode.SEMISTABLE,
    budget: int | None = None,
) -> tuple[SubsystemProfile, Fraction] | None:
    """The admissible proper profile of maximal slope, ties going to the
    lexicographically smallest entry list, or None when no proper profile
    exists."""
    bounds = _degree_bounds(sys, mode, subsheaf_mode, budget)
    step = _rank_step(sys, mode)
    whole = all(len(b) == c.rank + 1 for b, c in zip(bounds, sys.components))
    best = Fraction(bounds[0][1])  # slope of the chain of one rank-1 piece
    while True:
        found = _best_chain(bounds, step, whole, best.numerator, best.denominator)
        if found is None:
            return None
        excess, ranks = found
        if excess == 0:
            break
        best = Fraction(sum(b[r] for b, r in zip(bounds, ranks)), sum(ranks))
    profile = SubsystemProfile(tuple((r, b[r]) for b, r in zip(bounds, ranks)))
    return profile, profile.slope


def verdict_from_search(
    sys: HodgeSystem,
    mode: ConstraintMode = ConstraintMode.MONOTONE,
    subsheaf_mode: SubsheafMode = SubsheafMode.SEMISTABLE,
    budget: int | None = None,
) -> Verdict:
    """Ground-truth verdict within the admissible profile class.

    Under semistable bounds: a profile above the total slope refutes
    semistability; one meeting it refutes stability; otherwise both hold
    within the class.  Under stable bounds the stability side uses the
    strict bounds, while the semistability side is still judged against
    the semistable bounds (both attestations are available, since stable
    components are semistable).
    """
    mu = total_slope(sys)
    if subsheaf_mode is SubsheafMode.STABLE:
        return _verdict_stable_bounds(sys, mode, budget, mu)
    best = max_slope_profile(sys, mode, SubsheafMode.SEMISTABLE, budget)
    if best is None:
        return Verdict(Answer.YES, Answer.YES, provenance=PROV_ORACLE)
    profile, s = best
    if s > mu:
        return Verdict(Answer.NO, Answer.NO, profile, PROV_ORACLE)
    if s == mu:
        return Verdict(Answer.YES, Answer.NO, profile, PROV_ORACLE)
    return Verdict(Answer.YES, Answer.YES, provenance=PROV_ORACLE)


def _verdict_stable_bounds(
    sys: HodgeSystem, mode: ConstraintMode, budget: int | None, mu: Fraction
) -> Verdict:
    best_ss = max_slope_profile(sys, mode, SubsheafMode.SEMISTABLE, budget)
    if best_ss is not None and best_ss[1] > mu:
        # would contradict the semistability criterion; surface it loudly
        return Verdict(Answer.NO, Answer.NO, best_ss[0], PROV_ORACLE)
    best_st = max_slope_profile(sys, mode, SubsheafMode.STABLE, budget)
    if best_st is None:
        return Verdict(Answer.YES, Answer.YES, provenance=PROV_ORACLE)
    profile, s = best_st
    if s >= mu:
        return Verdict(Answer.YES, Answer.NO, profile, PROV_ORACLE)
    return Verdict(Answer.YES, Answer.YES, provenance=PROV_ORACLE)


def check_declared(sys: HodgeSystem, profile: SubsystemProfile) -> Verdict:
    """Judge one declared invariant profile against the total slope.

    The profile must be entrywise plausible: ranks dominated by the
    component ranks, wherever a component carries a semistable
    attestation degree within the subsheaf bound, and at full rank degree
    at most the component's (the quotient is torsion).  A strictly larger
    slope refutes semistability; an equal slope refutes stability unless
    the profile is the whole system; anything else is inconclusive.
    """
    components = sys.components
    if profile.support_top > sys.n:
        raise ValueError("rank domination violated: profile support exceeds the component range")
    for i, (rk, dg) in enumerate(profile.entries):
        comp = components[i]
        if rk > comp.rank:
            raise ValueError(f"rank domination violated at grade {i}: {rk} > {comp.rank}")
        if comp.semistable is True and dg > max_subsheaf_degree(rk, comp, SubsheafMode.SEMISTABLE):
            raise ValueError(
                f"degree at grade {i} exceeds the semistable subsheaf bound"
            )
        if rk == comp.rank and dg > comp.degree:
            raise ValueError(
                f"degree at grade {i} exceeds the component degree at full rank: "
                f"{dg} > {comp.degree}"
            )
    mu = total_slope(sys)
    s = profile.slope
    if s > mu:
        return Verdict(Answer.NO, Answer.NO, profile, PROV_DECLARED)
    if s == mu:
        full = profile.support_top == sys.n and profile.entries == tuple(
            (c.rank, c.degree) for c in components
        )
        if full:
            return Verdict(provenance=PROV_DECLARED_FULL)
        return Verdict(Answer.UNKNOWN, Answer.NO, profile, PROV_DECLARED)
    return Verdict(provenance=PROV_DECLARED_SLACK)


def _declared_verdict(sys: HodgeSystem) -> Verdict:
    """Judge every declared profile; the first that refutes semistability
    wins, then the first that refutes stability."""
    profiles = sys.theta.profiles
    if not profiles:
        return Verdict(provenance="no declared profiles")
    verdicts = [check_declared(sys, p) for p in profiles]
    for v in verdicts:
        if v.semistable is Answer.NO:
            return v
    for v in verdicts:
        if v.stable is Answer.NO:
            return v
    return Verdict(provenance="declared profiles do not destabilize")


def _require_agreement(criterion: Answer, oracle: Answer, side: str) -> None:
    if Answer.UNKNOWN not in (criterion, oracle) and criterion is not oracle:
        raise InconsistencyError(f"criterion and oracle disagree on {side}")


def system_verdict(
    sys: HodgeSystem,
    mode: ConstraintMode = ConstraintMode.MONOTONE,
    budget: int | None = None,
) -> Verdict:
    """Decide a system of Hodge bundles.

    A declared system is judged by its declared profiles.  An isomorphism
    tower gets the criteria's verdict; when every component is attested
    semistable, the oracle cross-checks it and fills in what the criteria
    leave unknown.  The oracle runs under semistable bounds, or under
    stable bounds when the cotangent degree is positive and every
    component is attested stable, so that its stability side is a check
    too.  A tower past the search budget or the solver's limit keeps the
    criteria's verdict alone.  A definite disagreement on either side
    raises InconsistencyError.
    """
    if not isinstance(sys.theta, Isomorphisms):
        return _declared_verdict(sys)
    verdict = criteria_verdict(sys)
    if not all(c.semistable is True for c in sys.components):
        return verdict
    check_stable = sys.context.omega_degree > 0 and all(c.stable is True for c in sys.components)
    subsheaf_mode = SubsheafMode.STABLE if check_stable else SubsheafMode.SEMISTABLE
    try:
        oracle = verdict_from_search(sys, mode, subsheaf_mode, budget)
    except BudgetExceededError:
        return verdict
    _require_agreement(verdict.semistable, oracle.semistable, "semistability")
    if check_stable:
        _require_agreement(verdict.stable, oracle.stable, "stability")
    return merge_verdicts(verdict, oracle)
