"""Brute-force destabilizer search over invariant subobject profiles.

Independent of the criteria, this module enumerates every admissible
graded subobject profile of an isomorphism tower and maximizes slope.
Admissibility means: contiguous support starting at grade 0, positive
ranks bounded by the component ranks, a rank-chain constraint, and at each
grade the largest degree the component's attestation allows (slope
maximization never benefits from a smaller degree, which collapses the
search to a finite one).  The whole system is excluded, mirroring the
proper-subsheaf quantifier.

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
from typing import Iterator, Optional

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
from .slope_core import SubsheafMode, max_subsheaf_degree

PROV_ORACLE = "oracle"
PROV_DECLARED = "declared invariant profile"
PROV_DECLARED_FULL = "declared profile equals the whole system"
PROV_DECLARED_SLACK = "declared profile does not destabilize"

DEFAULT_PROFILE_BUDGET = 10_000_000


class BudgetExceededError(ValueError):
    """The profile space is larger than the configured search budget."""


class InconsistencyError(RuntimeError):
    """Criterion and oracle disagree on a definite verdict."""


class ConstraintMode(Enum):
    """Rank-chain constraint imposed on enumerated profiles."""

    # values are the CLI/document tokens (--mode paper|conservative)
    MONOTONE = "paper"
    CONSERVATIVE = "conservative"


def profile_space_size(sys: HodgeSystem) -> int:
    """Upper bound on the number of rank assignments: prod(rank(E_i) + 1)."""
    size = 1
    for comp in sys.components:
        size *= comp.rank + 1
    return size


def _degree_bounds(
    sys: HodgeSystem, subsheaf_mode: SubsheafMode, budget: int
) -> list[list[int]]:
    """Validate oracle preconditions and tabulate degree bounds per grade and rank."""
    if not isinstance(sys.theta, Isomorphisms):
        raise ValueError("oracle requires isomorphism structure")
    size = profile_space_size(sys)
    if size > budget:
        raise BudgetExceededError(
            f"budget exceeded: {size} rank assignments, budget is {budget}"
        )
    bounds = []
    for i, comp in enumerate(sys.components):
        flag = comp.semistable if subsheaf_mode is SubsheafMode.SEMISTABLE else comp.stable
        if flag is not True:
            raise ValueError(
                f"flag precondition violated: component {i} is not flagged {subsheaf_mode.value}"
            )
        bounds.append([0] + [max_subsheaf_degree(r, comp, subsheaf_mode) for r in range(1, comp.rank + 1)])
    return bounds


def _profiles(
    sys: HodgeSystem,
    bounds: list[list[int]],
    mode: ConstraintMode,
) -> Iterator[SubsystemProfile]:
    ranks = [c.rank for c in sys.components]
    d = sys.context.dim
    n = sys.n
    monotone = mode is ConstraintMode.MONOTONE

    def extend(grade: int, top: int, acc: tuple[tuple[int, int], ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if grade > top:
            yield acc
            return
        if grade == 0:
            hi = ranks[0]
        else:
            prev = acc[-1][0]
            cap = prev if monotone else d * prev
            hi = min(ranks[grade], cap)
        for rk in range(1, hi + 1):
            yield from extend(grade + 1, top, acc + ((rk, bounds[grade][rk]),))

    for top in range(n + 1):
        for entries in extend(0, top, ()):
            if top == n and all(entries[i][0] == ranks[i] for i in range(n + 1)):
                continue  # the whole system is not a proper subobject
            yield SubsystemProfile(entries)


def enumerate_profiles(
    sys: HodgeSystem,
    mode: ConstraintMode = ConstraintMode.MONOTONE,
    subsheaf_mode: SubsheafMode = SubsheafMode.SEMISTABLE,
    budget: int = DEFAULT_PROFILE_BUDGET,
) -> Iterator[SubsystemProfile]:
    """Stream every admissible proper profile in a fixed deterministic
    order (by support length, then rank vector lexicographically)."""
    bounds = _degree_bounds(sys, subsheaf_mode, budget)
    return _profiles(sys, bounds, mode)


def _better(cand: SubsystemProfile, best: SubsystemProfile) -> bool:
    """Strict total order: larger slope wins, ties go to the
    lexicographically smallest entry list."""
    lhs = cand.degree * best.rank
    rhs = best.degree * cand.rank
    if lhs != rhs:
        return lhs > rhs
    return cand.entries < best.entries


def max_slope_profile(
    sys: HodgeSystem,
    mode: ConstraintMode = ConstraintMode.MONOTONE,
    subsheaf_mode: SubsheafMode = SubsheafMode.SEMISTABLE,
    budget: int = DEFAULT_PROFILE_BUDGET,
) -> Optional[tuple[SubsystemProfile, Fraction]]:
    """The enumerated profile of maximal slope, or None when no proper
    profile exists."""
    bounds = _degree_bounds(sys, subsheaf_mode, budget)
    best: Optional[SubsystemProfile] = None
    for p in _profiles(sys, bounds, mode):
        if best is None or _better(p, best):
            best = p
    if best is None:
        return None
    return best, best.slope


def verdict_from_search(
    sys: HodgeSystem,
    mode: ConstraintMode = ConstraintMode.MONOTONE,
    subsheaf_mode: SubsheafMode = SubsheafMode.SEMISTABLE,
    budget: int = DEFAULT_PROFILE_BUDGET,
) -> Verdict:
    """Ground-truth verdict within the enumerated profile class.

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
    sys: HodgeSystem, mode: ConstraintMode, budget: int, mu: Fraction
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


def system_verdict(
    sys: HodgeSystem,
    mode: ConstraintMode = ConstraintMode.MONOTONE,
    budget: int = DEFAULT_PROFILE_BUDGET,
) -> Verdict:
    """Decide a system of Hodge bundles.

    A declared system is judged by its declared profiles.  An isomorphism
    tower gets the criteria's verdict; when every component is attested
    semistable, the oracle under semistable bounds cross-checks it and
    fills in what the criteria leave unknown.  A tower past the search
    budget keeps the criteria's verdict alone.  A definite disagreement on
    semistability raises InconsistencyError.
    """
    if not isinstance(sys.theta, Isomorphisms):
        return _declared_verdict(sys)
    verdict = criteria_verdict(sys)
    if not all(c.semistable is True for c in sys.components):
        return verdict
    try:
        oracle = verdict_from_search(sys, mode, SubsheafMode.SEMISTABLE, budget)
    except BudgetExceededError:
        return verdict
    definite = {Answer.YES, Answer.NO}
    if (
        verdict.semistable in definite
        and oracle.semistable in definite
        and verdict.semistable is not oracle.semistable
    ):
        raise InconsistencyError("criterion and oracle disagree on semistability")
    return merge_verdicts(verdict, oracle)
