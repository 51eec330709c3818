"""Destabilizer search over invariant subobject profiles.

Independent of the criteria, this module judges an isomorphism tower by
its admissible graded subobject profiles.  Admissibility means: contiguous
support starting at grade 0, positive ranks bounded by the component
ranks, a rank-chain constraint, and at each grade the largest degree the
component's attestation allows (slope maximization never benefits from a
smaller degree, which collapses the search to a finite one).  The whole
system is excluded, mirroring the proper-subsheaf quantifier.

A verdict asks only whether some proper profile reaches the total slope
mu(E), and ``verdict_from_search`` answers that in closed form, with
O(n) integer arithmetic and no size limit.  Each degree bound is at most
rank times the component's slope, and the weighted Chebyshev sum
inequality (Hardy-Littlewood-Polya, *Inequalities*, 1934) then keeps
every profile at or below mu(E) when the cotangent degree is
nonnegative; its equality case names the certificate.  The proof is in
the function's docstring.

``max_slope_profile`` finds the admissible proper profile of largest
slope itself, exactly and in polynomial time, by Dinkelbach's parametric
method (W. Dinkelbach, *On nonlinear fractional programming*, Management
Sci. 13(7), 1967): for a candidate slope p/q, held as the total degree p
and total rank q of a chain, a dynamic programme over
(grade, rank) maximizes sum(q * degree_i - p * rank_i) over admissible
chains.  A positive maximum is reached by a chain of larger slope, which
becomes the next candidate; a zero maximum proves the candidate optimal.
The degree bounds are tabulated one row per component, without the top
grade's full-rank cell, which only the whole system reaches; a table of
more than MAX_RANK_CELLS cells is refused with BudgetExceededError.  The
tests keep a brute-force enumeration of every profile as the reference
the solver and the closed form are checked against.

Two rank-chain modes are provided, each held as its --mode token.  The
monotone mode (MONOTONE, "paper") requires rank(F_i) <= rank(F_{i-1}),
which is immediate from the embedding F_i -> F_{i-1} tensor Omega when
the cotangent rank d is 1 but is an extra assertion for d > 1; the
conservative mode (CONSERVATIVE) only requires
rank(F_i) <= d * rank(F_{i-1}).  The monotone mode is the default; the
conservative mode exists to hunt for discrepancies, and any system where
the conservative search finds a violating profile that the monotone search
misses should be treated as a finding, never silently resolved.

The module also decides whole systems (``system_verdict``): a declared
system by its declared profiles, an isomorphism tower by the criteria
cross-checked against the closed form.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd

from .hodge_system import (
    ISOMORPHISMS,
    NO,
    UNKNOWN,
    YES,
    HodgeSystem,
    Verdict,
    criterion_semistable,
    criterion_stable,
    first_no,
    merge_verdicts,
    require_isomorphisms,
    transport_subsystem,
)
from .profiles import SubsystemProfile
from .slope_core import (
    BundleData,
    CONSERVATIVE,
    MODES,
    MONOTONE,
    SEMISTABLE,
    STABLE,
    SUBSHEAF_MODES,
    InconsistencyError,
    max_subsheaf_degree,
    require_flag,
    require_token,
    slope_excess,
    subsheaf_degree_row,
)

PROV_ORACLE = "oracle"
PROV_DECLARED = "declared invariant profile"
PROV_DECLARED_FULL = "declared profile equals the whole system"
PROV_DECLARED_SLACK = "declared profile does not destabilize"

#: The solver's own limit: (grade, rank) cells it tabulates.  Its work is
#: linear in them per Dinkelbach step, so a larger search is refused rather
#: than left to run for seconds.
MAX_RANK_CELLS = 1 << 18


class BudgetExceededError(ValueError):
    """The search is larger than the solver's cell limit (``max_slope_profile`` only)."""


def _rank_step(sys: HodgeSystem, mode: str) -> int:
    """The rank at grade i is at most this factor times the rank at grade i-1."""
    return 1 if mode == MONOTONE else sys.context.dim


def _degree_bounds(
    sys: HodgeSystem,
    mode: str,
    subsheaf_mode: str,
) -> list[list[int]]:
    """Validate oracle preconditions and tabulate degree bounds per grade
    and rank, for the ranks a proper chain can reach (entry 0 is rank 0).

    A chain's rank grows at most step-fold per grade while rank(E_i) =
    d^i * rank(E_0), so only the whole system has full rank at the top
    grade: a top cap reaching rank(E_n) is lowered by one to keep it out.
    The table is capped at MAX_RANK_CELLS cells.
    """
    require_isomorphisms(sys, "oracle")
    step = _rank_step(sys, mode)
    caps = [sys.components[0].rank]
    for comp in sys.components[1:]:
        caps.append(min(comp.rank, step * caps[-1]))
    if caps[-1] == sys.components[-1].rank:
        caps[-1] -= 1
    cells = sum(caps)
    if cells > MAX_RANK_CELLS:
        raise BudgetExceededError(
            f"search too large: {cells} rank cells, the solver's limit is {MAX_RANK_CELLS}"
        )
    return [
        [0] + subsheaf_degree_row(comp, subsheaf_mode, range(1, cap + 1), f"component {i}")
        for i, (comp, cap) in enumerate(zip(sys.components, caps))
    ]


def _best_chain(bounds: list[list[int]], step: int, p: int, q: int) -> tuple[int, list[int]]:
    """The largest value sum(q * degree_i - p * rank_i) of a chain in the
    table, with the lexicographically smallest rank chain reaching it.

    A suffix programme: the best value from grade i on at rank r (r = 0
    stops the chain, of value 0) reads the next grade's prefix maxima.
    Comparing entry lists is comparing rank vectors, and a prefix sorts
    before its extensions, so at each grade the chain takes the first
    maximum within its rank cap, stopping before any rank.
    """
    values: list[list[int]] = []  # from the top grade down
    below = [0]  # prefix maxima of the next grade's values
    for b in reversed(bounds):
        h = len(below) - 1
        v = [q * b[r] - p * r + below[min(h, step * r)] for r in range(len(b))]
        values.append(v)
        below = list(accumulate(v, max))
    ranks: list[int] = []
    first, cap = 1, len(bounds[0]) - 1  # a chain has rank at least 1 at grade 0
    for v in reversed(values):
        reach = v[first : cap + 1]
        r = first + reach.index(max(reach))
        if r == 0:
            break
        ranks.append(r)
        first, cap = 0, step * r
    return max(values[-1][1:]), ranks


def max_slope_profile(
    sys: HodgeSystem,
    mode: str = MONOTONE,
    subsheaf_mode: str = SEMISTABLE,
) -> SubsystemProfile | None:
    """The admissible proper profile of maximal slope, ties going to the
    lexicographically smallest entry list, or None when no proper profile
    exists.
    """
    require_token("mode", mode, MODES)
    require_token("subsheaf_mode", subsheaf_mode, SUBSHEAF_MODES)
    bounds = _degree_bounds(sys, mode, subsheaf_mode)
    if len(bounds[0]) == 1:
        return None  # a lone line bundle: its one chain is the whole system
    step = _rank_step(sys, mode)
    p, q = bounds[0][1], 1  # a rank-1 piece: a chain of value 0, so no maximum is negative
    while True:
        excess, ranks = _best_chain(bounds, step, p, q)
        if excess == 0:
            return SubsystemProfile(tuple((r, b[r]) for b, r in zip(bounds, ranks)))
        p, q = sum(b[r] for b, r in zip(bounds, ranks)), sum(ranks)


def verdict_from_search(
    sys: HodgeSystem,
    mode: str = MONOTONE,
    subsheaf_mode: str = SEMISTABLE,
) -> Verdict:
    """Ground-truth verdict within the admissible profile class, in closed
    form.

    A profile above the total slope under semistable bounds refutes
    semistability.  Otherwise a profile meeting the total slope refutes
    stability, and without one both hold within the class.  Under stable
    bounds the stability side uses the strict bounds, while the
    semistability side is still judged against the semistable bounds (both
    attestations are available, since stable components are semistable).
    The certificate is the lexicographically smallest profile of largest
    slope, the one ``max_slope_profile`` returns for each bound mode when
    that slope reaches mu(E).

    Proof.  Write R = rank(E_0), e = deg(E_0), w and d for the cotangent
    degree and rank, mu_i = mu_0 + i*w/d for the slope of E_i, and
    (r*, e*) = (R/g, e/g) with g = gcd(R, e), so r* is the least rank r
    with r*mu_0 an integer.  E_i has rank R*d^i, so mu(E) is the mean of
    the mu_i under the weights R*d^i.  A chain r_0, ..., r_k (r_i = 0 past
    k) with degree bounds b_i(r_i) satisfies, when w >= 0,

        sum b_i(r_i) <= sum r_i*mu_i <= mu(E) * sum r_i.

    The first step holds term by term.  A semistable bound floor(r*mu_i)
    is exact when r*mu_i is an integer, a stable one only at full rank.
    The second step is the weighted Chebyshev sum inequality
    (``inequalities.chebyshev_upper``) for a_i = r_i/(R*d^i), which does
    not increase because r_i <= d*r_{i-1} in either mode, against mu_i,
    which does not decrease.  So no profile exceeds mu(E), and one reaches
    it exactly when both steps are equalities:

    - w > 0, n >= 1: mu_i strictly increases, so a_i is constant on all
      n+1 grades and r_i = r_0*d^i.  Every bound is exact iff r* divides
      r_0.  The least such chain is the transport of (r*, e*), which is
      proper iff r* < R.  The monotone mode admits it only when d = 1.
      Under stable bounds only the whole system is exact throughout.
    - w = 0 or n = 0: every grade in play has slope mu(E), so a chain
      reaches it iff every bound is exact.  The least such chain is the
      grade-0 piece (r*, e*), or (R, e) under stable bounds; it is proper
      unless it is the whole system.
    - w < 0, n >= 1: mu_i < mu_0 for i >= 1, so every profile has slope at
      most mu_0 > mu(E).  Only the grade-0 pieces with r_0*mu_0 an integer
      reach mu_0, and (r*, e*) is the least of them.

    The attestations are the bounds' hypotheses and are checked as the
    search checks them: every semistable flag first, in component order,
    and every stable flag only when the semistable side holds.
    """
    require_token("mode", mode, MODES)
    require_token("subsheaf_mode", subsheaf_mode, SUBSHEAF_MODES)
    require_isomorphisms(sys, "oracle")
    components = sys.components
    if sys.components_semistable is not True:  # then some component fails its check
        for i, comp in enumerate(components):
            require_flag(comp, SEMISTABLE, f"component {i}")
    rank, degree = components[0].rank, components[0].degree
    g = gcd(rank, degree)
    least = (rank // g, degree // g)
    n, d, w = sys.n, sys.context.dim, sys.context.omega_degree
    if w < 0 and n >= 1:
        return Verdict(NO, NO, SubsystemProfile((least,)), PROV_ORACLE)
    certificate = None
    if subsheaf_mode == STABLE:
        if sys.components_stable is not True:
            for i, comp in enumerate(components):
                require_flag(comp, STABLE, f"component {i}")
        if w == 0 and n >= 1:
            certificate = SubsystemProfile(((rank, degree),))
    elif w == 0 or n == 0:
        if least[0] < rank or n >= 1:
            certificate = SubsystemProfile((least,))
    elif least[0] < rank and (mode == CONSERVATIVE or d == 1):
        certificate = transport_subsystem(sys, BundleData(*least))
    if certificate is not None:
        return Verdict(YES, NO, certificate, PROV_ORACLE)
    return Verdict(YES, YES, provenance=PROV_ORACLE)


def check_declared(sys: HodgeSystem, profile: SubsystemProfile) -> Verdict:
    """Judge one declared invariant profile against the total slope.

    The profile must be entrywise plausible: ranks dominated by the
    component ranks, wherever a component carries a semistable
    attestation degree within the subsheaf bound, and at full rank degree
    at most the component's (the quotient is torsion).  A strictly larger
    slope refutes semistability; an equal slope refutes stability unless
    the profile is the whole system; anything else is inconclusive.

    The slopes are compared in integers by ``slope_excess``, against the
    system's totals summed when it was built.  At equal slopes the profile
    is the whole system exactly when its rank is the total rank: its ranks
    are then every component's, and by the full-rank rule so are its
    degrees.
    """
    components = sys.components
    if profile.support_top > sys.n:
        raise ValueError("rank domination violated: profile support exceeds the component range")
    rank = degree = 0
    for i, (rk, dg) in enumerate(profile.entries):
        comp = components[i]
        if rk > comp.rank:
            raise ValueError(f"rank domination violated at grade {i}: {rk} > {comp.rank}")
        if comp.semistable is True and dg > max_subsheaf_degree(rk, comp, SEMISTABLE):
            raise ValueError(
                f"degree at grade {i} exceeds the semistable subsheaf bound"
            )
        if rk == comp.rank and dg > comp.degree:
            raise ValueError(
                f"degree at grade {i} exceeds the component degree at full rank: "
                f"{dg} > {comp.degree}"
            )
        rank += rk
        degree += dg
    excess = slope_excess(degree, rank, sys.total_degree, sys.total_rank)
    if excess > 0:
        return Verdict(NO, NO, profile, PROV_DECLARED)
    if excess == 0:
        if rank == sys.total_rank:
            return Verdict(provenance=PROV_DECLARED_FULL)
        return Verdict(UNKNOWN, NO, profile, PROV_DECLARED)
    return Verdict(provenance=PROV_DECLARED_SLACK)


def _declared_verdict(sys: HodgeSystem) -> Verdict:
    """Judge every declared profile; the first that refutes semistability
    wins, then the first that refutes stability."""
    if not sys.theta:
        return Verdict(provenance="no declared profiles")
    verdicts = tuple(check_declared(sys, p) for p in sys.theta)
    return (first_no(verdicts, SEMISTABLE) or first_no(verdicts, STABLE)
            or Verdict(provenance="declared profiles do not destabilize"))


def _require_agreement(criterion: str, oracle: str, side: str) -> None:
    if UNKNOWN not in (criterion, oracle) and criterion != oracle:
        raise InconsistencyError(f"criterion and oracle disagree on {side}")


def system_verdict(
    sys: HodgeSystem,
    mode: str = MONOTONE,
) -> Verdict:
    """Decide a system of Hodge bundles.

    A declared system is judged by its declared profiles.  An isomorphism
    tower gets the criteria's verdict; when every component is attested
    semistable, the oracle cross-checks it and fills in what the criteria
    leave unknown.  The oracle is ``verdict_from_search``, which decides
    every tower in closed form; it runs under semistable bounds, or under
    stable bounds when the cotangent degree is positive and every
    component is attested stable (as the system recorded when built), so
    that its stability side is a check too.  Both are the oracle's own
    preconditions, read from the attestations, not from the criteria's
    answers.  A definite disagreement on either side raises
    InconsistencyError.
    """
    require_token("mode", mode, MODES)
    if sys.theta is not ISOMORPHISMS:
        return _declared_verdict(sys)
    criteria = criterion_semistable(sys), criterion_stable(sys)
    if sys.components_semistable is not True:
        return merge_verdicts(*criteria)
    check_stable = sys.context.omega_degree > 0 and sys.components_stable is True
    subsheaf_mode = STABLE if check_stable else SEMISTABLE
    oracle = verdict_from_search(sys, mode, subsheaf_mode)
    verdict = merge_verdicts(*criteria, oracle)
    # the merge keeps the criteria's answer on each side they decide
    _require_agreement(verdict.semistable, oracle.semistable, "semistability")
    if check_stable:
        _require_agreement(verdict.stable, oracle.stable, "stability")
    return verdict
