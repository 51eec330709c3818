from __future__ import annotations

import itertools
import json
import random
import re
import time
from collections.abc import Iterator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeslope import search_oracle
from hodgeslope.hodge_system import (
    NO,
    UNKNOWN,
    YES,
    HodgeSystem,
    ISOMORPHISMS,
    Verdict,
    derive_components,
    merge_verdicts,
    transport_subsystem,
)
from hodgeslope.profiles import SubsystemProfile
from hodgeslope.search_oracle import (
    CONSERVATIVE,
    MONOTONE,
    BudgetExceededError,
    MAX_RANK_CELLS,
    check_declared,
    max_slope_profile,
    system_verdict,
    verdict_from_search,
)
from hodgeslope.slope_core import (
    SEMISTABLE,
    STABLE,
    BundleData,
    GeometricContext,
    InconsistencyError,
    max_subsheaf_degree,
    require_flag,
    subsheaf_degree_row,
)

from support import (
    CountedBundle, curve, outcome, semistable_tower, slope, stable_tower, total_slope
)


#: The rank-chain modes and the subsheaf-bound modes.
MODES = (MONOTONE, CONSERVATIVE)
BOUNDS = (SEMISTABLE, STABLE)

#: Default budget of ``enumerate_profiles``, which visits every profile.
DEFAULT_PROFILE_BUDGET = 10_000_000


def profile_space_size(sys: HodgeSystem) -> int:
    """Upper bound on the number of rank assignments: prod(rank(E_i) + 1)."""
    size = 1
    for comp in sys.components:
        size *= comp.rank + 1
    return size


def _profiles(
    sys: HodgeSystem,
    bounds: list[list[int]],
    mode: str,
) -> Iterator[SubsystemProfile]:
    ranks = [c.rank for c in sys.components]
    step = search_oracle._rank_step(sys, mode)
    n = sys.n

    def extend(grade: int, top: int, acc: tuple[tuple[int, int], ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if grade > top:
            yield acc
            return
        hi = ranks[0] if grade == 0 else min(ranks[grade], step * acc[-1][0])
        for rk in range(1, hi + 1):
            yield from extend(grade + 1, top, acc + ((rk, bounds[grade][rk]),))

    for top in range(n + 1):
        for entries in extend(0, top, ()):
            if top == n and all(entries[i][0] == ranks[i] for i in range(n + 1)):
                continue  # the whole system is not a proper subobject
            yield SubsystemProfile(entries)


def enumerate_profiles(
    sys: HodgeSystem,
    mode: str = MONOTONE,
    subsheaf_mode: str = SEMISTABLE,
    budget: int = DEFAULT_PROFILE_BUDGET,
) -> Iterator[SubsystemProfile]:
    """Stream every admissible proper profile in a fixed deterministic
    order (by support length, then rank vector lexicographically).  The
    brute-force reference for ``max_slope_profile``: its degree bounds come
    from ``max_subsheaf_degree`` cell by cell, not from the solver's rows."""
    if sys.theta is not ISOMORPHISMS:
        raise ValueError("oracle requires isomorphism structure")
    size = profile_space_size(sys)
    if size > budget:
        raise BudgetExceededError(f"budget exceeded: {size} rank assignments, budget is {budget}")
    bounds = [
        [0] + [max_subsheaf_degree(r, comp, subsheaf_mode) for r in range(1, comp.rank + 1)]
        for comp in sys.components
    ]
    return _profiles(sys, bounds, mode)


def omega(d: int, w: int, stable: bool = False) -> GeometricContext:
    """Characteristic 0, with Omega of rank d and degree w attested
    semistable, and attested stable when ``stable`` is set."""
    return GeometricContext(0, d, w, omega_semistable=True, omega_stable=stable)


def example_tower(g: int = 2) -> HodgeSystem:
    return semistable_tower(2, -(2 * g - 2), omega(1, 2 * g - 2), 1)


def brute_max(
    sys: HodgeSystem,
    mode: str,
    subsheaf_mode: str,
    budget: int = DEFAULT_PROFILE_BUDGET,
):
    """Independent maximum: materialize the stream, compare with Fractions."""
    best = None
    for p in enumerate_profiles(sys, mode, subsheaf_mode, budget):
        key = (-slope(p), p.entries)
        if best is None or key < best[0]:
            best = (key, p)
    return None if best is None else best[1]


def dp_verdict(sys: HodgeSystem, mode: str, subsheaf_mode: str, solver=None):
    """The verdict composed from one Dinkelbach search per bound mode, each
    maximum compared with mu(E): the reference the closed form in
    ``verdict_from_search`` replaces.  ``solver`` swaps in another
    maximizer with ``max_slope_profile``'s signature."""
    solver = solver or max_slope_profile
    mu = total_slope(sys)
    best = solver(sys, mode, SEMISTABLE)
    if best is not None and slope(best) > mu:
        return Verdict(NO, NO, best, search_oracle.PROV_ORACLE)
    if subsheaf_mode == STABLE:
        best = solver(sys, mode, STABLE)
    if best is not None and slope(best) == mu:
        return Verdict(YES, NO, best, search_oracle.PROV_ORACLE)
    return Verdict(YES, YES, provenance=search_oracle.PROV_ORACLE)


FLAG_CHOICES = [(True, None), (True, True), (True, False), (None, None), (False, None)]


def flagged_tower(r0: int, e0: int, d: int, w: int, n: int, flags) -> HodgeSystem:
    """The tower's invariants with the given (semistable, stable) flags per
    component; ``flags`` is one pair for every component or a list."""
    ctx = omega(d, w)
    derived = derive_components(BundleData(r0, e0), ctx, n)
    if isinstance(flags, tuple):
        flags = [flags] * (n + 1)
    comps = tuple(BundleData(c.rank, c.degree, *f) for c, f in zip(derived.components, flags))
    return HodgeSystem(ctx, comps, ISOMORPHISMS)


class TestEnumerate:
    def test_small_tower(self):
        sys = semistable_tower(1, 0, omega(1, 2), 1)
        assert [p.entries for p in enumerate_profiles(sys)] == [((1, 0),)]

    def test_line_bundle_alone_has_no_proper_profiles(self):
        sys = semistable_tower(1, 0, omega(1, 2), 0)
        assert list(enumerate_profiles(sys)) == []

    def test_example_tower_hand_enumeration(self):
        profiles = {p.entries for p in enumerate_profiles(example_tower())}
        assert profiles == {
            ((1, -1),),
            ((2, -2),),
            ((1, -1), (1, 1)),
            ((2, -2), (1, 1)),
        }

    def test_full_profile_excluded(self):
        # a chain's rank grows at most step-fold per grade, so no proper
        # profile has full rank at the top grade: the solver leaves that one
        # cell out of its table.  (2, -2, d = 1, n = 1) is ``example_tower``.
        for r0, d, n in itertools.product((1, 2), (1, 2, 3), range(4)):
            sys = semistable_tower(r0, -2, omega(d, 2), n)
            full = tuple((c.rank, c.degree) for c in sys.components)
            top = sys.components[-1].rank
            for mode in MODES:
                for p in enumerate_profiles(sys, mode):
                    assert p.entries != full
                    assert p.support_top < n or p.entries[n][0] < top, (r0, d, n, mode)

    def test_declared_mode_rejected(self):
        declared = HodgeSystem(curve(2), (BundleData(1, 3),), ())
        with pytest.raises(ValueError, match="isomorphism structure"):
            enumerate_profiles(declared)

    def test_flag_precondition(self):
        sys = derive_components(BundleData(2, -2), curve(2), 1)  # no flags
        with pytest.raises(ValueError, match="flag precondition violated"):
            enumerate_profiles(sys)
        semi = example_tower()
        with pytest.raises(ValueError, match="flag precondition violated"):
            enumerate_profiles(semi, subsheaf_mode=STABLE)

    def test_budget_guard(self):
        sys = semistable_tower(3, 0, omega(2, 1), 3)
        assert profile_space_size(sys) == 4 * 7 * 13 * 25
        with pytest.raises(BudgetExceededError, match="budget exceeded"):
            enumerate_profiles(sys, budget=100)

    def test_monotone_stream_contained_in_conservative(self):
        for sys in (example_tower(), semistable_tower(2, 1, omega(2, 3), 2)):
            paper = {p.entries for p in enumerate_profiles(sys, MONOTONE)}
            conservative = {
                p.entries for p in enumerate_profiles(sys, CONSERVATIVE)
            }
            assert paper <= conservative

    def test_conservative_allows_growing_ranks(self):
        sys = semistable_tower(1, 0, omega(2, 1), 2)
        paper = {p.entries for p in enumerate_profiles(sys, MONOTONE)}
        conservative = {
            p.entries for p in enumerate_profiles(sys, CONSERVATIVE)
        }
        assert all(len({r for r, _ in p}) == 1 for p in paper)
        assert any(p[-1][0] > p[0][0] for p in conservative - paper)

    def test_deterministic_order(self):
        sys = semistable_tower(2, -3, omega(2, 2), 2)
        first = [p.entries for p in enumerate_profiles(sys)]
        second = [p.entries for p in enumerate_profiles(sys)]
        assert first == second

    def test_degrees_are_the_subsheaf_bounds(self):
        sys = example_tower()
        for p in enumerate_profiles(sys):
            for i, (rk, dg) in enumerate(p.entries):
                comp = sys.components[i]
                assert dg == (rk * comp.degree) // comp.rank


class TestMaxSlope:
    def test_example_tower(self):
        profile = max_slope_profile(example_tower())
        assert profile.entries == ((1, -1), (1, 1))
        assert slope(profile) == 0 == total_slope(example_tower())

    def test_small_tower(self):
        sys = semistable_tower(1, 0, omega(1, 2), 1)
        profile = max_slope_profile(sys)
        assert profile.entries == ((1, 0),)
        assert slope(profile) == 0 < total_slope(sys)

    def test_empty_stream_gives_none(self):
        assert max_slope_profile(semistable_tower(1, 0, omega(1, 2), 0)) is None

    def test_tie_break_is_lexicographic(self):
        # degree-zero cotangent, all slopes equal: the shortest smallest
        # entry list wins
        sys = semistable_tower(2, -2, omega(1, 0), 1)
        profile = max_slope_profile(sys)
        assert slope(profile) == Fraction(-1) == total_slope(sys)
        assert profile.entries == ((1, -1),)

    def test_matches_independent_scan(self):
        rng = random.Random(37)
        for _ in range(40):
            sys = semistable_tower(
                rng.randint(1, 3),
                rng.randint(-5, 5),
                omega(rng.randint(1, 2), rng.randint(0, 4)),
                rng.randint(0, 2),
            )
            mode = rng.choice(MODES)
            expected = brute_max(sys, mode, SEMISTABLE)
            actual = max_slope_profile(sys, mode)
            if expected is None:
                assert actual is None
            else:
                assert actual.entries == expected.entries
                assert slope(actual) == slope(expected)


@st.composite
def towers(draw, stable: bool):
    """Attested towers small enough to enumerate: the height is cut until
    prod(rank + 1) is at most 20,000."""
    r0, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    e0, w = draw(st.integers(-8, 8)), draw(st.integers(-4, 4))
    n = draw(st.integers(0, 4))
    build = stable_tower if stable else semistable_tower
    context = omega(d, w, stable)
    sys = build(r0, e0, context, n)
    while profile_space_size(sys) > 20_000:
        n -= 1
        sys = build(r0, e0, context, n)
    return sys


def same_result(actual, expected) -> bool:
    if expected is None or actual is None:
        return actual is expected
    return actual.entries == expected.entries


def bound_modes(sys: HodgeSystem) -> list[str]:
    """The subsheaf modes whose attestations every component carries."""
    modes = [SEMISTABLE]
    if all(c.stable is True for c in sys.components):
        modes.append(STABLE)
    return modes


def count_steps(patch) -> list:
    """Record each call of the solver's DP step, ``_best_chain``."""
    calls = []
    original = search_oracle._best_chain

    def counted(*args):
        calls.append(args)
        return original(*args)

    patch.setattr(search_oracle, "_best_chain", counted)
    return calls


@st.composite
def flagged_towers(draw):
    """Towers of either cotangent-degree sign whose components carry any
    mix of flags, including none; the solver's tables stay small."""
    r0, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    e0, w = draw(st.integers(-12, 12)), draw(st.integers(-3, 3))
    n = draw(st.integers(0, 5))
    uniform = draw(st.sampled_from(FLAG_CHOICES[:2]))
    flags = draw(st.one_of(
        st.just(uniform),
        st.lists(st.sampled_from(FLAG_CHOICES), min_size=n + 1, max_size=n + 1),
    ))
    return flagged_tower(r0, e0, d, w, n, flags)


class TestSolverAgainstBruteForce:
    """The Dinkelbach solver agrees with brute-force enumeration: the same
    maximal slope, the same tie-broken certificate.  The closed-form
    verdict agrees with the verdict both compose."""

    @settings(max_examples=150, deadline=None)
    @given(sys=st.one_of(towers(stable=True), towers(stable=False)), mode=st.sampled_from(MODES))
    def test_max_slope_profile(self, sys, mode):
        for subsheaf_mode in bound_modes(sys):
            expected = brute_max(sys, mode, subsheaf_mode)
            assert same_result(max_slope_profile(sys, mode, subsheaf_mode), expected)

    @settings(max_examples=400, deadline=None)
    @given(sys=flagged_towers(), mode=st.sampled_from(MODES),
           subsheaf_mode=st.sampled_from(BOUNDS))
    def test_verdict_from_search(self, sys, mode, subsheaf_mode):
        # the closed form against the solver's composition, error texts
        # included, and against the brute force where it can enumerate
        closed = outcome(verdict_from_search, sys, mode, subsheaf_mode)
        assert closed == outcome(dp_verdict, sys, mode, subsheaf_mode)
        if isinstance(closed, Verdict) and profile_space_size(sys) <= 20_000:
            assert closed == dp_verdict(sys, mode, subsheaf_mode, brute_max)

    def test_past_the_old_gate(self):
        # 24,309 chains among 9^9 rank assignments: the default enumeration
        # budget refuses it, an explicit one lets the brute force run
        sys = semistable_tower(8, -3, omega(1, 2), 8)
        assert profile_space_size(sys) > DEFAULT_PROFILE_BUDGET
        for mode in MODES:
            expected = brute_max(sys, mode, SEMISTABLE, budget=10**9)
            assert same_result(max_slope_profile(sys, mode), expected)

    def test_tall_tower_is_fast(self):
        sys = stable_tower(50, 1, omega(1, 2, stable=True), 50)
        start = time.perf_counter()
        verdict = verdict_from_search(sys, subsheaf_mode=STABLE)
        assert time.perf_counter() - start < 1.0
        assert (verdict.semistable, verdict.stable) == (YES, YES)

    def test_cell_limit(self):
        # ranks 3^i: 7,174,452 reachable cells in conservative mode, 15 in
        # paper mode.  The solver refuses the first at once; the closed
        # form decides both, and check-system merges its answer.
        sys = semistable_tower(1, 0, omega(3, 2), 14)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="search too large"):
            max_slope_profile(sys, CONSERVATIVE)
        assert time.perf_counter() - start < 0.1
        assert sum(c.rank for c in sys.components) > MAX_RANK_CELLS
        assert max_slope_profile(sys, MONOTONE) is not None
        for mode in MODES:
            verdict = verdict_from_search(sys, mode)
            assert (verdict.semistable, verdict.stable, verdict.certificate) == (
                YES, YES, None
            )
            decided = system_verdict(sys, mode)
            assert (decided.semistable, decided.stable) == (YES, YES)
            assert decided.provenance == "semistable components in an isomorphism tower; oracle"


COST_CASES = [
    (semistable_tower(1, 1, omega(2, 2), 6), SEMISTABLE),
    (semistable_tower(2, -2, omega(1, 0), 1), SEMISTABLE),  # maximum equals mu
    (stable_tower(1, 1, omega(2, 2, stable=True), 6), STABLE),
    (stable_tower(3, -1, omega(2, 2, stable=True), 4), STABLE),
]
COST_IDS = ["semistable-d2", "semistable-tie", "stable-d2", "stable-r3"]


class TestSearchCost:
    """The verdict takes no DP step at all."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("sys, subsheaf_mode", COST_CASES, ids=COST_IDS)
    def test_verdict_takes_no_step(self, monkeypatch, sys, subsheaf_mode, mode):
        calls = count_steps(monkeypatch)
        verdict = verdict_from_search(sys, mode, subsheaf_mode)
        assert verdict.semistable == YES
        assert calls == []

    def test_degree_bound_rows_match_cells(self):
        # paper-mode caps fall below the ranks, conservative ones reach
        # them, and every tower has negative degrees.  The top row ends one
        # short of rank(E_n) exactly when its cap reaches it: only the whole
        # system has that rank there.
        samples = [
            stable_tower(1, -3, omega(2, 1, stable=True), 4),
            stable_tower(3, -5, omega(2, 2, stable=True), 3),
            stable_tower(2, -7, omega(1, 0, stable=True), 2),
        ]
        short = full = lowered = 0
        for sys in samples:
            assert any(c.degree < 0 for c in sys.components)
            for mode, subsheaf_mode in itertools.product(MODES, BOUNDS):
                step = search_oracle._rank_step(sys, mode)
                caps = list(itertools.accumulate(
                    (c.rank for c in sys.components), lambda cap, rank: min(rank, step * cap)
                ))
                rows = search_oracle._degree_bounds(sys, mode, subsheaf_mode)
                for i, (row, comp) in enumerate(zip(rows, sys.components)):
                    cap = len(row) - 1
                    short += cap < comp.rank
                    full += cap == comp.rank
                    if i == sys.n and caps[i] == comp.rank:
                        assert cap == comp.rank - 1
                        lowered += 1
                    else:
                        assert cap == caps[i]
                    assert row == [0] + [
                        max_subsheaf_degree(r, comp, subsheaf_mode) for r in range(1, cap + 1)
                    ]
        assert short and full and lowered


class TestClosedForm:
    """``verdict_from_search`` decides in closed form.  It must return what
    the Dinkelbach composition ``dp_verdict`` returns, certificate and
    error text included (see also ``TestSolverAgainstBruteForce``)."""

    def test_grid_matches_the_solver(self):
        # every stable-attested tower with r0 <= 6, d <= 3, -2 <= w <= 3,
        # n <= 4 and |e0| <= r0, which covers every residue of e0 mod r0 at
        # both signs, in both rank-chain and bound modes
        compared = 0
        for r0, d, w, n in itertools.product(range(1, 7), range(1, 4), range(-2, 4), range(5)):
            for e0 in range(-r0, r0 + 1):
                sys = flagged_tower(r0, e0, d, w, n, (True, True))
                for mode, subsheaf_mode in itertools.product(MODES, BOUNDS):
                    expected = dp_verdict(sys, mode, subsheaf_mode)
                    assert verdict_from_search(sys, mode, subsheaf_mode) == expected, (
                        r0, e0, d, w, n, mode, subsheaf_mode
                    )
                    compared += 1
        assert compared == 3 * 6 * 5 * sum(2 * r0 + 1 for r0 in range(1, 7)) * 4

    @pytest.mark.parametrize(
        "r0, e0, d, n, certificate",
        [(1, 1, 2, 18, None), (3, 3, 3, 14, (1, 1)), (4, 2, 2, 60, (2, 1))],
        ids=["r1-d2-n18", "r3-d3-n14", "r4-d2-n60"],
    )
    def test_past_the_solver_limit(self, r0, e0, d, n, certificate):
        # conservative towers the solver refuses, decided at once; the
        # certificate is the transport of the least exact base piece
        sys = semistable_tower(r0, e0, omega(d, 2), n)
        with pytest.raises(BudgetExceededError, match="search too large"):
            max_slope_profile(sys, CONSERVATIVE)
        start = time.perf_counter()
        verdict = verdict_from_search(sys, CONSERVATIVE)
        assert time.perf_counter() - start < 0.1
        assert verdict.semistable == YES
        if certificate is None:
            assert (verdict.stable, verdict.certificate) == (YES, None)
        else:
            assert verdict.stable == NO
            assert verdict.certificate == transport_subsystem(sys, BundleData(*certificate))
            assert slope(verdict.certificate) == total_slope(sys)

    def test_flag_errors_in_component_order(self):
        # the semistable flags are checked first, every one of them, and
        # the stable flags only when the semistable side holds
        missing = flagged_tower(2, 1, 1, 2, 2, [(True, True), (True, None), (None, None)])
        for subsheaf_mode in BOUNDS:
            with pytest.raises(ValueError, match="component 2 is not flagged semistable"):
                verdict_from_search(missing, subsheaf_mode=subsheaf_mode)
        unstable = flagged_tower(2, 1, 1, 2, 2, [(True, True), (True, None), (True, False)])
        with pytest.raises(ValueError, match="component 1 is not flagged stable"):
            verdict_from_search(unstable, subsheaf_mode=STABLE)
        # a negative cotangent degree refutes semistability before the
        # stable flags are looked at
        falling = flagged_tower(2, 1, 1, -2, 2, [(True, True), (True, None), (True, False)])
        verdict = verdict_from_search(falling, subsheaf_mode=STABLE)
        assert (verdict.semistable, verdict.certificate.entries) == (NO, ((2, 1),))

    def test_each_attestation_read_once_per_check(self):
        # the system records "every component attested" when it is built,
        # and the criteria and the oracle read the record, not the flags
        ctx = GeometricContext(0, 1, 2, omega_semistable=True, omega_stable=True)
        tower = derive_components(BundleData(1, 1), ctx, 3)
        CountedBundle.reads.clear()
        comps = tuple(CountedBundle(c.rank, c.degree, True, True) for c in tower.components)
        sys = HodgeSystem(ctx, comps, ISOMORPHISMS)
        verdict = system_verdict(sys)
        assert (verdict.semistable, verdict.stable) == (YES, YES)
        verdict_from_search(sys, subsheaf_mode=STABLE)
        assert (CountedBundle.reads["semistable"], CountedBundle.reads["stable"]) == (4, 4)

    def test_semistable_tower_reads_each_flag_once(self):
        # both criteria and the oracle run on this tower, and all of them
        # read the record the system made when it was built
        ctx = GeometricContext(0, 1, 2, omega_semistable=True)
        tower = derive_components(BundleData(2, 1), ctx, 3)
        CountedBundle.reads.clear()
        comps = tuple(CountedBundle(c.rank, c.degree, True) for c in tower.components)
        verdict = system_verdict(HodgeSystem(ctx, comps, ISOMORPHISMS))
        assert (verdict.semistable, verdict.stable) == (YES, YES)
        assert (CountedBundle.reads["semistable"], CountedBundle.reads["stable"]) == (4, 4)

    def test_oracle_bounds_follow_the_attestations_not_the_criteria(self, monkeypatch):
        # a sound stability rule (stable E_0, semistable E_i, w > 0) may
        # answer yes on this tower; the oracle must still run under
        # semistable bounds, since only E_0 is attested stable
        sys = flagged_tower(2, 1, 1, 2, 2, [(True, True), (True, None), (True, None)])
        stable = Verdict(YES, YES, provenance="stable base component")
        monkeypatch.setattr(search_oracle, "criterion_stable", lambda sys: stable)
        verdict = system_verdict(sys)
        assert (verdict.semistable, verdict.stable) == (YES, YES)


class TestVerdictFromSearch:
    def test_example_tower(self):
        verdict = verdict_from_search(example_tower())
        assert verdict.semistable == YES
        assert verdict.stable == NO
        assert slope(verdict.certificate) == total_slope(example_tower())

    def test_strictly_below_gives_both_yes(self):
        verdict = verdict_from_search(semistable_tower(1, 0, omega(1, 2), 2))
        assert verdict.semistable == YES
        assert verdict.stable == YES
        assert verdict.certificate is None

    def test_equal_slope_at_zero_cotangent_degree(self):
        verdict = verdict_from_search(semistable_tower(2, -2, omega(1, 0), 1))
        assert verdict.stable == NO
        assert verdict.certificate.entries == ((1, -1),)
        assert slope(verdict.certificate) == Fraction(-1)

    def test_empty_stream(self):
        verdict = verdict_from_search(semistable_tower(1, 0, omega(1, 2), 0))
        assert (verdict.semistable, verdict.stable) == (YES, YES)

    def test_flag_precondition(self):
        sys = derive_components(BundleData(2, -2), curve(2), 1)
        with pytest.raises(ValueError, match="flag precondition violated"):
            verdict_from_search(sys)

    def test_stable_bounds_verdict(self):
        sys = stable_tower(2, 1, omega(1, 2, stable=True), 1)
        verdict = verdict_from_search(sys, subsheaf_mode=STABLE)
        assert verdict.stable == YES
        # integral-slope components: the strict bound is what rescues stability
        integral = stable_tower(2, 2, omega(1, 2, stable=True), 1)
        strict = verdict_from_search(integral, subsheaf_mode=STABLE)
        assert strict.stable == YES
        loose = verdict_from_search(integral, subsheaf_mode=SEMISTABLE)
        assert loose.stable == NO


class TestCheckDeclared:
    def test_positive_invariant_line(self):
        e0 = BundleData(1, 4, semistable=True, stable=True)
        e1 = BundleData(1, -4, semistable=True, stable=True)
        witness = SubsystemProfile(((1, 4),))
        sys = HodgeSystem(curve(2), (e0, e1), (witness,))
        verdict = check_declared(sys, witness)
        assert verdict.semistable == NO
        assert verdict.certificate is witness

    def test_unstable_component_example(self):
        e0 = BundleData(1, 1, semistable=True, stable=True)
        e1 = BundleData(2, -1, semistable=False)
        witness = SubsystemProfile(((1, 1),))
        sys = HodgeSystem(curve(2), (e0, e1), (witness,))
        verdict = check_declared(sys, witness)
        assert verdict.semistable == NO
        assert slope(witness) == 1 > total_slope(sys) == 0

    def test_full_profile_suppressed(self):
        sys = example_tower()
        full = SubsystemProfile(tuple((c.rank, c.degree) for c in sys.components))
        verdict = check_declared(sys, full)
        assert verdict.semistable == UNKNOWN
        assert verdict.stable == UNKNOWN

    def test_equal_slope_proper_profile_refutes_stability(self):
        sys = example_tower()
        witness = SubsystemProfile(((1, -1), (1, 1)))
        verdict = check_declared(sys, witness)
        assert verdict.semistable == UNKNOWN
        assert verdict.stable == NO

    def test_rank_domination_errors(self):
        sys = example_tower()
        with pytest.raises(ValueError, match="rank domination violated at grade 0"):
            check_declared(sys, SubsystemProfile(((3, 0),)))
        with pytest.raises(ValueError, match="support exceeds"):
            check_declared(sys, SubsystemProfile(((1, -1), (1, 1), (1, 1))))

    def test_degree_bound_checked_when_flagged(self):
        sys = example_tower()
        with pytest.raises(ValueError, match="exceeds the semistable subsheaf bound"):
            check_declared(sys, SubsystemProfile(((1, 0),)))

    def test_full_rank_degree_bounded_by_component(self):
        # the quotient of a full-rank subsheaf is torsion, so no attestation
        # is needed for this bound
        sys = HodgeSystem(curve(2), (BundleData(2, 0), BundleData(1, 0)), ())
        with pytest.raises(ValueError, match="exceeds the component degree at full rank"):
            check_declared(sys, SubsystemProfile(((2, 5),)))
        with pytest.raises(ValueError, match="exceeds the component degree at full rank"):
            check_declared(sys, SubsystemProfile(((1, 9), (1, 1))))
        assert check_declared(sys, SubsystemProfile(((2, 0),))).semistable == UNKNOWN

    def test_degree_unchecked_without_flag(self):
        e0 = BundleData(1, 1, semistable=True, stable=True)
        e1 = BundleData(2, -1, semistable=False)
        sys = HodgeSystem(curve(2), (e0, e1), ())
        # grade 1 carries no semistable attestation: any degree is plausible
        verdict = check_declared(sys, SubsystemProfile(((1, 1), (1, 5))))
        assert verdict.semistable == NO


def reference_check_declared(sys: HodgeSystem, profile: SubsystemProfile) -> Verdict:
    """``check_declared`` as it compared ``Fraction`` slopes and tested the
    whole system entry by entry; the integer comparison must agree."""
    components = sys.components
    if profile.support_top > sys.n:
        raise ValueError("rank domination violated: profile support exceeds the component range")
    for i, (rk, dg) in enumerate(profile.entries):
        comp = components[i]
        if rk > comp.rank:
            raise ValueError(f"rank domination violated at grade {i}: {rk} > {comp.rank}")
        if comp.semistable is True and dg > max_subsheaf_degree(rk, comp, SEMISTABLE):
            raise ValueError(f"degree at grade {i} exceeds the semistable subsheaf bound")
        if rk == comp.rank and dg > comp.degree:
            raise ValueError(
                f"degree at grade {i} exceeds the component degree at full rank: "
                f"{dg} > {comp.degree}"
            )
    mu = Fraction(sum(c.degree for c in components), sum(c.rank for c in components))
    s = Fraction(sum(d for _, d in profile.entries), sum(r for r, _ in profile.entries))
    if s > mu:
        return Verdict(NO, NO, profile, search_oracle.PROV_DECLARED)
    if s == mu:
        full = profile.support_top == sys.n and profile.entries == tuple(
            (c.rank, c.degree) for c in components
        )
        if full:
            return Verdict(provenance=search_oracle.PROV_DECLARED_FULL)
        return Verdict(UNKNOWN, NO, profile, search_oracle.PROV_DECLARED)
    return Verdict(provenance=search_oracle.PROV_DECLARED_SLACK)


def random_declared_case(rng: random.Random) -> tuple[HodgeSystem, SubsystemProfile]:
    """A declared system of 1 to 5 components with mixed flags, and a
    profile that may break rank domination (in rank or support), the
    semistable bound or the full-rank rule, or may sit on the bounds."""
    comps = tuple(
        BundleData(rng.randint(1, 4), rng.randint(-6, 6), *rng.choice(FLAG_CHOICES))
        for _ in range(rng.randint(1, 5))
    )
    sys = HodgeSystem(curve(rng.randint(-2, 2)), comps, ())
    kind = rng.randrange(3)
    if kind == 0:  # anything, often out of range
        entries = [
            (rng.randint(1, 5), rng.randint(-8, 8)) for _ in range(rng.randint(1, len(comps) + 1))
        ]
    elif kind == 1:  # on or next to each bound
        entries = []
        for comp in comps[: rng.randint(1, len(comps))]:
            rank = rng.randint(1, comp.rank)
            entries.append((rank, rank * comp.degree // comp.rank + rng.choice((-1, 0, 0, 1))))
    else:  # the whole system, or all of it but the last piece
        entries = [(c.rank, c.degree) for c in comps]
        if len(entries) > 1 and rng.random() < 0.5:
            entries.pop()
    return sys, SubsystemProfile(tuple(entries))


def declared_outcome_kind(result) -> str:
    """An outcome's error text with its numbers masked, or its verdict's
    sides and provenance."""
    kind, value = result
    if kind == "raised":
        return re.sub(r"-?\d+", "#", value)
    return f"{value.semistable}/{value.stable} {value.provenance}"


class TestCheckDeclaredAgainstFractions:
    @settings(max_examples=500, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_the_fraction_reference(self, rng):
        sys, profile = random_declared_case(rng)
        assert outcome(check_declared, sys, profile) == outcome(
            reference_check_declared, sys, profile
        )

    def test_sweep_reaches_every_outcome(self):
        rng = random.Random(15)
        kinds = set()
        for _ in range(3000):
            sys, profile = random_declared_case(rng)
            result = outcome(check_declared, sys, profile)
            assert result == outcome(reference_check_declared, sys, profile)
            kinds.add(declared_outcome_kind(result))
        assert kinds == {
            "rank domination violated: profile support exceeds the component range",
            "rank domination violated at grade #: # > #",
            "degree at grade # exceeds the semistable subsheaf bound",
            "degree at grade # exceeds the component degree at full rank: # > #",
            "no/no " + search_oracle.PROV_DECLARED,
            "unknown/no " + search_oracle.PROV_DECLARED,
            "unknown/unknown " + search_oracle.PROV_DECLARED_FULL,
            "unknown/unknown " + search_oracle.PROV_DECLARED_SLACK,
        }


def test_transport_violations_are_conservative_admissible():
    rng = random.Random(41)
    for _ in range(200):
        d = rng.randint(1, 2)
        r0 = rng.randint(1, 3)
        e0 = rng.randint(-5, 5)
        ctx = GeometricContext(0, d, rng.randint(0, 4), omega_semistable=True)
        sys = derive_components(BundleData(r0, e0), ctx, rng.randint(0, 3))
        rf = rng.randint(1, r0)
        ef = (rf * e0) // r0 + rng.randint(1, 3)
        f0 = BundleData(rf, ef)
        if slope(f0) <= slope(sys.components[0]):
            continue
        profile = transport_subsystem(sys, f0)
        assert slope(profile) > total_slope(sys)
        ranks = [r for r, _ in profile.entries]
        for i, comp in enumerate(sys.components):
            assert ranks[i] <= comp.rank
        for prev, cur in zip(ranks, ranks[1:]):
            assert cur <= d * prev


def test_conservative_mode_never_violates_within_sweep():
    # discrepancy hunt for the rank-chain question: a conservative-only
    # violating profile must be reported, never silently resolved
    findings = []
    for r0, n, d, w, e0 in itertools.product(
        range(1, 3), range(0, 3), (1, 2), range(0, 3), range(-3, 4)
    ):
        sys = semistable_tower(r0, e0, omega(d, w), n)
        mu = total_slope(sys)
        paper = max_slope_profile(sys, MONOTONE)
        conservative = max_slope_profile(sys, CONSERVATIVE)
        paper_violates = paper is not None and slope(paper) > mu
        conservative_violates = conservative is not None and slope(conservative) > mu
        if conservative_violates and not paper_violates:
            findings.append((r0, e0, d, w, n, conservative.entries))
    assert not findings, f"conservative-only violations found: {findings}"


def parsed(token: str) -> str:
    """``token`` as JSON reads it: equal to the constant, another object."""
    copy = json.loads(json.dumps(token))
    assert copy == token and copy is not token
    return copy


def same(token: str) -> str:
    return token


WITNESS = SubsystemProfile(((1, 0),))
ANSWER_PAIRS = list(itertools.product((YES, NO, UNKNOWN), repeat=2))


class TestTokensParsedFromJson:
    """Answers and modes read from JSON, as a library caller's may be,
    behave exactly as the constants do, since they are compared with ==."""

    @pytest.mark.parametrize("semistable, stable", ANSWER_PAIRS)
    @pytest.mark.parametrize("certificate", (None, WITNESS))
    def test_verdict_rules(self, semistable, stable, certificate):
        # stable=yes needs semistable=yes; semistable=no needs a certificate
        # and forces stable=no
        expected = outcome(Verdict, semistable, stable, certificate)
        assert outcome(Verdict, parsed(semistable), parsed(stable), certificate) == expected

    def test_merge_verdicts(self):
        def verdicts(token):
            return [
                Verdict(token(s), token(t), WITNESS if NO in (s, t) else None, f"{s}/{t}")
                for s, t in ANSWER_PAIRS
                if t != YES or s == YES
            ]

        constants, tokens = verdicts(same), verdicts(parsed)
        for i, j in itertools.product(range(len(constants)), repeat=2):
            assert merge_verdicts(tokens[i], tokens[j]) == merge_verdicts(constants[i], constants[j])

    @pytest.mark.parametrize("semistable, stable, disagreement", [
        (YES, YES, None),
        (YES, NO, "criterion and oracle disagree on stability"),
        (NO, NO, "criterion and oracle disagree on semistability"),
    ])
    def test_system_verdict_agreement(self, monkeypatch, semistable, stable, disagreement):
        # every component stable at w > 0: the criteria answer yes/yes, and
        # the oracle runs under stable bounds, so both sides are compared
        sys = stable_tower(2, 1, curve(2), 1)
        results = []
        for token in (same, parsed):
            fake = Verdict(token(semistable), token(stable), WITNESS if stable == NO else None)
            monkeypatch.setattr(search_oracle, "verdict_from_search", lambda *a: fake)
            try:
                results.append(system_verdict(sys))
            except InconsistencyError as exc:
                results.append(str(exc))
        assert results[0] == results[1]
        if disagreement:
            assert results[1] == disagreement
        else:
            assert isinstance(results[1], Verdict)

    @pytest.mark.parametrize("sys", [
        # only the conservative class holds the transport of (1, 0) at d = 2
        semistable_tower(2, 0, omega(2, 2), 1),
        # at w = 0 the stable bounds certify the base, not its half
        stable_tower(2, 2, omega(1, 0, stable=True), 1),
        # the stable bounds refuse a base not attested stable
        semistable_tower(2, 1, curve(2), 1),
    ])
    def test_verdict_from_search_modes(self, sys):
        answers = set()
        for mode, bound in itertools.product(MODES, BOUNDS):
            expected = outcome(verdict_from_search, sys, mode, bound)
            assert outcome(verdict_from_search, sys, parsed(mode), parsed(bound)) == expected
            answers.add(repr(expected))
        assert len(answers) > 1


#: Tokens a library caller may misspell: a case, the other vocabulary's
#: token, no token at all, and values that are not strings (a list is
#: unhashable, so the type is tested before the lookup).
MISSPELLED = ("Conservative", "Paper", "Stable", "Semistable", "bogus", "", None, 1, ["paper"])
MODE_TEXT = "mode must be one of ['conservative', 'paper']"
BOUND_TEXT = "subsheaf_mode must be one of ['semistable', 'stable']"
FLAG_TEXT = "mode must be one of ['semistable', 'stable']"


class TestModeTokens:
    """Every library entry point that reads a mode refuses a token outside
    its vocabulary, whatever the system, instead of running another mode."""

    TOWER = stable_tower(2, 1, curve(2), 1)
    # besides a tower the oracle decides, systems that a valid mode refuses
    # on other grounds, or answers before the mode would be read
    SYSTEMS = (
        TOWER,
        HodgeSystem(curve(2), (BundleData(1, 3),), ()),  # declared: no oracle
        HodgeSystem(curve(2), (BundleData(2, 1),)),  # no attestation: criteria only
        semistable_tower(1, 0, curve(-1), 1),  # w < 0: answered before the bounds
    )

    @pytest.mark.parametrize("value", MISSPELLED)
    @pytest.mark.parametrize("sys", SYSTEMS)
    def test_search_entry_points_refuse(self, sys, value):
        for call, text in (
            (lambda: verdict_from_search(sys, value), MODE_TEXT),
            (lambda: verdict_from_search(sys, MONOTONE, value), BOUND_TEXT),
            (lambda: max_slope_profile(sys, value), MODE_TEXT),
            (lambda: max_slope_profile(sys, MONOTONE, value), BOUND_TEXT),
            (lambda: system_verdict(sys, value), MODE_TEXT),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == text

    @pytest.mark.parametrize("value", MISSPELLED)
    @pytest.mark.parametrize("flags", [(True, True), (None, None)])
    def test_bound_entry_points_refuse(self, value, flags):
        bundle = BundleData(2, 1, *flags)
        for call in (
            lambda: require_flag(bundle, value),
            lambda: subsheaf_degree_row(bundle, value, range(1, 3)),
            lambda: max_subsheaf_degree(1, bundle, value),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == FLAG_TEXT

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_tokens_read_from_json_are_accepted(self, mode, bound):
        sys, bundle = self.TOWER, self.TOWER.components[0]
        for fn, args in (
            (max_slope_profile, (sys, mode, bound)),
            (system_verdict, (sys, mode)),
            (require_flag, (bundle, bound)),
            (max_subsheaf_degree, (1, bundle, bound)),
        ):
            assert fn(*[parsed(a) if isinstance(a, str) else a for a in args]) == fn(*args)
