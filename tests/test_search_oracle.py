from __future__ import annotations

import itertools
import random
import time
from collections.abc import Iterator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeslope import search_oracle
from hodgeslope.hodge_system import (
    Answer,
    Declared,
    HodgeSystem,
    ISOMORPHISMS,
    criteria_verdict,
    derive_components,
    total_slope,
    transport_subsystem,
)
from hodgeslope.profiles import SubsystemProfile
from hodgeslope.search_oracle import (
    BudgetExceededError,
    ConstraintMode,
    MAX_RANK_CELLS,
    check_declared,
    max_slope_profile,
    profile_space_size,
    system_verdict,
    verdict_from_search,
)
from hodgeslope.slope_core import BundleData, GeometricContext, SubsheafMode, slope


#: Default budget of ``enumerate_profiles``, which visits every profile.
DEFAULT_PROFILE_BUDGET = 10_000_000


def _profiles(
    sys: HodgeSystem,
    bounds: list[list[int]],
    mode: ConstraintMode,
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
    mode: ConstraintMode = ConstraintMode.MONOTONE,
    subsheaf_mode: SubsheafMode = SubsheafMode.SEMISTABLE,
    budget: int = DEFAULT_PROFILE_BUDGET,
) -> Iterator[SubsystemProfile]:
    """Stream every admissible proper profile in a fixed deterministic
    order (by support length, then rank vector lexicographically).  The
    brute-force reference for ``max_slope_profile``."""
    bounds = search_oracle._degree_bounds(sys, mode, subsheaf_mode, budget)
    return _profiles(sys, bounds, mode)


def curve(w: int, char: int = 0) -> GeometricContext:
    return GeometricContext(char, 1, w, omega_semistable=True, omega_stable=True)


def semistable_tower(r0: int, e0: int, d: int, w: int, n: int) -> HodgeSystem:
    ctx = GeometricContext(0, d, w, omega_semistable=True)
    return derive_components(BundleData(r0, e0, semistable=True), ctx, n)


def stable_tower(r0: int, e0: int, d: int, w: int, n: int) -> HodgeSystem:
    # build the tower by the formulas, flagging every component stable
    ctx = GeometricContext(0, d, w, omega_semistable=True, omega_stable=True)
    derived = derive_components(BundleData(r0, e0), ctx, n)
    comps = tuple(
        BundleData(c.rank, c.degree, semistable=True, stable=True)
        for c in derived.components
    )
    return HodgeSystem(ctx, comps, ISOMORPHISMS)


def example_tower(g: int = 2) -> HodgeSystem:
    return semistable_tower(2, -(2 * g - 2), 1, 2 * g - 2, 1)


def brute_max(
    sys: HodgeSystem,
    mode: ConstraintMode,
    subsheaf_mode: SubsheafMode,
    budget: int = DEFAULT_PROFILE_BUDGET,
):
    """Independent maximum: materialize the stream, compare with Fractions."""
    best = None
    for p in enumerate_profiles(sys, mode, subsheaf_mode, budget):
        key = (-p.slope, p.entries)
        if best is None or key < best[0]:
            best = (key, p)
    return None if best is None else (best[1], best[1].slope)


class TestEnumerate:
    def test_small_tower(self):
        sys = semistable_tower(1, 0, 1, 2, 1)
        assert [p.entries for p in enumerate_profiles(sys)] == [((1, 0),)]

    def test_line_bundle_alone_has_no_proper_profiles(self):
        sys = semistable_tower(1, 0, 1, 2, 0)
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
        sys = example_tower()
        full = tuple((c.rank, c.degree) for c in sys.components)
        assert full not in {p.entries for p in enumerate_profiles(sys)}

    def test_declared_mode_rejected(self):
        declared = HodgeSystem(curve(2), (BundleData(1, 3),), Declared())
        with pytest.raises(ValueError, match="isomorphism structure"):
            enumerate_profiles(declared)

    def test_flag_precondition(self):
        sys = derive_components(BundleData(2, -2), curve(2), 1)  # no flags
        with pytest.raises(ValueError, match="flag precondition violated"):
            enumerate_profiles(sys)
        semi = example_tower()
        with pytest.raises(ValueError, match="flag precondition violated"):
            enumerate_profiles(semi, subsheaf_mode=SubsheafMode.STABLE)

    def test_budget_guard(self):
        sys = semistable_tower(3, 0, 2, 1, 3)
        assert profile_space_size(sys) == 4 * 7 * 13 * 25
        with pytest.raises(BudgetExceededError, match="budget exceeded"):
            enumerate_profiles(sys, budget=100)

    def test_monotone_stream_contained_in_conservative(self):
        for sys in (example_tower(), semistable_tower(2, 1, 2, 3, 2)):
            paper = {p.entries for p in enumerate_profiles(sys, ConstraintMode.MONOTONE)}
            conservative = {
                p.entries for p in enumerate_profiles(sys, ConstraintMode.CONSERVATIVE)
            }
            assert paper <= conservative

    def test_conservative_allows_growing_ranks(self):
        sys = semistable_tower(1, 0, 2, 1, 2)
        paper = {p.entries for p in enumerate_profiles(sys, ConstraintMode.MONOTONE)}
        conservative = {
            p.entries for p in enumerate_profiles(sys, ConstraintMode.CONSERVATIVE)
        }
        assert all(len({r for r, _ in p}) == 1 for p in paper)
        assert any(p[-1][0] > p[0][0] for p in conservative - paper)

    def test_deterministic_order(self):
        sys = semistable_tower(2, -3, 2, 2, 2)
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
        profile, s = max_slope_profile(example_tower())
        assert profile.entries == ((1, -1), (1, 1))
        assert s == 0 == total_slope(example_tower())

    def test_small_tower(self):
        sys = semistable_tower(1, 0, 1, 2, 1)
        profile, s = max_slope_profile(sys)
        assert profile.entries == ((1, 0),)
        assert s == 0 < total_slope(sys)

    def test_empty_stream_gives_none(self):
        assert max_slope_profile(semistable_tower(1, 0, 1, 2, 0)) is None

    def test_tie_break_is_lexicographic(self):
        # degree-zero cotangent, all slopes equal: the shortest smallest
        # entry list wins
        sys = semistable_tower(2, -2, 1, 0, 1)
        profile, s = max_slope_profile(sys)
        assert s == Fraction(-1) == total_slope(sys)
        assert profile.entries == ((1, -1),)

    def test_matches_independent_scan(self):
        rng = random.Random(37)
        for _ in range(40):
            sys = semistable_tower(
                rng.randint(1, 3),
                rng.randint(-5, 5),
                rng.randint(1, 2),
                rng.randint(0, 4),
                rng.randint(0, 2),
            )
            mode = rng.choice(list(ConstraintMode))
            expected = brute_max(sys, mode, SubsheafMode.SEMISTABLE)
            actual = max_slope_profile(sys, mode)
            if expected is None:
                assert actual is None
            else:
                assert actual[0].entries == expected[0].entries
                assert actual[1] == expected[1]


@st.composite
def towers(draw, stable: bool):
    """Attested towers small enough to enumerate: the height is cut until
    prod(rank + 1) is at most 20,000."""
    r0, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    e0, w = draw(st.integers(-8, 8)), draw(st.integers(0, 4))
    n = draw(st.integers(0, 4))
    build = stable_tower if stable else semistable_tower
    sys = build(r0, e0, d, w, n)
    while profile_space_size(sys) > 20_000:
        n -= 1
        sys = build(r0, e0, d, w, n)
    return sys


def same_result(actual, expected) -> bool:
    if expected is None or actual is None:
        return actual is expected
    return actual[0].entries == expected[0].entries and actual[1] == expected[1]


class TestSolverAgainstBruteForce:
    """The Dinkelbach solver agrees with brute-force enumeration: the same
    maximal slope, the same tie-broken certificate, the same verdict."""

    @settings(max_examples=150, deadline=None)
    @given(sys=st.one_of(towers(stable=True), towers(stable=False)), mode=st.sampled_from(ConstraintMode))
    def test_max_slope_profile(self, sys, mode):
        subsheaf_modes = [SubsheafMode.SEMISTABLE]
        if all(c.stable is True for c in sys.components):
            subsheaf_modes.append(SubsheafMode.STABLE)
        for subsheaf_mode in subsheaf_modes:
            expected = brute_max(sys, mode, subsheaf_mode)
            assert same_result(max_slope_profile(sys, mode, subsheaf_mode), expected)

    @settings(max_examples=100, deadline=None)
    @given(sys=towers(stable=True), mode=st.sampled_from(ConstraintMode),
           subsheaf_mode=st.sampled_from(SubsheafMode))
    def test_verdict_from_search(self, sys, mode, subsheaf_mode):
        fast = verdict_from_search(sys, mode, subsheaf_mode)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search_oracle, "max_slope_profile", lambda s, m, sm, b: brute_max(s, m, sm))
            slow = verdict_from_search(sys, mode, subsheaf_mode)
        assert fast == slow

    def test_past_the_old_gate(self):
        # 24,309 chains among 9^9 rank assignments: the default enumeration
        # budget refuses it, an explicit one lets the brute force run
        sys = semistable_tower(8, -3, 1, 2, 8)
        assert profile_space_size(sys) > DEFAULT_PROFILE_BUDGET
        for mode in ConstraintMode:
            expected = brute_max(sys, mode, SubsheafMode.SEMISTABLE, budget=10**9)
            assert same_result(max_slope_profile(sys, mode), expected)

    def test_tall_tower_is_fast(self):
        sys = stable_tower(50, 1, 1, 2, 50)
        start = time.perf_counter()
        verdict = verdict_from_search(sys, subsheaf_mode=SubsheafMode.STABLE)
        assert time.perf_counter() - start < 1.0
        assert (verdict.semistable, verdict.stable) == (Answer.YES, Answer.YES)

    def test_cell_limit(self):
        # ranks 3^i: 7,174,453 reachable cells in conservative mode, 15 in paper mode
        sys = semistable_tower(1, 0, 3, 2, 14)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="search too large"):
            max_slope_profile(sys, ConstraintMode.CONSERVATIVE)
        assert time.perf_counter() - start < 0.1
        assert sum(c.rank for c in sys.components) > MAX_RANK_CELLS
        assert system_verdict(sys, ConstraintMode.CONSERVATIVE) == criteria_verdict(sys)
        assert max_slope_profile(sys, ConstraintMode.MONOTONE) is not None

    def test_explicit_budget_keeps_its_meaning(self):
        sys = semistable_tower(3, 0, 2, 1, 3)
        with pytest.raises(BudgetExceededError, match="budget exceeded: 9100 rank assignments"):
            max_slope_profile(sys, budget=9_099)
        assert max_slope_profile(sys, budget=9_100) == max_slope_profile(sys)


class TestVerdictFromSearch:
    def test_example_tower(self):
        verdict = verdict_from_search(example_tower())
        assert verdict.semistable is Answer.YES
        assert verdict.stable is Answer.NO
        assert verdict.certificate.slope == total_slope(example_tower())

    def test_strictly_below_gives_both_yes(self):
        verdict = verdict_from_search(semistable_tower(1, 0, 1, 2, 2))
        assert verdict.semistable is Answer.YES
        assert verdict.stable is Answer.YES
        assert verdict.certificate is None

    def test_equal_slope_at_zero_cotangent_degree(self):
        verdict = verdict_from_search(semistable_tower(2, -2, 1, 0, 1))
        assert verdict.stable is Answer.NO
        assert verdict.certificate.entries == ((1, -1),)
        assert verdict.certificate.slope == Fraction(-1)

    def test_empty_stream(self):
        verdict = verdict_from_search(semistable_tower(1, 0, 1, 2, 0))
        assert (verdict.semistable, verdict.stable) == (Answer.YES, Answer.YES)

    def test_flag_precondition(self):
        sys = derive_components(BundleData(2, -2), curve(2), 1)
        with pytest.raises(ValueError, match="flag precondition violated"):
            verdict_from_search(sys)

    def test_stable_bounds_verdict(self):
        sys = stable_tower(2, 1, 1, 2, 1)
        verdict = verdict_from_search(sys, subsheaf_mode=SubsheafMode.STABLE)
        assert verdict.stable is Answer.YES
        # integral-slope components: the strict bound is what rescues stability
        integral = stable_tower(2, 2, 1, 2, 1)
        strict = verdict_from_search(integral, subsheaf_mode=SubsheafMode.STABLE)
        assert strict.stable is Answer.YES
        loose = verdict_from_search(integral, subsheaf_mode=SubsheafMode.SEMISTABLE)
        assert loose.stable is Answer.NO


class TestCheckDeclared:
    def test_positive_invariant_line(self):
        e0 = BundleData(1, 4, semistable=True, stable=True)
        e1 = BundleData(1, -4, semistable=True, stable=True)
        witness = SubsystemProfile(((1, 4),))
        sys = HodgeSystem(curve(2), (e0, e1), Declared((witness,)))
        verdict = check_declared(sys, witness)
        assert verdict.semistable is Answer.NO
        assert verdict.certificate is witness

    def test_unstable_component_example(self):
        e0 = BundleData(1, 1, semistable=True, stable=True)
        e1 = BundleData(2, -1, semistable=False)
        witness = SubsystemProfile(((1, 1),))
        sys = HodgeSystem(curve(2), (e0, e1), Declared((witness,)))
        verdict = check_declared(sys, witness)
        assert verdict.semistable is Answer.NO
        assert witness.slope == 1 > total_slope(sys) == 0

    def test_full_profile_suppressed(self):
        sys = example_tower()
        full = SubsystemProfile(tuple((c.rank, c.degree) for c in sys.components))
        verdict = check_declared(sys, full)
        assert verdict.semistable is Answer.UNKNOWN
        assert verdict.stable is Answer.UNKNOWN

    def test_equal_slope_proper_profile_refutes_stability(self):
        sys = example_tower()
        witness = SubsystemProfile(((1, -1), (1, 1)))
        verdict = check_declared(sys, witness)
        assert verdict.semistable is Answer.UNKNOWN
        assert verdict.stable is Answer.NO

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
        sys = HodgeSystem(curve(2), (BundleData(2, 0), BundleData(1, 0)), Declared())
        with pytest.raises(ValueError, match="exceeds the component degree at full rank"):
            check_declared(sys, SubsystemProfile(((2, 5),)))
        with pytest.raises(ValueError, match="exceeds the component degree at full rank"):
            check_declared(sys, SubsystemProfile(((1, 9), (1, 1))))
        assert check_declared(sys, SubsystemProfile(((2, 0),))).semistable is Answer.UNKNOWN

    def test_degree_unchecked_without_flag(self):
        e0 = BundleData(1, 1, semistable=True, stable=True)
        e1 = BundleData(2, -1, semistable=False)
        sys = HodgeSystem(curve(2), (e0, e1), Declared())
        # grade 1 carries no semistable attestation: any degree is plausible
        verdict = check_declared(sys, SubsystemProfile(((1, 1), (1, 5))))
        assert verdict.semistable is Answer.NO


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
        assert profile.slope > total_slope(sys)
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
        sys = semistable_tower(r0, e0, d, w, n)
        mu = total_slope(sys)
        paper = max_slope_profile(sys, ConstraintMode.MONOTONE)
        conservative = max_slope_profile(sys, ConstraintMode.CONSERVATIVE)
        paper_violates = paper is not None and paper[1] > mu
        conservative_violates = conservative is not None and conservative[1] > mu
        if conservative_violates and not paper_violates:
            findings.append((r0, e0, d, w, n, conservative[0].entries))
    assert not findings, f"conservative-only violations found: {findings}"
