"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact; all arithmetic is over integers and rationals.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hodgeslope.gallery import (
    example_injective_not_iso,
    example_strictly_semistable,
    example_surjective_not_iso,
    example_unstable_component,
    recompute_verdict,
)
from hodgeslope.hn_profiles import HNProfile, tensor_hn
from hodgeslope.hodge_system import (
    NO,
    YES,
    criterion_semistable,
    derive_components,
    system_to_json,
    transport_subsystem,
)
from hodgeslope.inequalities import (
    chebyshev_lower,
    chebyshev_upper,
    hodge_sum_inequality,
    make_pair,
)
from hodgeslope.oper import (
    ConnectionPair,
    GriffithsFiltration,
    connection_verdict,
    graded_of_filtration,
)
from hodgeslope.search_oracle import MONOTONE, max_slope_profile
from hodgeslope.slope_core import SEMISTABLE, STABLE, BundleData, GeometricContext, tensor

from support import (
    hn_valid,
    is_strictly_concave,
    random_quotients,
    random_valid_profile,
    run_raw,
    semistable_tower,
    slope,
    stable_tower,
    total_slope,
    totals,
    write_doc,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def sweep_contexts(omega_degrees):
    for d, w in itertools.product((1, 2), omega_degrees):
        yield GeometricContext(0, d, w, omega_semistable=True)


def test_criterion_1_inequality_sweep():
    failures = []
    checked = 0
    for d in range(1, 7):
        for n in range(15):
            for r in range(n + 1):
                checked += 1
                if not hodge_sum_inequality(d, r, n):
                    failures.append((d, r, n))
    rng = random.Random(20260809)
    for _ in range(10_000):
        length = rng.randint(1, 10)
        values_a = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(length)]
        values_b = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(length)]
        checked += 2
        upper = chebyshev_upper(make_pair(sorted(values_a, reverse=True), sorted(values_b)))
        lower = chebyshev_lower(make_pair(sorted(values_a), sorted(values_b)))
        if not upper:
            failures.append(("upper", values_a, values_b))
        if not lower:
            failures.append(("lower", values_a, values_b))
    report(
        "criterion 1 (inequality sweep)",
        not failures,
        f"{checked} exact checks, {len(failures)} failures",
    )


def test_criterion_2_oracle_agreement_semistable_bounds():
    exceptions = []
    systems = 0
    for context in sweep_contexts(range(0, 5)):
        for r0, n, e0 in itertools.product(range(1, 4), range(0, 4), range(-5, 6)):
            sys = semistable_tower(r0, e0, context, n)
            systems += 1
            best = max_slope_profile(sys, MONOTONE, SEMISTABLE)
            if best is not None and slope(best) > total_slope(sys):
                exceptions.append((r0, e0, context.dim, context.omega_degree, n, best.entries))
    report(
        "criterion 2 (oracle agreement, semistable bounds)",
        not exceptions,
        f"{systems} systems swept, {len(exceptions)} exceptions",
    )


def test_criterion_3_oracle_agreement_stable_bounds():
    exceptions = []
    systems = 0
    for context in sweep_contexts(range(1, 5)):
        for r0, n, e0 in itertools.product(range(1, 4), range(0, 4), range(-5, 6)):
            sys = stable_tower(r0, e0, context, n)
            systems += 1
            best = max_slope_profile(sys, MONOTONE, STABLE)
            if best is not None and not slope(best) < total_slope(sys):
                exceptions.append((r0, e0, context.dim, context.omega_degree, n, best.entries))
    report(
        "criterion 3 (oracle agreement, stable bounds)",
        not exceptions,
        f"{systems} systems swept, {len(exceptions)} exceptions",
    )


def test_criterion_4_converse_transport_identity():
    exceptions = []
    transports = 0
    for context in sweep_contexts(range(0, 5)):
        for r0, n, e0 in itertools.product(range(1, 4), range(0, 4), range(-5, 6)):
            sys = derive_components(BundleData(r0, e0), context, n)
            mu_total = total_slope(sys)
            mu_base = Fraction(e0, r0)
            for rf, ef in itertools.product(range(1, r0 + 1), range(-5, 6)):
                f0 = BundleData(rf, ef)
                if slope(f0) <= mu_base:
                    continue
                transports += 1
                profile = transport_subsystem(sys, f0)
                identity = slope(profile) - mu_total == slope(f0) - mu_base
                violating = slope(profile) > mu_total
                ranks = [r for r, _ in profile.entries]
                admissible = all(
                    ranks[i] <= sys.components[i].rank for i in range(n + 1)
                ) and all(b <= context.dim * a for a, b in zip(ranks, ranks[1:]))
                if not (identity and violating and admissible):
                    exceptions.append((r0, e0, context.dim, context.omega_degree, n, rf, ef))
    report(
        "criterion 4 (converse transport identity)",
        not exceptions,
        f"{transports} transports checked, {len(exceptions)} exceptions",
    )


def test_criterion_5_gallery_regression():
    cases = [
        (example_strictly_semistable, {"g": 2}, YES, NO, Fraction(0)),
        (example_strictly_semistable, {"g": 1}, YES, NO, Fraction(0)),
        (example_strictly_semistable, {"g": 3}, YES, NO, Fraction(0)),
        (
            example_surjective_not_iso,
            {"g": 2, "d_line": 3},
            NO,
            NO,
            3 - Fraction(2 * 3 + 2 * 2 - 2, 3),
        ),
        (
            example_surjective_not_iso,
            {"g": 2, "d_line": 5},
            NO,
            NO,
            5 - Fraction(2 * 5 + 2 * 2 - 2, 3),
        ),
        (
            example_surjective_not_iso,
            {"g": 3, "d_line": 5},
            NO,
            NO,
            5 - Fraction(2 * 5 + 2 * 3 - 2, 3),
        ),
        (example_injective_not_iso, {"g": 2, "d0": 4}, NO, NO, Fraction(4)),
        (example_injective_not_iso, {"g": 2, "d0": 1}, NO, NO, Fraction(1)),
        (example_injective_not_iso, {"g": 5, "d0": 2}, NO, NO, Fraction(2)),
        (example_unstable_component, {"g": 2, "d0": 1}, NO, NO, Fraction(1)),
        (example_unstable_component, {"g": 2, "d0": 3}, NO, NO, Fraction(3)),
        (example_unstable_component, {"g": 3, "d0": 2}, NO, NO, Fraction(2)),
    ]
    failures = []
    for builder, params, want_ss, want_st, want_gap in cases:
        entry = builder(**params)
        verdict = recompute_verdict(entry)
        gap = (
            slope(verdict.certificate) - total_slope(entry.system)
            if verdict.certificate is not None
            else None
        )
        if (verdict.semistable, verdict.stable, gap) != (want_ss, want_st, want_gap):
            failures.append((builder.__name__, params, verdict.semistable, verdict.stable, gap))
    report(
        "criterion 5 (gallery regression)",
        not failures,
        f"{len(cases)} parameter points, {len(failures)} failures",
    )


def test_criterion_6_hn_tensor_lemma():
    rng = random.Random(6)
    failures = []
    for _ in range(1_000):
        profile = random_valid_profile(rng)
        w = BundleData(rng.randint(1, 4), rng.randint(-20, 20), semistable=True)
        result = tensor_hn(profile, w)
        total = totals(result.quotients)
        expected = tensor(totals(profile.quotients), w)
        if not hn_valid(result) or (total.rank, total.degree) != (
            expected.rank,
            expected.degree,
        ):
            failures.append((profile, w))
    # concavity of the cumulative polygon is equivalent to validity,
    # computed here with an independent running sum
    for _ in range(1_000):
        quotients = random_quotients(rng, rng.randint(1, 5))
        profile = HNProfile(tuple(quotients))
        points = [(0, 0)]
        for q in quotients:
            points.append((points[-1][0] + q.rank, points[-1][1] + q.degree))
        if is_strictly_concave(points) != hn_valid(profile):
            failures.append(("concavity", profile))
    report(
        "criterion 6 (tensor transform of Harder-Narasimhan profiles)",
        not failures,
        f"2000 random profiles, {len(failures)} failures",
    )


def _random_filtration(rng) -> GriffithsFiltration:
    characteristic = rng.choice([0, 2, 5])
    d = rng.randint(1, 2)
    w = rng.randint(0, 4)
    context = GeometricContext(characteristic, d, w, omega_semistable=True)
    theta_iso = rng.random() < 0.7
    flagged = rng.random() < 0.7
    length = rng.randint(1, 3)
    base = BundleData(
        rng.randint(1, 3), rng.randint(-5, 5), semistable=True if flagged else None
    )
    pieces = [base]
    for _ in range(length - 1):
        prev = pieces[-1]
        if theta_iso:
            rank = d * prev.rank
            degree = d * prev.degree + prev.rank * w
        else:
            rank = rng.randint(1, 4)
            degree = rng.randint(-8, 8)
        pieces.append(BundleData(rank, degree, semistable=True if flagged else None))
    return GriffithsFiltration(
        context,
        tuple(pieces),
        transversal=True,
        theta_squares_to_zero=True,
        theta_iso=theta_iso,
    )


def test_criterion_7_connection_additivity_and_transfer():
    rng = random.Random(7)
    failures = []
    for _ in range(1_000):
        filtration = _random_filtration(rng)
        total = totals(filtration.graded)
        flat = rng.random() < 0.5
        pair = ConnectionPair(total, flat=flat, filtration=filtration)
        # the total must be the sum of the graded pieces: one degree off is refused
        off = BundleData(total.rank, total.degree + 1)
        try:
            ConnectionPair(off, flat=flat, filtration=filtration)
        except ValueError as error:
            refused = str(error).startswith("total invariants do not match the graded pieces")
        else:
            refused = False
        if not refused:
            failures.append(("additivity", filtration))
            continue
        graded_verdict = None
        if filtration.theta_iso and filtration.context.omega_degree >= 0:
            graded_verdict = criterion_semistable(graded_of_filtration(filtration))
        verdict = connection_verdict(pair, graded_verdict)
        if graded_verdict is not None and graded_verdict.semistable == YES:
            if verdict.semistable != YES:
                failures.append(("graded transfer", filtration))
        if filtration.context.characteristic == 0 and flat:
            if verdict.semistable != YES:
                failures.append(("flat char 0", filtration))
    # the flat route must fire with no filtration at all
    bare = ConnectionPair(BundleData(3, 0), flat=True, context=GeometricContext(0, 1, 2))
    if connection_verdict(bare).semistable != YES:
        failures.append(("flat char 0, no filtration", None))
    report(
        "criterion 7 (connection additivity and transfer)",
        not failures,
        f"1000 random pairs, {len(failures)} failures",
    )


def test_criterion_8_search_determinism(tmp_path, capsys):
    entries = [
        (example_strictly_semistable, (2,)),
        (example_surjective_not_iso, (2, 3)),
        (example_injective_not_iso, (2, 4)),
        (example_unstable_component, (2, 1)),
    ]
    mismatches = []
    for builder, params in entries:
        doc = {"hodge_system": system_to_json(builder(*params).system)}
        path = write_doc(tmp_path, doc, f"{builder.__name__}.json")
        outputs = {
            run_raw(capsys, argv)[:2]
            for argv in (
                ["search", path],
                ["search", path],
                ["search", path, "--mode", "paper"],
                ["search", path, "--mode", "paper"],
            )
        }
        if len(outputs) != 1:
            mismatches.append(builder.__name__)
    report(
        "criterion 8 (search determinism, including the default --mode spelled out)",
        not mismatches,
        f"{len(entries)} gallery documents x 4 runs, {len(mismatches)} mismatches",
    )
