"""The split model as ground truth.  That it names no library code.  One
brute force, ``best_coordinate_excess``, tries every coordinate
subsystem at any cotangent rank d.  On a curve: its exact answers, the
sign agreement of its subsheaf bound and that brute force that makes
them exact, and the documents it generates.  Over a split cotangent
bundle of rank d: its components against the library's tower, its
refutations and its subsheaf bound against the brute force, and its
attestations.  One loop, ``test_check_system_against_the_model``, runs
``check-system`` through ``support.run`` on three seeded streams of
model documents, tallies its answers against the model in the exact
table ``TABLE``, and checks the twist and dual relations on the same
documents."""

from __future__ import annotations

import ast
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from hodgeslope.hodge_system import system_from_json, system_to_json, tower_component
from hodgeslope.slope_core import BundleData, GeometricContext

import support
from support import (
    best_bound_excess,
    random_split_model,
    random_tower_model,
    run,
    slope_text,
    split_components,
    split_document,
    split_refutations,
    split_truth,
    subsheaf_bound,
    summand_bound,
    totals,
    write_doc,
)

SEEDS = range(300)

MODEL = (
    "split_components", "split_whole", "split_document", "split_refutations", "split_truth",
    "summand_bound", "subsheaf_bound", "best_bound_excess", "_excess", "random_split_model",
    "random_tower_model",
)


def test_the_model_names_no_library_code():
    """No function of the model names what ``support`` imports from the
    library, nor a support definition that does, directly or through
    another, so the model can be copied out whole."""
    tree = ast.parse(Path(support.__file__).read_text(encoding="utf-8"))
    library = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "hodgeslope":
            library |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            library |= {
                (alias.asname or alias.name).split(".")[0]
                for alias in node.names if alias.name.split(".")[0] == "hodgeslope"
            }
    defined = {
        node.name: {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    tainted = set(library)
    while more := {name for name, names in defined.items() if names & tainted} - tainted:
        tainted |= more
    assert set(MODEL) <= set(defined)
    named = {name: sorted(defined[name] & tainted) for name in MODEL}
    assert not any(named.values()), named


def models(max_rank: int):
    for seed in SEEDS:
        yield random_split_model(random.Random(seed), max_rank)


def words(d: int, n: int) -> list[tuple[int, ...]]:
    """Every word of length at most n in the letters 0..d-1."""
    return [u for i in range(n + 1) for u in itertools.product(range(d), repeat=i)]


def closed_word_sets(d: int, n: int) -> list[set]:
    """Every set of words closed under dropping the last letter, the empty
    set included, found among all subsets of the words."""
    every = words(d, n)
    subsets = (
        {u for bit, u in enumerate(every) if mask >> bit & 1} for mask in range(1 << len(every))
    )
    return [chosen for chosen in subsets if all(u[:-1] in chosen for u in chosen if u)]


def best_coordinate_excess(summands, omega, n) -> int | None:
    """The largest excess over mu(E) of a proper coordinate subsystem, by
    trying every one: one closed word set per summand, not all empty and
    not all full.  None when there is none (one summand at n = 0)."""
    whole = totals(split_components(summands, omega, n))
    every = len(words(len(omega), n))
    best = None
    for choice in itertools.product(closed_word_sets(len(omega), n), repeat=len(summands)):
        if not any(choice) or all(len(chosen) == every for chosen in choice):
            continue
        rank = sum(r * len(chosen) for (r, _), chosen in zip(summands, choice))
        degree = sum(
            e + r * sum(omega[k] for k in u) for (r, e), chosen in zip(summands, choice) for u in chosen
        )
        excess = degree * whole.rank - whole.degree * rank
        best = excess if best is None else max(best, excess)
    return best


def brute_refutations(summands, omega, n) -> tuple[bool | None, bool | None]:
    """``split_refutations`` read off the sign of ``best_coordinate_excess``."""
    found = best_coordinate_excess(summands, omega, n)
    if found is None:
        return None, None
    return (False if found > 0 else None), (False if found >= 0 else None)


class TestSummandBound:
    @pytest.mark.parametrize("r", range(1, 6))
    def test_largest_degree_below_the_slope(self, r):
        for e in range(-7, 8):
            assert summand_bound(r, e, 0) == 0
            assert summand_bound(r, e, r) == e
            for s in range(1, r):
                b = summand_bound(r, e, s)
                assert b * r < s * e <= (b + 1) * r

    def test_subsheaf_bound_is_the_best_split_of_the_rank(self):
        summands = ((2, 1), (1, 3), (3, -1))
        best = {}
        for s0 in range(3):
            for s1 in range(2):
                for s2 in range(4):
                    degree = sum(
                        summand_bound(r, e, s) for (r, e), s in zip(summands, (s0, s1, s2))
                    )
                    best[s0 + s1 + s2] = max(best.get(s0 + s1 + s2, degree), degree)
        assert subsheaf_bound(summands) == [best[s] for s in range(7)]


class TestExactModel:
    def test_line_bundle_summands_meet_the_brute_force(self):
        for summands, w, n in models(max_rank=1):
            found = best_coordinate_excess(summands, (w,), n)
            assert best_bound_excess(summands, (w,), n) == found, (summands, w, n)
            expected = (True, True) if found is None else (found <= 0, found < 0)
            assert split_truth(summands, (w,), n) == expected, (summands, w, n)

    def test_chains_are_decreasing_and_proper(self):
        # on a curve a closed set holds the words shorter than a height in
        # 0..n+1, so rank F_i, the rank of the summands above height i,
        # decreases, and each subsystem is a chain
        for n in range(4):
            prefixes = [{(0,) * i for i in range(h)} for h in range(n + 2)]
            assert sorted(closed_word_sets(1, n), key=len) == prefixes
        # proper: a lone summand at n = 0 has none, and a stable tower's
        # whole system, at excess 0, is not among them
        assert best_coordinate_excess(((2, 1),), (0,), 0) is None
        assert best_coordinate_excess(((2, 1),), (2,), 2) < 0

    def test_known_answers(self):
        # a stable tower at w > 0, and the prefix E_0 at w = 0 meeting mu(E)
        assert split_truth(((2, 1),), (2,), 2) == (True, True)
        assert split_truth(((2, 1),), (0,), 1) == (True, False)
        # a lone stable bundle, and O + O(2) under its line O(2)
        assert split_truth(((2, 2),), (0,), 0) == (True, True)
        assert split_truth(((1, 0), (1, 2)), (0,), 0) == (False, False)


class TestHigherRankBound:
    def test_bound_is_never_below_a_realizable_chain(self):
        for summands, w, n in models(max_rank=3):
            found = best_coordinate_excess(summands, (w,), n)
            bound = best_bound_excess(summands, (w,), n)
            # a lone summand at n = 0 has partial subsheaves but no chain
            assert bound is not None or found is None
            assert found is None or bound >= found, (summands, w, n)

    def test_every_coordinate_sub_sum_is_within_the_bound(self):
        for summands, _, _ in models(max_rank=3):
            for mask in range(1, 1 << len(summands)):
                chosen = [summands[j] for j in range(len(summands)) if mask >> j & 1]
                rank = sum(r for r, _ in chosen)
                assert sum(e for _, e in chosen) <= subsheaf_bound(summands)[rank]

    def test_a_decided_side_agrees_with_the_chains(self):
        for summands, w, n in models(max_rank=3):
            semistable, stable = split_truth(summands, (w,), n)
            found = best_coordinate_excess(summands, (w,), n)
            if found is not None:
                assert (semistable, stable) == (found <= 0, found < 0), (summands, w, n)
            assert not (stable is True and semistable is not True)

    def test_every_side_is_decided_on_a_bounded_domain(self):
        """``split_truth``'s proof, checked on every model of one to three
        summands of rank at most 3 and degree in -2..2, of total rank at
        most 6, with w in -1..2 and n at most 2: the subsheaf bound and the
        best coordinate chain agree in sign on both sides, and the truth is
        the bound's."""
        types = [(r, e) for r in range(1, 4) for e in range(-2, 3)]
        summand_sets = [
            chosen
            for size in (1, 2, 3)
            for chosen in itertools.combinations_with_replacement(types, size)
            if sum(r for r, _ in chosen) <= 6
        ]
        assert len(summand_sets) == 555
        for summands in summand_sets:
            for w, n in itertools.product(range(-1, 3), range(3)):
                model = summands, (w,), n
                bound = best_bound_excess(*model)
                found = best_coordinate_excess(summands, (w,), n)
                if found is None:
                    # no proper coordinate chain: a lone summand at n = 0,
                    # whose partial ranks all lie below its slope
                    assert (len(summands), n) == (1, 0), model
                    assert bound is None or bound < 0, model
                    assert split_truth(*model) == (True, True), model
                    continue
                assert (bound > 0, bound >= 0) == (found > 0, found >= 0), model
                assert split_truth(*model) == (bound <= 0, bound < 0), model

    def test_attestations(self):
        for summands, w, n in models(max_rank=3):
            slopes = {(e // gcd(r, e), r // gcd(r, e)) for r, e in summands}
            for c in split_components(summands, (w,), n):
                assert c.semistable is (len(slopes) == 1)
                assert c.stable is (len(summands) == 1)
                if c.rank == 1:
                    assert c.stable is True


def curve_model(rng: random.Random):
    """A ``random_split_model`` of rank up to 3, with omega = (w,)."""
    summands, w, n = random_split_model(rng, 3)
    return summands, (w,), n


@pytest.mark.parametrize("draw", [curve_model, random_tower_model])
def test_generated_documents_parse_and_attest_only_the_truth(draw):
    for seed in SEEDS:
        rng = random.Random(seed)
        summands, omega, n = draw(rng)
        doc = split_document(rng, summands, omega, n, rng.choice((0, 2, 3, 5)))
        system = system_from_json(json.loads(json.dumps(doc))["hodge_system"])
        # the library writes the document back key for key
        assert json.dumps(doc) == json.dumps({"hodge_system": system_to_json(system)})
        for got, true in zip(system.components, split_components(summands, omega, n)):
            assert (got.rank, got.degree) == (true.rank, true.degree)
            assert got.semistable in (None, true.semistable)
            assert got.stable in (None, true.stable)
        context = system.context
        assert (context.dim, context.omega_degree) == (len(omega), sum(omega))
        assert context.omega_semistable in (False, len(set(omega)) == 1)
        assert context.omega_stable in (False, len(omega) == 1)


def tower_models():
    for seed in SEEDS:
        yield random_tower_model(random.Random(seed))


class TestSplitCotangent:
    def test_closed_word_sets(self):
        # with c(0) = 2 and c(n) = 1 + c(n-1)^d: the empty set, or the
        # empty word with a closed set below each letter
        assert [len(closed_word_sets(1, n)) for n in range(4)] == [2, 3, 4, 5]
        assert [len(closed_word_sets(2, n)) for n in range(3)] == [2, 5, 26]
        assert len(closed_word_sets(3, 1)) == 9

    def test_search_meets_the_brute_force(self):
        rng = random.Random(13)
        for d, n in itertools.product((1, 2), (0, 1, 2)):
            for _ in range(12):
                summands = tuple(
                    (rng.randint(1, 2), rng.randint(-3, 3)) for _ in range(rng.randint(1, 2))
                )
                omega = tuple(rng.randint(-1, 2) for _ in range(d))
                expected = brute_refutations(summands, omega, n)
                assert split_refutations(summands, omega, n) == expected, (summands, omega, n)

    def test_search_meets_the_chains_on_a_curve(self):
        for summands, w, n in models(max_rank=3):
            expected = brute_refutations(summands, (w,), n)
            assert split_refutations(summands, (w,), n) == expected, (summands, w, n)

    def test_bound_is_never_below_a_coordinate_subsystem(self):
        # the bound limits every invariant subsystem, so it is at least the
        # best coordinate one on the same scale: checked on the models
        # whose coordinate subsystems the brute force lists quickly
        closed = {(d, n): len(closed_word_sets(d, n)) for d in (2, 3) for n in range(3)}
        tried = 0
        for summands, omega, n in tower_models():
            if closed[len(omega), n] ** len(summands) > 1000:
                continue
            found = best_coordinate_excess(summands, omega, n)
            bound = best_bound_excess(summands, omega, n)
            assert bound is not None or found is None, (summands, omega, n)
            assert found is None or bound >= found, (summands, omega, n)
            tried += 1
        assert tried == 244

    def test_semistable_towers_are_never_refuted(self):
        # every component semistable and w >= 0: the system is semistable
        for summands, omega, n in tower_models():
            components = split_components(summands, omega, n)
            if sum(omega) >= 0 and all(c.semistable for c in components):
                assert split_refutations(summands, omega, n)[0] is None, (summands, omega, n)

    def test_every_prefix_is_a_subsystem(self):
        for summands, omega, n in tower_models():
            components = split_components(summands, omega, n)
            whole = totals(components)
            semistable, stable = split_refutations(summands, omega, n)
            for k in range(n):
                prefix = totals(components[: k + 1])
                excess = prefix.degree * whole.rank - whole.degree * prefix.rank
                if excess > 0:
                    assert semistable is False, (summands, omega, n)
                if excess >= 0:
                    assert stable is False, (summands, omega, n)

    def test_whole_system_meets_the_library_tower(self):
        # the model's own integers against tower_component's components
        curves = (curve_model(random.Random(seed)) for seed in SEEDS)
        for summands, omega, n in itertools.chain(tower_models(), curves):
            base = BundleData(sum(r for r, _ in summands), sum(e for _, e in summands))
            context = GeometricContext(0, len(omega), sum(omega))
            for i, c in enumerate(split_components(summands, omega, n)):
                expected = tower_component(base, context, i)
                assert (c.rank, c.degree) == expected, (summands, omega, n, i)

    def test_attestations(self):
        for summands, omega, n in tower_models():
            for i, c in enumerate(split_components(summands, omega, n)):
                slopes = {
                    Fraction(e + r * sum(omega[k] for k in u), r)
                    for r, e in summands
                    for u in itertools.product(range(len(omega)), repeat=i)
                }
                assert c.semistable is (len(slopes) == 1)
                assert c.stable is (len(summands) * len(omega) ** i == 1)


O_PLUS_O = {"hodge_system": {
    "context": {"characteristic": 0, "dim": 2, "omega_degree": 2, "omega_semistable": True},
    "components": [{"rank": 2, "degree": 0, "semistable": True},
                   {"rank": 4, "degree": 4, "semistable": True}],
    "theta": "isomorphisms",
}}


def test_check_system_answers_o_plus_o_stable_though_the_model_refutes_it(capsys, tmp_path):
    """The recorded d > 1 class at its smallest: E_0 = O + O, d = 2, w = 2,
    n = 1.  The monotone class misses the transport (O, Omega), of ranks 1
    then 2 and slope mu(E) = 2/3."""
    code, report, _ = run(capsys, ["check-system", write_doc(tmp_path, O_PLUS_O)])
    assert (code, report["semistable"], report["stable"]) == (0, "yes", "yes")
    model = ((1, 0), (1, 0)), (1, 1), 1
    assert split_refutations(*model) == brute_refutations(*model) == (None, False)


def curve_stream(rng: random.Random):
    """A curve model of rank up to 1, 2 or 3, half its flags kept."""
    summands, w, n = random_split_model(rng, rng.choice((1, 2, 3)))
    return summands, (w,), n, 0.5


def tall_stream(rng: random.Random):
    """A ``random_tower_model`` at height 10 to 14 with every flag kept: the
    oracle needs every semistable flag, and a dozen would lose one."""
    summands, omega, _ = random_tower_model(rng)
    return summands, omega, rng.randint(10, 14), 1.0


STREAMS = {  # seed, documents, draw
    "curve": (26, 400, curve_stream),
    "split": (27, 400, lambda rng: (*random_tower_model(rng), 0.5)),
    "tall": (28, 300, tall_stream),
}

# per stream: the refused documents; per side, the definite answers and
# the sides the model decides; the contradictions per recorded class.  A
# change to any answer changes this table in the same diff.
TABLE = {
    "curve": (119, (57, 281), (100, 281), {"semistable-bound stable no": 2}),
    "split": (99, (61, 298), (61, 301),
              {"monotone-class stable yes": 5, "semistable-bound stable no": 5}),
    "tall": (54, (105, 141), (105, 210), {"monotone-class stable yes": 39}),
}

SIDES = ("semistable", "stable")
REFUSAL = {"error": "hypothesis violated: the cotangent degree must be nonnegative"}


def recorded_class(report: dict, doc: dict, summands, omega, n) -> str:
    """The class of a ``stable`` answer that contradicts the model, held to
    its shape.  The oracle's semistable-bound answer reads ``no`` unless
    w > 0 and every component is attested stable; at d > 1 only for a
    lone stable rank-2 summand at n = 0.  At d > 1 the monotone class
    answers ``yes`` for several summands of one slope under equal w_k,
    where one summand's transport reaches mu(E)."""
    if report["stable"] == "no":
        components = doc["hodge_system"]["components"]
        stable_bounds = sum(omega) > 0 and all(c.get("stable") for c in components)
        assert not stable_bounds, doc
        assert "oracle" in report["provenance"], doc
        if len(omega) > 1:
            assert (n, len(summands), summands[0][0]) == (0, 1, 2), doc
        return "semistable-bound stable no"
    assert (len(omega) > 1, n >= 1, len(summands) >= 2, len(set(omega))) == (
        True, True, True, 1
    ), doc
    assert report["provenance"].endswith("; oracle"), doc
    return "monotone-class stable yes"


def regraded(doc: dict, degree, order: int = 1) -> dict:
    """The document with each component's degree mapped by ``degree``,
    the components in reverse when ``order`` is -1, the flags kept."""
    system = doc["hodge_system"]
    components = [{**c, "degree": degree(c)} for c in system["components"][::order]]
    return {"hodge_system": {**system, "components": components}}


def shifted(report: dict, t: int) -> dict:
    """The report on the document twisted by a line bundle of degree t:
    every slope rises by t, and a certificate entry (r, e) is (r, e + t*r)."""

    def rise(part: dict) -> dict:
        keys = [key for key in ("slope", "mu_total") if key in part]
        return {**part, **{key: slope_text(Fraction(part[key]) + t) for key in keys}}

    out = rise(report)
    if cert := report.get("certificate"):
        profile = [[r, e + t * r] for r, e in cert["profile"]]
        out["certificate"] = {**rise(cert), "profile": profile}
    return out


@pytest.mark.parametrize("stream", list(STREAMS))
def test_check_system_against_the_model(capsys, tmp_path, stream):
    """Every definite ``check-system`` side on a stream's documents agrees
    with the model, ``split_truth`` on the curve and split streams and
    ``split_refutations`` on the tall one, but in a ``recorded_class``, and a negative cotangent degree is
    refused; the tally is the stream's ``TABLE`` row.  Twisted by a line
    bundle of degree t != 0, a document keeps its exit code and its report
    but for ``shifted``; at d = 1 its dual E'_j = E_(n-j)^* keeps its exit
    code and both answers."""
    seed, size, draw = STREAMS[stream]

    def check(doc: dict) -> tuple[int, dict]:
        code, report, _ = run(capsys, ["check-system", write_doc(tmp_path, doc)])
        return code, report

    rng = random.Random(seed)
    refused, answered, decided, classes = 0, Counter(), Counter(), Counter()
    for index in range(size):
        summands, omega, n, keep = draw(rng)
        doc = split_document(rng, summands, omega, n, rng.choice((0, 0, 2, 3, 5)), keep)
        code, report = check(doc)
        t = index % 5 - 2 or 3
        twist = regraded(doc, lambda c: c["degree"] + t * c["rank"])
        assert check(twist) == (code, shifted(report, t)), (doc, t)
        if len(omega) == 1:
            dual_code, dual = check(regraded(doc, lambda c: -c["degree"], -1))
            assert (dual_code, *map(dual.get, SIDES)) == (code, *map(report.get, SIDES)), doc
        if sum(omega) < 0:
            assert (code, report) == (1, REFUSAL), doc
            refused += 1
            continue
        assert code == 0, doc
        truths = (split_refutations if stream == "tall" else split_truth)(summands, omega, n)
        for side, truth in zip(SIDES, truths):
            answer = report[side]
            answered[side] += answer != "unknown"
            decided[side] += truth is not None
            if answer != "unknown" and truth is not None and answer != ("yes" if truth else "no"):
                assert side == "stable", doc
                classes[recorded_class(report, doc, summands, omega, n)] += 1
    sides = [(answered[side], decided[side]) for side in SIDES]
    assert (refused, *sides, classes) == TABLE[stream]
