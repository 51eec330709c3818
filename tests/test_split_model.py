"""The split model on a curve as ground truth: its exact answers when
every summand is a line bundle, its subsheaf bound at higher rank, the
documents it generates, and where today's ``check-system`` disagrees
with it."""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

import pytest

from hodgeslope import cli
from hodgeslope.hodge_system import system_from_json

from support import (
    best_bound_excess,
    best_coordinate_excess,
    coordinate_chains,
    random_split_model,
    split_components,
    split_document,
    split_truth,
    subsheaf_bound,
    summand_bound,
)

SEEDS = range(300)


def models(max_rank: int):
    for seed in SEEDS:
        yield random_split_model(random.Random(seed), max_rank)


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
        assert [subsheaf_bound(summands, s) for s in range(7)] == [best[s] for s in range(7)]


class TestExactModel:
    def test_line_bundle_summands_meet_the_brute_force(self):
        for summands, w, n in models(max_rank=1):
            found = best_coordinate_excess(summands, w, n)
            assert best_bound_excess(summands, w, n) == found, (summands, w, n)
            expected = (True, True) if found is None else (found <= 0, found < 0)
            assert split_truth(summands, w, n) == expected, (summands, w, n)

    def test_chains_are_decreasing_and_proper(self):
        summands, w, n = ((1, 2), (1, -1)), 1, 2
        chains = list(coordinate_chains(summands, w, n))
        # a height in 0..n+1 for each summand, less all zero and all full
        assert len(chains) == (n + 2) ** 2 - 2
        for entries in chains:
            ranks = [rank for rank, _ in entries]
            assert ranks[0] >= 1 and ranks == sorted(ranks, reverse=True)
            assert ranks != [2] * (n + 1)

    def test_known_answers(self):
        # a stable tower at w > 0, and the prefix E_0 at w = 0 meeting mu(E)
        assert split_truth(((2, 1),), 2, 2) == (True, True)
        assert split_truth(((2, 1),), 0, 1) == (True, False)
        # a lone stable bundle, and O + O(2) under its line O(2)
        assert split_truth(((2, 2),), 0, 0) == (True, True)
        assert split_truth(((1, 0), (1, 2)), 0, 0) == (False, False)


class TestHigherRankBound:
    def test_bound_is_never_below_a_realizable_chain(self):
        for summands, w, n in models(max_rank=3):
            found = best_coordinate_excess(summands, w, n)
            bound = best_bound_excess(summands, w, n)
            # a lone summand at n = 0 has partial subsheaves but no chain
            assert bound is not None or found is None
            assert found is None or bound >= found, (summands, w, n)

    def test_every_coordinate_sub_sum_is_within_the_bound(self):
        for summands, _, _ in models(max_rank=3):
            for mask in range(1, 1 << len(summands)):
                chosen = [summands[j] for j in range(len(summands)) if mask >> j & 1]
                rank = sum(r for r, _ in chosen)
                assert sum(e for _, e in chosen) <= subsheaf_bound(summands, rank)

    def test_a_decided_side_agrees_with_the_chains(self):
        for summands, w, n in models(max_rank=3):
            semistable, stable = split_truth(summands, w, n)
            found = best_coordinate_excess(summands, w, n)
            if found is not None:
                assert semistable in (None, found <= 0) and stable in (None, found < 0)
            assert not (stable is True and semistable is not True)

    def test_attestations(self):
        for summands, w, n in models(max_rank=3):
            slopes = {(e // gcd(r, e), r // gcd(r, e)) for r, e in summands}
            for c in split_components(summands, w, n):
                assert c.semistable is (len(slopes) == 1)
                assert c.stable is (len(summands) == 1)
                if c.rank == 1:
                    assert c.stable is True


def test_generated_documents_parse_and_attest_only_the_truth():
    for seed in SEEDS:
        rng = random.Random(seed)
        summands, w, n = random_split_model(rng, 3)
        doc = split_document(rng, summands, w, n, rng.choice((0, 2, 3, 5)))
        system = system_from_json(json.loads(json.dumps(doc))["hodge_system"])
        for got, true in zip(system.components, split_components(summands, w, n)):
            assert (got.rank, got.degree) == (true.rank, true.degree)
            assert got.semistable in (None, true.semistable)
            assert got.stable in (None, true.stable)
        assert system.context.omega_degree == w and system.context.dim == 1


def agrees(answer: str, truth: bool | None) -> bool:
    """Whether a report's side is unknown, or the model's where it decides."""
    return answer == "unknown" or truth is None or answer == ("yes" if truth else "no")


def check_system(tmp_path, doc: dict) -> tuple[int, dict]:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["check-system", str(path)])
    return code, json.loads(out.getvalue())


def test_check_system_disagrees_with_the_model_only_in_the_recorded_ways(tmp_path):
    """Every definite ``check-system`` side on a model document agrees with
    the model, but for the two disagreements recorded in CHANGES.md, which
    this test keeps from spreading: a negative cotangent degree is refused
    as a violated hypothesis, and the stable side reads the oracle's
    semistable-bound answer as ``no`` unless the bounds are stable ones,
    that is unless w > 0 and every component is attested stable."""
    rng = random.Random(26)
    for _ in range(400):
        summands, w, n = random_split_model(rng, rng.choice((1, 2, 3)))
        doc = split_document(rng, summands, w, n, rng.choice((0, 0, 2, 3, 5)))
        code, report = check_system(tmp_path, doc)
        if w < 0:
            assert (code, report) == (
                1, {"error": "hypothesis violated: the cotangent degree must be nonnegative"}
            )
            continue
        assert code == 0
        semistable, stable = split_truth(summands, w, n)
        assert agrees(report["semistable"], semistable), doc
        if agrees(report["stable"], stable):
            continue
        components = doc["hodge_system"]["components"]
        stable_bounds = w > 0 and all(c.get("stable") for c in components)
        assert (report["stable"], stable, stable_bounds) == ("no", True, False), doc
        assert "oracle" in report["provenance"], doc
