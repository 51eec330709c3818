"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py -q``.
The file is not named ``test_*.py``, so the package's test suite does not
collect it.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

CLI, _ = run.load_program()


def _run_docs(docs, tmp_path):
    runner, tally = run.Runner(CLI), run.Tally()
    argvs = run.materialize(docs, tmp_path)
    outputs, outcomes, digest = run.check_phase(runner, docs, argvs, tally)
    return outputs, outcomes, digest, tally


def test_generator_is_deterministic_for_a_seed():
    for workload in corpus.WORKLOADS:
        assert corpus.build(workload, 7) == corpus.build(workload, 7)
    assert corpus.chebyshev_pairs(random.Random(7), 50) == corpus.chebyshev_pairs(random.Random(7), 50)


def test_generator_differs_across_seeds():
    for workload in ("oracle-towers", "criteria-mix"):
        assert corpus.build(workload, 7) != corpus.build(workload, 8)
    assert corpus.chebyshev_pairs(random.Random(7), 50) != corpus.chebyshev_pairs(random.Random(8), 50)


def _certified_tower(tmp_path):
    # components (2,0),(2,4) on a curve with w = 2: under semistable bounds
    # the profile [[1,0],[1,2]] meets the total slope, so stable=no
    doc = corpus.tower_doc(random.Random(1), 2, 1, 1, "paper", "semistable", "semistable",
                           "search", w=2, e0=0)
    doc["id"] = 0
    (code, out), = _run_docs([doc], tmp_path)[0]
    report = json.loads(out)
    assert code == 0 and report["stable"] == "no" and report["certificate"] is not None
    assert checker.check(doc, code, out) == (checker.DECIDED, [])
    return doc, report


def test_checker_rejects_a_certificate_one_degree_above_the_bound(tmp_path):
    doc, report = _certified_tower(tmp_path)
    tampered = copy.deepcopy(report)
    tampered["certificate"]["profile"][0][1] += 1
    _, problems = checker.check(doc, 0, json.dumps(tampered))
    assert any("exceeds the subsheaf bound" in p for p in problems)


def test_checker_rejects_a_flipped_verdict(tmp_path):
    doc, report = _certified_tower(tmp_path)
    for side, value in (("semistable", "no"), ("stable", "yes")):
        flipped = dict(report, **{side: value})
        _, problems = checker.check(doc, 0, json.dumps(flipped))
        assert problems, f"flipping {side} to {value} went unnoticed"


def _exhaustive_excess(comps, d, mode, strict):
    """max_excess by enumerating every proper admissible profile."""
    total_r, total_g = sum(c[0] for c in comps), sum(c[1] for c in comps)
    bounds = [[checker.subsheaf_bound(r, rank, g, strict) for r in range(rank + 1)]
              for rank, g, _ in comps]
    best = float("-inf")
    stack = [(0, r, total_r * bounds[0][r] - total_g * r, r == comps[0][0])
             for r in range(1, comps[0][0] + 1)]
    while stack:
        i, r, excess, full = stack.pop()
        if not (full and i == len(comps) - 1):
            best = max(best, excess)
        if i + 1 < len(comps):
            cap = r if mode == "paper" else d * r
            for r2 in range(1, min(comps[i + 1][0], cap) + 1):
                gain = total_r * bounds[i + 1][r2] - total_g * r2
                stack.append((i + 1, r2, excess + gain, full and r2 == comps[i + 1][0]))
    return best


def test_exact_maximum_matches_exhaustive_search():
    rng = random.Random(11)
    for _ in range(400):
        d, mode, strict = rng.randint(1, 3), rng.choice(("paper", "conservative")), rng.random() < 0.5
        if rng.random() < 0.5:
            comps = [(r, g, True) for r, g in corpus.tower(
                rng.randint(1, 3), rng.randint(-5, 5), d, rng.randint(0, 4), rng.randint(0, 3))]
        else:
            comps = [(rng.randint(1, 5), rng.randint(-8, 8), True) for _ in range(rng.randint(1, 4))]
        assert checker.max_excess(comps, d, mode, strict) == _exhaustive_excess(comps, d, mode, strict)


def test_checker_decides_the_ladder_stable_side():
    # past the gate no theorem fixes the stable side under semistable bounds;
    # the exact maximum does (the seed refuses these documents)
    doc = next(x for x in corpus.ladder()
               if x["check"]["subsheaf"] == "semistable" and x["check"]["dim"] == 2)
    comps = doc["check"]["comps"]
    mu = checker.Fraction(sum(g for _, g, _ in comps), sum(r for r, _, _ in comps))
    assert checker.max_excess(comps, 2, doc["check"]["mode"], False) < 0

    def report(stable):
        return json.dumps({"semistable": "yes", "stable": stable, "certificate": None,
                           "mu_total": checker.fmt(mu), "provenance": "search"})

    assert checker.check(doc, 0, report("yes")) == (checker.DECIDED, [])
    for wrong in ("no", "unknown"):
        _, problems = checker.check(doc, 0, report(wrong))
        assert problems, f"stable={wrong} went unnoticed"


def test_checker_accepts_the_seed_reports(tmp_path):
    docs = corpus.build("oracle-towers", 3)[:40] + corpus.build("criteria-mix", 3)[:200]
    for i, doc in enumerate(docs):
        doc["id"] = i
    _, outcomes, _, tally = _run_docs(docs, tmp_path)
    assert tally.failed == 0, tally.problems
    assert checker.REJECTED in outcomes and checker.DECIDED in outcomes


def test_traced_and_untraced_runs_give_identical_reports(tmp_path):
    docs = corpus.build("oracle-towers", 5)[:30] + corpus.build("criteria-mix", 5)[:150]
    docs += corpus.ladder()[:3]
    for i, doc in enumerate(docs):
        doc["id"] = i
    _, _, plain, _ = _run_docs(docs, tmp_path / "plain")
    tracer = Tracer()
    tracer.install()
    try:
        _, _, traced, tally = _run_docs(docs, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tally.failed == 0
    metrics = tracer.metrics(1, 1.0)
    assert metrics["cli.main.calls"]["value"] == len(docs)
    assert metrics["search_oracle.profiles_enumerated"]["value"] > 0
    assert metrics["search_oracle.refused"]["value"] == 3
    # uninstalling restores every binding
    assert "wrapper" not in CLI.main.__qualname__


def test_rescaler_scales_by_the_neighbouring_reference_samples(monkeypatch):
    # reference samples at 1.5x, 2.5x and 1x the fixed speed's time
    ref = run.REFERENCE_S
    samples = iter([1.5 * ref, 2.5 * ref, ref])
    monkeypatch.setattr(run, "reference_time", lambda: next(samples))
    rescaler = run.Rescaler()
    first, second = [], []
    rescaler.add(first, 0.001)
    assert first == []  # held until the next reference sample
    rescaler.add(second, run.WINDOW_S)  # fills the window, so the reference is sampled
    assert first == [pytest.approx(0.0005)] and second == [pytest.approx(run.WINDOW_S / 2)]
    rescaler.add(first, 0.003)
    rescaler.flush()  # mean of 2.5x and 1x
    assert first[1] == pytest.approx(0.003 / 1.75)
    assert rescaler.references == [1.5 * ref, 2.5 * ref, ref]
    assert rescaler.total == pytest.approx(0.0005 + run.WINDOW_S / 2 + 0.003 / 1.75)
