#!/usr/bin/env python3
"""hodgeslope benchmark: seeded workloads through the real entry points.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-towers --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Each workload is a closed loop with one client: the next document goes to
``hodgeslope.cli.main`` (in process) when the previous report returns.
Every report is checked by ``checker.py``, which derives its answers
without hodgeslope's verdict code.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
Every end-to-end time is rescaled to a fixed machine speed (Rescaler).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import corpus  # noqa: E402

WORKLOADS = ("oracle-towers", "criteria-mix", "inequality-sweep")
DOC_LIMIT_S = 2.0  # per-document time limit for decided_share
SETUP_RUNS = 7  # fewest set-up samples; one is taken after each pass
REFERENCE_S = 1.7e-3  # reference() on an uncontended core of the tuning machine
WINDOW_S = 0.04  # measured time between two reference samples, at most one call more
CHEBYSHEV_CHUNK = 100  # pairs timed as one call, so the batch spans several windows
PROBE_SIZES = ((1, 20), (2, 30))  # verify-inequalities probe run by the two document workloads

END_TO_END = [
    ("setup_s", "s"),
    ("docs_per_s", "1/s"),
    ("doc_p50_ms", "ms"),
    ("doc_p99_ms", "ms"),
    ("decided_share", "ratio"),
    ("powersum_checks_per_s", "1/s"),
    ("chebyshev_checks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


class DocTimeout(BaseException):
    """Raised in the main thread when a document exceeds DOC_LIMIT_S."""


def _alarm(signum, frame):
    raise DocTimeout()


def _arm(seconds: float) -> None:
    """Raise DocTimeout in the main thread after ``seconds``; 0 disarms."""
    if seconds:
        signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so the run's documents are removed


REFERENCE_DOC = {"components": [{"rank": r, "degree": 3 - 2 * r} for r in range(1, 9)]}


def reference() -> Fraction:
    """Fixed interpreter work of two kinds, in about equal time.  The first
    is int, str and dict work, as in the inequality checks.  The second is
    the standard-library modules every document passes through: an
    argparse parser built and used, a JSON round trip and Fraction
    arithmetic.  Either alone follows some of the workloads' code less
    closely through the host's slow stretches."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(1, 1700):
        k = i * 2654435761 % 997
        table[k] = table.get(k, 0) + len(str(k))
        acc += math.gcd(k, i)
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command")
    for name in ("first", "second", "third"):
        command = commands.add_parser(name)
        command.add_argument("path")
        command.add_argument("--mode", choices=("x", "y"))
        command.add_argument("--n", type=int, default=3)
    args = parser.parse_args(["second", "doc.json", "--mode", "y", "--n", "5"])
    total = Fraction(args.n)
    for c in json.loads(json.dumps(REFERENCE_DOC))["components"]:
        total += Fraction(c["degree"], c["rank"])
    best = Fraction(0)
    for i in range(1, 120):
        best = max(best, Fraction(i % 13 - 6, i % 5 + 1) + Fraction(1, i))
    return total + best + acc + len(table)


def reference_time() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Rescaler:
    """Rescales wall times to a fixed machine speed.

    The shared host runs the same code up to twice as fast in some
    stretches of a few seconds as in others, so raw wall times of one run
    differ from the next by more than a regression worth catching.
    ``reference()`` is timed between the measured calls, after at most
    WINDOW_S of them; each measured time is multiplied by REFERENCE_S over
    the mean of the reference times just before and after it.  The result
    reads as the time on the tuning machine's uncontended core, and a
    program that does less work reads faster in proportion."""

    def __init__(self):
        self.before = reference_time()
        self.references = [self.before]  # raw reference times, for the run's report
        self.pending: list[tuple[list[float], float]] = []
        self.pending_s = 0.0
        self.total = 0.0  # every rescaled time so far

    def add(self, samples: list[float], elapsed: float) -> None:
        """Append ``elapsed``, rescaled, to ``samples`` at the next reference sample."""
        self.pending.append((samples, elapsed))
        self.pending_s += elapsed
        if self.pending_s >= WINDOW_S:
            self.flush()

    def flush(self) -> None:
        after = reference_time()
        self.references.append(after)
        scale = 2 * REFERENCE_S / (self.before + after)
        for samples, elapsed in self.pending:
            samples.append(elapsed * scale)
            self.total += elapsed * scale
        self.before, self.pending, self.pending_s = after, [], 0.0


class Runner:
    """Sends one command line to cli.main and captures its report."""

    def __init__(self, cli):
        self.cli = cli

    def execute(self, argv: list[str]):
        """Run one command line under DOC_LIMIT_S; a document over the
        limit returns the code ``"timeout"``."""
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        _arm(DOC_LIMIT_S)
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except DocTimeout:
            code = "timeout"
        except Exception as exc:  # a traceback is a failed document, not a crash of the run
            code = f"traceback {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            _arm(0)
            sys.stdout, sys.stderr = saved
        return code, out.getvalue(), elapsed


def materialize(docs: list[dict], directory: Path) -> list[list[str]]:
    """Write each payload to its own file; return the command lines."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for doc in docs:
        path = directory / f"doc-{doc['id']:04d}.json"
        payload = doc["payload"]
        if payload is not None:
            text = payload if isinstance(payload, str) else json.dumps(payload)
            path.write_text(text, encoding="utf-8")
        argvs.append([str(path) if a == corpus.DOC else a for a in doc["argv"]])
    return argvs


class Tally:
    """Attempts and failures of one run."""

    def __init__(self):
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in problems)


def check_phase(runner: Runner, docs, argvs, tally: Tally) -> tuple[list, list, str]:
    """Run every document once under the time limit and check its report.

    Returns the outputs, each document's outcome class and a digest of
    every exit code and report byte."""
    outputs, outcomes, digest = [], [], hashlib.sha256()
    for doc, argv in zip(docs, argvs):
        code, out, _ = runner.execute(argv)
        tally.attempted += 1
        outputs.append((code, out))
        digest.update(f"{code}\n{out}".encode())
        if code == "timeout" and doc.get("ladder"):
            outcome, problems = checker.REFUSED, []
        elif isinstance(code, str):
            outcome, problems = "failed", [code]
        else:
            outcome, problems = checker.check(doc, code, out)
        if problems:
            outcome = "failed"
            tally.fail(f"doc {doc['id']} ({doc['kind']}) {' '.join(doc['argv'])}", problems)
        outcomes.append(outcome)
    return outputs, outcomes, "sha256:" + digest.hexdigest()[:16]


def build_pairs(raw_pairs, inequalities):
    """Program-side sequence pairs: (a descending, b ascending) for the
    upper inequality and (a, b ascending) for the lower one."""
    pairs = []
    for a, b in raw_pairs:
        xs = sorted(Fraction(p, q) for p, q in a)
        ys = sorted(Fraction(p, q) for p, q in b)
        pairs.append((inequalities.make_pair(xs[::-1], ys), inequalities.make_pair(xs, ys)))
    return pairs


def passes(runner, argvs, expected, raw_pairs, pairs, inequalities, tally, seconds, min_passes,
           rescaler, between=None):
    """Closed loop with one client.  Each pass sends every command line once,
    in order, then runs the Chebyshev batch, until ``seconds`` have passed.

    Returns each command line's latencies, the pass times and the times of
    each chunk of the batch, all rescaled by ``rescaler``.  Every report
    must equal its checked first run, and the batch's first results are
    checked independently.  A command line that timed out in the check
    phase, and so already failed, is not sent again: its latency reads as
    the limit.  Once anything has failed, the loop stops at ``seconds``
    even short of ``min_passes``.  ``between`` runs after each pass,
    outside the timed region."""
    upper, lower = inequalities.chebyshev_upper, inequalities.chebyshev_lower
    chunks = [pairs[i:i + CHEBYSHEV_CHUNK] for i in range(0, len(pairs), CHEBYSHEV_CHUNK)]
    latencies, chunk_times = [[] for _ in argvs], [[] for _ in chunks]
    pass_times, first = [], None
    deadline = time.perf_counter() + seconds
    while (len(pass_times) < min_passes and not tally.failed) or time.perf_counter() < deadline:
        start = rescaler.total
        for samples, argv, want in zip(latencies, argvs, expected):
            if want[0] == "timeout":
                samples.append(DOC_LIMIT_S)
                continue
            code, out, elapsed = runner.execute(argv)
            rescaler.add(samples, elapsed)
            if (code, out) != want:
                tally.fail(" ".join(argv), [code if code == "timeout" else
                                            "report differs from its first run"])
        results = []
        for samples, chunk in zip(chunk_times, chunks):
            chunk_start = time.perf_counter()
            part = [(upper(up), lower(lo)) for up, lo in chunk]
            rescaler.add(samples, time.perf_counter() - chunk_start)
            results += part
        rescaler.flush()
        pass_times.append(rescaler.total - start)
        tally.attempted += len(argvs) + 2 * len(pairs)
        if first is None:
            first = results
            for raw, (up, lo) in zip(raw_pairs, results):
                problems = checker.check_chebyshev(
                    raw, (up.holds, up.lhs, up.rhs), (lo.holds, lo.lhs, lo.rhs))
                if problems:
                    tally.fail(f"chebyshev pair {raw}", problems)
        elif results != first:
            tally.fail("chebyshev batch", ["results differ from the first pass"])
        if between is not None:
            between()
    return latencies, pass_times, chunk_times


def tail(samples: list[float]) -> tuple[float, float]:
    """The p99, or with fewer than 1,000 samples the highest percentile
    that has ten samples beyond it, but never below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(math.ceil(0.5 * n), min(math.ceil(0.99 * n), n - 10))
    return ordered[rank - 1], 100.0 * rank / n


def setup_sample() -> float:
    """Wall time of one fresh interpreter importing hodgeslope.cli, rescaled
    by reference samples just before and after it (see Rescaler).

    ``-S`` skips site-packages, which hodgeslope does not need: the
    ``.pth`` hooks of the host's installation would otherwise dominate
    the time and its noise.  The wait blocks in waitpid under the run's
    alarm, because a wait with a timeout polls and would round the times
    up to its polling step."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = reference_time()
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-S", "-c", "import hodgeslope.cli"],
                             env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    _arm(60)
    try:
        code = child.wait()
    except DocTimeout:
        child.kill()
        child.wait()
        raise SystemExit("perfbench: importing hodgeslope.cli took more than 60 s")
    finally:
        _arm(0)
    if code != 0:
        raise SystemExit(f"perfbench: importing hodgeslope.cli failed with exit {code}")
    elapsed = time.perf_counter() - start
    return elapsed * 2 * REFERENCE_S / (before + reference_time())


def load_program():
    if not (SRC / "hodgeslope" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no hodgeslope sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hodgeslope.cli
    import hodgeslope.inequalities

    if Path(hodgeslope.cli.__file__).resolve().parent != SRC / "hodgeslope":
        raise SystemExit("perfbench: hodgeslope was not imported from this checkout")
    return hodgeslope.cli, hodgeslope.inequalities


def powersum_checks(argvs) -> int:
    """Checks made by verify-inequalities command lines: d_max(n_max+1)(n_max+2)/2."""
    return sum(int(a[2]) * (int(a[4]) + 1) * (int(a[4]) + 2) // 2 for a in argvs)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli, inequalities = load_program()
    runner, tally = Runner(cli), Tally()
    docs = corpus.build(workload, seed)
    ladder = corpus.ladder() if workload == "oracle-towers" else []
    sweep = workload == "inequality-sweep"
    probe = [] if sweep else [corpus.sweep_doc(d, n) for d, n in PROBE_SIZES]
    for i, doc in enumerate(probe + ladder):
        doc["id"] = len(docs) + i
    raw_pairs = corpus.chebyshev_pairs(
        random.Random(f"pairs:{workload}:{seed}"), corpus.PAIRS_PER_PASS)
    pairs = build_pairs(raw_pairs, inequalities)
    workdir = OUT / f"docs-{workload}-{seed}-{os.getpid()}"
    try:
        argvs = materialize(docs + probe, workdir)
        ladder_argvs = materialize(ladder, workdir)
        outputs, outcomes, digest = check_phase(runner, docs + probe, argvs, tally)
        _, ladder_outcomes, ladder_digest = check_phase(runner, ladder, ladder_argvs, tally)
        outcomes = outcomes[: len(docs)] + ladder_outcomes
        refused = outcomes.count(checker.REFUSED)
        decided = outcomes.count(checker.DECIDED) + outcomes.count(checker.REJECTED)
        gc.collect()
        gc.freeze()  # the benchmark's own long-lived objects stay out of later collections
        print(f"workload {workload} seed {seed}: {len(docs)} documents, {len(ladder)} ladder")
        print(f"report digest {digest}" + (f"  ladder digest {ladder_digest}" if ladder else ""))
        if ladder:
            print(f"ladder: {refused} of {len(ladder)} refused or timed out")
        if trace:
            trace_path = OUT / f"trace-{workload}.jsonl"
            metrics = traced(runner, argvs[: len(docs)], outputs, ladder_argvs,
                             raw_pairs if sweep else [], pairs if sweep else [],
                             inequalities, seconds, tally, trace_path)
        else:
            setup_sample()  # fills the bytecode cache
            setup_times: list[float] = []
            rescaler = Rescaler()
            latencies, _, chunk_times = passes(
                runner, argvs, outputs, raw_pairs, pairs, inequalities, tally, seconds, 3,
                rescaler, between=lambda: setup_times.append(setup_sample()))
            while len(setup_times) < SETUP_RUNS:
                setup_times.append(setup_sample())
            # A command line's latency is the median of its passes: on the
            # shared machine the benchmark was tuned on, fast passes come
            # rarely and at random, so the fastest pass varies between runs
            # far more than the median does.
            typical = [statistics.median(samples) for samples in latencies]
            doc_typical = typical[: len(docs)]
            ineq_typical, ineq_argvs = ((typical, argvs) if sweep else
                                        (typical[len(docs):], argvs[len(docs):]))
            p99, percentile = tail(doc_typical)
            print(f"  {len(latencies[0])} passes; doc_p99_ms is the p{percentile:.1f} of "
                  f"{len(doc_typical)} documents; decided {decided} of {len(outcomes)} documents")
            print(f"  raw reference time: median {1000 * statistics.median(rescaler.references):.3f} ms"
                  f" of {len(rescaler.references)}, {1000 * REFERENCE_S:.3f} ms at the fixed speed")
            values = {
                "setup_s": statistics.median(setup_times),
                "docs_per_s": len(doc_typical) / sum(doc_typical),
                "doc_p50_ms": 1000 * statistics.median(doc_typical),
                "doc_p99_ms": 1000 * p99,
                "decided_share": decided / len(outcomes),
                "powersum_checks_per_s": powersum_checks(ineq_argvs) / sum(ineq_typical),
                "chebyshev_checks_per_s": 2 * len(pairs) / sum(map(statistics.median, chunk_times)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems[:20]:
        print("FAILED " + problem, file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def traced(runner, argvs, outputs, ladder_argvs, raw_pairs, pairs, inequalities, seconds, tally,
           trace_path: Path) -> dict:
    """A third of the time untraced, the rest traced; per-layer metrics per
    pass.  search_oracle.refused counts the ladder, sent once at the end."""
    from tracer import Tracer

    def loop(span):
        return passes(runner, argvs, outputs, raw_pairs, pairs, inequalities, tally, span, 2,
                      Rescaler())[1]

    plain = loop(seconds / 3)
    tracer = Tracer()
    tracer.install()
    try:
        with_trace = loop(2 * seconds / 3)
        metrics = tracer.metrics(len(with_trace),
                                 statistics.median(with_trace) / statistics.median(plain))
        for argv in ladder_argvs:
            runner.execute(argv)
    finally:
        tracer.uninstall()
    metrics["search_oracle.refused"]["value"] = tracer.counts["refused"]
    shares = tracer.self_shares()
    print("  self-time shares of traced time: " + ", ".join(
        f"{name} {share:.1%}" for name, share in shares if share >= 0.005))
    tracer.write(trace_path, {"passes": len(with_trace), "self_shares": shares,
                              "metrics": {k: v["value"] for k, v in metrics.items()}})
    print(f"  {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}, "
          f"{tracer.dropped} dropped past the cap")
    return metrics


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own child process, so each reports its own peak RSS."""
    results, exit_code = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            exit_code = proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    combined = {
        "correct": len(results) == len(WORKLOADS) and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }
    print(json.dumps(combined, sort_keys=True))
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
