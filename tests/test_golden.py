"""Byte-for-byte replay of recorded command-line runs.

Each line of ``golden/cli.jsonl`` records a command line, the document it
reads (written to a temporary file whose path replaces ``{doc}``), and the
exit code, stdout and stderr the command produced.  A case with an
``oracle`` field replaces the search oracle's verdict with the recorded
one: criterion and oracle never disagree on real input, so this is the
only way to reach exit code 2.  Every case also replaces the Dinkelbach
solver ``max_slope_profile`` with one that raises: no command reaches it,
since the oracle decides every tower in closed form.

Run as a script, ``python tests/test_golden.py`` replays every case
without an ``oracle`` field through the ``hodgeslope`` executable on the
``PATH``, each in its own process, and exits 1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from hodgeslope import search_oracle
from hodgeslope.hodge_system import Verdict
from hodgeslope.profiles import SubsystemProfile

from support import run_raw

CASES = [
    json.loads(line)
    for line in (Path(__file__).parent / "golden" / "cli.jsonl")
    .read_text(encoding="utf-8")
    .splitlines()
]


def _fake_oracle(monkeypatch, recorded: dict) -> None:
    certificate = recorded["certificate"]
    # the sides are the strings JSON gives, equal to the answer constants
    # but not the same objects
    fake = Verdict(
        recorded["semistable"],
        recorded["stable"],
        SubsystemProfile.from_json(certificate) if certificate else None,
        recorded["provenance"],
    )
    # replace the oracle wherever a module binds it, so the case does not
    # depend on which module looks it up
    original = search_oracle.verdict_from_search
    for name, module in list(sys.modules.items()):
        if name.startswith("hodgeslope.") and getattr(module, "verdict_from_search", None) is original:
            monkeypatch.setattr(module, "verdict_from_search", lambda *a, **k: fake)


def _no_solver(*args, **kwargs):
    raise AssertionError("a command reached max_slope_profile")


def case_argv(case: dict, directory: Path) -> list[str]:
    """The case's command line, its document written into ``directory``
    and that file's path in place of ``{doc}``."""
    argv = case["argv"]
    if case["document"] is None:
        return argv
    path = directory / "doc.json"
    path.write_text(case["document"], encoding="utf-8")
    return [str(path) if arg == "{doc}" else arg for arg in argv]


@pytest.mark.parametrize("case", CASES, ids=[f"line{i + 1}" for i in range(len(CASES))])
def test_replay(case, tmp_path, capsys, monkeypatch):
    argv = case_argv(case, tmp_path)
    monkeypatch.setattr(search_oracle, "max_slope_profile", _no_solver)
    if "oracle" in case:
        _fake_oracle(monkeypatch, case["oracle"])
    assert run_raw(capsys, argv) == (case["exit"], case["stdout"], case["stderr"])


def replay_installed() -> int:
    """Replay every case whose oracle is not faked through the executable,
    comparing exit code, stdout and stderr byte for byte; 1 on any
    difference."""
    replayed = differ = 0
    env = {**os.environ, "PYTHONIOENCODING": "utf-8"}
    with tempfile.TemporaryDirectory() as directory:
        for number, case in enumerate(CASES, 1):
            if "oracle" in case:
                continue
            argv = case_argv(case, Path(directory))
            run = subprocess.run(["hodgeslope", *argv], capture_output=True, env=env)
            replayed += 1
            expected = (case["exit"], case["stdout"].encode(), case["stderr"].encode())
            if (run.returncode, run.stdout, run.stderr) != expected:
                differ += 1
                print(f"line {number} {case['argv']}: exit {run.returncode}")
                print((run.stdout + run.stderr).decode("utf-8", "replace"))
    print(f"{replayed} golden lines replayed, {differ} differ")
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(replay_installed())
