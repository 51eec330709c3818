"""Byte-for-byte replay of recorded command-line runs.

Each line of ``golden/cli.jsonl`` records a command line, the document it
reads (written to a temporary file whose path replaces ``{doc}``), and the
exit code, stdout and stderr the command produced.  A case with an
``oracle`` field replaces the search oracle's verdict with the recorded
one: criterion and oracle never disagree on real input, so this is the
only way to reach exit code 2.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from hodgeslope import cli, search_oracle
from hodgeslope.hodge_system import Answer, Verdict
from hodgeslope.profiles import SubsystemProfile

CASES = [
    json.loads(line)
    for line in (Path(__file__).parent / "golden" / "cli.jsonl")
    .read_text(encoding="utf-8")
    .splitlines()
]


def _fake_oracle(monkeypatch, recorded: dict) -> None:
    certificate = recorded["certificate"]
    fake = Verdict(
        Answer(recorded["semistable"]),
        Answer(recorded["stable"]),
        SubsystemProfile.from_json(certificate) if certificate else None,
        recorded["provenance"],
    )
    # replace the oracle wherever a module binds it, so the case does not
    # depend on which module looks it up
    original = search_oracle.verdict_from_search
    for name, module in list(sys.modules.items()):
        if name.startswith("hodgeslope.") and getattr(module, "verdict_from_search", None) is original:
            monkeypatch.setattr(module, "verdict_from_search", lambda *a, **k: fake)


@pytest.mark.parametrize("case", CASES, ids=[f"line{i + 1}" for i in range(len(CASES))])
def test_replay(case, tmp_path, capsys, monkeypatch):
    argv = case["argv"]
    if case["document"] is not None:
        path = tmp_path / "doc.json"
        path.write_text(case["document"], encoding="utf-8")
        argv = [str(path) if arg == "{doc}" else arg for arg in argv]
    if "oracle" in case:
        _fake_oracle(monkeypatch, case["oracle"])
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])
