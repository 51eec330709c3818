"""Each command's work grows at most linearly with its document.

A command runs in process on a document of size N and on one of size 2N.
Every bundle the document holds is read back as a ``CountedBundle``, which
counts each read of its rank, degree and two attestations, and the count
at 2N may be at most 2.1 times the count at N.  A count a*N + c, with the
constant c small against a*N, passes; one that grows like N^2, such as
summing every component once per declared profile, reads about four times
as much at 2N and fails.  A declared system's profile entries touch no
bundle, so that case also counts the entries checked, with the same bound.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from hodgeslope import cli, profiles
from hodgeslope.slope_core import BundleData

N = 150


class CountedBundle(BundleData):
    """A bundle that counts every read of its rank, degree and attestations."""

    reads = 0

    @property
    def rank(self):
        CountedBundle.reads += 1
        return self.__dict__["rank"]

    @property
    def degree(self):
        CountedBundle.reads += 1
        return self.__dict__["degree"]

    @property
    def semistable(self):
        CountedBundle.reads += 1
        return self.__dict__["semistable"]

    @property
    def stable(self):
        CountedBundle.reads += 1
        return self.__dict__["stable"]


CURVE = {"characteristic": 0, "dim": 1, "omega_degree": 2, "omega_semistable": True}


def bundle(rank: int, degree: int) -> dict:
    return {"rank": rank, "degree": degree, "semistable": True}


def tower(n: int) -> list[dict]:
    """The isomorphism tower of n line bundles over (1, 0) on CURVE."""
    return [bundle(1, 2 * i) for i in range(n)]


def declared_system(n: int) -> dict:
    components = [bundle(1, 0)] * n
    profiles = [[[1, -1]]] * n
    return {"hodge_system": {"context": CURVE, "components": components,
                             "theta": {"declared": profiles}}}


def tower_system(n: int) -> dict:
    return {"hodge_system": {"context": CURVE, "components": tower(n), "theta": "isomorphisms"}}


def filtration(n: int) -> dict:
    return {"context": CURVE, "graded": tower(n), "transversal": True,
            "theta_squares_to_zero": True, "theta_iso": True}


def connection_pair(n: int) -> dict:
    total = {"rank": n, "degree": n * (n - 1)}
    return {"connection_pair": {"total": total, "flat": True, "filtration": filtration(n)}}


def hn_request(n: int) -> dict:
    profile = [bundle(1, n - i) for i in range(n)]
    return {"hn_request": {"profile": profile, "tensor_with": bundle(2, 1)}}


CASES = {
    "declared check-system": ("check-system", declared_system),
    "tower check-system": ("check-system", tower_system),
    "search": ("search", tower_system),
    "hn-tensor": ("hn-tensor", hn_request),
    "check-oper": ("check-oper", lambda n: {"griffiths_filtration": filtration(n)}),
    "check-connection": ("check-connection", connection_pair),
}


@pytest.fixture
def counted(monkeypatch):
    """Make every bundle a document holds a CountedBundle."""
    parse = BundleData.__dict__["from_json"].__func__

    def from_json(obj):
        b = parse(obj)
        return CountedBundle(b.rank, b.degree, b.semistable, b.stable)

    monkeypatch.setattr(BundleData, "from_json", staticmethod(from_json))


def reads(tmp_path, command: str, doc: dict) -> int:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    CountedBundle.reads = 0
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main([command, str(path)])
    assert code == 0, err.getvalue()
    return CountedBundle.reads


@pytest.mark.parametrize("case", list(CASES))
def test_reads_grow_at_most_linearly(tmp_path, counted, case):
    command, build = CASES[case]
    small = reads(tmp_path, command, build(N))
    large = reads(tmp_path, command, build(2 * N))
    assert small >= N  # every bundle is read at least once
    assert 10 * large <= 21 * small, (small, large)


def test_declared_entries_grow_at_most_linearly(tmp_path, monkeypatch):
    checked = []
    entry = profiles._entry

    def counted_entry(i, pair):
        checked.append(i)
        return entry(i, pair)

    monkeypatch.setattr(profiles, "_entry", counted_entry)
    counts = []
    for n in (N, 2 * N):
        checked.clear()
        reads(tmp_path, "check-system", declared_system(n))
        counts.append(len(checked))
    small, large = counts
    assert small >= N  # every declared entry is checked at least once
    assert 10 * large <= 21 * small, (small, large)
