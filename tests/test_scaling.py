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

import pytest

from hodgeslope import profiles
from hodgeslope.slope_core import BundleData

from support import CountedBundle, run_raw, write_doc

N = 150


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


def reads(capsys, tmp_path, command: str, doc: dict) -> int:
    """Every read of a bundle's four fields while ``command`` runs on ``doc``."""
    CountedBundle.reads.clear()
    code, _, err = run_raw(capsys, [command, write_doc(tmp_path, doc)])
    assert code == 0, err
    return sum(CountedBundle.reads.values())


@pytest.mark.parametrize("case", list(CASES))
def test_reads_grow_at_most_linearly(capsys, tmp_path, counted, case):
    command, build = CASES[case]
    small = reads(capsys, tmp_path, command, build(N))
    large = reads(capsys, tmp_path, command, build(2 * N))
    assert small >= N  # every bundle is read at least once
    assert 10 * large <= 21 * small, (small, large)


def test_declared_entries_grow_at_most_linearly(capsys, tmp_path, monkeypatch):
    checked = []
    entry = profiles._entry

    def counted_entry(i, pair):
        checked.append(i)
        return entry(i, pair)

    monkeypatch.setattr(profiles, "_entry", counted_entry)
    counts = []
    for n in (N, 2 * N):
        checked.clear()
        reads(capsys, tmp_path, "check-system", declared_system(n))
        counts.append(len(checked))
    small, large = counts
    assert small >= N  # every declared entry is checked at least once
    assert 10 * large <= 21 * small, (small, large)
