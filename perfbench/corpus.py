"""Seeded document corpora for the three benchmark workloads.

This module imports nothing from hodgeslope: documents are plain JSON
values built from the tower formulas, so the program under test sees only
the generated documents and command lines.  Every document carries a
``check`` record with the generator's own view of the instance, which the
independent checker (``checker.py``) compares the report against.

A document is a dict with keys ``id``, ``kind``, ``argv`` (``"{doc}"``
stands for the path the payload is written to), ``payload`` (a JSON value,
raw text, or None for argv-only commands) and ``check``.
"""

from __future__ import annotations

import random
from fractions import Fraction

DOC = "{doc}"
BUDGET = 10_000_000  # the program's default profile budget


def tower(r0: int, e0: int, d: int, w: int, n: int) -> list[tuple[int, int]]:
    """(rank, degree) of E_0..E_n in the isomorphism tower over (r0, e0)."""
    out = [(r0, e0)]
    for i in range(1, n + 1):
        out.append((d**i * r0, i * d ** (i - 1) * w * r0 + d**i * e0))
    return out


def chain_count(ranks: list[int], d: int, mode: str) -> int:
    """Number of admissible rank chains over every support length."""
    ways = {r: 1 for r in range(1, ranks[0] + 1)}
    total = sum(ways.values())
    for rank in ranks[1:]:
        nxt = {}
        for prev, count in ways.items():
            cap = prev if mode == "paper" else d * prev
            for r in range(1, min(rank, cap) + 1):
                nxt[r] = nxt.get(r, 0) + count
        ways = nxt
        total += sum(ways.values())
    return total


def gate_size(ranks: list[int]) -> int:
    """The program's budget gate counts prod(rank + 1) rank assignments."""
    size = 1
    for r in ranks:
        size *= r + 1
    return size


def _bundle(rank: int, degree: int, semistable=None, stable=None) -> dict:
    out = {"rank": rank, "degree": degree}
    if semistable is not None:
        out["semistable"] = semistable
    if stable is not None:
        out["stable"] = stable
    return out


def _context(char: int, d: int, w: int, omega_stable: bool = False) -> dict:
    return {
        "characteristic": char,
        "dim": d,
        "omega_degree": w,
        "omega_semistable": True,
        "omega_stable": omega_stable,
    }


def _system(context: dict, components: list[dict], theta="isomorphisms") -> dict:
    return {"hodge_system": {"context": context, "components": components, "theta": theta}}


def tower_doc(
    rng: random.Random,
    r0: int,
    d: int,
    n: int,
    mode: str,
    subsheaf: str,
    attest: str,
    command: str,
    w: int | None = None,
    e0: int | None = None,
) -> dict:
    """A search or check-system document over an attested isomorphism tower."""
    w = rng.randint(0, 4) if w is None else w
    e0 = rng.randint(-5, 5) if e0 is None else e0
    stable = attest == "stable"
    comps = tower(r0, e0, d, w, n)
    components = [_bundle(r, g, True, True if stable else None) for r, g in comps]
    payload = _system(_context(0, d, w, rng.random() < 0.5), components)
    argv = [command, DOC]
    if rng.random() < 0.3:
        options = {"constraint_mode": mode}
        if command == "search":
            options["subsheaf_mode"] = subsheaf
        payload["search_options"] = options
    else:
        if mode != "paper" or rng.random() < 0.5:
            argv += ["--mode", mode]
        if command == "search" and (subsheaf != "semistable" or rng.random() < 0.5):
            argv += ["--subsheaf", subsheaf]
    check = {
        "type": "tower",
        "comps": [[r, g, stable] for r, g in comps],
        "dim": d,
        "w": w,
        "command": command,
        "mode": mode,
        "subsheaf": subsheaf if command == "search" else "semistable",
    }
    return {"kind": "tower", "argv": argv, "payload": payload, "check": check}


def _random_tower_doc(rng: random.Random, max_chains: int, dims, commands) -> dict:
    while True:
        d = rng.choice(dims)
        r0 = rng.randint(1, 3)
        n = rng.randint(0, 3)
        mode = rng.choice(("paper", "conservative"))
        ranks = [d**i * r0 for i in range(n + 1)]
        if chain_count(ranks, d, mode) <= max_chains:
            break
    attest = rng.choice(("semistable", "stable"))
    command = rng.choice(commands)
    subsheaf = rng.choice(("semistable", "stable")) if attest == "stable" else "semistable"
    return tower_doc(rng, r0, d, n, mode, subsheaf, attest, command)


# --- oracle-towers ---------------------------------------------------------

# Fixed shapes (r0, d, n, mode, subsheaf) whose search cost does not depend
# on the seeded degrees, so a pass costs the same on every seed.
HEAVY_SHAPE = (1, 2, 6, "conservative", "semistable")  # 27k profiles
HEAVY_COUNT = 4
MEDIUM_SHAPES = [
    (6, 1, 6, "paper", "semistable"),  # 1,714 profiles, the largest d=1 in budget
    (6, 1, 6, "paper", "stable"),
    (5, 1, 6, "paper", "semistable"),
    (4, 1, 5, "paper", "stable"),
    (2, 2, 4, "conservative", "semistable"),
    (3, 2, 3, "conservative", "stable"),
    (1, 3, 4, "conservative", "semistable"),
    (1, 2, 5, "conservative", "semistable"),
]
TINY_COUNT = 80


def ladder() -> list[dict]:
    """Fixed documents past the budget gate, in growing size.

    The seed refuses every one of them; a solver that decides them raises
    decided_share.  Half run under stable bounds on stable-attested
    towers, where the theorem fixes both sides of the verdict.
    """
    rng = random.Random(0)
    shapes = [(k, 1, k, "paper") for k in (7, 8, 10, 14, 20, 30, 50)]
    for d, heights in ((2, (7, 8, 10, 12, 14)), (3, (5, 6, 7, 8))):
        for n in heights:
            for mode in ("paper", "conservative"):
                shapes.append((1, d, n, mode))
    docs = []
    for i, (r0, d, n, mode) in enumerate(shapes):
        attest, subsheaf = ("stable", "stable") if i % 2 else ("semistable", "semistable")
        doc = tower_doc(rng, r0, d, n, mode, subsheaf, attest, "search", w=2, e0=1)
        docs.append({**doc, "kind": "ladder", "ladder": True})
    return docs


def oracle_towers(rng: random.Random) -> list[dict]:
    docs = []
    for _ in range(HEAVY_COUNT):
        r0, d, n, mode, subsheaf = HEAVY_SHAPE
        attest = rng.choice(("semistable", "stable"))
        command = rng.choice(("search", "check-system"))
        docs.append(tower_doc(rng, r0, d, n, mode, subsheaf, attest, command))
    for r0, d, n, mode, subsheaf in MEDIUM_SHAPES * 2:
        attest = "stable" if subsheaf == "stable" else rng.choice(("semistable", "stable"))
        command = "search" if subsheaf == "stable" else rng.choice(("search", "check-system"))
        docs.append(tower_doc(rng, r0, d, n, mode, subsheaf, attest, command))
    for _ in range(TINY_COUNT):
        docs.append(_random_tower_doc(rng, 60, (1, 2, 3), ("search", "check-system")))
    rng.shuffle(docs)
    return docs


# --- criteria-mix ----------------------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 101)


def _char(rng: random.Random) -> int:
    return 0 if rng.random() < 0.6 else rng.choice(PRIMES)


def declared_doc(rng: random.Random) -> dict:
    """check-system on a system whose invariant subobjects are declared."""
    n = rng.randint(0, 3)
    equal_slopes = rng.random() < 0.3
    if equal_slopes:
        # every component of slope a/b, so equal-slope profiles exist
        a, b = rng.randint(-4, 4), rng.randint(1, 3)
        comps = [(k * b, k * a) for k in (rng.randint(1, 3) for _ in range(n + 1))]
    else:
        comps = [(rng.randint(1, 4), rng.randint(-6, 6)) for _ in range(n + 1)]
    flags = [rng.choice((True, None, None)) for _ in comps]
    profiles = []
    for _ in range(rng.randint(0, 3)):
        top = rng.randint(0, n)
        entries = []
        for (rank, degree), ss in zip(comps[: top + 1], flags):
            r = rng.randint(1, rank)
            bound = (r * degree) // rank
            g = bound - rng.choice((0, 0, 1, 2)) if ss else rng.randint(-6, 6)
            if r == rank:  # a full-rank subsheaf never exceeds the degree
                g = min(g, degree)
            entries.append([r, g])
        profiles.append(entries)
    if equal_slopes and rng.random() < 0.7:
        # a proper equal-slope line of E_0, or the whole system
        extra = [[b, a]] if rng.random() < 0.6 else [list(c) for c in comps]
        profiles.insert(rng.randint(0, len(profiles)), extra)
    components = [_bundle(r, g, ss) for (r, g), ss in zip(comps, flags)]
    payload = _system(
        _context(_char(rng), rng.randint(1, 3), rng.randint(0, 4)),
        components,
        {"declared": profiles},
    )
    check = {"type": "declared", "comps": [list(c) for c in comps], "profiles": profiles}
    return {"kind": "declared", "argv": ["check-system", DOC], "payload": payload, "check": check}


def unattested_doc(rng: random.Random) -> dict:
    """check-system on a tower that is not attested semistable throughout,
    so the criteria decide alone and the oracle is skipped."""
    d, w = rng.randint(1, 2), rng.randint(0, 4)
    comps = tower(rng.randint(1, 3), rng.randint(-5, 5), d, w, rng.randint(1, 3))
    flags = [rng.choice(("semistable", "stable", "unstable", "unknown")) for _ in comps]
    if all(f in ("semistable", "stable") for f in flags):
        flags[rng.randrange(len(flags))] = rng.choice(("unstable", "unknown"))
    attest = {
        "semistable": (True, None),
        "stable": (True, True),
        "unstable": (False, None),
        "unknown": (None, None),
    }
    components = [_bundle(r, g, *attest[f]) for (r, g), f in zip(comps, flags)]
    char = _char(rng)
    payload = _system(_context(char, d, w), components)
    check = {"type": "unattested", "flags": flags, "comps": comps, "dim": d, "w": w, "char": char}
    return {"kind": "unattested", "argv": ["check-system", DOC], "payload": payload, "check": check}


def _filtration(rng: random.Random, w_low: int = 0) -> tuple[dict, dict]:
    """A Griffiths filtration document and its generator record."""
    d, w = rng.randint(1, 2), rng.randint(w_low, 4)
    char = _char(rng)
    iso = rng.random() < 0.8
    if iso:
        pieces = tower(rng.randint(1, 2), rng.randint(-4, 4), d, w, rng.randint(0, 3))
    else:
        pieces = [(rng.randint(1, 3), rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))]
    flags = [rng.choice(("semistable", "semistable", "stable", "stable", "unknown")) for _ in pieces]
    attest = {"semistable": (True, None), "stable": (True, True), "unknown": (None, None)}
    record = {
        "context": _context(char, d, w),
        "graded": [_bundle(r, g, *attest[f]) for (r, g), f in zip(pieces, flags)],
        "transversal": rng.random() < 0.85,
        "theta_squares_to_zero": rng.random() < 0.85,
        "theta_iso": iso,
    }
    facts = {"pieces": pieces, "flags": flags, "dim": d, "w": w, "char": char}
    for key in ("transversal", "theta_squares_to_zero", "theta_iso"):
        facts[key] = record[key]
    return record, facts


def oper_doc(rng: random.Random) -> dict:
    record, facts = _filtration(rng)
    check = {"type": "oper", **facts}
    return {
        "kind": "oper",
        "argv": ["check-oper", DOC],
        "payload": {"griffiths_filtration": record},
        "check": check,
    }


def connection_doc(rng: random.Random) -> dict:
    flat = rng.random() < 0.5
    pair: dict = {"flat": flat}
    if rng.random() < 0.6:
        record, facts = _filtration(rng, w_low=-1)
        pair["filtration"] = record
        rank = sum(r for r, _ in facts["pieces"])
        degree = sum(g for _, g in facts["pieces"])
        char = facts["char"]
    else:
        facts = None
        rank, degree = rng.randint(1, 4), rng.randint(-5, 5)
        char = None
        if rng.random() < 0.7:
            char = _char(rng)
            pair["context"] = _context(char, rng.randint(1, 2), rng.randint(0, 3))
    pair["total"] = _bundle(rank, degree)
    check = {"type": "connection", "flat": flat, "char": char, "total": [rank, degree],
             "filtration": facts}
    return {
        "kind": "connection",
        "argv": ["check-connection", DOC],
        "payload": {"connection_pair": pair},
        "check": check,
    }


def hn_doc(rng: random.Random) -> dict:
    """hn-tensor on a valid profile: strictly decreasing quotient slopes."""
    quotients: list[tuple[int, int]] = []
    for _ in range(rng.randint(1, 4)):
        r, g = rng.randint(1, 3), rng.randint(-6, 6)
        if all(g * r2 != g2 * r for r2, g2 in quotients):
            quotients.append((r, g))
    quotients.sort(key=lambda q: Fraction(q[1], q[0]), reverse=True)
    factor = (rng.randint(1, 3), rng.randint(-4, 4))
    request = {
        "profile": [_bundle(r, g, True) for r, g in quotients],
        "tensor_with": _bundle(*factor, True),
    }
    check = {"type": "hn", "quotients": quotients, "factor": factor}
    return {"kind": "hn", "argv": ["hn-tensor", DOC], "payload": {"hn_request": request},
            "check": check}


def gallery_doc(rng: random.Random) -> dict:
    name = rng.choice(
        ("strictly-semistable", "surjective-not-iso", "injective-not-iso", "unstable-component")
    )
    if name == "strictly-semistable":
        params = {"g": rng.randint(1, 6)}
    elif name == "surjective-not-iso":
        g = rng.randint(2, 5)
        params = {"g": g, "d_line": rng.randint(2 * g - 1, 2 * g + 5)}
    else:
        params = {"g": rng.randint(2, 5), "d0": rng.randint(1, 6)}
    argv = ["gallery", name]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return {"kind": "gallery", "argv": argv, "payload": None,
            "check": {"type": "gallery", "name": name, "params": params}}


def malformed_doc(rng: random.Random) -> dict:
    """A document or command line the program must reject with exit 1."""
    kind = rng.randrange(14)
    w = rng.randint(1, 3)
    good = tower(rng.randint(1, 2), rng.randint(-3, 3), 1, w, 1)
    components = [_bundle(r, g, True) for r, g in good]
    argv = ["check-system", DOC]
    payload: object = _system(_context(0, 1, w), components)
    if kind == 0:
        payload = '{"hodge_system": '
    elif kind == 1:
        payload = [1, 2]
    elif kind == 2:
        payload["hn_request"] = {"profile": [], "tensor_with": components[0]}
    elif kind == 3:
        payload["extra"] = 1
    elif kind == 4:
        components[-1]["degree"] += 1  # breaks the tower relation
    elif kind == 5:
        payload["hodge_system"]["context"]["characteristic"] = rng.choice((4, 6, 9, 15))
    elif kind == 6:
        components[0]["rank"] = str(components[0]["rank"])
    elif kind == 7:
        payload["hodge_system"]["theta"] = {"declared": []}
        argv = ["search", DOC]
    elif kind == 8:
        argv = ["search", DOC, "--subsheaf", "stable"]  # only semistable attested
    elif kind == 9:
        argv, payload = ["gallery", "strictly-semistable", "--g", "0"], None
    elif kind == 10:
        ctx = _context(0, 1, -w)
        pieces = tower(1, 2, 1, -w, 1)
        payload = {"griffiths_filtration": {
            "context": ctx, "graded": [_bundle(r, g, True) for r, g in pieces],
            "transversal": True, "theta_squares_to_zero": True, "theta_iso": True}}
        argv = ["check-oper", DOC]
    elif kind == 11:
        payload = {"hn_request": {"profile": [_bundle(1, 0, True), _bundle(1, 2, True)],
                                  "tensor_with": _bundle(1, 1, True)}}
        argv = ["hn-tensor", DOC]
    elif kind == 12:
        argv = ["search", DOC, "--budget", "0"]
    else:
        argv = ["check-oper", DOC]  # wrong payload for the command
    return {"kind": "malformed", "argv": argv, "payload": payload,
            "check": {"type": "malformed", "case": kind}}


CRITERIA_PLAN = (
    (declared_doc, 170),
    (unattested_doc, 120),
    (lambda rng: _random_tower_doc(rng, 12, (1, 2), ("check-system",)), 60),
    (oper_doc, 150),
    (connection_doc, 180),
    (hn_doc, 150),
    (gallery_doc, 100),
    (malformed_doc, 70),
)


def criteria_mix(rng: random.Random) -> list[dict]:
    docs = [make(rng) for make, count in CRITERIA_PLAN for _ in range(count)]
    rng.shuffle(docs)
    return docs


# --- inequality-sweep ------------------------------------------------------

# (d_max, n_max) sweeps, growing toward d <= 3, n <= 100
SWEEP_SIZES = ((1, 25), (2, 50), (3, 60), (3, 75), (3, 100))
PAIRS_PER_PASS = 1500


def sweep_doc(d_max: int, n_max: int) -> dict:
    argv = ["verify-inequalities", "--d-max", str(d_max), "--n-max", str(n_max)]
    return {"kind": "verify", "argv": argv, "payload": None,
            "check": {"type": "verify", "d_max": d_max, "n_max": n_max}}


def chebyshev_pairs(rng: random.Random, count: int) -> list[tuple[list, list]]:
    """Rational sequences as (numerator, denominator) pairs, unsorted."""
    pairs = []
    for _ in range(count):
        length = rng.randint(1, 10)
        a = [(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(length)]
        b = [(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(length)]
        pairs.append((a, b))
    return pairs


def inequality_sweep(rng: random.Random) -> list[dict]:
    return [sweep_doc(d, n) for d, n in SWEEP_SIZES]


WORKLOADS = {
    "oracle-towers": oracle_towers,
    "criteria-mix": criteria_mix,
    "inequality-sweep": inequality_sweep,
}


def build(workload: str, seed: int) -> list[dict]:
    """The workload's documents for ``seed``, numbered in run order."""
    docs = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    for i, doc in enumerate(docs):
        doc["id"] = i
    return docs
