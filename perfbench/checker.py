"""Independent output checker.

The expected outcome of every document is derived from the generator's
record of the instance, from the theorems the package implements, and, for
towers, from the exact largest subsystem slope, computed here by a dynamic
programme over admissible profiles.  Nothing is imported from hodgeslope.

``check`` returns the outcome class of one report (``decided``,
``refused`` for an honest budget refusal, ``rejected`` for a malformed
input that ended in exit 1) and the list of problems found; an empty list
means the report is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction

from corpus import BUDGET, gate_size

DECIDED, REFUSED, REJECTED = "decided", "refused", "rejected"
VERDICT_KEYS = {"certificate", "mu_total", "provenance", "semistable", "stable"}
ANSWERS = ("yes", "no", "unknown")


def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def subsheaf_bound(r: int, rank: int, degree: int, strict: bool) -> int:
    """Largest degree of a rank-r subsheaf: floor(r*deg/rank), one less when
    a proper rank meets the slope exactly and stability is attested."""
    q, rem = divmod(r * degree, rank)
    if not strict:
        return q
    if r == rank:
        return degree
    return q - 1 if rem == 0 else q


def max_excess(comps, d: int, mode: str, strict: bool) -> float:
    """Largest R*g - G*r over proper admissible profiles (r, g summed over the
    support, G/R the total slope), -inf when there is none.  Its sign places
    the largest subsystem slope against mu_total.

    A dynamic programme over (grade, rank at that grade): a profile's
    excess is a sum of per-grade terms R*bound(r) - G*r, and the rank at
    grade i+1 is limited only by the rank at grade i.  The profile that
    keeps every rank full is carried apart, so the whole system is never
    counted while its proper prefixes are."""
    total_r = sum(c[0] for c in comps)
    total_g = sum(c[1] for c in comps)
    ninf = float("-inf")
    best = ninf
    prev = full = None
    for i, (rank, degree, *_) in enumerate(comps):
        gain = [0] + [total_r * subsheaf_bound(r, rank, degree, strict) - total_g * r
                      for r in range(1, rank + 1)]
        if prev is None:
            cur = [ninf] + gain[1:rank] + [ninf]
            full = gain[rank]
        else:
            # suffix[k]: best over previous ranks >= k, each of which allows rank k' here
            # for every k' up to its cap (r in paper mode, d*r in conservative)
            suffix = prev + [ninf]
            for k in range(len(prev) - 1, 0, -1):
                suffix[k] = max(suffix[k], suffix[k + 1])
            prev_rank = len(prev) - 1
            step = 1 if mode == "paper" else d
            cur = [ninf] * (rank + 1)
            for r in range(1, rank + 1):
                need = -(-r // step)  # fewest previous rank whose cap reaches r
                reach = suffix[need] if need <= prev_rank else ninf
                if full is not None and need <= prev_rank and r < rank:
                    reach = max(reach, full)
                if reach != ninf:
                    cur[r] = reach + gain[r]
            reachable = full is not None and -(-rank // step) <= prev_rank
            full = full + gain[rank] if reachable else None
        best = max(best, *cur)
        if full is not None and i < len(comps) - 1:
            best = max(best, full)  # a full proper prefix is a subsystem
        prev = cur
    return best


def check(doc: dict, code, out: str) -> tuple[str, list[str]]:
    spec = doc["check"]
    try:
        report = json.loads(out)
    except ValueError:
        return DECIDED, [f"exit {code}: stdout is not one JSON report: {out[:120]!r}"]
    is_error = (
        code == 1 and isinstance(report, dict) and list(report) == ["error"]
        and isinstance(report["error"], str)
    )
    if spec["type"] == "malformed":
        if is_error:
            return REJECTED, []
        return DECIDED, [f"malformed input must exit 1 with a JSON error, got exit {code}"]
    if doc.get("ladder") and is_error and "budget" in report["error"]:
        return REFUSED, []
    if code != 0:
        return DECIDED, [f"exit {code}: {out[:160]!r}"]
    problems: list[str] = []
    CHECKS[spec["type"]](spec, report, problems)
    return DECIDED, problems


def _verdict(report: dict, mu: Fraction, problems: list[str], keys=VERDICT_KEYS):
    if not isinstance(report, dict) or set(report) != keys:
        problems.append(f"report keys {sorted(report) if isinstance(report, dict) else report}")
        return None, None, None
    ss, st, cert = report["semistable"], report["stable"], report["certificate"]
    if ss not in ANSWERS or st not in ANSWERS:
        problems.append(f"answers must be yes/no/unknown, got {ss!r}/{st!r}")
    if "mu_total" in keys and report["mu_total"] != fmt(mu):
        problems.append(f"mu_total {report['mu_total']} != {fmt(mu)}")
    if st == "yes" and ss != "yes":
        problems.append("stable=yes without semistable=yes")
    if ss == "no" and (st != "no" or cert is None):
        problems.append("semistable=no needs stable=no and a certificate")
    if not isinstance(report["provenance"], str) or not report["provenance"]:
        problems.append("provenance must be a nonempty string")
    return ss, st, cert


def _certificate(cert, comps, mu, claim, problems, d=None, mode=None, strict=False) -> Fraction | None:
    """Validate a certificate; comps are (rank, degree, semistable-attested)."""
    if not isinstance(cert, dict) or set(cert) != {"profile", "slope", "mu_total"}:
        problems.append(f"certificate shape {cert!r}")
        return None
    profile = cert["profile"]
    if not (isinstance(profile, list) and 1 <= len(profile) <= len(comps)):
        problems.append(f"certificate support {profile!r} not within grades 0..{len(comps) - 1}")
        return None
    for i, entry in enumerate(profile):
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in entry)):
            problems.append(f"certificate entry {i} is not an integer pair")
            return None
        r, g = entry
        rank, degree, attested = comps[i][0], comps[i][1], comps[i][2]
        if not 1 <= r <= rank:
            problems.append(f"certificate rank {r} at grade {i} outside 1..{rank} (support must be contiguous)")
        elif attested and g > subsheaf_bound(r, rank, degree, strict):
            problems.append(f"certificate degree {g} at grade {i} exceeds the subsheaf bound")
        if i and mode is not None:
            cap = profile[i - 1][0] if mode == "paper" else d * profile[i - 1][0]
            if r > cap:
                problems.append(f"certificate rank {r} at grade {i} breaks the {mode} chain")
    if len(profile) == len(comps) and all(p[0] == c[0] for p, c in zip(profile, comps)):
        problems.append("certificate is the whole system")
    s = Fraction(sum(p[1] for p in profile), sum(p[0] for p in profile))
    if cert["slope"] != fmt(s) or cert["mu_total"] != fmt(mu):
        problems.append("certificate slope or mu_total misreported")
    if (claim == ">" and not s > mu) or (claim == ">=" and not s >= mu):
        problems.append(f"certificate slope {fmt(s)} does not meet the claim {claim} {fmt(mu)}")
    return s


def _expect(problems, what, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _claimed_certificate(ss, st, cert, problems) -> str | None:
    """The slope claim a certificate must meet, or None when none may be present."""
    if ss == "no":
        return ">"
    if st == "no":
        return ">="
    if cert is not None:
        problems.append("certificate present without a no answer")
    return None


def _tower(c, report, problems) -> None:
    comps, d, w, mode = c["comps"], c["dim"], c["w"], c["mode"]
    ranks = [r for r, _, _ in comps]
    mu = Fraction(sum(g for _, g, _ in comps), sum(ranks))
    ss, st, cert = _verdict(report, mu, problems)
    if ss is None:
        return
    all_stable = all(s for _, _, s in comps)
    strict = c["command"] == "search" and c["subsheaf"] == "stable"
    # theorem: semistable components of a tower with w >= 0 give a semistable system
    _expect(problems, "semistable side (theorem)", ss, "yes")
    if all_stable and w > 0 and (strict or c["command"] == "check-system"):
        _expect(problems, "stable side (theorem)", st, "yes")
    claim = _claimed_certificate(ss, st, cert, problems)
    attested = [(r, g, True) for r, g, _ in comps]
    if claim and cert is None:
        problems.append("a no answer from the oracle needs a certificate")
    elif claim:
        # a valid certificate's slope is at most the maximum, so meeting
        # the claim makes it the maximum whenever the verdict is right
        _certificate(cert, attested, mu, claim, problems, d, mode, strict and ss != "no")
    excess = max_excess(comps, d, mode, strict=False)
    if c["command"] == "check-system":
        if w > 0 and all_stable:
            want = ("yes", "yes")
        elif gate_size(ranks) > BUDGET:
            want = ("yes", "unknown")
        else:
            want = ("yes", "no" if excess >= 0 else "yes")
    elif excess > 0:
        want = ("no", "no")
    else:
        if strict:
            excess = max_excess(comps, d, mode, strict=True)
        want = ("yes", "no" if excess >= 0 else "yes")
    _expect(problems, "verdict (exact maximum)", (ss, st), want)


def _declared(c, report, problems) -> None:
    comps = c["comps"]
    mu = Fraction(sum(g for _, g in comps), sum(r for r, _ in comps))
    ss, st, cert = _verdict(report, mu, problems)
    if ss is None:
        return
    want, witness = ("unknown", "unknown"), None
    slopes = [Fraction(sum(g for _, g in p), sum(r for r, _ in p)) for p in c["profiles"]]
    whole = [list(x) for x in comps]
    above = [p for p, s in zip(c["profiles"], slopes) if s > mu]
    equal = [p for p, s in zip(c["profiles"], slopes) if s == mu and p != whole]
    if above:
        want, witness = ("no", "no"), above[0]
    elif equal:
        want, witness = ("unknown", "no"), equal[0]
    _expect(problems, "verdict (declared profiles)", (ss, st), want)
    if witness is not None and cert is not None:
        _expect(problems, "certificate profile", cert.get("profile"), witness)
        comps_unbounded = [(r, g, False) for r, g in comps]
        _certificate(cert, comps_unbounded, mu, ">" if ss == "no" else ">=", problems)
    elif cert is not None or witness is not None:
        problems.append("certificate presence does not match the declared profiles")


_ATTEST = {
    "semistable": (True, None),
    "stable": (True, True),
    "unstable": (False, False),
    "unknown": (None, None),
}


def _unattested(c, report, problems) -> None:
    comps = c["comps"]
    mu = Fraction(sum(g for _, g in comps), sum(r for r, _ in comps))
    ss, st, cert = _verdict(report, mu, problems)
    if ss is None:
        return
    not_stable = any(_ATTEST[f][1] is False for f in c["flags"])
    # curve converse: char 0, d = 1, w > 0 and a component attested not stable
    converse = c["w"] > 0 and c["char"] == 0 and c["dim"] == 1 and not_stable
    _expect(problems, "verdict (criteria only)", (ss, st), ("unknown", "no" if converse else "unknown"))
    _expect(problems, "certificate", cert, None)


def _oper(c, report, problems) -> None:
    pieces = c["pieces"]
    mu = Fraction(sum(g for _, g in pieces), sum(r for r, _ in pieces))
    ss, st, cert = _verdict(report, mu, problems, VERDICT_KEYS | {
        "generalized_oper", "classical_oper", "reasons"})
    if ss is None:
        return
    failing = [not c["transversal"], not c["theta_squares_to_zero"], not c["theta_iso"]]
    failing += [f == "unknown" for f in c["flags"]]
    ok = not any(failing)
    _expect(problems, "generalized_oper", report["generalized_oper"], ok)
    _expect(problems, "classical_oper", report["classical_oper"], ok and all(r == 1 for r, _ in pieces))
    _expect(problems, "number of reasons", len(report["reasons"]), sum(failing))
    # transfer: a generalized oper of w >= 0 has a semistable graded system
    _expect(problems, "verdict (oper transfer)", (ss, st), ("yes", "unknown") if ok else ("unknown", "unknown"))
    _expect(problems, "certificate", cert, None)


def _connection(c, report, problems) -> None:
    rank, degree = c["total"]
    ss, st, cert = _verdict(report, Fraction(degree, rank), problems)
    if ss is None:
        return
    graded_ss = graded_st = False
    f = c["filtration"]
    if f and f["transversal"] and f["theta_squares_to_zero"] and f["theta_iso"] and f["w"] >= 0:
        graded_ss = all(x in ("semistable", "stable") for x in f["flags"])
        graded_st = f["w"] > 0 and all(x == "stable" for x in f["flags"])
    char = f["char"] if f else c["char"]
    # transfers: graded semistable/stable -> pair; flat in char 0 -> semistable
    want_ss = "yes" if graded_ss or graded_st or (c["flat"] and char == 0) else "unknown"
    _expect(problems, "verdict (connection transfers)", (ss, st), (want_ss, "yes" if graded_st else "unknown"))
    _expect(problems, "certificate", cert, None)


def _hn(c, report, problems) -> None:
    rf, gf = c["factor"]
    if not isinstance(report, dict) or set(report) != {"valid", "quotients", "polygon"}:
        problems.append(f"hn report keys {report!r}")
        return
    want = [{"rank": r * rf, "degree": rf * g + r * gf, "semistable": True} for r, g in c["quotients"]]
    _expect(problems, "tensored quotients", report["quotients"], want)
    _expect(problems, "valid", report["valid"], True)
    shift = Fraction(gf, rf)
    for (r, g), q in zip(c["quotients"], report["quotients"]):
        if Fraction(q["degree"], q["rank"]) != Fraction(g, r) + shift:
            problems.append("a quotient slope is not shifted by slope(factor)")
    points = [[0, 0]]
    for q in want:
        points.append([points[-1][0] + q["rank"], points[-1][1] + q["degree"]])
    _expect(problems, "polygon", report["polygon"], points)
    poly = report["polygon"]
    for (x0, y0), (x1, y1), (x2, y2) in zip(poly, poly[1:], poly[2:]):
        if (y1 - y0) * (x2 - x1) <= (y2 - y1) * (x1 - x0):
            problems.append("polygon is not strictly concave")


def _gallery_spec(name: str, p: dict):
    """Hand-written expectations of the four gallery families:
    components as (rank, degree, semistable-attested), the declared
    witness, and the verdict."""
    g = p["g"]
    if name == "strictly-semistable":
        comps = [(2, -(2 * g - 2), True), (2, 2 * g - 2, True)]
        return comps, [[1, -(g - 1)], [1, g - 1]], ("yes", "no")
    if name == "surjective-not-iso":
        dl = p["d_line"]
        return [(1, dl, True), (2, dl + 2 * g - 2, True)], [[1, dl]], ("no", "no")
    if name == "injective-not-iso":
        d0 = p["d0"]
        return [(1, d0, True), (1, -d0, True)], [[1, d0]], ("no", "no")
    d0 = p["d0"]
    return [(1, d0, True), (2, -d0, False)], [[1, d0]], ("no", "no")


def _gallery(c, report, problems) -> None:
    comps, witness, verdict = _gallery_spec(c["name"], c["params"])
    mu = Fraction(sum(x[1] for x in comps), sum(x[0] for x in comps))
    if not isinstance(report, dict) or set(report) != {"entry", "recomputed"}:
        problems.append(f"gallery report keys {report!r}")
        return
    entry = report["entry"]
    _expect(problems, "entry name", entry.get("name"), c["name"])
    got = [(b["rank"], b["degree"]) for b in entry["system"]["components"]]
    _expect(problems, "entry components", got, [(r, g) for r, g, _ in comps])
    _expect(problems, "declared subobject", entry.get("declared_subobject"), witness)
    for label, block in (("expected", entry["expected"]), ("recomputed", report["recomputed"])):
        ss, st, cert = _verdict(block, mu, problems, VERDICT_KEYS - {"mu_total"})
        _expect(problems, f"{label} verdict", (ss, st), verdict)
        if label == "expected" and isinstance(cert, dict):
            _expect(problems, "expected certificate", cert.get("profile"), witness)
        claim = _claimed_certificate(ss, st, cert, problems)
        if claim and cert is not None:
            mode = "paper" if c["name"] == "strictly-semistable" else None
            _certificate(cert, comps, mu, claim, problems, 1, mode)
        elif claim:
            problems.append(f"{label} verdict lacks its certificate")


def _verify(c, report, problems) -> None:
    d, n = c["d_max"], c["n_max"]
    want = {"all_hold": True, "checked": d * (n + 1) * (n + 2) // 2, "d_max": d, "n_max": n,
            "failures": []}
    _expect(problems, "verify-inequalities report", report, want)


CHECKS = {
    "tower": _tower,
    "declared": _declared,
    "unattested": _unattested,
    "oper": _oper,
    "connection": _connection,
    "hn": _hn,
    "gallery": _gallery,
    "verify": _verify,
}


def chebyshev_expected(a: list, b: list) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """(lhs, rhs) of the upper inequality on (a descending, b ascending) and
    of the lower one on (a ascending, b ascending)."""
    xs = sorted(Fraction(p, q) for p, q in a)
    ys = sorted(Fraction(p, q) for p, q in b)
    n = len(xs)
    cross_up = sum(x * y for x, y in zip(reversed(xs), ys))
    cross_lo = sum(x * y for x, y in zip(xs, ys))
    total = sum(xs) * sum(ys)
    return (n * cross_up, total), (total, n * cross_lo)


def check_chebyshev(pair, upper, lower) -> list[str]:
    """upper and lower are (holds, lhs, rhs) as the program returned them."""
    want_up, want_lo = chebyshev_expected(*pair)
    problems = []
    for label, got, want in (("upper", upper, want_up), ("lower", lower, want_lo)):
        if tuple(got) != (True, *want) or not want[0] <= want[1]:
            problems.append(f"chebyshev {label}: got {got!r}, expected {(True, *want)!r}")
    return problems
