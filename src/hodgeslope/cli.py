"""Command-line surface: parse one JSON instance document, dispatch the
requested check, emit one JSON report on stdout and a one-line summary on
stderr.

Exit codes: 0 means a verdict was computed (including no/unknown), 1 means
invalid input, 2 means an internal inconsistency (the criteria and the
search oracle disagree, which is always a bug).  Reports are
byte-deterministic for a fixed input and flag set: keys are sorted and
rationals are rendered canonically as "p/q".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import search_oracle
from .gallery import BUILDERS, build_entry, recompute_verdict
from .hn_profiles import HNProfile, hn_polygon, tensor_hn
from .hodge_system import Verdict, system_to_json, system_from_json, total_slope, verdict_json
from .inequalities import hodge_sum_sweep
from .oper import GriffithsFiltration, oper_verdict, pair_from_json, pair_verdict
from .search_oracle import ConstraintMode, DEFAULT_PROFILE_BUDGET, InconsistencyError
from .slope_core import (
    BundleData,
    SubsheafMode,
    _as_int,
    _check_keys,
    direct_sum,
    format_rational,
    slope,
)

PAYLOAD_KEYS = ("hodge_system", "griffiths_filtration", "connection_pair", "hn_request")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage problems are invalid input
        raise ValueError(message)


def _emit(report: dict, summary: str) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    print(summary, file=sys.stderr)


def _load_document(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read document: {exc}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"document is not valid JSON: {exc}")
    except RecursionError:
        raise ValueError("document nests too deeply to parse")
    _check_keys(obj, "document", set(), set(PAYLOAD_KEYS) | {"search_options"})
    present = [key for key in PAYLOAD_KEYS if key in obj]
    if len(present) != 1:
        raise ValueError("document must contain exactly one of: " + ", ".join(PAYLOAD_KEYS))
    return obj


def _payload(doc: dict, key: str, command: str) -> object:
    if key not in doc:
        raise ValueError(f"{command} needs a document with a {key!r} payload")
    return doc[key]


_MODES = {m.value: m for m in ConstraintMode}
_SUBSHEAVES = {m.value: m for m in SubsheafMode}


def _search_options(doc: dict, args: argparse.Namespace) -> dict:
    options = {
        "mode": ConstraintMode.MONOTONE,
        "subsheaf": SubsheafMode.SEMISTABLE,
        "budget": DEFAULT_PROFILE_BUDGET,
    }
    raw = doc.get("search_options")
    if raw is not None:
        data = _check_keys(
            raw, "search_options", set(), {"constraint_mode", "subsheaf_mode", "budget"}
        )
        if "constraint_mode" in data:
            if data["constraint_mode"] not in _MODES:
                raise ValueError(f"constraint_mode must be one of {sorted(_MODES)}")
            options["mode"] = _MODES[data["constraint_mode"]]
        if "subsheaf_mode" in data:
            if data["subsheaf_mode"] not in _SUBSHEAVES:
                raise ValueError(f"subsheaf_mode must be one of {sorted(_SUBSHEAVES)}")
            options["subsheaf"] = _SUBSHEAVES[data["subsheaf_mode"]]
        if "budget" in data:
            budget = _as_int(data["budget"], "budget")
            if budget < 1:
                raise ValueError("budget must be positive")
            options["budget"] = budget
    if getattr(args, "mode", None) is not None:
        options["mode"] = _MODES[args.mode]
    if getattr(args, "subsheaf", None) is not None:
        options["subsheaf"] = _SUBSHEAVES[args.subsheaf]
    if getattr(args, "budget", None) is not None:
        if args.budget < 1:
            raise ValueError("budget must be positive")
        options["budget"] = args.budget
    return options


def _verdict_report(verdict: Verdict, mu_total) -> dict:
    report = verdict_json(verdict, mu_total)
    report["mu_total"] = format_rational(mu_total)
    return report


def _summary(command: str, verdict: Verdict) -> str:
    return (
        f"{command}: semistable={verdict.semistable.value} stable={verdict.stable.value}"
        f" ({verdict.provenance})"
    )


def _cmd_check_system(args: argparse.Namespace) -> int:
    doc = _load_document(args.document)
    system = system_from_json(_payload(doc, "hodge_system", "check-system"))
    options = _search_options(doc, args)
    verdict = search_oracle.system_verdict(system, options["mode"], options["budget"])
    _emit(_verdict_report(verdict, total_slope(system)), _summary("check-system", verdict))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    doc = _load_document(args.document)
    system = system_from_json(_payload(doc, "hodge_system", "search"))
    options = _search_options(doc, args)
    verdict = search_oracle.verdict_from_search(
        system, options["mode"], options["subsheaf"], options["budget"]
    )
    _emit(_verdict_report(verdict, total_slope(system)), _summary("search", verdict))
    return 0


def _cmd_check_oper(args: argparse.Namespace) -> int:
    doc = _load_document(args.document)
    filtration = GriffithsFiltration.from_json(
        _payload(doc, "griffiths_filtration", "check-oper")
    )
    check, verdict = oper_verdict(filtration)
    mu = slope(direct_sum(filtration.graded))
    report = _verdict_report(verdict, mu)
    report["generalized_oper"] = check.ok
    report["classical_oper"] = check.classical
    report["reasons"] = list(check.reasons)
    _emit(report, f"check-oper: generalized_oper={check.ok} " + _summary("verdict", verdict))
    return 0


def _cmd_check_connection(args: argparse.Namespace) -> int:
    doc = _load_document(args.document)
    pair, ambient = pair_from_json(_payload(doc, "connection_pair", "check-connection"))
    verdict = pair_verdict(pair, ambient)
    _emit(
        _verdict_report(verdict, slope(pair.total)),
        _summary("check-connection", verdict),
    )
    return 0


def _cmd_hn_tensor(args: argparse.Namespace) -> int:
    doc = _load_document(args.document)
    request = _check_keys(
        _payload(doc, "hn_request", "hn-tensor"), "hn_request", {"profile", "tensor_with"}
    )
    if not isinstance(request["profile"], list) or not request["profile"]:
        raise ValueError("profile must be a nonempty JSON array of bundles")
    profile = HNProfile(tuple(BundleData.from_json(b) for b in request["profile"]))
    factor = BundleData.from_json(request["tensor_with"])
    result = tensor_hn(profile, factor)
    polygon = hn_polygon(result)
    report = {
        "valid": True,
        "quotients": [q.to_json() for q in result.quotients],
        "polygon": [[x, y] for x, y in polygon],
    }
    _emit(report, f"hn-tensor: {len(result.quotients)} quotients, polygon computed")
    return 0


def _cmd_verify_inequalities(args: argparse.Namespace) -> int:
    rows = hodge_sum_sweep(args.d_max, args.n_max)
    failures = [[d, r, n] for d, _, bad in rows for (r, n) in bad]
    for d, checked, bad in rows:
        status = "all hold" if not bad else f"{len(bad)} FAILED"
        print(f"d={d}: {checked - len(bad)}/{checked} hold ({status})", file=sys.stderr)
    if failures:
        raise InconsistencyError("a proved inequality failed on the sweep")
    report = {
        "all_hold": True,
        "checked": sum(checked for _, checked, _ in rows),
        "d_max": args.d_max,
        "n_max": args.n_max,
        "failures": [],
    }
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return 0


def _cmd_gallery(args: argparse.Namespace) -> int:
    params = {}
    if args.g is not None:
        params["g"] = args.g
    if args.d_line is not None:
        params["d_line"] = args.d_line
    if args.d0 is not None:
        params["d0"] = args.d0
    entry = build_entry(args.name, **params)
    recomputed = recompute_verdict(entry)
    if (recomputed.semistable, recomputed.stable) != (
        entry.expected.semistable,
        entry.expected.stable,
    ):
        raise InconsistencyError("gallery verdict drifted from the recorded expectation")
    mu = total_slope(entry.system)
    report = {
        "entry": {
            "name": entry.name,
            "system": system_to_json(entry.system),
            "declared_subobject": (
                entry.declared_subobject.to_json() if entry.declared_subobject else None
            ),
            "expected": verdict_json(entry.expected, mu),
        },
        "recomputed": verdict_json(recomputed, mu),
    }
    _emit(report, f"gallery {entry.name}: " + _summary("verdict", recomputed))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hodgeslope", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-system", help="criteria verdict for a graded system")
    p.add_argument("document")
    p.add_argument("--mode", choices=sorted(_MODES), default=None)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_check_system)

    p = sub.add_parser("search", help="oracle verdict with certificate")
    p.add_argument("document")
    p.add_argument("--mode", choices=sorted(_MODES), default=None)
    p.add_argument("--subsheaf", choices=sorted(_SUBSHEAVES), default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--parallel", action="store_true", help="accepted and ignored")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("check-oper", help="generalized-oper recognition and verdict")
    p.add_argument("document")
    p.set_defaults(func=_cmd_check_oper)

    p = sub.add_parser("check-connection", help="connection pair verdict")
    p.add_argument("document")
    p.set_defaults(func=_cmd_check_connection)

    p = sub.add_parser("hn-tensor", help="tensor a Harder-Narasimhan profile")
    p.add_argument("document")
    p.set_defaults(func=_cmd_hn_tensor)

    p = sub.add_parser("verify-inequalities", help="exhaustive inequality sweep")
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--n-max", type=int, default=14)
    p.set_defaults(func=_cmd_verify_inequalities)

    p = sub.add_parser("gallery", help="emit a worked example with its verdict")
    p.add_argument("name", choices=sorted(BUILDERS))
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--d-line", dest="d_line", type=int, default=None)
    p.add_argument("--d0", type=int, default=None)
    p.set_defaults(func=_cmd_gallery)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InconsistencyError as exc:
        _emit({"error": str(exc)}, f"internal inconsistency: {exc}")
        return 2
    except ValueError as exc:
        _emit({"error": str(exc)}, f"invalid input: {exc}")
        return 1


def entry() -> None:
    raise SystemExit(main())
