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
import functools
import json
import sys

from . import search_oracle
from .gallery import BUILDERS, checked_entry
from .hn_profiles import HNProfile, hn_polygon, tensor_hn
from .hodge_system import Verdict, system_to_json, system_from_json, total_slope, verdict_json
from .inequalities import verify_hodge_sums
from .oper import GriffithsFiltration, oper_verdict, pair_from_json, pair_verdict
from .search_oracle import ConstraintMode
from .slope_core import (
    BundleData,
    InconsistencyError,
    SubsheafMode,
    _check_keys,
    direct_sum,
    format_rational,
    slope,
)

PAYLOAD_KEYS = ("hodge_system", "griffiths_filtration", "connection_pair", "hn_request")

#: Longest command-line argument a usage error repeats in full.  argparse
#: echoes offending arguments, so a longer one is cut to this many
#: characters and marked with "…", which bounds the error report.
MAX_ECHO = 100


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage problems are invalid input
        raise ValueError(message)


def _emit(report: dict, summary: str) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    print(summary, file=sys.stderr)


def _load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
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


def _choice(data: dict, key: str, table: dict):
    value = data[key]
    # a list or object is unhashable, so test the type before the lookup
    if not isinstance(value, str) or value not in table:
        raise ValueError(f"{key} must be one of {sorted(table)}")
    return table[value]


def _search_options(doc: dict, args: argparse.Namespace) -> dict:
    options = {
        "mode": ConstraintMode.MONOTONE,
        "subsheaf": SubsheafMode.SEMISTABLE,
    }
    raw = doc.get("search_options")
    if raw is not None:
        data = _check_keys(
            raw, "search_options", set(), {"constraint_mode", "subsheaf_mode"}
        )
        if "constraint_mode" in data:
            options["mode"] = _choice(data, "constraint_mode", _MODES)
        if "subsheaf_mode" in data:
            options["subsheaf"] = _choice(data, "subsheaf_mode", _SUBSHEAVES)
    if getattr(args, "mode", None) is not None:
        options["mode"] = _MODES[args.mode]
    if getattr(args, "subsheaf", None) is not None:
        options["subsheaf"] = _SUBSHEAVES[args.subsheaf]
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
    verdict = search_oracle.system_verdict(system, options["mode"])
    _emit(_verdict_report(verdict, total_slope(system)), _summary("check-system", verdict))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    doc = _load_document(args.document)
    system = system_from_json(_payload(doc, "hodge_system", "search"))
    options = _search_options(doc, args)
    verdict = search_oracle.verdict_from_search(
        system, options["mode"], options["subsheaf"]
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
    rows = verify_hodge_sums(args.d_max, args.n_max)
    for d, checked in rows:
        print(f"d={d}: {checked}/{checked} hold (all hold)", file=sys.stderr)
    report = {
        "all_hold": True,
        "checked": sum(checked for _, checked in rows),
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
    entry, recomputed = checked_entry(args.name, **params)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one.  Nothing may change it after it is built: each parse fills a
    fresh namespace, so no option leaks from one call into the next."""
    parser = _Parser(prog="hodgeslope", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-system", help="criteria verdict for a graded system")
    p.add_argument("document")
    p.add_argument("--mode", choices=sorted(_MODES), default=None)
    p.set_defaults(func=_cmd_check_system)

    p = sub.add_parser("search", help="oracle verdict with certificate")
    p.add_argument("document")
    p.add_argument("--mode", choices=sorted(_MODES), default=None)
    p.add_argument("--subsheaf", choices=sorted(_SUBSHEAVES), default=None)
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


def _parse(argv: list[str]) -> argparse.Namespace:
    try:
        return _build_parser().parse_args(argv)
    except ValueError as exc:  # a usage error, which may echo arguments
        message = str(exc)
        for arg in argv:
            if len(arg) > MAX_ECHO:
                # argparse shows an argument as is or quoted by repr
                cut = arg[:MAX_ECHO]
                message = message.replace(arg, cut + "…")
                message = message.replace(repr(arg)[1:-1], repr(cut)[1:-1] + "…")
        raise ValueError(message) from None


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except InconsistencyError as exc:
        _emit({"error": str(exc)}, f"internal inconsistency: {exc}")
        return 2
    except ValueError as exc:
        _emit({"error": str(exc)}, f"invalid input: {exc}")
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
