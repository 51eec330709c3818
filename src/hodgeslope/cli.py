"""Command-line surface: parse one JSON instance document, dispatch the
requested check, emit one JSON report on stdout and a one-line summary on
stderr.

Exit codes: 0 means a verdict was computed (including no/unknown), 1 means
invalid input, 2 means an internal inconsistency (the criteria and the
search oracle disagree, or a gallery verdict drifted; always a bug).
Reports are byte-deterministic for a fixed input and flag set: keys are
sorted and rationals are rendered canonically as "p/q".

The command-line grammar is one table, _GRAMMAR.  A well-formed command
line (a known command, exact option names with valid values, exactly the
command's positional) is read straight from it; anything else, from usage
errors to abbreviations, ``--opt=value`` and ``-h``, goes to an argparse
parser built from the same table, so its messages and exit codes are
argparse's own.
"""

from __future__ import annotations

import functools
import json
import os
import stat
import sys
from types import SimpleNamespace

from . import search_oracle
from .gallery import BUILDERS, checked_entry
from .hn_profiles import HNProfile, hn_polygon, tensor_hn
from .hodge_system import (
    Verdict, system_from_json, system_to_json, verdict_json, verify_hodge_sums,
)
from .oper import GriffithsFiltration, oper_verdict, pair_from_json, pair_verdict
from .search_oracle import MODES, MONOTONE
from .slope_core import (
    SEMISTABLE,
    SUBSHEAF_MODES,
    BundleData,
    InconsistencyError,
    _check_keys,
    format_slope,
    require_token,
    too_large,
)

PAYLOAD_KEYS = ("hodge_system", "griffiths_filtration", "connection_pair", "hn_request")
_PAYLOADS = frozenset(PAYLOAD_KEYS)
_REQUEST_FIELDS = frozenset({"profile", "tensor_with"})

#: Longest command-line argument a usage error repeats in full.  argparse
#: echoes offending arguments, so a longer one is cut to this many
#: characters and marked with "…", which bounds the error report.
MAX_ECHO = 100

#: Seconds a FIFO document waits for its first writer.  One with no writer
#: by then reads as empty.
FIFO_WRITER_WAIT = 3


#: Writes a report as ``json.dumps(report, sort_keys=True)`` does.
_encode = json.JSONEncoder(sort_keys=True).encode


def _emit(report: dict, summary: str) -> None:
    try:
        text = _encode(report)
    except ValueError:  # an integer past the digit limit
        raise too_large() from None
    sys.stdout.write(text + "\n")
    sys.stderr.write(summary + "\n")


#: Bytes a FIFO document's buffer starts with, and the most each read past
#: the first asks for: a pipe's default capacity.
_BLOCK = 1 << 16


def _read_bytes(path: str) -> bytearray:
    """The bytes of the regular file or FIFO at ``path``, in one buffer.
    A regular file's buffer holds its size and one byte more, so the first
    read reaches its end; whatever later reads find is appended, which
    grows the buffer amortized.  Any other file is refused (a device could
    block or never end), and a FIFO waits up to FIFO_WRITER_WAIT seconds
    for a writer."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode):
            size = info.st_size + 1
        elif stat.S_ISFIFO(info.st_mode):
            import select  # here, so a regular file's command never loads it
            select.select([fd], [], [], FIFO_WRITER_WAIT)
            os.set_blocking(fd, True)  # with no writer, it reads as empty
            size = _BLOCK
        elif stat.S_ISDIR(info.st_mode):
            import errno  # here, as select is
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        else:
            raise OSError(f"not a regular file or a FIFO: {path!r}")
        buf = bytearray(size)
        end = os.readv(fd, [buf])
        del buf[end:]
        if end:
            while more := os.read(fd, _BLOCK):
                buf += more
        return buf
    finally:
        os.close(fd)


def _parse_document(path: str) -> object:
    """The JSON value of the document at ``path``.  The bytes are decoded
    as a text-mode open with encoding="utf-8" decodes them: strict UTF-8, a
    byte-order mark kept, universal newlines."""
    try:
        raw = _read_bytes(path)
    except OSError as exc:
        raise ValueError(f"cannot read document: {exc}")
    text = raw.decode("utf-8")
    del raw  # so the bytes are not held while the text is parsed
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ValueError(f"document is not valid JSON: {exc}")
    except RecursionError:
        raise ValueError("document nests too deeply to parse")


def _load_document(args: SimpleNamespace, key: str) -> tuple[dict, object]:
    """The document the command line names, and its ``key`` payload."""
    fits = True
    try:
        obj = _parse_document(args.document)
    except MemoryError:
        fits = False
    if not fits:  # raised here, once the buffers have gone with the traceback
        raise ValueError("document does not fit in memory")
    _check_keys(obj, "document", frozenset(), _READ_TABLE[args.command][5])
    present = [key for key in PAYLOAD_KEYS if key in obj]
    if len(present) != 1:
        raise ValueError("document must contain exactly one of: " + ", ".join(PAYLOAD_KEYS))
    if key not in obj:
        raise ValueError(f"{args.command} needs a document with a {key!r} payload")
    return obj, obj[key]


#: What a search runs with when neither the document nor the command line
#: sets the search_options field.
_SEARCH_DEFAULTS = {"constraint_mode": MONOTONE, "subsheaf_mode": SEMISTABLE}


def _search_options(doc: dict, args: SimpleNamespace) -> dict:
    """The search options by option destination: each from the command
    line, else from the document's search_options, else its default.  The
    document may set only the fields of the command's own options."""
    fields = _READ_TABLE[args.command][4]
    raw = doc.get("search_options", {})
    data = _check_keys(raw, "search_options", frozenset(), fields.keys())
    options = {}
    for field, (choices, dest) in fields.items():
        from_document = require_token(field, data.get(field, _SEARCH_DEFAULTS[field]), choices)
        options[dest] = from_document if getattr(args, dest) is None else getattr(args, dest)
    return options


def _summary(command: str, verdict: Verdict) -> str:
    return (
        f"{command}: semistable={verdict.semistable} stable={verdict.stable}"
        f" ({verdict.provenance})"
    )


def _emit_verdict(label: str, verdict: Verdict, degree: int, rank: int, **extra) -> int:
    """Emit the verdict's report, with the total slope degree/rank as
    mu_total and the ``extra`` keys, and its summary under ``label``."""
    mu = format_slope(degree, rank)
    report = verdict_json(verdict, mu)
    report.update(extra, mu_total=mu)
    _emit(report, _summary(label, verdict))
    return 0


def _cmd_check_system(args: SimpleNamespace) -> int:
    doc, payload = _load_document(args, "hodge_system")
    system = system_from_json(payload)
    verdict = search_oracle.system_verdict(system, _search_options(doc, args)["mode"])
    return _emit_verdict("check-system", verdict, system.total_degree, system.total_rank)


def _cmd_search(args: SimpleNamespace) -> int:
    doc, payload = _load_document(args, "hodge_system")
    system = system_from_json(payload)
    options = _search_options(doc, args)
    verdict = search_oracle.verdict_from_search(system, options["mode"], options["subsheaf"])
    return _emit_verdict("search", verdict, system.total_degree, system.total_rank)


def _cmd_check_oper(args: SimpleNamespace) -> int:
    _, payload = _load_document(args, "griffiths_filtration")
    filtration = GriffithsFiltration.from_json(payload)
    check, verdict = oper_verdict(filtration)
    return _emit_verdict(
        f"check-oper: generalized_oper={bool(check)} verdict", verdict,
        filtration.total_degree, filtration.total_rank,
        generalized_oper=bool(check), classical_oper=check.classical, reasons=list(check.reasons),
    )


def _cmd_check_connection(args: SimpleNamespace) -> int:
    _, payload = _load_document(args, "connection_pair")
    pair = pair_from_json(payload)
    verdict = pair_verdict(pair)
    return _emit_verdict("check-connection", verdict, pair.total.degree, pair.total.rank)


def _cmd_hn_tensor(args: SimpleNamespace) -> int:
    _, payload = _load_document(args, "hn_request")
    request = _check_keys(payload, "hn_request", _REQUEST_FIELDS, _REQUEST_FIELDS)
    if not isinstance(request["profile"], list) or not request["profile"]:
        raise ValueError("profile must be a nonempty JSON array of bundles")
    profile = HNProfile(tuple(BundleData.from_json(b) for b in request["profile"]))
    factor = BundleData.from_json(request["tensor_with"])
    result = tensor_hn(profile, factor)
    report = {
        "valid": True,
        "quotients": [q.to_json() for q in result.quotients],
        "polygon": hn_polygon(result),
    }
    _emit(report, f"hn-tensor: {len(result.quotients)} quotients, polygon computed")
    return 0


def _cmd_verify_inequalities(args: SimpleNamespace) -> int:
    pairs = verify_hodge_sums(args.d_max, args.n_max)
    report = {
        "all_hold": True,
        "checked": args.d_max * pairs,
        "d_max": args.d_max,
        "n_max": args.n_max,
        "failures": [],
    }
    _emit(report, "\n".join(
        f"d={d}: {pairs}/{pairs} hold (all hold)" for d in range(1, args.d_max + 1)))
    return 0


def _cmd_gallery(args: SimpleNamespace) -> int:
    options = _READ_TABLE["gallery"][2]  # the option destinations, from _GRAMMAR
    params = {k: v for k, v in vars(args).items() if k in options and v is not None}
    entry, recomputed = checked_entry(args.name, **params)
    mu = format_slope(entry.system.total_degree, entry.system.total_rank)
    expected = entry.expected
    report = {
        "entry": {
            "name": args.name,
            "system": system_to_json(entry.system),
            "declared_subobject": expected.certificate.to_json(),
            "expected": verdict_json(expected, mu),
        },
        "recomputed": verdict_json(recomputed, mu),
    }
    _emit(report, _summary(f"gallery {args.name}: verdict", recomputed))
    return 0


#: The command-line grammar: for each command, its handler, its help line,
#: its positional as (name, choices or None) or None, and its options as
#: (name, kind, default, field).  An option's kind is the frozenset of its
#: valid values or ``int``.  ``field`` is the search_options field the
#: option overrides, or None: a command's document may set exactly the
#: fields of its options.  The order is the order of the help and error
#: texts.
_GRAMMAR = {
    "check-system": (
        _cmd_check_system, "criteria verdict for a graded system", ("document", None),
        (("--mode", MODES, None, "constraint_mode"),),
    ),
    "search": (
        _cmd_search, "oracle verdict with certificate", ("document", None),
        (
            ("--mode", MODES, None, "constraint_mode"),
            ("--subsheaf", SUBSHEAF_MODES, None, "subsheaf_mode"),
        ),
    ),
    "check-oper": (
        _cmd_check_oper, "generalized-oper recognition and verdict", ("document", None), (),
    ),
    "check-connection": (_cmd_check_connection, "connection pair verdict", ("document", None), ()),
    "hn-tensor": (_cmd_hn_tensor, "tensor a Harder-Narasimhan profile", ("document", None), ()),
    "verify-inequalities": (
        _cmd_verify_inequalities, "exhaustive inequality sweep", None,
        (("--d-max", int, 6, None), ("--n-max", int, 14, None)),
    ),
    "gallery": (
        _cmd_gallery, "emit a worked example with its verdict", ("name", BUILDERS),
        (("--g", int, None, None), ("--d-line", int, None, None), ("--d0", int, None, None)),
    ),
}


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


#: _GRAMMAR as _read, _search_options and _load_document consult it: per
#: command, its handler, positional, option defaults by destination, each
#: option's (kind, destination), the same for each search_options field its
#: document may set, and its document's fields (search_options only with one).
_READ_TABLE = {
    command: (func, positional, {_dest(o): default for o, _, default, _ in options},
              {o: (kind, _dest(o)) for o, kind, _, _ in options},
              {field: (kind, _dest(o)) for o, kind, _, field in options if field is not None},
              _PAYLOADS | {"search_options"} if any(o[3] for o in options) else _PAYLOADS)
    for command, (func, _, positional, options) in _GRAMMAR.items()
}


@functools.cache
def _build_parser():
    """The argparse parser for _GRAMMAR, built on the first command line
    the table does not read and shared by every later one.  argparse is
    imported here, so a process that only sees well-formed command lines
    never loads it.  Nothing may change the parser after it is built: each
    parse fills a fresh namespace, so no option leaks from one call into
    the next."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # usage problems are invalid input
            raise ValueError(message)

    # the help shows the module docstring's first two paragraphs, which
    # are about using the command, not about this parser
    parser = Parser(prog="hodgeslope", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line, positional, options) in _GRAMMAR.items():
        p = sub.add_parser(command, help=help_line)
        if positional is not None:
            name, choices = positional
            p.add_argument(name, choices=None if choices is None else sorted(choices))
        for option, kind, default, _ in options:
            if kind is int:
                p.add_argument(option, dest=_dest(option), type=int, default=default)
            else:
                p.add_argument(option, dest=_dest(option), choices=sorted(kind), default=default)
        p.set_defaults(func=func)
    return parser


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed command line, or None for
    any other.  Well formed means: a known command, then only exact option
    names each with a valid value, and exactly the command's positional.
    No other token may start with "-", so option values and positionals
    never do."""
    spec = _READ_TABLE.get(argv[0]) if argv else None
    if spec is None:
        return None
    func, positional, defaults, options, *_ = spec
    values = {"command": argv[0], "func": func, **defaults}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            option = options.get(token)
            if option is None:
                return None
            kind, dest = option
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            if kind is int:
                try:  # argparse converts with int() too
                    value = int(value)
                except ValueError:
                    return None
            elif value not in kind:
                return None
            values[dest] = value
        elif positional is None or positional[0] in values:
            return None
        elif positional[1] is not None and token not in positional[1]:
            return None
        else:
            values[positional[0]] = token
    if positional is not None and positional[0] not in values:
        return None
    return SimpleNamespace(**values)


def _parse(argv: list[str]) -> SimpleNamespace:
    args = _read(argv)
    if args is not None:
        return args
    try:
        return SimpleNamespace(**vars(_build_parser().parse_args(argv)))
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
