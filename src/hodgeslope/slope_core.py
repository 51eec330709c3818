"""Exact arithmetic over the numerical invariants (rank, degree) of sheaves.

Everything in this package reduces a sheaf to its rank and its degree with
respect to a fixed polarization.  A slope degree/rank is carried as that
integer pair: two slopes are compared by cross-multiplication
(``slope_excess``) and a slope is rendered in lowest terms by
``format_slope``, so strict and non-strict comparisons never blur; there
is no floating point anywhere.  Whether a concrete bundle actually is
semistable or stable is an input attestation carried on the value, never
something computed here.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from math import gcd

#: Miller-Rabin with these bases is exact below 3.1e23, which covers every
#: accepted characteristic (those below 2^64).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def too_large() -> ValueError:
    """The refusal of a report holding an integer past sys.get_int_max_str_digits()."""
    limit = sys.get_int_max_str_digits()
    return ValueError(f"report too large: an integer in it has more than {limit} digits")


def refusal(text: Callable[[], str]) -> ValueError:
    """ValueError(text()), or too_large() when the text would hold an
    integer past sys.get_int_max_str_digits()."""
    try:
        return ValueError(text())
    except ValueError:  # an integer past the digit limit
        return too_large()


def format_slope(degree: int, rank: int) -> str:
    """Render the slope degree/rank, for a positive rank, as ``"p/q"`` in
    lowest terms, denominator always shown."""
    g = gcd(degree, rank)
    try:
        return f"{degree // g}/{rank // g}"
    except ValueError:  # a term past the digit limit
        raise too_large() from None


def slope_excess(degree: int, rank: int, ref_degree: int, ref_rank: int) -> int:
    """degree * ref_rank - ref_degree * rank: for positive ranks it has the
    sign of degree/rank - ref_degree/ref_rank, so it compares two slopes
    exactly."""
    return degree * ref_rank - ref_degree * rank


def _is_prime(p: int) -> bool:
    """Deterministic primality test (trial division, then Miller-Rabin) for p below 3.1e23."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    if p < 41 * 41:  # a composite below 41^2 has a prime factor below 41, a witness
        return True
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _WITNESSES:
        x = pow(a, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_keys(obj: object, what: str, required: frozenset[str], allowed: frozenset[str]) -> dict:
    """Validate that ``obj`` is a JSON object whose fields include every
    ``required`` one and lie within ``allowed`` (a superset of it)."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    keys = obj.keys()
    if keys <= allowed and keys >= required:
        return obj
    missing = required - keys
    if missing:
        raise ValueError(f"{what} is missing field(s): {', '.join(sorted(missing))}")
    raise ValueError(f"{what} has unknown field(s): {', '.join(sorted(keys - allowed))}")


def _as_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer")
    return value


def _as_bool(value: object, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be a boolean")
    return value


class InconsistencyError(RuntimeError):
    """Two independent computations disagree on a definite answer: always
    a bug, never a property of the input."""


#: The attestation a subsheaf degree bound may lean on, as the flag is named.
SEMISTABLE, STABLE = "semistable", "stable"
SUBSHEAF_MODES = frozenset({SEMISTABLE, STABLE})


def require_token(name: str, value: object, tokens: frozenset) -> str:
    """``value`` if it is a string among ``tokens``, else a ValueError naming ``name``."""
    if isinstance(value, str) and value in tokens:
        return value
    raise ValueError(f"{name} must be one of {sorted(tokens)}")


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields, in order, in ``_fields``, and its own
    ``__init__`` stores those in the instance ``__dict__``, with any values
    derived from them.  After that no attribute can be assigned or deleted.
    Two values are equal when their types and fields are, hash as the
    tuple of their fields, and read back as ``Name(field=value, ...)``.

    For a type read from a document, ``_fields`` is also the document's
    shape: ``_keys = frozenset(_fields)`` are the keys it may give, a type
    with optional keys names the ones a document must give in
    ``_required``, and its reader and writer take every other field name
    from ``_fields``.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class BundleData(Frozen):
    """Numerical invariants of a nonzero torsion-free sheaf.

    ``semistable`` and ``stable`` are three-valued attestations supplied by
    the caller (``True``, ``False``, or ``None`` for unknown).  They are
    normalized so that a stable bundle is also semistable and a
    non-semistable one is not stable.
    """

    _fields = ("rank", "degree", "semistable", "stable")
    _keys = frozenset(_fields)
    _required = frozenset({"rank", "degree"})

    def __init__(
        self,
        rank: int,
        degree: int,
        semistable: bool | None = None,
        stable: bool | None = None,
    ) -> None:
        # the texts are a document's: from_json passes the fields unchecked
        _as_int(rank, "bundle rank")
        _as_int(degree, "bundle degree")
        if semistable is not None:
            _as_bool(semistable, "bundle semistable flag")
        if stable is not None:
            _as_bool(stable, "bundle stable flag")
        if rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        if stable is True:
            if semistable is False:
                raise ValueError("a stable bundle cannot be flagged not semistable")
            if semistable is None:
                semistable = True
        if semistable is False and stable is None:
            stable = False
        fields = self.__dict__
        fields["rank"] = rank
        fields["degree"] = degree
        fields["semistable"] = semistable
        fields["stable"] = stable

    def to_json(self) -> dict:
        fields = self.__dict__  # an unattested flag is not written
        return {name: fields[name] for name in self._fields if fields[name] is not None}

    @staticmethod
    def from_json(obj: object) -> "BundleData":
        data = _check_keys(obj, "bundle", BundleData._required, BundleData._keys)
        if None in data.values():
            # a flag of None is unattested, but a JSON null is no boolean:
            # it goes on as its JSON text, which the constructor rejects
            data = {key: "null" if value is None else value for key, value in data.items()}
        get = data.get
        return BundleData(data["rank"], data["degree"], get("semistable"), get("stable"))


class GeometricContext(Frozen):
    """Ambient data of the polarized variety.

    ``dim`` doubles as the rank of the cotangent bundle; ``omega_degree`` is
    its degree against the polarization.  The two omega flags attest its
    semistability and stability.
    """

    _fields = ("characteristic", "dim", "omega_degree", "omega_semistable", "omega_stable")
    _keys = frozenset(_fields)
    _required = frozenset({"characteristic", "dim", "omega_degree"})

    def __init__(
        self,
        characteristic: int,
        dim: int,
        omega_degree: int,
        omega_semistable: bool = False,
        omega_stable: bool = False,
    ) -> None:
        # the texts are a document's: from_json passes the fields unchecked
        _as_int(characteristic, "characteristic")
        _as_int(dim, "dim")
        _as_int(omega_degree, "omega_degree")
        _as_bool(omega_semistable, "omega_semistable")
        _as_bool(omega_stable, "omega_stable")
        if characteristic >= 2**64:
            raise ValueError(f"characteristic must be below 2^64, got {characteristic}")
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or a prime, got {characteristic}")
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        if omega_stable and not omega_semistable:
            raise ValueError("omega_stable requires omega_semistable")
        fields = self.__dict__
        fields["characteristic"] = characteristic
        fields["dim"] = dim
        fields["omega_degree"] = omega_degree
        fields["omega_semistable"] = omega_semistable
        fields["omega_stable"] = omega_stable

    def to_json(self) -> dict:
        fields = self.__dict__
        return {name: fields[name] for name in self._fields}

    @staticmethod
    def from_json(obj: object) -> "GeometricContext":
        data = _check_keys(obj, "context", GeometricContext._required, GeometricContext._keys)
        get = data.get  # a JSON null is passed on, and refused
        return GeometricContext(
            data["characteristic"],
            data["dim"],
            data["omega_degree"],
            get("omega_semistable", False),
            get("omega_stable", False),
        )


def tensor(a: BundleData, b: BundleData, semistable: bool | None = None) -> BundleData:
    """Invariants of a tensor product; slopes add exactly.  The product
    carries only the semistable attestation the caller supplies."""
    return BundleData(a.rank * b.rank, b.rank * a.degree + a.rank * b.degree, semistable)


def require_flag(ambient: BundleData, mode: str, what: str = "ambient bundle") -> None:
    """Refuse a bundle that lacks the attestation a ``mode`` bound leans
    on; ``what`` names the bundle in the error message."""
    require_token("mode", mode, SUBSHEAF_MODES)
    flag = ambient.semistable if mode == SEMISTABLE else ambient.stable
    if flag is not True:
        raise ValueError(f"flag precondition violated: {what} is not flagged {mode}")


def subsheaf_degree_row(
    ambient: BundleData, mode: str, ranks: range, what: str = "ambient bundle"
) -> list[int]:
    """``max_subsheaf_degree`` for every rank in ``ranks`` (a step-1 range
    within 1..rank), with the attestation checked once by ``require_flag``.

    With a semistable attestation the bound is floor(r * slope).  With a
    stable attestation and a proper rank the inequality is strict, so the
    bound is the largest integer below r * slope, floor((r * degree - 1) /
    rank).  A full-rank subsheaf of a stable bundle may still match the
    ambient degree (only the bundle itself attains it; callers exclude that
    trivial case).
    """
    require_flag(ambient, mode, what)
    degree, rank = ambient.degree, ambient.rank
    if mode == SEMISTABLE:
        return [r * degree // rank for r in ranks]
    return [(r * degree - 1) // rank if r < rank else degree for r in ranks]


def max_subsheaf_degree(sub_rank: int, ambient: BundleData, mode: str) -> int:
    """Largest degree a rank ``sub_rank`` subsheaf of ``ambient`` may have;
    the bound is stated in ``subsheaf_degree_row``."""
    if not 1 <= sub_rank <= ambient.rank:
        raise ValueError(f"sub_rank {sub_rank} out of range 1..{ambient.rank}")
    return subsheaf_degree_row(ambient, mode, range(sub_rank, sub_rank + 1))[0]
