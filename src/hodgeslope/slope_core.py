"""Exact arithmetic over the numerical invariants (rank, degree) of sheaves.

Everything in this package reduces a sheaf to its rank and its degree with
respect to a fixed polarization.  Slopes are exact rationals backed by
``fractions.Fraction``, so strict and non-strict comparisons never blur;
there is no floating point anywhere.  Whether a concrete bundle actually is
semistable or stable is an input attestation carried on the value, never
something computed here.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from fractions import Fraction

#: Miller-Rabin with these bases is exact below 3.1e23, which covers every
#: accepted characteristic (those below 2^64).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def format_rational(x: Fraction) -> str:
    """Render a rational as ``"p/q"`` in lowest terms, denominator always shown."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for p below 3.1e23."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
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


def _check_keys(
    obj: object,
    what: str,
    required: frozenset[str] | set[str],
    optional: frozenset[str] | set[str] = frozenset(),
) -> dict:
    """Validate that ``obj`` is a JSON object with exactly the declared fields."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = set(required) - obj.keys()
    if missing:
        raise ValueError(f"{what} is missing field(s): {', '.join(sorted(missing))}")
    unknown = obj.keys() - set(required) - set(optional)
    if unknown:
        raise ValueError(f"{what} has unknown field(s): {', '.join(sorted(unknown))}")
    return obj


def _as_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer")
    return value


def _as_bool(value: object, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be a boolean")
    return value


class InconsistencyError(RuntimeError):
    """Two independent computations disagree on a definite answer, or a
    proved inequality fails: always a bug, never a property of the input."""


class SubsheafMode(Enum):
    """Which attestation a subsheaf degree bound may lean on."""

    SEMISTABLE = "semistable"
    STABLE = "stable"


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields, in order, in ``_fields``, and its own
    ``__init__`` stores exactly those in the instance ``__dict__``.  After
    that no attribute can be assigned or deleted.  Two values are equal
    when their types and fields are, hash as the tuple of their fields, and
    read back as ``Name(field=value, ...)``.
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

    def __init__(
        self,
        rank: int,
        degree: int,
        semistable: bool | None = None,
        stable: bool | None = None,
    ) -> None:
        if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        if isinstance(degree, bool) or not isinstance(degree, int):
            raise ValueError(f"degree must be an integer, got {degree!r}")
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
        out: dict = {"rank": self.rank, "degree": self.degree}
        if self.semistable is not None:
            out["semistable"] = self.semistable
        if self.stable is not None:
            out["stable"] = self.stable
        return out

    @staticmethod
    def from_json(obj: object) -> "BundleData":
        data = _check_keys(obj, "bundle", {"rank", "degree"}, {"semistable", "stable"})
        return BundleData(
            rank=_as_int(data["rank"], "bundle rank"),
            degree=_as_int(data["degree"], "bundle degree"),
            semistable=_as_bool(data["semistable"], "bundle semistable flag")
            if "semistable" in data
            else None,
            stable=_as_bool(data["stable"], "bundle stable flag") if "stable" in data else None,
        )


class GeometricContext(Frozen):
    """Ambient data of the polarized variety.

    ``dim`` doubles as the rank of the cotangent bundle; ``omega_degree`` is
    its degree against the polarization.  The two omega flags attest its
    semistability and stability.
    """

    _fields = ("characteristic", "dim", "omega_degree", "omega_semistable", "omega_stable")

    def __init__(
        self,
        characteristic: int,
        dim: int,
        omega_degree: int,
        omega_semistable: bool = False,
        omega_stable: bool = False,
    ) -> None:
        char = _as_int(characteristic, "characteristic")
        if char >= 2**64:
            raise ValueError(f"characteristic must be below 2^64, got {char}")
        if char != 0 and not _is_prime(char):
            raise ValueError(f"characteristic must be 0 or a prime, got {char}")
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        _as_int(omega_degree, "omega_degree")
        if omega_stable and not omega_semistable:
            raise ValueError("omega_stable requires omega_semistable")
        fields = self.__dict__
        fields["characteristic"] = characteristic
        fields["dim"] = dim
        fields["omega_degree"] = omega_degree
        fields["omega_semistable"] = omega_semistable
        fields["omega_stable"] = omega_stable

    def to_json(self) -> dict:
        return {
            "characteristic": self.characteristic,
            "dim": self.dim,
            "omega_degree": self.omega_degree,
            "omega_semistable": self.omega_semistable,
            "omega_stable": self.omega_stable,
        }

    @staticmethod
    def from_json(obj: object) -> "GeometricContext":
        data = _check_keys(
            obj,
            "context",
            {"characteristic", "dim", "omega_degree"},
            {"omega_semistable", "omega_stable"},
        )
        return GeometricContext(
            characteristic=_as_int(data["characteristic"], "characteristic"),
            dim=_as_int(data["dim"], "dim"),
            omega_degree=_as_int(data["omega_degree"], "omega_degree"),
            omega_semistable=_as_bool(data["omega_semistable"], "omega_semistable")
            if "omega_semistable" in data
            else False,
            omega_stable=_as_bool(data["omega_stable"], "omega_stable")
            if "omega_stable" in data
            else False,
        )


def slope(b: BundleData) -> Fraction:
    """Degree over rank, exactly."""
    return Fraction(b.degree, b.rank)


def direct_sum(parts: Iterable[BundleData]) -> BundleData:
    """Invariants of a direct sum.  Flags are dropped: semistability of a
    sum is never inferred from the summands."""
    summands = tuple(parts)
    if not summands:
        raise ValueError("empty direct sum")
    return BundleData(
        rank=sum(p.rank for p in summands),
        degree=sum(p.degree for p in summands),
    )


def tensor(a: BundleData, b: BundleData) -> BundleData:
    """Invariants of a tensor product; slopes add exactly."""
    return BundleData(
        rank=a.rank * b.rank,
        degree=b.rank * a.degree + a.rank * b.degree,
    )


def max_subsheaf_degree(sub_rank: int, ambient: BundleData, mode: SubsheafMode) -> int:
    """Largest degree a rank ``sub_rank`` subsheaf of ``ambient`` may have.

    With a semistable attestation the bound is floor(sub_rank * slope).
    With a stable attestation and a proper rank the inequality is strict, so
    the bound drops by one exactly when sub_rank * slope is an integer.  A
    full-rank subsheaf of a stable bundle may still match the ambient degree
    (only the bundle itself attains it; callers exclude that trivial case).
    """
    if not 1 <= sub_rank <= ambient.rank:
        raise ValueError(f"sub_rank {sub_rank} out of range 1..{ambient.rank}")
    flag = ambient.semistable if mode is SubsheafMode.SEMISTABLE else ambient.stable
    if flag is not True:
        raise ValueError(
            f"flag precondition violated: ambient bundle is not flagged {mode.value}"
        )
    q, r = divmod(sub_rank * ambient.degree, ambient.rank)
    if mode is SubsheafMode.SEMISTABLE:
        return q
    if sub_rank == ambient.rank:
        return ambient.degree
    return q - 1 if r == 0 else q
