"""Numerical profiles of candidate invariant subobjects.

A profile records the (rank, degree) pairs of the graded pieces
F_0, ..., F_r of a candidate subobject whose support is contiguous and
starts at grade 0.  Profiles are the common currency between the criteria
(which transport destabilizers into profiles) and the search oracle (which
enumerates them); a profile whose slope beats or meets the ambient slope is
a certificate.
"""

from __future__ import annotations

from fractions import Fraction

from .slope_core import Frozen, _as_int, format_rational


class SubsystemProfile(Frozen):
    """Graded (rank, degree) data of a candidate invariant subobject."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int], ...]) -> None:
        self.__dict__["entries"] = entries
        self.__post_init__()

    def __post_init__(self) -> None:
        # a method of its own, so a tracer can count constructions by
        # rebinding it on the class
        entries = tuple((pair[0], pair[1]) for pair in self.entries)
        self.__dict__["entries"] = entries
        if not entries:
            raise ValueError("profile must have at least one graded piece")
        for i, (rank, degree) in enumerate(entries):
            if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
                raise ValueError(f"profile rank at grade {i} must be a positive integer")
            if isinstance(degree, bool) or not isinstance(degree, int):
                raise ValueError(f"profile degree at grade {i} must be an integer")

    @property
    def support_top(self) -> int:
        return len(self.entries) - 1

    @property
    def rank(self) -> int:
        return sum(r for r, _ in self.entries)

    @property
    def degree(self) -> int:
        return sum(d for _, d in self.entries)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)

    def to_json(self) -> list[list[int]]:
        return [[r, d] for r, d in self.entries]

    @staticmethod
    def from_json(obj: object) -> "SubsystemProfile":
        if not isinstance(obj, list):
            raise ValueError("profile must be a JSON array of [rank, degree] pairs")
        entries = []
        for i, item in enumerate(obj):
            if not isinstance(item, list) or len(item) != 2:
                raise ValueError(f"profile entry {i} must be a [rank, degree] pair")
            entries.append(
                (_as_int(item[0], f"profile rank {i}"), _as_int(item[1], f"profile degree {i}"))
            )
        return SubsystemProfile(tuple(entries))


def certificate_json(profile: SubsystemProfile, mu_total: Fraction) -> dict:
    """Wire form of a certificate: the profile with its slope and the ambient slope."""
    return {
        "profile": profile.to_json(),
        "slope": format_rational(profile.slope),
        "mu_total": format_rational(mu_total),
    }
