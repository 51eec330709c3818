"""Numerical profiles of candidate invariant subobjects.

A profile records the (rank, degree) pairs of the graded pieces
F_0, ..., F_r of a candidate subobject whose support is contiguous and
starts at grade 0.  Profiles are the common currency between the criteria
(which transport destabilizers into profiles) and the search oracle (which
enumerates them); a profile whose slope, its total degree over its total
rank, beats or meets the ambient slope is a certificate.
"""

from __future__ import annotations

from .slope_core import Frozen


class SubsystemProfile(Frozen):
    """Graded (rank, degree) data of a candidate invariant subobject."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int], ...]) -> None:
        self.__dict__["entries"] = entries
        self.__post_init__()

    def __post_init__(self) -> None:
        # a method of its own, so a tracer can count constructions by
        # rebinding it on the class; it checks shapes and types, then signs
        entries = tuple([_entry(i, pair) for i, pair in enumerate(self.entries)])
        self.__dict__["entries"] = entries
        if not entries:
            raise ValueError("profile must have at least one graded piece")
        for i, (rank, _) in enumerate(entries):
            if rank < 1:
                raise ValueError(f"profile rank at grade {i} must be a positive integer")

    @property
    def support_top(self) -> int:
        return len(self.entries) - 1

    @property
    def rank(self) -> int:
        """The total rank of the graded pieces."""
        return sum([r for r, _ in self.entries])

    @property
    def degree(self) -> int:
        """The total degree of the graded pieces."""
        return sum([d for _, d in self.entries])

    def to_json(self) -> list[list[int]]:
        return [[r, d] for r, d in self.entries]

    @staticmethod
    def from_json(obj: object) -> "SubsystemProfile":
        if not isinstance(obj, list):
            raise ValueError("profile must be a JSON array of [rank, degree] pairs")
        return SubsystemProfile(obj)


def _entry(i: int, pair: object) -> tuple[int, int]:
    """Entry ``i`` of a profile, a [rank, degree] pair of integers, as a tuple."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"profile entry {i} must be a [rank, degree] pair")
    rank, degree = pair
    if isinstance(rank, bool) or not isinstance(rank, int):
        raise ValueError(f"profile rank {i} must be an integer")
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise ValueError(f"profile degree {i} must be an integer")
    return rank, degree
