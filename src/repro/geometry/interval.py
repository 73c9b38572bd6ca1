"""Closed 1-D intervals.

Intervals are the workhorse of rectilinear geometry: every axis-parallel
segment is a coordinate plus an interval, every rectangle is a pair of
intervals, and channel/track assignment in the detailed router is
interval packing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import GeometryError


@dataclass(frozen=True, slots=True, order=True)
class Interval:
    """A closed interval ``[lo, hi]`` with ``lo <= hi``.

    Degenerate intervals (``lo == hi``) are allowed; they represent a
    single coordinate and arise naturally from point-like wire stubs.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise GeometryError(f"interval lo {self.lo!r} > hi {self.hi!r}")

    @property
    def length(self) -> int:
        """``hi - lo`` (zero for degenerate intervals)."""
        return self.hi - self.lo

    @property
    def is_degenerate(self) -> bool:
        """True when the interval is a single coordinate."""
        return self.lo == self.hi

    @property
    def midpoint(self) -> float:
        """Arithmetic midpoint (may be fractional for odd lengths)."""
        return (self.lo + self.hi) / 2

    def contains(self, value: int, *, strict: bool = False) -> bool:
        """Whether *value* lies in the interval.

        With ``strict=True`` the endpoints are excluded (open interval
        membership), which is how obstacle interiors block rays while
        their boundaries remain routable.
        """
        if strict:
            return self.lo < value < self.hi
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """Whether *other* lies entirely inside this closed interval."""
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval", *, strict: bool = False) -> bool:
        """Whether the two intervals share points.

        ``strict=True`` requires an overlap of positive length (touching
        endpoints do not count), the test used for "do these two wires
        conflict on the same track".
        """
        if strict:
            return self.lo < other.hi and other.lo < self.hi
        return self.lo <= other.hi and other.lo <= self.hi

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        """The overlapping closed interval, or ``None`` if disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def union(self, other: "Interval") -> "Interval":
        """Merge two overlapping-or-touching intervals.

        Raises :class:`GeometryError` when the operands are disjoint,
        because their union would not be an interval.
        """
        if not self.overlaps(other):
            raise GeometryError(f"cannot union disjoint intervals {self} and {other}")
        return self.hull(other)

    def clamp(self, value: int) -> int:
        """Nearest coordinate inside the interval."""
        return max(self.lo, min(self.hi, value))

    def gap_to(self, other: "Interval") -> int:
        """Separation between two intervals (zero when they touch/overlap)."""
        if self.overlaps(other):
            return 0
        if self.hi < other.lo:
            return other.lo - self.hi
        return self.lo - other.hi

    def expanded(self, margin: int) -> "Interval":
        """The interval grown by *margin* on both sides."""
        return Interval(self.lo - margin, self.hi + margin)

    @staticmethod
    def spanning(values: Iterable[int]) -> "Interval":
        """Smallest interval containing every value in *values*.

        Raises :class:`GeometryError` on an empty iterable.
        """
        items = list(values)
        if not items:
            raise GeometryError("cannot span an empty collection")
        return Interval(min(items), max(items))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo}, {self.hi}]"


def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Merge overlapping/touching intervals into a minimal disjoint list.

    The result is sorted by ``lo``.  Used by the congestion model to
    compute covered spans of passage cross-sections.
    """
    ordered = sorted(intervals)
    merged: list[Interval] = []
    for iv in ordered:
        if merged and merged[-1].overlaps(iv):
            merged[-1] = merged[-1].union(iv)
        else:
            merged.append(iv)
    return merged


def total_length(intervals: Iterable[Interval]) -> int:
    """Total length of the union of *intervals* (overlaps counted once)."""
    return sum(iv.length for iv in merge_intervals(intervals))
