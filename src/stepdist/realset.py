"""Finite unions of real intervals with exact open/closed endpoint flags.

Endpoint membership is data, never a tolerance: the distinction between
``(a, b)`` and ``(a, b]`` carries mathematical content here, so all
comparisons are exact float comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedInterval

__all__ = ["Interval", "RealSet"]

_INF = math.inf


@dataclass(frozen=True)
class Interval:
    """One real interval; ``lo``/``hi`` may be -inf/+inf (always open there)."""

    lo: float
    hi: float
    closed_lo: bool
    closed_hi: bool

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if math.isnan(lo) or math.isnan(hi):
            raise MalformedInterval("NaN endpoint")
        if lo > hi:
            raise MalformedInterval(f"lower bound {lo} exceeds upper bound {hi}")
        if math.isinf(lo) and (self.closed_lo or lo > 0):
            raise MalformedInterval(f"lower endpoint {lo} must be finite or an open -inf")
        if math.isinf(hi) and (self.closed_hi or hi < 0):
            raise MalformedInterval(f"upper endpoint {hi} must be finite or an open +inf")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def open(lo: float, hi: float) -> "Interval":
        return Interval(lo, hi, False, False)

    @staticmethod
    def closed(lo: float, hi: float) -> "Interval":
        return Interval(lo, hi, True, True)

    @staticmethod
    def open_closed(lo: float, hi: float) -> "Interval":
        """(lo, hi]"""
        return Interval(lo, hi, False, True)

    @staticmethod
    def closed_open(lo: float, hi: float) -> "Interval":
        """[lo, hi)"""
        return Interval(lo, hi, True, False)

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x, True, True)

    # -- predicates --------------------------------------------------------
    def is_empty(self) -> bool:
        if self.lo < self.hi:
            return False
        return not (self.closed_lo and self.closed_hi)

    def is_point(self) -> bool:
        return self.lo == self.hi and self.closed_lo and self.closed_hi

    def contains(self, x: float) -> bool:
        if not self.lo <= x <= self.hi:  # NaN lies outside every interval
            return False
        if x == self.lo and not self.closed_lo:
            return False
        if x == self.hi and not self.closed_hi:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        """Exact intersection, or None when empty."""
        if self.lo > other.lo:
            lo, clo = self.lo, self.closed_lo
        elif other.lo > self.lo:
            lo, clo = other.lo, other.closed_lo
        else:
            lo, clo = self.lo, self.closed_lo and other.closed_lo
        if self.hi < other.hi:
            hi, chi = self.hi, self.closed_hi
        elif other.hi < self.hi:
            hi, chi = other.hi, other.closed_hi
        else:
            hi, chi = self.hi, self.closed_hi and other.closed_hi
        if lo > hi or (lo == hi and not (clo and chi)):
            return None
        return Interval(lo, hi, clo, chi)

    def __str__(self):
        if self.is_point():
            return f"{{{self.lo:g}}}"
        left = "[" if self.closed_lo else "("
        right = "]" if self.closed_hi else ")"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


def _touches(a: Interval, b: Interval) -> bool:
    # a.lo <= b.lo assumed; union of a and b is connected?
    if b.lo < a.hi:
        return True
    return b.lo == a.hi and (a.closed_hi or b.closed_lo)


@dataclass(frozen=True)
class RealSet:
    """A finite union of disjoint intervals, kept sorted and merged."""

    components: tuple[Interval, ...]

    def __post_init__(self):
        parts = [iv for iv in self.components if not iv.is_empty()]
        parts.sort(key=lambda iv: (iv.lo, not iv.closed_lo))
        merged: list[Interval] = []
        for iv in parts:
            if merged and _touches(merged[-1], iv):
                cur = merged.pop()
                if iv.hi > cur.hi:
                    hi, chi = iv.hi, iv.closed_hi
                elif iv.hi < cur.hi:
                    hi, chi = cur.hi, cur.closed_hi
                else:
                    hi, chi = cur.hi, cur.closed_hi or iv.closed_hi
                merged.append(Interval(cur.lo, hi, cur.closed_lo, chi))
            else:
                merged.append(iv)
        object.__setattr__(self, "components", tuple(merged))

    # -- constructors ------------------------------------------------------
    @staticmethod
    def empty() -> "RealSet":
        return RealSet(())

    @staticmethod
    def of(*intervals: Interval) -> "RealSet":
        return RealSet(tuple(intervals))

    @staticmethod
    def point(x: float) -> "RealSet":
        return RealSet((Interval.point(x),))

    @staticmethod
    def reals() -> "RealSet":
        return RealSet((Interval.open(-_INF, _INF),))

    # -- predicates and algebra --------------------------------------------
    def is_empty(self) -> bool:
        return not self.components

    def contains(self, x: float) -> bool:
        return any(iv.contains(x) for iv in self.components)

    def contains_many(self, x) -> np.ndarray:
        """Vector form of :meth:`contains`: a bool array, one entry per point of x.

        Each component makes the same exact comparisons as
        :meth:`Interval.contains`, so every entry equals ``contains(x_i)``;
        the scalar method is the reference the tests compare with.
        """
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=bool)
        for iv in self.components:
            inside = (x >= iv.lo) & (x <= iv.hi)
            if not iv.closed_lo:
                inside &= x != iv.lo
            if not iv.closed_hi:
                inside &= x != iv.hi
            out |= inside
        return out

    def union(self, other: "RealSet") -> "RealSet":
        return RealSet(self.components + other.components)

    def intersect(self, other: "RealSet") -> "RealSet":
        out = []
        for a in self.components:
            for b in other.components:
                iv = a.intersect(b)
                if iv is not None:
                    out.append(iv)
        return RealSet(tuple(out))

    def complement(self) -> "RealSet":
        """The complement within the whole real line."""
        out = []
        lo, clo = -_INF, False
        for iv in self.components:
            gap_hi, gap_chi = iv.lo, not iv.closed_lo
            if lo < gap_hi or (lo == gap_hi and clo and gap_chi):
                out.append(Interval(lo, gap_hi, clo, gap_chi))
            lo, clo = iv.hi, not iv.closed_hi
        if lo < _INF:
            out.append(Interval(lo, _INF, clo, False))
        return RealSet(tuple(out))

    def difference(self, other: "RealSet") -> "RealSet":
        return self.intersect(other.complement())

    def __str__(self):
        if not self.components:
            return "(empty)"
        return " U ".join(str(iv) for iv in self.components)

