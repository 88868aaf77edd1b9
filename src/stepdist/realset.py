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
        both = _sweep((self,), (other,))
        return both[0] if both else None

    def __str__(self):
        if self.is_point():
            return f"{{{self.lo:g}}}"
        left = "[" if self.closed_lo else "("
        right = "]" if self.closed_hi else ")"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


def _cuts(components) -> list:
    """Each interval's start cut ``(lo, not closed_lo)``, then its end cut ``(hi, closed_hi)``.
    A cut ``(v, False)`` lies just below v, ``(v, True)`` just above it: tuple order is
    the order on the line, and an interval is empty unless its start < its end."""
    return [c for iv in components for c in ((iv.lo, not iv.closed_lo), (iv.hi, iv.closed_hi))]


def _sweep(*families) -> tuple:
    """The merged, sorted intervals of the points covered by every family: one family
    gives the union of its intervals, two disjoint ones their intersection.

    Coverage is counted over the cut events of the nonempty intervals, starts before
    ends at an equal cut, so touching intervals merge; ``_float`` picks the sign of a
    zero endpoint.  A component that starts and ends at the cuts of one input interval
    is that interval, and is returned as it is unless an endpoint is zero.
    """
    if not all(families):
        return ()
    if len(families) == 1 and len(families[0]) == 1 and not families[0][0].is_empty():
        return families[0]  # one nonempty interval is already merged
    events = []
    for fam, ivs in enumerate(families):
        for i, iv in enumerate(ivs):
            if not iv.is_empty():
                events += [(iv.lo, not iv.closed_lo, False, fam, i), (iv.hi, iv.closed_hi, True, fam, i)]
    events.sort()
    out, depth, k = [], 0, len(families)
    for v, above, end, fam, i in events:
        if end and depth == k and lo < (v, above):
            out.append(families[fam][i] if lo[2:] == (fam, i) and v and lo[0]  # one interval's cuts, neither at 0
                       else Interval(_float(events, False, lo[0]), _float(events, True, v), not lo[1], above))
        depth += -1 if end else 1
        if not end and depth == k:
            lo = (v, above, fam, i)  # a start cut, and the interval it starts
    return tuple(out)


def _float(events, end: bool, v: float) -> float:
    # 0.0 and -0.0 are the one value with two floats: a zero endpoint takes the float of
    # the first family's, then of the one whose interval starts first in the sorted events
    if v:
        return v
    first = {e[3:]: n for n, e in enumerate(events) if not e[2]}
    return min((e[3], first[e[3:]], e[0]) for e in events if e[2] == end and e[0] == 0.0)[2]


@dataclass(frozen=True)
class RealSet:
    """A finite union of disjoint intervals, kept sorted and merged."""

    components: tuple[Interval, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", _sweep(tuple(self.components)))

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

        x lies in the set iff an odd number of cuts lie below it: one search counts
        those of value < x, and a cut ``(x, False)`` is below x too.  NaN sorts past
        the closing NaN cut, so it lies in no set.  Every entry equals ``contains(x_i)``.
        """
        cuts = _cuts(self.components) + [(math.nan, True)]
        return _in_cuts(np.array([v for v, _ in cuts]), np.array([not above for _, above in cuts]), x)

    def union(self, other: "RealSet") -> "RealSet":
        return _merged(_sweep(self.components + other.components))

    def intersect(self, other: "RealSet") -> "RealSet":
        return _merged(_sweep(self.components, other.components))

    def complement(self) -> "RealSet":
        """The complement within the whole real line: the gaps between the cuts."""
        cuts = [(-_INF, True), *_cuts(self.components), (_INF, False)]
        gaps = [(*a, *b) for a, b in zip(cuts[::2], cuts[1::2]) if a < b]
        return _merged(tuple(Interval(lo, hi, not above, closed) for lo, above, hi, closed in gaps))

    def difference(self, other: "RealSet") -> "RealSet":
        return self.intersect(other.complement())

    def __str__(self):
        if not self.components:
            return "(empty)"
        return " U ".join(str(iv) for iv in self.components)


def _in_cuts(values: np.ndarray, below: np.ndarray, x) -> np.ndarray:
    """Whether each point of x lies in the set of the sorted cut values ``values``, each
    cut just below its value where ``below`` holds and just above it elsewhere, the last
    a NaN cut just above NaN: the point lies in the set iff an odd number of cuts lie
    below it, which one search counts (those of value < x, and those at x just below it)."""
    x = np.asarray(x, dtype=float)
    i = np.searchsorted(values, x)
    return np.asarray((i + ((values[i] == x) & below[i])) % 2 == 1)


def _merged(components: tuple) -> RealSet:
    """A RealSet of components that are already sorted and merged, without a sweep."""
    s = object.__new__(RealSet)
    object.__setattr__(s, "components", components)
    return s
