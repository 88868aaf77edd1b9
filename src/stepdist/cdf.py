"""Validated distribution functions with exact left/right generalized inverses.

Quantiles are computed by a structural scan of the stored breakpoint values,
with at most one linear solve inside a rising segment.  Levels that are
attained at a breakpoint (atoms, flat pieces) always come back as the stored
breakpoint abscissa, so set endpoints downstream are float-identical rather
than merely close.  Level sets are read off the flat table, one read-only
index array built on first use, as the jump table's columns are: entry i is
the right end of the flat piece that starts at x_i, and a level's piece is
found by the quantile scan's own search of the stored values.  The array
reader of many levels (``_level_ends``) returns one level table: each level's
left quantile, the ends of its set, and F, F(x-) and the jump at those ends
from one search, which its readers take instead of evaluating F again.
Nothing here knows about transform weights: the jump-interpolating transform
and its sublevel sets live in transform.py.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import AlphaOutOfRange, DegenerateRange, ValidationError
from .monotone import MonotoneStepLinear
from .realset import Interval, RealSet, _in_cuts

__all__ = [
    "Cdf",
    "QuantilePair",
    "normalize",
    "left_quantile",
    "right_quantile",
    "quantile_pair",
    "level_set",
    "jump_set",
]


class QuantilePair(NamedTuple):
    """Left and right generalized inverse at one level; ``lo <= hi`` always."""

    lo: float
    hi: float


@dataclass(frozen=True)
class Cdf(MonotoneStepLinear):
    """A distribution function: nondecreasing, right-continuous, limits 0 and 1.

    Carries two tables read off the stored breakpoint values on first use, each a
    read-only array: the right end of the flat piece that starts at each
    breakpoint (:func:`_flat_ends`), and the jumps (atoms) as four columns.
    """

    _flat_end: np.ndarray | None = field(init=False, repr=False, compare=False)
    _jump_cols: np.ndarray | None = field(init=False, repr=False, compare=False)

    def _derive(self):
        if not self.xs:
            raise DegenerateRange("a constant function is not a distribution function")
        if self.base != 0.0:
            raise ValidationError(f"base must be exactly 0.0, got {self.base}")
        if float(self._cums[-1]) != 1.0:
            raise ValidationError(f"top must be exactly 1.0, got {float(self._cums[-1])}")
        # the tables are built on first use: the sampling kernels read none.  The
        # slots are set here, so filling them keeps every instance's attribute
        # layout the same (a key added later slows attribute reads on 3.11)
        object.__setattr__(self, "_flat_end", None)
        object.__setattr__(self, "_jump_cols", None)

    @property
    def jump_points(self) -> tuple[float, ...]:
        return tuple(_jump_columns(self)[0].tolist())

    @property
    def jump_masses(self) -> tuple[float, ...]:
        return tuple(_jump_columns(self)[3].tolist())

    @property
    def plateau_levels(self) -> tuple[float, ...]:
        """Levels a in (0,1) where the left and right quantiles differ: F at the
        starts of the flat pieces, where it lies above 0."""
        end = _flat_ends(self)
        levels = self._cums[end > np.arange(end.size)]
        return tuple(levels[levels > 0.0].tolist())


def normalize(g: MonotoneStepLinear) -> Cdf:
    """Affinely rescale a bounded nondecreasing function onto [0, 1].

    Maps G to (G - base) / (top - base).  Breakpoints are preserved; atom and
    rise proportions are preserved.  The stored breakpoint values are divided
    directly, so the rescaled top is exactly 1.0.

    Raises
    ------
    DegenerateRange
        If G is constant (top == base).
    """
    span = g.top - g.base
    if span <= 0.0:
        raise DegenerateRange("constant function has no distribution-function rescaling")
    lefts = (g._lefts - g.base) / span
    cums = (g._cums - g.base) / span
    atoms = tuple(map(operator.truediv, g.atoms, repeat(span)))
    rises = tuple(map(operator.truediv, g.rises, repeat(span)))
    return Cdf._with_profile(g.xs, atoms, rises, 0.0, lefts, cums)


def _breakpoint_parts(f: Cdf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(xs, F(x_i), F(x_i-))``: the breakpoints and the values stored there, read by
    index instead of searched.  The arrays are the stored ones: callers must not write
    to them.  As values they equal F and F(x-) from a search of xs (a stored -0.0
    reads +0.0 there)."""
    return f._xs_arr, f._cums, f._lefts


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if math.isnan(alpha) or not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"level must lie in (0, 1), got {alpha}")
    return alpha


# -- the flat table -----------------------------------------------------------


def _flat_ends(f: Cdf) -> np.ndarray:
    """The flat table: one read-only int array whose entry i is the index of the right
    end of the maximal flat piece below level 1 that starts at x_i, and i where no
    piece starts there, built on first use from the stored values.

    A piece starts at the first breakpoint of each run of equal values F(x_i) and ends
    at the run's last breakpoint e, or at e + 1 where F(x_{e+1}-) == F(x_e).  The last
    run is the one at level 1 (the top is exactly 1.0), which gets no piece.
    """
    if f._flat_end is None:
        cums = f._cums
        last = (cums[1:] != cums[:-1]).nonzero()[0]
        end = np.arange(cums.size)
        end[np.concatenate(([0], last + 1))[:-1]] = last + (f._lefts[last + 1] == cums[last])
        end.flags.writeable = False
        object.__setattr__(f, "_flat_end", end)
    return f._flat_end


def _flat_piece(f: Cdf, a: float, closed_lo: bool) -> Interval | None:
    """The flat piece at level ``a`` in [0, 1], its left end included iff
    ``closed_lo``, or None where F is not flat at ``a``.  The piece's right end is
    included iff F still equals ``a`` there.  The search is the quantile scan's:
    the first breakpoint x_i with F(x_i) >= a starts the piece if F(x_i) == a."""
    i = bisect_left(f._cums, a)
    e = _flat_ends(f).item(i)
    if e == i or f._cums.item(i) != a:
        return None
    return Interval(f.xs[i], f.xs[e], closed_lo, f._cums.item(e) == a)


# -- quantile scans ----------------------------------------------------------
#
# Left quantile at a: the least x with F(x) >= a.  Scan for the first
# breakpoint value >= a; the level is attained either at that breakpoint
# (atom jumps past it, or the ramp arrives exactly there) or strictly inside
# the rising segment [x0, x1) before it, where one linear solve inverts the
# ramp.  A solve that lands a few ulps short (F(x) < a in floats), or that
# rounds to or past x1 although F(x1-) > a, is moved to the least float
# above x0 with F >= a: up from the solve in the first case, down from x1 in
# the second.  The defining inequality always holds and the result stays on
# the segment.  Only the array kernel corrects; the scalar scan passes it
# the levels whose solve needs it.
#
# Right quantile at a in [0, 1): it differs from the left one only where F
# is flat at level a, and then it is the right end of that flat piece.


_SIGN_BIT = np.uint64(1 << 63)


def _float_order(x: np.ndarray) -> np.ndarray:
    """Map float64 to uint64 preserving order, one unit per float (-0.0 just below +0.0)."""
    b = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    return np.where(b >= _SIGN_BIT, ~b, b | _SIGN_BIT)


def _order_float(u: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_float_order`."""
    return np.where(u >= _SIGN_BIT, u & ~_SIGN_BIT, ~u).view(np.float64)


def _raise_to_level(
    f: Cdf, x: np.ndarray, a: np.ndarray, cap: np.ndarray, down: np.ndarray | None = None
) -> np.ndarray:
    """The least float y > x_i with F(y) >= a_i, for every ramp solve x_i to correct.

    Requires F(x_i) < a_i <= F(cap_i), with x_i and cap_i on one rising
    segment (cap_i its right breakpoint).  F evaluated in floats is
    nondecreasing there, so the answer is the float a walk up from x_i one
    float at a time stops at.  Most solves are one float short: one
    ``values`` pass at the float after each x_i settles those.  The rest are
    searched in an order of the floats (+0.0 a float of its own, just above
    -0.0): up from x_i by 1, 2, 4, ... floats (never past cap_i), or where
    ``down`` holds, down from cap_i, for a solve that reached cap_i and whose
    answer lies at or just below it; then the last step is bisected.  That
    takes O(log distance) evaluations of F on the entries still open and
    returns the walk's float: the walk skips +0.0 (from -0.0 it steps to the
    least positive subnormal), and F(+0.0) == F(-0.0) puts the order's answer
    at -0.0 wherever it could be +0.0.
    """
    y = np.nextafter(x, math.inf)
    open_ = (f.values(y) < a).nonzero()[0]
    if not open_.size:
        return y
    lo = _float_order(y[open_])  # F < a at lo
    hi = _float_order(cap[open_])  # F >= a at hi
    a = a[open_]
    down = np.zeros(open_.size, dtype=bool) if down is None else down[open_]
    # gallop: up from lo until F >= a, or down from hi until F < a
    step = 1
    live = np.arange(open_.size)
    while live.size:
        gap = np.minimum(np.uint64(step), hi[live] - lo[live])
        d = down[live]
        probe = np.where(d, hi[live] - gap, lo[live] + gap)
        ok = f.values(_order_float(probe)) >= a[live]
        hi[live[ok]] = probe[ok]
        lo[live[~ok]] = probe[~ok]
        live = live[ok == d]
        step = min(2 * step, 1 << 63)
    live = (hi - lo > 1).nonzero()[0]
    while live.size:
        mid = lo[live] + (hi[live] - lo[live]) // np.uint64(2)
        ok = f.values(_order_float(mid)) >= a[live]
        hi[live[ok]] = mid[ok]
        lo[live[~ok]] = mid[~ok]
        live = live[hi[live] - lo[live] > 1]
    y[open_] = _order_float(hi)
    return y


def _ramp_solve(a, x0, x1, c0, rise):
    """Solve F = a on the ramp from (x0, c0) rising by ``rise`` to x1, and F at the
    solve as ``values()`` evaluates it for x0 <= x < x1.  Floats or arrays."""
    width = x1 - x0
    x = x0 + (a - c0) / rise * width
    return x, c0 + rise * ((x - x0) / width)


def _left_quantile_unchecked(f: Cdf, a: float) -> float:
    i = bisect_left(f._cums, a)
    if i == 0:
        return f.xs[0]
    if a >= float(f._lefts[i]):
        return f.xs[i]
    x1 = f.xs[i]
    x, fx = _ramp_solve(a, f.xs[i - 1], x1, float(f._cums[i - 1]), f.rises[i - 1])
    if x < x1 and fx >= a:
        return x
    # a solve to correct: the array kernel is the one place that corrects
    return float(_left_quantiles(f, np.array([a]))[0])


def _quantile_pair_unchecked(f: Cdf, a: float) -> QuantilePair:
    # requires 0 <= a < 1: the flat pieces are tabled below level 1 only
    lo = _left_quantile_unchecked(f, a)
    piece = _flat_piece(f, a, True)
    return QuantilePair(lo, lo if piece is None else piece.hi)


def _right_quantile_unchecked(f: Cdf, a: float) -> float:
    return _quantile_pair_unchecked(f, a).hi


def left_quantile(f: Cdf, alpha: float) -> float:
    """The least x with F(x) >= alpha (the left generalized inverse).

    The minimum is attained because F is right-continuous.  Exact at atoms
    and flat pieces; one linear solve inside rising segments.
    """
    return _left_quantile_unchecked(f, _check_alpha(alpha))


def right_quantile(f: Cdf, alpha: float) -> float:
    """sup{x : F(x) <= alpha} = inf{x : F(x) > alpha} (the right generalized inverse)."""
    return _right_quantile_unchecked(f, _check_alpha(alpha))


def quantile_pair(f: Cdf, alpha: float) -> QuantilePair:
    return _quantile_pair_unchecked(f, _check_alpha(alpha))


def _left_quantiles(f: Cdf, a: np.ndarray) -> np.ndarray:
    """Vectorized left quantile for levels already inside (0, 1]: the one kernel
    that corrects a ramp solve (the scalar scan hands its solves to correct here)."""
    cums = f._cums
    xs = f._xs_arr
    i = np.searchsorted(cums, a, side="left")
    out = xs[i]
    # F(xs[0]-) = 0 < a, so levels reaching the first breakpoint are never interior
    interior = a < f._lefts[i]
    ij = i[interior] - 1
    ai = a[interior]
    x0, x1 = xs[ij], xs[ij + 1]
    solved, fs = _ramp_solve(ai, x0, x1, cums[ij], f._rises_arr[ij])
    # a solve at or past x1 (or NaN) is corrected from x0, where F = c0 < a, by a
    # search down from x1, where F > a: its answer lies at or just below x1
    past = ~(solved < x1)
    solved[past] = x0[past]
    short = (past | (fs < ai)).nonzero()[0]
    if short.size:
        solved[short] = _raise_to_level(f, solved[short], ai[short], x1[short], past[short])
    out[interior] = solved
    return out


class _LevelEnds(NamedTuple):
    """The ends of the set of every level ``a``, one entry per level, and F, F(x-) and
    the jump there: each of ``fx``, ``left`` and ``jump`` has one row per end, taken at
    ``lo``, ``hi`` and ``start`` in that order.

    ``lo`` is the left quantile q, and ``attained`` whether F(q) equals the level.
    Where the level is flat (``flat``), ``start`` and ``hi`` are the ends of its flat
    piece; elsewhere both are q.  ``closed_end`` is whether F(hi) equals the level.
    The level set is [start, hi] where the level is flat (``hi`` in it iff
    ``closed_end``), else {q} or empty as ``attained``.  Level 1 has no flat piece
    in the table: its ends there are those of {q}.
    """

    a: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    flat: np.ndarray
    start: np.ndarray
    closed_end: np.ndarray
    attained: np.ndarray
    fx: np.ndarray
    left: np.ndarray
    jump: np.ndarray

    def take(self, s) -> "_LevelEnds":
        """The table of the levels ``a[s]``: each column indexed by ``s``, each row of
        ``fx``, ``left`` and ``jump`` too.  A slice ``s`` gives views, no copies."""
        return _LevelEnds(*(c[s] for c in self[:7]), *(c[:, s] for c in self[7:]))


def _level_ends(f: Cdf, a: np.ndarray) -> _LevelEnds:
    """Array form of :func:`quantile_pair` and :func:`level_set` for levels already
    inside (0, 1], with F, F(x-) and the jump at the ends: one ``_left_quantiles``
    pass, the flat table read at the first breakpoint with F(x_i) >= a (one search)
    and one search of the three ends.  The one place that reads the flat table in
    array form, and the one evaluation at level ends that its readers take F from.
    """
    lo = _left_quantiles(f, a)
    cums, xs = f._cums, f._xs_arr
    i = cums.searchsorted(a)
    e = _flat_ends(f)[i]
    flat = (e > i) & (cums[i] == a)
    start, hi = np.where(flat, xs[i], lo), np.where(flat, xs[e], lo)
    fx, left, jump = f.value_parts(np.array((lo, hi, start)))
    attained = fx[0] == a
    closed_end = np.where(flat, cums[e] == a, attained)
    return _LevelEnds(a, lo, hi, flat, start, closed_end, attained, fx, left, jump)


# -- level sets --------------------------------------------------------------

_EMPTY = RealSet.empty()


def _level_set_unchecked(f: Cdf, a: float) -> RealSet:
    # requires 0 <= a <= 1: the flat piece at a where there is one, else {q} or empty
    piece = _flat_piece(f, a, True)
    if piece is not None:
        return RealSet.of(piece)
    q = _left_quantile_unchecked(f, a)
    return RealSet.point(q) if f.value(q) == a else _EMPTY


def level_set(f: Cdf, alpha: float) -> RealSet:
    """{x : F(x) = alpha}, exactly one of: empty, a point, [lo,hi), [lo,hi].

    With lo/hi the left/right quantiles: empty or {lo} when lo == hi
    (according to whether F(lo) equals alpha); when lo < hi the set is
    [lo, hi) if F(hi) > alpha and [lo, hi] if F(hi) == alpha.
    """
    return _level_set_unchecked(f, _check_alpha(alpha))


# -- the exceptional set of the transform inversion -----------------------------


class _NullSet(NamedTuple):
    """The exceptional set of ``transform.inversion_null_set`` at one weight class, as
    the cuts of the sorted, merged components of its union, and the masses
    ``measure_set`` gives: ``plateau`` of the plateau union, ``ends`` of the union of
    the zero and one sets, and ``total`` of the whole set.

    ``cuts`` holds every component's start and end, then a NaN; ``below`` whether each
    cut lies just below its value (a closed start, an open end) rather than just above
    it.  These are the cuts ``RealSet.contains_many`` searches.
    """

    cuts: np.ndarray
    below: np.ndarray
    plateau: float
    ends: float
    total: float

    def contains_many(self, x) -> np.ndarray:
        """Whether each point of x lies in the set, from one search of the cuts."""
        return _in_cuts(self.cuts, self.below, x)


def _null_sets(f: Cdf) -> tuple[_NullSet, _NullSet]:
    """The exceptional sets of the transform inversion for weights below 1 and for
    weight 1, read off the stored values at breakpoint indices: no evaluation of F and
    no set sweep.

    Every finite end is a breakpoint, and the flat table gives the indices of all but
    one.  The zero set is (-inf, z0], or (-inf, z0) where F(z0) > 0, with z0 the right
    end of the flat piece at level 0, else x0.  The plateau runs follow, (lo, hi] or
    (lo, hi) as F at hi equals their level or not, at every level above 0, in the
    table's order, which is their order on the line.  The one set is [z1, inf), or
    (z1, inf) where the weight is below 1 and F jumps at z1, with z1 the first
    breakpoint where F = 1, the one end searched.  Each component's mass is the
    subtraction ``measure_interval`` makes, F or F(x-) read off ``_cums`` and
    ``_lefts`` at those indices (0 and 1 at infinite ends; x - 0.0 is x), and the mass
    of a union is the builtin sum of its components' masses in their order from 0.0,
    as ``measure_set`` sums them.  Components that touch merge, as the set sweep
    merges them.  On a flat table read off the stored values only the one set can
    touch anything, and only at weight 1: the zero set of a single jump from 0 to 1,
    or a plateau that ends in the jump to 1.  Where F does not jump at z1 the two
    weight classes have one set, returned twice.
    """
    cums, lefts, xs = f._cums, f._lefts, f.xs
    end = _flat_ends(f)
    # the pieces above level 0; one at level 0 can only start at x0
    lo_at = ((end > np.arange(end.size)) & (cums > 0.0)).nonzero()[0]
    hi_at = end[lo_at]
    p = lo_at.size
    run_lo, run_hi, run_closed = f._xs_arr[lo_at], f._xs_arr[hi_at], cums[hi_at] == cums[lo_at]
    i0 = end.item(0) if cums.item(0) == 0.0 else 0
    z0 = xs[i0]
    i1 = int(cums.searchsorted(1.0))
    zero_closed = cums.item(i0) == 0.0
    zero_mass = cums.item(i0) if zero_closed else lefts.item(i0)
    masses = (np.where(run_closed, cums[hi_at], lefts[hi_at]) - cums[lo_at]).tolist()
    plateau = sum(masses, 0.0)
    # the cuts of (-inf, z0], the plateaus and [z1, inf), then NaN
    cuts = np.empty(2 * p + 5)
    cuts[:2], cuts[2:-3:2], cuts[3:-3:2], cuts[-3:] = (-math.inf, z0), run_lo, run_hi, (xs[i1], math.inf, math.nan)
    below = np.zeros(2 * p + 5, dtype=bool)
    below[1], below[3:-3:2], below[-2] = not zero_closed, ~run_closed, True

    def weight_class(one_closed: bool) -> _NullSet:
        one_below = below.copy()
        one_below[-3] = one_closed
        pieces = [zero_mass, *masses, 1.0 - (lefts if one_closed else cums).item(i1)]
        ends = sum((zero_mass, pieces[-1]), 0.0)
        # the one set touches the component before it: they merge into (lo, inf)
        if cuts[-4] == cuts[-3] and (one_closed or not below[-4]):
            pieces[-2:] = [1.0 - (cums.item(lo_at[-1]) if p else 0.0)]
            if not p:
                ends = pieces[0]
            return _NullSet(np.delete(cuts, [-4, -3]), np.delete(one_below, [-4, -3]), plateau, ends, sum(pieces, 0.0))
        return _NullSet(cuts, one_below, plateau, ends, sum(pieces, 0.0))

    if f.atoms[i1] == 0.0:
        both = weight_class(True)
        return both, both
    return weight_class(False), weight_class(True)


def _jump_columns(f: Cdf) -> np.ndarray:
    """The jump table: one read-only 4 x m array of the point x, F(x-), F(x) and the
    mass of every positive stored atom (atoms are >= 0, and a -0.0 atom has no column),
    in breakpoint order, built on first use from one mask of the stored arrays."""
    if f._jump_cols is None:
        at = f._atoms_arr > 0.0
        cols = np.array((f._xs_arr[at], f._lefts[at], f._cums[at], f._atoms_arr[at]))
        cols.flags.writeable = False
        object.__setattr__(f, "_jump_cols", cols)
    return f._jump_cols


def _jump_round_trip_levels(f: Cdf) -> tuple[np.ndarray, np.ndarray]:
    """The levels ``jump_set`` maps back: lo + mass/2 at every jump where that level
    lies strictly inside both the gap (lo, hi) and (0, 1), and the jump points x of
    those jumps, as ``(x, levels)``."""
    x, lo, hi, mass = _jump_columns(f)
    u = lo + 0.5 * mass
    inside = (lo < u) & (u < hi) & (0.0 < u) & (u < 1.0)
    return x[inside], u[inside]


def _check_jump_round_trip(x: np.ndarray, ends: _LevelEnds) -> None:
    """Raise ValidationError for the first jump point x_n whose level does not map back
    to x_n under both generalized inverses; ``ends`` is the level table of the levels
    of :func:`_jump_round_trip_levels`, in their order."""
    wrong = ((ends.lo != x) | (ends.hi != x)).nonzero()[0]
    if wrong.size:
        n = wrong[0]
        pair = (ends.lo[n].item(), ends.hi[n].item())
        raise ValidationError(f"jump at {x[n].item()} fails the quantile round trip: got {pair}")


def jump_set(f: Cdf) -> list[tuple[float, float]]:
    """All jump points with their masses, cross-checked against the quantiles.

    For each atom, a level strictly inside its value gap must map back to the
    same point under both generalized inverses; a mismatch would mean the
    stored structure and the scans disagree, so it raises for the first such
    atom.  The quantile pairs of all those levels come from one ``_level_ends``
    pass.
    """
    points, u = _jump_round_trip_levels(f)
    _check_jump_round_trip(points, _level_ends(f, u))
    x, _, _, mass = _jump_columns(f)
    return list(zip(x.tolist(), mass.tolist()))
