"""The jump-interpolating transform of a CDF and its a.e. inversion machinery.

For a weight lam in [0, 1] the transform evaluates F(x-) + lam * jump(x),
which interpolates across the jump of F at x and reduces to F(x-) at lam=0
and to F(x) at lam=1.  Left-composing the left quantile undoes the transform
everywhere outside an explicit exceptional set: the points transported to 0
or 1 plus the flat pieces of F, a set of F-mass zero whenever the transform
stays strictly inside (0, 1) F-almost everywhere.

This module is the one place the rule is written: :func:`lambda_transform`
at one point, and one array kernel that returns F(x) and F(x-) + v * jump(x)
for a weight v per point (or one weight for all), with its form over parts
already read for tables that hold F, F(x-) and the jump.  The array
transform, the sublevel split, the distributional transform and its
inversion check (stochastic.py), the transform of each copula coordinate
(copula.py) and the tables of the analytic suite (checks.py) all call one
of them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .cdf import (
    _EMPTY,
    Cdf,
    _breakpoint_parts,
    _check_alpha,
    _flat_piece,
    _jump_columns,
    _left_quantile_unchecked,
    _level_set_unchecked,
)
from .errors import (
    AlphaNotInJumpInterval,
    LambdaOutOfRange,
    LengthMismatch,
    TransformOutOfRange,
    ValidationError,
)
from .measure import measure_set
from .realset import Interval, RealSet

__all__ = [
    "lambda_transform",
    "lambda_transforms",
    "sublevel_decomposition",
    "quantile_range_of_point",
    "jump_gap_values",
    "jump_gap_weights",
    "attained_values",
    "NullSetReport",
    "inversion_null_set",
    "invert_transform",
]


def _check_weight(lam: float, zero_ok: bool = False) -> float:
    lam = float(lam)
    if not (0.0 < lam <= 1.0 or zero_ok and lam == 0.0):
        raise LambdaOutOfRange(f"weight must lie in {'[' if zero_ok else '('}0, 1], got {lam}")
    return lam


def lambda_transform(f: Cdf, x: float, lam: float) -> float:
    """F(x-) + lam * jump(x), the jump-interpolated evaluation.

    Always sandwiched between F(x-) and F(x); independent of lam at
    continuity points.  lam = 0 and lam = 1 return the stored left limit and
    value exactly.
    """
    lam = _check_weight(lam, zero_ok=True)
    fx, left, jump = f._point(x)
    if lam == 0.0:
        return left
    if lam == 1.0:
        return fx
    return left + lam * jump


def _transform_parts(f: Cdf, x: np.ndarray, v) -> tuple[np.ndarray, np.ndarray]:
    """(F(x), F(x-) + v * jump(x)) from one ``value_parts`` call; v is one weight
    or one per point.  The sum is formed in place in the arrays of the search,
    so it allocates no array of its own."""
    fx, u, jump = f.value_parts(x)  # u starts as F(x-)
    jump *= v
    u += jump
    return fx, u


def _transforms_of_parts(fx, left, jump, lams) -> tuple:
    """The transform at each weight of ``lams`` (each in (0, 1]) from F, F(x-) and the
    jump already read at the same points: F(x) at weight 1, else F(x-) + lam * jump(x),
    the arithmetic of ``_transform_parts``, so each equals ``lambda_transforms`` at
    those points bit for bit without searching them again."""
    return tuple(fx if lam == 1.0 else left + jump * lam for lam in lams)


def lambda_transforms(f: Cdf, x, lam: float) -> np.ndarray:
    """Vector form of :func:`lambda_transform`: the transform at every point of x.

    Takes the same branches as the scalar function over the parts of one
    search (the stored left limits at lam = 0, the values at lam = 1,
    ``F(x-) + lam * jump(x)`` otherwise), so each entry equals
    ``lambda_transform(f, x_i, lam)`` bit for bit; the scalar function is the
    reference the tests compare with.
    """
    lam = _check_weight(lam, zero_ok=True)
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValidationError("evaluation point is NaN")
    if lam == 0.0:
        return f.left_values(x)
    fx, u = _transform_parts(f, x, lam)
    return fx if lam == 1.0 else u


def sublevel_decomposition(f: Cdf, lam: float, alpha: float):
    """Split {x : F(x-) + lam * jump(x) <= alpha} around the left quantile.

    Returns ``(beyond, at, below)``: the part strictly right of the left
    quantile q (a flat piece of F, possibly empty), the singleton {q} when
    the transform at q is at most alpha, and the always-present (-inf, q).
    Requires 0 < lam <= 1 and 0 < alpha < 1.
    """
    lam = _check_weight(lam)
    a = _check_alpha(alpha)
    q = _left_quantile_unchecked(f, a)
    piece = _flat_piece(f, a, False)
    beyond = _EMPTY if piece is None else RealSet.of(piece)
    at = RealSet.point(q) if lambda_transform(f, q, lam) <= a else _EMPTY
    return beyond, at, RealSet.of(Interval.open(-math.inf, q))


def quantile_range_of_point(f: Cdf, x: float) -> RealSet:
    """{a in (0,1) : left_quantile(F, a) == x}, with exact endpoint membership.

    Always contains the open value gap (F(x-), F(x)) and is contained in its
    closure; which endpoints belong is decided from the local breakpoint
    structure (whether F is flat immediately left of x, and whether the
    endpoint level sits inside (0,1)).
    """
    x = float(x)
    hi, lo, _ = f._point(x)
    xs = f.xs
    # is F constant on some interval (x - eps, x)?
    if x <= xs[0] or x > xs[-1]:
        flat_left = True
    else:
        # x sits in (xs[i-1], xs[i]]; segment i-1 is flat where F(xs[i]-) == F(xs[i-1])
        i = bisect_left(xs, x)
        flat_left = f.left_value(xs[i]) == f.value(xs[i - 1])
    if hi > lo:
        include_lo = (not flat_left) and lo > 0.0
        include_hi = hi < 1.0
        return RealSet.of(Interval(lo, hi, include_lo, include_hi))
    if (not flat_left) and 0.0 < hi < 1.0:
        return RealSet.point(hi)
    return RealSet.empty()


def _quantile_ranges_of(f: Cdf, x: np.ndarray, fx: np.ndarray, left: np.ndarray) -> tuple:
    """Array form of :func:`quantile_range_of_point` at points x that hold no NaN, from
    F and F(x-) already read there: ``(lo, hi, closed_lo, closed_hi)``, one interval
    per point, whose ``RealSet`` equals the scalar's bit for bit.

    The interval is (F(x-), F(x)) with the scalar's endpoint flags where F jumps
    at x, else {F(x)} (both flags set) or the empty set (F(x) at both ends, both
    flags clear).  Whether F is flat just left of x is read off the stored
    breakpoint values by index, F(x_i-) == F(x_{i-1}), as the scalar reads it.
    """
    xs, at, left_at = _breakpoint_parts(f)
    # x sits in (xs[i-1], xs[i]], where segment i-1 is flat iff F(xs[i]-) == F(xs[i-1]);
    # F is flat left of xs[0] and right of xs[-1]
    flat_left = np.concatenate(([True], left_at[1:] == at[:-1], [True]))[xs.searchsorted(x, side="left")]
    jumped = fx > left
    point = ~jumped & ~flat_left & (0.0 < fx) & (fx < 1.0)
    closed_lo = (jumped & ~flat_left & (left > 0.0)) | point
    closed_hi = (jumped & (fx < 1.0)) | point
    return np.where(jumped, left, fx), fx, closed_lo, closed_hi


def _jump_gap_values(f: Cdf, lams: np.ndarray) -> np.ndarray:
    """Array form of :func:`jump_gap_values` for weights already inside (0, 1), one per
    jump along the last axis: the same sum and the same moves off a gap's ends."""
    _, lo, hi, mass = _jump_columns(f)
    v = lo + lams * mass
    # float rounding with sub-ulp masses could touch a gap endpoint
    v = np.where(v <= lo, np.nextafter(lo, math.inf), v)
    return np.where(v >= hi, np.nextafter(hi, -math.inf), v)


def _jump_gap_weights(f: Cdf, alphas: np.ndarray) -> np.ndarray:
    """Array form of :func:`jump_gap_weights`, one level per jump along the last axis.
    The first level (in C order) outside its open gap raises AlphaNotInJumpInterval."""
    _, lo, hi, mass = _jump_columns(f)
    outside = (~((lo < alphas) & (alphas < hi))).ravel().nonzero()[0]  # NaN too
    if outside.size:
        n = int(outside[0] % lo.size)
        level = float(alphas.flat[outside[0]])
        raise AlphaNotInJumpInterval(n, f"level {level} not inside ({lo[n].item()}, {hi[n].item()})")
    return (alphas - lo) / mass


def jump_gap_values(f: Cdf, lams) -> list[float]:
    """Map one interior weight per jump to a level inside that jump's value gap.

    The n-th output is the transform at the n-th jump point (ascending) with
    weight lams[n]; outputs land strictly inside the pairwise-disjoint open
    gaps (F(x_n-), F(x_n)) and therefore avoid every level attained by F or
    by its left limits.
    """
    lams = [float(v) for v in lams]
    m = _jump_columns(f).shape[1]
    if len(lams) != m:
        raise LengthMismatch(f"{len(lams)} weights for {m} jump points")
    for n, lam in enumerate(lams):
        if math.isnan(lam) or not 0.0 < lam < 1.0:
            raise LambdaOutOfRange(f"weight {n} must lie strictly inside (0, 1), got {lam}")
    return _jump_gap_values(f, np.array(lams)).tolist()


def jump_gap_weights(f: Cdf, alphas) -> list[float]:
    """Invert :func:`jump_gap_values`: recover the weight from a level in each gap.

    The n-th level must lie strictly inside the n-th open jump gap, else
    AlphaNotInJumpInterval(n) is raised.  The weight is (a - F(q-)) / jump(q)
    with q the left quantile of a, read off the n-th column of the jump table
    without a search, because q is the n-th jump point x_n.  Say x_n is the
    breakpoint x_i, with stored values c_j = F(x_j).  Then
    c_{i-1} <= F(x_n-) < a < F(x_n) = c_i, so the quantile scan stops at x_i
    (the first c_j >= a) and returns it (a >= F(x_i-)), where F(q-) and
    jump(q) are that column's stored left limit and atom.
    """
    alphas = [float(a) for a in alphas]
    m = _jump_columns(f).shape[1]
    if len(alphas) != m:
        raise LengthMismatch(f"{len(alphas)} levels for {m} jump points")
    return _jump_gap_weights(f, np.array(alphas)).tolist()


def _attained_ends(f: Cdf) -> tuple[np.ndarray, np.ndarray]:
    """The closed components [lo_k, hi_k] of :func:`attained_values`, as two sorted
    arrays ``(lo, hi)``.

    The pieces {0}, [F(x_i), F(x_{i+1}-)] on each segment and {1}, read off the
    stored breakpoint values by index, are already in order, as
    F(x_i) <= F(x_{i+1}-) <= F(x_{i+1}); a component starts at every piece that
    starts above the end of the piece before it, so pieces that touch or overlap
    merge, and ends at the piece before the next start.  A zero end is +0.0, the
    float of {0}, as the union of the pieces as ``RealSet``s has it (a stored -0.0
    never starts a component, as it lies no higher than the end before it).
    """
    _, values, lefts = _breakpoint_parts(f)
    lo = np.concatenate(([0.0], values[:-1], [1.0]))
    hi = np.concatenate(([0.0], lefts[1:], [1.0]))
    start = np.concatenate(([True], lo[1:] > hi[:-1]))
    return lo[start], hi[np.concatenate((start[1:], start[:1]))] + 0.0


def attained_values(f: Cdf) -> RealSet:
    """All levels attained by F or by its left limits, as an exact set.

    These are {0}, {1} and, on each segment, [F(x_i), F(x_{i+1}-)] (a point
    on a flat segment), read off the stored breakpoint values by index and
    merged into their components (:func:`_attained_ends`).  The
    complement of this set within (0,1) is precisely the disjoint union of
    the open jump gaps.
    """
    lo, hi = _attained_ends(f)
    return RealSet(tuple(map(Interval.closed, lo.tolist(), hi.tolist())))


@dataclass(frozen=True)
class NullSetReport:
    """The exceptional set of the transform inversion, piece by piece.

    ``zero_set``/``one_set`` hold the points the lam-transform sends to 0/1;
    ``plateau_union`` is the union over flat levels of the open-right parts
    of the flat pieces.  ``total_measure`` is the exact F-mass of the union.
    The plateau part carries mass 0 by construction: the flat pieces are
    read off the stored values where F(x_{i+1}-) == F(x_i), and their
    measures subtract the same stored values, so a nonzero plateau mass
    shows only that the two readings disagree.  The zero set carries no mass
    either (F and F(x-) are 0 on it), so where the one set carries none the
    total is the plateau mass too.  The analytic suite reads the same sets
    and masses off the breakpoints (``cdf._null_sets``); this report is the
    scalar route that tier-1 pins that table to.
    """

    zero_set: RealSet
    one_set: RealSet
    plateau_union: RealSet
    total_measure: float

    def union(self) -> RealSet:
        return self.zero_set.union(self.one_set).union(self.plateau_union)


def inversion_null_set(f: Cdf, lam: float) -> NullSetReport:
    """Construct the exceptional set for a weight lam in (0, 1].

    Outside this set, composing the left quantile after the lam-transform
    returns every point unchanged.
    """
    lam = _check_weight(lam)
    # {x : transform = 0} equals {x : F(x) = 0} for every lam > 0: all of
    # (-inf, x_0) and the level set at 0
    zero = RealSet.of(Interval.open(-math.inf, f.xs[0])).union(_level_set_unchecked(f, 0.0))
    # {x : transform = 1}: beyond the first point where F reaches 1; the
    # point itself belongs iff lam = 1 or F arrives continuously
    z1 = _left_quantile_unchecked(f, 1.0)
    one = RealSet.of(Interval(z1, math.inf, lam == 1.0 or f.jump(z1) == 0.0, False))
    # the level-0 piece lies inside the zero set
    plateau = RealSet(tuple(_flat_piece(f, a, False) for a in f.plateau_levels))
    total = measure_set(f, zero.union(one).union(plateau))
    return NullSetReport(zero, one, plateau, float(total))


def invert_transform(f: Cdf, x: float, lam: float) -> float:
    """Left quantile of the lam-transform at x; equals x off the null set.

    Requires the transformed value to lie strictly inside (0, 1).  The result
    never exceeds x, and equality holds exactly when x avoids
    :func:`inversion_null_set`.
    """
    lam = _check_weight(lam)
    t = lambda_transform(f, x, lam)
    if t == 0.0 or t == 1.0:
        raise TransformOutOfRange(f"transform at {x} hit {t}; left quantile undefined")
    return _left_quantile_unchecked(f, t)
