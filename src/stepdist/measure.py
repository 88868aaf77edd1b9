"""Exact interval and finite-union mass under a distribution function.

The measure of a half-open cell (x, y] is F(y) - F(x); open, closed and
single-point variants follow from the left limits, and unbounded ends use
the limits 0 and 1.  Only finite unions of intervals are measurable inputs,
which covers every set the rest of the package constructs.
"""

from __future__ import annotations

import math

from .cdf import Cdf, _left_quantile_unchecked, level_set
from .errors import MalformedInterval
from .realset import Interval, RealSet

__all__ = ["measure_interval", "measure_set", "measure_level_set", "measure_value_level"]


def measure_interval(f: Cdf, iv: Interval) -> float:
    """Mass assigned to one interval.

    (x, y] -> F(y) - F(x);  (x, y) -> F(y-) - F(x);
    [x, y] -> F(y) - F(x-); {y} -> jump at y; unbounded ends use 0 and 1.
    """
    if not isinstance(iv, Interval):
        raise MalformedInterval(f"not an interval: {iv!r}")
    if iv.is_empty():
        return 0.0
    if iv.is_point():
        return f.jump(iv.lo)
    if math.isinf(iv.lo):
        lo_val = 0.0
    else:
        lo_val = f.left_value(iv.lo) if iv.closed_lo else f.value(iv.lo)
    if math.isinf(iv.hi):
        hi_val = 1.0
    else:
        hi_val = f.value(iv.hi) if iv.closed_hi else f.left_value(iv.hi)
    return hi_val - lo_val


def measure_set(f: Cdf, s: RealSet) -> float:
    """Total mass of a finite union of disjoint intervals (additive, monotone)."""
    return sum((measure_interval(f, iv) for iv in s.components), 0.0)


def measure_level_set(f: Cdf, alpha: float) -> float:
    """Mass of {x : F(x) = alpha}.

    When the level is flat (left quantile < right quantile) this is
    alpha - F(left quantile -), which is the jump at the left quantile up to
    rounding; the flat-piece-mass check compares the routes.
    """
    return measure_set(f, level_set(f, alpha))


def measure_value_level(f: Cdf, c: float) -> float:
    """Mass of {x : F(x) = c} for any c, including the endpoint levels 0 and 1.

    This is the atom of the law of F(X) at c when X has law F.  The level 0
    region always carries no mass; level 1 carries whatever jump lands on it.
    """
    c = float(c)
    if c == 1.0:
        z1 = _left_quantile_unchecked(f, 1.0)
        return 1.0 - f.left_value(z1)
    if 0.0 < c < 1.0:
        return measure_level_set(f, c)
    return 0.0
