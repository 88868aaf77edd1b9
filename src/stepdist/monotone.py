"""Bounded nondecreasing right-continuous functions as breakpoints, atoms and ramps.

The representation keeps the running values at every breakpoint (both the
right-continuous value and the left limit) as stored floats, so evaluation,
jumps and flat-piece levels come out of stored data instead of re-derived
sums.  That is what makes the downstream identities exact: two points on the
same flat piece share the identical float level.

Each point is searched once.  One scalar search yields the triple F(x),
F(x-) and the jump, of which ``value``, ``left_value`` and ``jump`` each
return one part; one array search (``value_parts``) yields the three arrays,
which ``values``, ``left_values`` and ``jumps`` read the same way.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import ValidationError

__all__ = ["MonotoneStepLinear", "DfConditionReport", "df_condition_report"]


@dataclass(frozen=True)
class MonotoneStepLinear:
    """A bounded nondecreasing right-continuous function on the real line.

    The function equals ``base`` on (-inf, xs[0]), jumps by ``atoms[i]`` at
    ``xs[i]`` (the jump is included in the value at the point, which is what
    right-continuity means here), rises linearly by ``rises[i]`` across
    [xs[i], xs[i+1]), and is constant at the accumulated top on
    [xs[-1], inf).  An empty breakpoint list gives the constant ``base``.

    Parameters
    ----------
    xs : strictly increasing finite abscissas.
    atoms : jump mass at each breakpoint, >= 0.
    rises : total linear increase over each consecutive breakpoint pair, >= 0.
    base : value on (-inf, xs[0]).
    """

    xs: tuple[float, ...]
    atoms: tuple[float, ...]
    rises: tuple[float, ...]
    base: float = 0.0
    _lefts: np.ndarray = field(init=False, repr=False, compare=False)
    _cums: np.ndarray = field(init=False, repr=False, compare=False)
    _xs_arr: np.ndarray = field(init=False, repr=False, compare=False)
    _rises_arr: np.ndarray = field(init=False, repr=False, compare=False)
    _atoms_arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Convert the fields to tuples of Python floats, validate them, accumulate the
        breakpoint values and store: the one place where outside fields are checked."""
        xs, atoms, rises = tuple(map(float, self.xs)), tuple(map(float, self.atoms)), tuple(map(float, self.rises))
        base = float(self.base)
        k = len(xs)
        if len(atoms) != k:
            raise ValidationError(f"{len(atoms)} atoms for {k} breakpoints")
        if len(rises) != max(k - 1, 0):
            raise ValidationError(f"{len(rises)} rises for {k} breakpoints")
        if not all(map(math.isfinite, xs + atoms + rises + (base,))):
            raise ValidationError("breakpoints, masses and base must be finite")
        if not all(map(operator.lt, xs, xs[1:])):
            a, b = next((a, b) for a, b in zip(xs, xs[1:]) if not a < b)
            raise ValidationError(f"breakpoints not strictly increasing at {a}, {b}")
        if min(atoms, default=0.0) < 0.0:
            raise ValidationError("negative atom mass")
        if min(rises, default=0.0) < 0.0:
            raise ValidationError("negative segment increase")
        # running sums of [base, a0, r0, a1, r1, ..., a_{k-1}] in breakpoint
        # order: the left limits at even positions, the values at odd ones
        steps = [base] * (2 * k)
        steps[1::2] = atoms
        steps[2::2] = rises
        profile = list(accumulate(steps))
        if xs and not math.isfinite(profile[-1] - base):
            raise ValidationError(f"range overflows a float: top {profile[-1]} minus base {base} is not finite")
        self._store(xs, atoms, rises, base, np.array(profile[0::2]), np.array(profile[1::2]))

    def _store(self, xs, atoms, rises, base, lefts: np.ndarray, cums: np.ndarray):
        """Set the fields, the breakpoint values and their arrays, then derive."""
        for name, value in (("xs", xs), ("atoms", atoms), ("rises", rises), ("base", base),
                            ("_lefts", lefts), ("_cums", cums), ("_xs_arr", np.asarray(xs)),
                            ("_rises_arr", np.asarray(rises)), ("_atoms_arr", np.asarray(atoms))):
            object.__setattr__(self, name, value)
        self._derive()

    def _derive(self):
        """Hook for subclasses that check or cache extra structure."""

    @classmethod
    def _with_profile(cls, xs, atoms, rises, base, lefts, cums):
        """Build an instance whose breakpoint values are supplied, not accumulated.

        Used by affine rescaling, where dividing the stored values keeps the
        top exactly 1.0 while re-accumulating scaled masses would not.  The
        fields are stored as given, neither converted nor validated: callers
        pass tuples of floats and float arrays derived from a validated
        function.  A caller with outside data validates it first.
        """
        obj = object.__new__(cls)
        obj._store(xs, atoms, rises, base, lefts, cums)
        return obj

    # -- basic queries -------------------------------------------------------
    @property
    def top(self) -> float:
        """The constant value on [xs[-1], inf); equals base when there are no breakpoints."""
        return float(self._cums[-1]) if len(self.xs) else self.base

    def _point(self, x: float) -> tuple[float, float, float]:
        """(G(x), G(x-), the jump at x) from one search; the scalar queries each read one part."""
        x = float(x)
        if math.isnan(x):
            raise ValidationError("evaluation point is NaN")
        xs = self.xs
        if not xs or x < xs[0]:
            return self.base, self.base, 0.0
        i = bisect_right(xs, x) - 1
        fx = self._cums.item(i)
        if i < len(xs) - 1:
            fx += self.rises[i] * ((x - xs[i]) / (xs[i + 1] - xs[i]))
        if xs[i] != x:
            return fx, fx, 0.0
        # a breakpoint: its stored left limit and atom
        return fx, self._lefts.item(i), self.atoms[i]

    def value(self, x: float) -> float:
        """G(x), right-continuous: the jump at x is included."""
        return self._point(x)[0]

    def left_value(self, x: float) -> float:
        """G(x-), the limit from the left; equals value(x) off the jump points."""
        return self._point(x)[1]

    def jump(self, x: float) -> float:
        """G(x) - G(x-): the stored atom at breakpoints, 0 elsewhere."""
        return self._point(x)[2]

    # -- vectorized evaluation ------------------------------------------------
    def _locate(self, x: np.ndarray) -> np.ndarray:
        """The last i with xs[i] <= x (-1 if none), from one side="right" search."""
        return np.searchsorted(self._xs_arr, x, side="right") - 1

    def _values_at(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """G at x, given idx = the last i with xs[i] <= x (-1 if none)."""
        k = len(self.xs)
        xs = self._xs_arr
        out = np.full(x.shape, self.base)
        last = idx >= k - 1
        out[last] = self._cums[k - 1]
        mid = (idx >= 0) & ~last
        i = idx[mid]
        frac = (x[mid] - xs[i]) / (xs[i + 1] - xs[i])
        out[mid] = self._cums[i] + self._rises_arr[i] * frac
        return out

    def values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self.xs:
            return np.full(x.shape, self.base)
        return self._values_at(x, self._locate(x))

    def value_parts(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values(x), left_values(x), jumps(x)), bit for bit, from one search."""
        x = np.asarray(x, dtype=float)
        if not self.xs:
            return self.values(x), self.values(x), np.zeros(x.shape)
        idx = self._locate(x)
        # xs is strictly increasing, so x is a breakpoint iff x == xs[idx]; idx = -1
        # (x below xs[0]) clips to xs[0], and NaN lands on xs[-1], neither equal to x
        hit = self._xs_arr.take(idx, mode="clip") == x
        fx = self._values_at(x, idx)
        left = fx.copy()
        left[hit] = self._lefts[idx[hit]]
        jump = np.zeros(x.shape)
        jump[hit] = self._atoms_arr[idx[hit]]
        return fx, left, jump

    def left_values(self, x) -> np.ndarray:
        return self.value_parts(x)[1]

    def jumps(self, x) -> np.ndarray:
        return self.value_parts(x)[2]


@dataclass(frozen=True)
class DfConditionReport:
    """Truth values of the four equivalent ways a [0,1]-valued nondecreasing
    function can be a distribution function."""

    cond_limits: bool
    cond_both_nonempty: bool
    cond_bounded_below: bool
    cond_inf_finite: bool

    def all_agree(self) -> bool:
        return (
            self.cond_limits
            == self.cond_both_nonempty
            == self.cond_bounded_below
            == self.cond_inf_finite
        )

    def is_distribution_function(self) -> bool:
        return self.cond_limits and self.all_agree()


def _probe_levels(g: MonotoneStepLinear) -> list[float]:
    """The levels in (0,1) among {0, 1, base, top} and the midpoints between
    consecutive ones.

    Each condition is quantified over all levels a in (0,1), and the only
    level facts it reads are ``top >= a`` and ``base < a``, which can change
    only at base or top; so it is constant between consecutive critical
    levels, and probing the criticals and midpoints decides it completely.
    """
    levels = sorted(c for c in {0.0, 1.0, g.base, g.top} if 0.0 <= c <= 1.0)
    probes = set(levels)
    for a, b in zip(levels, levels[1:]):
        probes.add(a + 0.5 * (b - a))
    return sorted(p for p in probes if 0.0 < p < 1.0)


def df_condition_report(g: MonotoneStepLinear) -> DfConditionReport:
    """Evaluate the four distribution-function conditions independently.

    Requires range(g) within [0, 1].  The conditions are decided from base
    and top at the critical levels and their midpoints (:func:`_probe_levels`),
    not by numeric search.
    """
    if g.base < 0.0 or g.top > 1.0:
        raise ValidationError("range must be contained in [0, 1]")
    cond_limits = g.base == 0.0 and g.top == 1.0

    both_nonempty = True
    bounded_below = True
    inf_finite = True
    for a in _probe_levels(g):
        upper_nonempty = g.top >= a  # {x : G(x) >= a} nonempty
        lower_nonempty = g.base < a  # {x : G(x) < a} nonempty (base is attained)
        both_nonempty &= upper_nonempty and lower_nonempty
        bounded_below &= upper_nonempty and lower_nonempty
        if not upper_nonempty:
            inf_finite = False  # infimum over the empty set: +inf
        elif not lower_nonempty:
            inf_finite = False  # G >= a everywhere: infimum -inf
    return DfConditionReport(cond_limits, both_nonempty, bounded_below, inf_finite)
