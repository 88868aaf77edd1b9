"""Executable verification suites over a distribution function.

Each check pins one identity of the library to a named pass/fail result with a
measured value and a threshold.  Exact identities use the arithmetic tolerance 1e-12
(or an outright mismatch count with threshold 0); sampled statements use their stated
statistical bounds.  The analytic suite holds its levels as columns built from array
passes: the level table of ``cdf._level_ends`` (each level's left quantile, the ends of
its flat piece, whether F equals the level there, and F, F(x-) and the jump at those
ends from one search), and beside it the weights whose sublevel split keeps the left
quantile.  The checks read every level's sets, and F at their ends, off that table:
they build no set per level and evaluate F at no level end themselves.  A run builds
one level table: beside the levels of the rows it holds the level F(x) of every jump,
which the uniformity check reads, and the levels ``jump_set`` maps back, on which the
jump characterization runs ``jump_set``'s cross-check; each reads its slice.  The
suite evaluates the probe grid once into a table: F, F(x-) and the jump from one
search, and the four transforms formed from them, as the transforms at each level's
left quantile are formed from the level table.  F and F(x-) at the breakpoints are
read off the stored profile by index (``cdf._breakpoint_parts``), never searched.  It
builds the attained values once for both jump-gap checks, from that profile, as the
sorted ends of their closed components: the complement check compares them with the
merged jump gaps as arrays, and the round trip looks its outputs up in them with one
search.  The round trip's weights are the first 8m draws of one seeded stream, drawn
once per process and read-only.  The levels of the rows (``alpha_population``) and the
probe grid are sorted and made distinct as arrays, and the run's path calls the array
methods (``a.searchsorted``, ``.nonzero()``, ``.all()``).  The null-set check reads the
exceptional set of the inversion off the breakpoints (``cdf._null_sets``): the cuts of
its components and their masses, at breakpoint indices, for weights below 1 and for
weight 1, with no set built, measured or swept.  A check that verifies a function runs
that function's array form on the whole grid or on every level: the transform at
weights 0, 0.3 and 0.7 (``lambda_transforms``), the quantile range of each point
(``_quantile_ranges_of`` from F and F(x-) in the grid table, compared at the grid's
breakpoint rows with the stored profile and mapped back in one ``_left_quantiles``
pass), the exact law of the transform (``_transform_cdf_totals_of`` on the level
table), its inversion (one ``_left_quantiles`` pass over the transforms
of every weight) and the jump-gap round trip (the array kernels of ``jump_gap_values``
and ``jump_gap_weights``).  Tier-1 pins ``lambda_transform``,
``quantile_range_of_point``, ``left_quantile``, ``transform_cdf_exact``,
``invert_transform`` and the two jump-gap functions to those array forms bit for bit,
and the null-set table to ``inversion_null_set`` and its measures.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cdf import (
    Cdf,
    _LevelEnds,
    _breakpoint_parts,
    _check_jump_round_trip,
    _jump_columns,
    _jump_round_trip_levels,
    _left_quantiles,
    _level_ends,
    _null_sets,
)
from .copula import (
    dt_copula,
    copula_at_flat_alpha,
    generate_joint_sample,
    sklar_identity_check,
)
from .errors import StepDistError
from .measure import measure_set
from .monotone import df_condition_report
from .realset import Interval, RealSet
from .stochastic import (
    INVERSION_TOL,
    SeededStream,
    _transform_cdf_totals,
    _transform_cdf_totals_of,
    distributional_transform,
    inversion_check,
    ks_uniformity,
    sample_inverse,
)
from .transform import (
    _attained_ends,
    _jump_gap_values,
    _jump_gap_weights,
    _quantile_ranges_of,
    _transforms_of_parts,
    lambda_transforms,
)

__all__ = ["CheckResult", "analytic_checks", "stochastic_checks", "sklar_checks", "KS_CRIT"]

EXACT_TOL = 1e-12
KS_CRIT = 1.6276  # asymptotic two-sided 1% point of sqrt(n) * D_n
LAMBDA_GRID = (0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""


def _result(name, value, threshold, detail="") -> CheckResult:
    return CheckResult(name, bool(value <= threshold), float(value), float(threshold), detail)


_PERCENTS = np.arange(1, 100) / 100.0


def alpha_population(f: Cdf) -> np.ndarray:
    """Levels in (0,1), sorted and distinct: a percent grid, every flat level, and the
    mid-level lo + (hi - lo)/2 of every jump gap (lo, hi) that holds it strictly.  Each
    lies in (0, 1): the flat levels are those above 0 below level 1, and a gap lies in
    [0, 1]."""
    _, lo, hi, _ = _jump_columns(f)
    mid = lo + 0.5 * (hi - lo)
    return np.unique(np.concatenate((_PERCENTS, f.plateau_levels, mid[(lo < mid) & (mid < hi)])))


def probe_grid(f: Cdf) -> np.ndarray:
    """Evaluation points, sorted and distinct: breakpoints, small and large offsets,
    segment midpoints."""
    xs = _breakpoint_parts(f)[0]
    pts = [xs, xs - 1e-6, xs + 1e-6, xs - 0.25, xs + 0.25, (xs[:-1] + xs[1:]) / 2.0, (xs[0] - 7.0, xs[-1] + 7.0)]
    grid = np.concatenate(pts)
    grid.sort()
    keep = np.empty(grid.size, dtype=bool)
    keep[0] = True
    keep[1:] = grid[1:] != grid[:-1]
    return grid[keep]


def _level_rows(f: Cdf, alphas, *more) -> tuple:
    """The columns of every level, from array passes: the level table (``cdf._level_ends``:
    the ends of every level's set, and F, F(x-) and the jump there), and beside it
    ``with_q`` (levels x weights), whether the transform at the left quantile q is at
    most the level at each weight of LAMBDA_GRID.  Each further array of levels in
    ``more`` gets a table of its own after those two, sliced off the same one
    ``_level_ends`` pass over all the levels.  Built outside the checks' guard: no call
    raises for a level in (0, 1], whose left quantile is a finite float in
    [xs[0], xs[-1]].

    Every sublevel split at a level is (-inf, q), the part (start, hi] right of q where
    the level is flat, and {q} at the weights of its row of ``with_q``.  The sets read
    off each level's columns equal what ``quantile_pair``, ``level_set`` and
    ``sublevel_decomposition`` return at the level, bit for bit.  Each level's entry
    depends on that level alone, so a level's entries in the one table are those of a
    table of its own.
    """
    levels = [np.asarray(alphas, dtype=float), *more]
    table = _level_ends(f, np.concatenate(levels))
    bounds = list(itertools.accumulate((a.size for a in levels), initial=0))
    rows, *tables = (table.take(slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))
    at_q = _transforms_of_parts(rows.fx[0], rows.left[0], rows.jump[0], LAMBDA_GRID)
    return rows, (np.array(at_q) <= rows.a).T, *tables


def _level_masses(rows: _LevelEnds) -> tuple:
    """``(top, mass)`` per row, by the subtractions ``measure_interval`` makes, from F,
    F(x-) and the jump at the rows' ends: ``top`` is F(hi), or F(hi-) where hi is not in
    the level set, and the level set's mass is top - F(start-) where the level is flat,
    else the jump at q where the set is {q}, or 0.0 where it is empty."""
    top = np.where(rows.closed_end, rows.fx[1], rows.left[1])
    return top, np.where(rows.flat, top - rows.left[2], np.where(rows.attained, rows.jump[0], 0.0))


def _grid_parts(f: Cdf, grid: np.ndarray) -> tuple:
    """The grid's table (F, F(x-), jump, ts), ts one transform per weight of LAMBDA_GRID,
    all from one search of the grid."""
    fx, left, jump = f.value_parts(grid)
    return fx, left, jump, _transforms_of_parts(fx, left, jump, LAMBDA_GRID)


def _nondecreasing(v: np.ndarray) -> bool:
    """Whether v never decreases along its axis (a NaN counts as a decrease): on
    the sorted probe grid, each set {v < a} and {v <= a} is then a prefix."""
    return bool((v[1:] >= v[:-1]).all())


def _worst(*deviations: np.ndarray) -> float:
    """The largest deviation above 0.0, else 0.0: what a loop of ``worst = max(worst, d)``
    from 0.0 returns over the same deviations, in any order (a NaN never wins)."""
    d = np.concatenate([np.ravel(v) for v in deviations])
    d = d[d > 0.0]
    return float(d.max()) if d.size else 0.0


# -- analytic suite -----------------------------------------------------------


def _analytic(name: str, threshold: float):
    """Report what a check returns, its value or (value, detail), as a named result.

    A StepDistError raised inside the check is that check's FAIL, with the
    finite value 1.0 (above every analytic threshold, so JSON reports stay
    standard) and a detail that names the exception: no exception escapes
    the suite.
    """

    def wrap(check):
        @functools.wraps(check)
        def run(*args) -> CheckResult:
            try:
                found = check(*args)
            except StepDistError as exc:
                found = 1.0, f"raised {type(exc).__name__}: {exc}"
            value, detail = found if isinstance(found, tuple) else (found, "")
            return _result(name, value, threshold, detail)

        return run

    return wrap


@_analytic("transform_sandwich", EXACT_TOL)
def _check_transform_sandwich(f: Cdf, grid, parts):
    # the transform at weights 0, 0.25, ..., 1 lies in [F(x-), F(x)] and equals its
    # ends at 0 and 1; where F does not jump it takes one value at 0, 0.3, 0.7 and 1
    fx, left, jump, ts = parts
    t0 = lambda_transforms(f, grid, 0.0)
    flat = jump == 0.0
    x = grid[flat]
    four = (t0[flat], lambda_transforms(f, x, 0.3), lambda_transforms(f, x, 0.7), ts[-1][flat])
    return _worst(
        *(d for t in (t0, *ts) for d in (left - t, t - fx)),
        np.abs(t0 - left),
        np.abs(ts[-1] - fx),
        np.maximum.reduce(four) - np.minimum.reduce(four),
    )


@_analytic("quantile_sandwich", EXACT_TOL)
def _check_quantile_sandwich(f: Cdf, rows):
    # F(q-) <= a <= F(q) at both quantiles; F < a strictly left of lo, F >= a right of it
    a, lo, hi = rows.a, rows.lo, rows.hi
    (f_lo, f_hi, _), (left_lo, left_hi, _) = rows.fx, rows.left
    ds = (1e-6, 1e-3, 0.25)
    shifted = f.values(np.array([*(lo - d for d in ds), *(lo + d for d in ds)]))
    return _worst(
        (lo - hi)[lo > hi],
        left_lo - a,
        a - f_lo,
        left_hi - a,
        a - f_hi,
        *((v - a + 2.0 * EXACT_TOL)[~(v < a)] for v in shifted[: len(ds)]),  # the strict part
        *(a - v for v in shifted[len(ds) :]),
    )


@_analytic("halfline_sets", 0)
def _check_halfline_sets(f: Cdf, rows, grid, parts):
    # on the grid {F >= a} and [xi, inf) are the complements of {F < a} and
    # (-inf, xi), so the two comparisons mismatch at the same points; where F
    # never decreases on the sorted grid, both of the latter are prefixes, and
    # they mismatch at as many points as their lengths differ
    fx = parts[0]
    if _nondecreasing(fx):
        below = fx.searchsorted(rows.a, side="left")
        return 2 * int(np.abs(below - grid.searchsorted(rows.lo, side="left")).sum())
    bad = 0
    for a, xi in zip(rows.a.tolist(), rows.lo.tolist()):
        bad += int(np.count_nonzero((fx >= a) != (grid >= xi)))
        bad += int(np.count_nonzero((fx < a) != (grid < xi)))
    return bad


@_analytic("level_set_cases", 0)
def _check_level_set_cases(f: Cdf, rows):
    # by the quantiles, the level set is {lo} or empty where lo == hi, as F(lo) == a,
    # and [lo, hi] where lo < hi, without hi unless F(hi) == a.  The row's set must be
    # that set (a flat piece that starts off lo disagrees with the quantile kernel),
    # nonempty iff F(lo) == a, and at most a point iff lo == hi; at hi > lo, F equals
    # a iff it does not jump there
    (f_lo, f_hi, _), (_, jump_hi, _) = rows.fx, rows.jump
    at_lo, at_hi = f_lo == rows.a, f_hi == rows.a
    same = np.where(
        rows.flat,
        (rows.lo < rows.hi) & (rows.start == rows.lo) & (rows.closed_end == at_hi),
        (rows.lo == rows.hi) & (rows.attained == at_lo),
    )
    wrong = (
        ~same,
        at_lo != (rows.flat | rows.attained),
        (rows.hi == rows.lo) == rows.flat,
        (rows.hi > rows.lo) & ((jump_hi == 0.0) != at_hi),
    )
    return sum(map(np.count_nonzero, wrong))


@_analytic("flat_piece_mass", EXACT_TOL)
def _check_flat_mass(f: Cdf, rows):
    # masses by the subtractions measure_interval makes: the part of a split right
    # of lo carries none; the row's level set carries what the level set by the
    # quantiles does ([lo, hi] where the level is flat), and where lo < hi that is
    # a - F(lo-) and the jump at lo
    (f_lo, _, f_start), left_lo, jump_lo = rows.fx, rows.left[0], rows.jump[0]
    top, m_row = _level_masses(rows)
    m = np.where(rows.flat, top - left_lo, np.where(f_lo == rows.a, jump_lo, 0.0))
    wide = rows.hi > rows.lo
    return _worst(
        np.abs(np.where(rows.flat, top - f_start, 0.0)),
        np.abs(m - m_row),
        np.abs(m - (rows.a - left_lo))[wide],
        np.abs(m - jump_lo)[wide],
    )


@_analytic("sublevel_union", 0)
def _check_sublevel_union(f: Cdf, rows, with_q, grid, parts):
    # a weight's split is (-inf, lo), the part (start, hi] right of lo where the
    # level is flat, and {lo} where with_q holds.  The parts overlap only where a
    # flat piece starts left of lo: it then meets (-inf, lo) at every weight and
    # {lo} at the weights of with_q, and each weight counts its overlap once.  The
    # union is the half-line (-inf, e): e is past hi where the level is flat, else
    # past lo or at lo as the split keeps {lo} or not; where a flat level's split
    # leaves {lo} out and its piece starts at lo, lo is taken out.  Where the
    # transform never decreases on the sorted grid, {t <= a} is a prefix, which
    # mismatches the half-line at as many points as their lengths differ; a grid
    # point at a lo taken out turns a match into a mismatch or back.  Any other
    # table is compared point by point
    early = rows.flat & (rows.start < rows.lo)
    bad = int(np.sum(early * (len(LAMBDA_GRID) + with_q.sum(axis=1))))
    past_hi = np.where(rows.closed_end, np.nextafter(rows.hi, math.inf), rows.hi)
    past_lo = np.nextafter(rows.lo, math.inf)
    at = grid.searchsorted(rows.lo)
    on_grid = grid.take(at, mode="clip") == rows.lo
    for keeps_q, t in zip(with_q.T, parts[3]):
        end = np.where(rows.flat, past_hi, np.where(keeps_q, past_lo, rows.lo))
        hole = rows.flat & ~keeps_q & ~early
        if _nondecreasing(t):
            member = t.searchsorted(rows.a, side="right")
            bad += int(np.abs(member - grid.searchsorted(end)).sum())
            bad += int(np.where(at < member, 1, -1)[hole & on_grid].sum())
        else:
            for a, e, lo, out in zip(rows.a.tolist(), end.tolist(), rows.lo.tolist(), hole.tolist()):
                union = (grid < e) & ~(out & (grid == lo))
                bad += int(np.count_nonzero((t <= a) != union))
    return bad


@_analytic("quantile_range_of_point", 0)
def _check_quantile_ranges(f: Cdf, grid, parts):
    # at each breakpoint on the grid, the range built from the grid table lies in
    # [F(x-), F(x)] as stored there, and is that interval where the stored F jumps: the
    # search against the index.  Levels inside a jump map back to x, and at breakpoints
    # an end belongs to the range iff it maps back to x (inside rising segments a round
    # trip may land an ulp off, which the set semantics must not depend on)
    fx, left = parts[0], parts[1]
    lo, hi, closed_lo, closed_hi = _quantile_ranges_of(f, grid, fx, left)
    nonempty = (lo < hi) | (closed_lo & closed_hi)
    # the grid's breakpoint rows b (the grid is sorted and unique) and F, F(x-) stored there
    xs, stored, stored_left = _breakpoint_parts(f)
    b = grid.searchsorted(xs)
    on_grid = grid.take(b, mode="clip") == xs
    b, stored, stored_left = b[on_grid], stored[on_grid], stored_left[on_grid]
    bad = np.count_nonzero(nonempty[b] & ((lo[b] < stored_left) | (hi[b] > stored)))
    bad += np.count_nonzero((stored > stored_left) & (~nonempty[b] | (lo[b] != stored_left) | (hi[b] != stored)))
    # the levels to map back, each with the index of its point: 1/4, 1/2 and 3/4 of
    # the way across each jump, and the ends F(x-) and F(x) at breakpoints
    j = (fx > left).nonzero()[0]
    inner_at = np.concatenate((j, j, j))
    inner = np.concatenate([left[j] + frac * (fx[j] - left[j]) for frac in (0.25, 0.5, 0.75)])
    keep = (left[inner_at] < inner) & (inner < fx[inner_at])
    inner, inner_at = inner[keep], inner_at[keep]
    ends_at = np.concatenate((b, b))
    ends = np.concatenate([left[b], fx[b]])
    keep = (0.0 < ends) & (ends < 1.0)
    ends, i = ends[keep], ends_at[keep]
    back = _left_quantiles(f, np.concatenate([inner, ends]))
    bad += np.count_nonzero(back[: inner.size] != grid[inner_at])
    member = (lo[i] <= ends) & (ends <= hi[i]) & ((ends != lo[i]) | closed_lo[i]) & ((ends != hi[i]) | closed_hi[i])
    bad += np.count_nonzero(member != (back[inner.size :] == grid[i]))
    return int(bad)


@_analytic("jump_gap_complement", 0)
def _check_jump_gaps(f: Cdf, attained):
    # the open jump gaps, as a set within (0, 1), are the complement there of the attained
    # values, whose components [lo_k, hi_k] leave the gaps (hi_k, lo_{k+1}).  The raw gaps
    # are merged as a union of open intervals merges them: empty ones drop out, those
    # that overlap merge, and those that touch stay apart
    _, lo, hi, _ = _jump_columns(f)
    gap_lo, gap_hi = np.maximum(lo, 0.0), np.minimum(hi, 1.0)
    keep = gap_lo < gap_hi
    gap_lo, gap_hi = gap_lo[keep], gap_hi[keep]
    order = np.argsort(gap_lo)  # gaps with one left end never start apart, in any order
    gap_lo, gap_hi = gap_lo[order], np.maximum.accumulate(gap_hi[order])
    start = np.ones(gap_lo.size, dtype=bool)
    start[1:] = gap_lo[1:] >= gap_hi[:-1]
    # a merged gap ends where the next one starts, the last one at the last gap
    merged = gap_lo[start], gap_hi[np.concatenate((start[1:], start[:1]))]
    expected = attained[1][:-1], attained[0][1:]
    bad = 0 if all(map(np.array_equal, merged, expected)) else 1
    # the gaps of successive jumps are disjoint (the merged set would hide an overlap):
    # two open gaps meet iff the larger left end lies below the smaller right end
    return bad + int(np.count_nonzero(np.maximum(lo[:-1], lo[1:]) < np.minimum(hi[:-1], hi[1:])))


_draws = np.empty(0)


def _round_trip_draws(m: int) -> np.ndarray:
    """``np.random.default_rng(20240901).uniform(0.05, 0.95, size=(8, m))``, read-only: a
    view of the first 8m draws of that stream, which is drawn once and drawn again, at
    least twice as long, when a larger m needs more (the first draws stay the same)."""
    global _draws
    if _draws.size < 8 * m:
        _draws = np.random.default_rng(20240901).uniform(0.05, 0.95, size=max(8 * m, 2 * _draws.size))
        _draws.flags.writeable = False
    return _draws[: 8 * m].reshape(8, m)


@_analytic("jump_gap_roundtrip", EXACT_TOL)
def _check_phi_roundtrip(f: Cdf, attained):
    # eight rounds of one weight per jump, one round per row: the draws eight calls of
    # size m would give, mapped into the gaps and back in one pass each; a value is
    # attained iff it lies at or above the start of the last component that starts at
    # or below it, and at or below that component's end
    lams = _round_trip_draws(_jump_columns(f).shape[1])
    vals = _jump_gap_values(f, lams)
    starts, stops = attained
    k = starts.searchsorted(vals, side="right") - 1
    bad = int(np.count_nonzero((k >= 0) & (vals <= stops[k])))
    back = _jump_gap_weights(f, vals)
    if bad:
        return bad + 1.0, "output hit an attained level"
    return _worst(np.abs(back - lams))


@_analytic("null_set_inversion", EXACT_TOL)
def _check_null_sets(f: Cdf, grid, parts):
    # t = 0 or 1 lies in the exceptional set, and no t is NaN; a t in (0, 1) inverts
    # to at most x, and to x off that set (within INVERSION_TOL where F has no jump).
    # The set depends on the weight only through lam == 1: both of its tables come
    # from one read of the breakpoints (cdf._null_sets), each looked up on the grid
    # once, and the transforms of all weights are compared as one array, their t in
    # (0, 1) inverted in one pass.  The plateau mass is zero by construction, as the
    # flat table and the masses read the same stored values, and so is the total
    # where it is read, where the zero and one sets carry no mass: both check only
    # that the tables agree, not the inversion
    sets = _null_sets(f)
    looked_up = [sets[0].contains_many(grid)]
    looked_up.append(looked_up[0] if sets[1] is sets[0] else sets[1].contains_many(grid))
    excepted = np.array([looked_up[lam == 1.0] for lam in LAMBDA_GRID])
    worst = max(0.0, *(m for s in sets for m in (abs(s.plateau), abs(s.total) if s.ends == 0.0 else 0.0)))
    t = np.array(parts[3])
    edge = (t == 0.0) | (t == 1.0)
    inside = (0.0 < t) & (t < 1.0)
    w, col = np.nonzero(inside)  # in the C order of the masks
    x = grid[col]
    y = _left_quantiles(f, t[w, col])
    tol = np.where(parts[2] > 0.0, 0.0, INVERSION_TOL)[col]
    wrong = (y > x + EXACT_TOL, ~excepted[w, col] & (np.abs(y - x) > tol))
    return worst + sum(map(np.count_nonzero, (edge & ~excepted, ~(edge | inside), *wrong)))


@_analytic("transform_cdf_uniform", EXACT_TOL)
def _check_transform_cdf(f: Cdf, rows):
    # the law of X is F: the totals read F's parts at the level ends off the rows
    return _worst(np.abs(_transform_cdf_totals_of(rows) - rows.a))


@_analytic("uniformity_displays", EXACT_TOL)
def _check_uniformity_displays(f: Cdf, rows, at):
    # on flat levels (the rows with hi > lo): P(F(X) <= a) = a = P(X <= left quantile)
    # (-inf, hi] carries F(hi), or F(hi-) without hi where F jumps past a there
    (f_lo, f_hi, _), left_hi = rows.fx, rows.left[1]
    wide = rows.hi > rows.lo
    below = np.where(f_hi == rows.a, f_hi, left_hi)
    # every jump puts an equally sized atom on the law of F(X), at F(x) (the jump
    # table's third column, the levels of the table ``at``): the mass of that level's
    # set, or 1 - F(q-) at level 1, whose set is [q, inf)
    mass = np.where(at.a == 1.0, 1.0 - at.left[0], _level_masses(at)[1])
    return _worst(np.abs(below - rows.a)[wide], np.abs(f_lo - rows.a)[wide], np.abs(mass - _jump_columns(f)[3]))


@_analytic("jump_characterization", 0)
def _check_jump_characterization(f: Cdf, rows, trip):
    # jump_set's cross-check on the table of its levels: raises if the stored atoms and
    # the quantiles disagree
    _check_jump_round_trip(*trip)
    # the part of a split right of lo is a flat piece, nonempty iff hi > lo
    return int(np.count_nonzero((rows.hi > rows.lo) != rows.flat))


@_analytic("total_mass_and_df_conditions", EXACT_TOL)
def _check_total_mass(f: Cdf):
    worst = abs(measure_set(f, RealSet.reals()) - 1.0)
    xs = f.xs
    lo = xs[0] - 1.0
    hi = xs[-1] + 1.0
    cuts = np.linspace(lo, hi, 17)
    # the 16 cells (a, b], each measured as measure_interval measures it, from one
    # evaluation of the cuts; the first cell that is no interval raises as it does
    a, b = cuts[:-1], cuts[1:]
    malformed = (~(a <= b) | (a == math.inf) | np.isinf(b)).nonzero()[0]
    if malformed.size:
        Interval.open_closed(a[malformed[0]], b[malformed[0]])
    v = f.values(cuts)
    parts = sum(np.where(a < b, v[1:] - v[:-1], 0.0).tolist())
    worst = max(worst, abs(parts - (f.value(hi) - f.value(lo))))
    rep = df_condition_report(f)
    if not (rep.all_agree() and rep.is_distribution_function()):
        worst = max(worst, 1.0)
    return worst


def analytic_checks(f: Cdf) -> list[CheckResult]:
    """Every exact identity the representation supports, on one CDF.

    A check that raises a StepDistError reports that as its own FAIL.
    """
    # one level table: the levels of the rows, F(x) at every jump for the uniformity
    # check, and the levels jump_set maps back, at the jump points ``points``
    points, trip_levels = _jump_round_trip_levels(f)
    rows, with_q, at_jumps, trip = _level_rows(f, alpha_population(f), _jump_columns(f)[2], trip_levels)
    grid = probe_grid(f)
    parts = _grid_parts(f, grid)
    # like the rows, outside the guard: two arrays from one search of the breakpoints
    attained = _attained_ends(f)
    return [
        _check_transform_sandwich(f, grid, parts),
        _check_quantile_sandwich(f, rows),
        _check_halfline_sets(f, rows, grid, parts),
        _check_level_set_cases(f, rows),
        _check_flat_mass(f, rows),
        _check_sublevel_union(f, rows, with_q, grid, parts),
        _check_quantile_ranges(f, grid, parts),
        _check_jump_gaps(f, attained),
        _check_phi_roundtrip(f, attained),
        _check_null_sets(f, grid, parts),
        _check_transform_cdf(f, rows),
        _check_uniformity_displays(f, rows, at_jumps),
        _check_jump_characterization(f, rows, (points, trip)),
        _check_total_mass(f),
    ]


# -- stochastic suite ---------------------------------------------------------


def stochastic_checks(f: Cdf, seed: int, n: int) -> list[CheckResult]:
    """Sampled statements: uniformity, inversion, and the exact/Monte-Carlo bridge.

    Stream policy, recorded for reproducibility: (seed, 0) draws the sample,
    (seed, 1) randomizes the transform, (seed, 2) and (seed, 3) drive the
    inversion check.
    """
    out = []
    x_stream = SeededStream(seed, 0)
    v_stream = SeededStream(seed, 1)
    xs = sample_inverse(f, x_stream, n)
    us = distributional_transform(f, xs, v_stream, x_stream=x_stream)
    ks = ks_uniformity(us)
    out.append(_result("ks_uniformity", ks, KS_CRIT / math.sqrt(n)))

    rep = inversion_check(f, SeededStream(seed, 2), n)
    fails = rep.failures + (rep.shortcut_failures or 0)
    out.append(_result("inversion_failures", fails, 0))

    worst = 0.0
    levels = np.array([0.25, 0.5, 0.75])
    for a, exact in zip(levels.tolist(), _transform_cdf_totals(f, levels).tolist()):
        est = float((us <= a).mean())
        se = math.sqrt(max(exact * (1.0 - exact), 1e-12) / n)
        worst = max(worst, abs(est - exact) / (4.0 * se))
    out.append(_result("mc_bridge_4se", worst, 1.0))
    return out


# -- copula suite -------------------------------------------------------------


def default_copula_grid(marginals) -> list[np.ndarray]:
    """One axis per marginal: its breakpoints and their offsets by -0.25 and +0.25."""
    axes = []
    for m in marginals:
        xs = np.asarray(m.xs)
        axes.append(np.unique(np.concatenate([xs, xs - 0.25, xs + 0.25])))
    return axes


def sklar_checks(
    marginals,
    dependence: str,
    n: int,
    seed: int,
    axes: list | None = None,
) -> list[CheckResult]:
    """Sample a joint law, extract its copula, and test both Sklar directions.

    The identity is checked on the product grid of ``axes``, one coordinate
    array per marginal (:func:`default_copula_grid` when omitted).
    """
    marginals = tuple(marginals)
    d = len(marginals)
    sample = generate_joint_sample(marginals, dependence, n, seed)
    c_hat = dt_copula(sample, SeededStream(seed, d))
    out = []
    ks_worst = max(ks_uniformity(c_hat.sample[:, j]) for j in range(d))
    out.append(_result("copula_marginal_ks", ks_worst, KS_CRIT / math.sqrt(n)))
    if axes is None:
        axes = default_copula_grid(marginals)
    out.append(_result("sklar_identity", sklar_identity_check(sample, c_hat, axes), 0.01))

    worst = 0.0
    count = 0
    for alphas in itertools.product(*(m.plateau_levels for m in marginals)):
        lhs, rhs = copula_at_flat_alpha(sample, c_hat, alphas)
        worst = max(worst, abs(lhs - rhs))
        count += 1
    out.append(
        _result("copula_flat_levels", worst, 0.01, f"{count} flat level vectors")
    )
    return out
