"""Executable verification suites over a distribution function.

Each check pins one identity of the library to a named pass/fail result with a
measured value and a threshold.  Exact identities use the arithmetic tolerance 1e-12
(or an outright mismatch count with threshold 0); sampled statements use their stated
statistical bounds.  The analytic suite decides every level in one row, all rows from
array passes; a row holds the three parts of the sublevel splits at its level once,
and the weights whose split keeps the left quantile.  It evaluates the probe grid once
into a table: F, F(x-), the jump and the four transforms, from one search plus one per
weight, and builds the set of attained values once for both jump-gap checks.  A check
that verifies a function runs that function's array form on the whole grid or on every
level: the transform at weights 0, 0.3 and 0.7 (``lambda_transforms``), the quantile
range of each point (``_quantile_ranges``, mapped back in one ``_left_quantiles``
pass), the exact law of the transform (``_transform_cdf_totals``) and its inversion
(one ``_left_quantiles`` pass per weight).  Tier-1 pins ``lambda_transform``, ``quantile_range_of_point``,
``left_quantile``, ``transform_cdf_exact`` and ``invert_transform`` to those array
forms bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cdf import Cdf, _flat_or_point, _left_quantiles, jump_set
from .copula import (
    dt_copula,
    copula_at_flat_alpha,
    generate_joint_sample,
    sklar_identity_check,
)
from .errors import StepDistError
from .measure import measure_interval, measure_level_set, measure_set, measure_value_level
from .monotone import df_condition_report
from .realset import Interval, RealSet
from .stochastic import (
    INVERSION_TOL,
    SeededStream,
    _transform_cdf_totals,
    distributional_transform,
    inversion_check,
    ks_uniformity,
    sample_inverse,
)
from .transform import (
    _quantile_ranges,
    _split_parts,
    attained_values,
    inversion_null_set,
    jump_gap_values,
    jump_gap_weights,
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


def alpha_population(f: Cdf) -> list[float]:
    """Levels in (0,1): a percent grid, every flat level, every jump-gap interior."""
    levels = {i / 100.0 for i in range(1, 100)}
    levels.update(f.plateau_levels)
    for _, lo, hi, _ in f._jumps:
        mid = lo + 0.5 * (hi - lo)
        if lo < mid < hi:
            levels.add(mid)
    return sorted(a for a in levels if 0.0 < a < 1.0)


def probe_grid(f: Cdf) -> np.ndarray:
    """Evaluation points: breakpoints, small and large offsets, segment midpoints."""
    xs = np.asarray(f.xs)
    pts = [xs, xs - 1e-6, xs + 1e-6, xs - 0.25, xs + 0.25]
    if len(xs) > 1:
        pts.append((xs[:-1] + xs[1:]) / 2.0)
    lo, hi = xs[0], xs[-1]
    pts.append(np.array([lo - 7.0, hi + 7.0]))
    return np.unique(np.concatenate(pts))


def _level_rows(f: Cdf, alphas) -> list[tuple]:
    """One row ``(a, lo, hi, level_set, beyond, point, below, with_q)`` per level.

    ``beyond``, ``point`` and ``below`` are the parts of every sublevel split at
    the level: the piece right of the left quantile q (or the empty set), {q}
    and (-inf, q).  ``with_q`` holds the weights of LAMBDA_GRID whose transform
    at q is at most a, whose split is all three parts; the other weights' split
    leaves {q} out.  Built outside the checks' guard: no call raises for a level
    in (0, 1), whose left quantile is a finite float in [xs[0], xs[-1]].

    Each row equals what ``quantile_pair``, ``level_set`` and
    ``sublevel_decomposition`` return at its level, bit for bit, from array
    passes instead: one left-quantile pass over all levels, one evaluation of
    F and one transform per weight at the left quantiles.  A row's sets are
    built once, by the helpers those functions use.
    """
    qs = _left_quantiles(f, np.array(alphas, dtype=float))
    fqs = f.values(qs).tolist()
    ts = [lambda_transforms(f, qs, lam).tolist() for lam in LAMBDA_GRID]
    rows = []
    for a, q, fq, *t in zip(alphas, qs.tolist(), fqs, *ts):
        run = f._flat_runs.get(a)
        beyond, point, below = _split_parts(run, q)
        level = _flat_or_point(run, True, point, run is None and fq == a)
        with_q = tuple(lam for lam, t_lam in zip(LAMBDA_GRID, t) if t_lam <= a)
        rows.append((a, q, q if run is None else run.hi, level, beyond, point, below, with_q))
    return rows


def _grid_parts(f: Cdf, grid: np.ndarray) -> tuple:
    """The grid's table (F, F(x-), jump, ts), ts one transform per weight of LAMBDA_GRID."""
    return *f.value_parts(grid), tuple(lambda_transforms(f, grid, lam) for lam in LAMBDA_GRID)


def _nondecreasing(v: np.ndarray) -> bool:
    """Whether v never decreases along its axis (a NaN counts as a decrease): on
    the sorted probe grid, each set {v < a} and {v <= a} is then a prefix."""
    return bool(np.all(v[1:] >= v[:-1]))


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
    a, lo, hi = np.array([row[:3] for row in rows]).T
    ds = (1e-6, 1e-3, 0.25)
    points = (lo, hi, *(lo - d for d in ds), *(lo + d for d in ds))
    f_lo, f_hi, *shifted = np.split(f.values(np.concatenate(points)), len(points))
    left_lo, left_hi = np.split(f.left_values(np.concatenate(points[:2])), 2)
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
    levels = [a for a, *_ in rows]
    xis = [xi for _, xi, *_ in rows]
    if _nondecreasing(fx):
        below = np.searchsorted(fx, levels, side="left")
        return 2 * int(np.abs(below - np.searchsorted(grid, xis, side="left")).sum())
    bad = 0
    for a, xi in zip(levels, xis):
        bad += int(np.count_nonzero((fx >= a) != (grid >= xi)))
        bad += int(np.count_nonzero((fx < a) != (grid < xi)))
    return bad


def _expected_level_set(f: Cdf, a, lo, hi) -> RealSet:
    if lo == hi:
        return RealSet.point(lo) if f.value(lo) == a else RealSet.empty()
    if f.value(hi) == a:
        return RealSet.of(Interval.closed(lo, hi))
    return RealSet.of(Interval.closed_open(lo, hi))


@_analytic("level_set_cases", 0)
def _check_level_set_cases(f: Cdf, rows):
    bad = 0
    for a, lo, hi, ls, *_ in rows:
        if ls != _expected_level_set(f, a, lo, hi):
            bad += 1
        if (f.value(lo) == a) != (not ls.is_empty()):
            bad += 1
        small = ls.is_empty() or ls == RealSet.point(lo)
        if (hi == lo) != small:
            bad += 1
        if hi > lo and (f.jump(hi) == 0.0) != (f.value(hi) == a):
            bad += 1
    return bad


@_analytic("flat_piece_mass", EXACT_TOL)
def _check_flat_mass(f: Cdf, rows):
    worst = 0.0
    for a, lo, hi, ls, beyond, *_ in rows:
        worst = max(worst, abs(measure_set(f, beyond)))
        m = measure_level_set(f, a)
        worst = max(worst, abs(m - measure_set(f, ls)))
        if hi > lo:
            worst = max(worst, abs(m - (a - f.left_value(lo))), abs(m - f.jump(lo)))
    return worst


@_analytic("sublevel_union", 0)
def _check_sublevel_union(f: Cdf, rows, grid, parts):
    # where the transform never decreases on the sorted grid, {t <= a} is a
    # prefix, and so is a union that is one left half-line (-inf, e) or
    # (-inf, e]: the latter is (-inf, e') with e' the float after e.  Two such
    # prefixes mismatch at as many points as their lengths differ; any other
    # union is compared point by point.  Only the weights of with_q have {q} in
    # their split, so only they count its overlaps and take its union
    bad = 0
    ts = dict(zip(LAMBDA_GRID, parts[3]))
    prefixes = {lam: ([], []) for lam, t in ts.items() if _nondecreasing(t)}
    for a, _, _, _, beyond, point, below, with_q in rows:
        if with_q and (not beyond.intersect(point).is_empty() or not point.intersect(below).is_empty()):
            bad += len(with_q)
        if not beyond.intersect(below).is_empty():
            bad += len(LAMBDA_GRID)
        without = beyond.union(below)
        with_point = without.union(point) if with_q else without
        for lam in LAMBDA_GRID:
            union = with_point if lam in with_q else without
            half = union.components[0]
            if lam in prefixes and len(union.components) == 1 and half.lo == -math.inf:
                prefixes[lam][0].append(a)
                prefixes[lam][1].append(math.nextafter(half.hi, math.inf) if half.closed_hi else half.hi)
            else:
                bad += int(np.count_nonzero((ts[lam] <= a) != union.contains_many(grid)))
    for lam, (levels, ends) in prefixes.items():
        member = np.searchsorted(ts[lam], levels, side="right")
        bad += int(np.abs(member - np.searchsorted(grid, ends, side="left")).sum())
    return bad


@_analytic("quantile_range_of_point", 0)
def _check_quantile_ranges(f: Cdf, grid, parts):
    # each point's range lies in [F(x-), F(x)], and is that interval where F jumps at x;
    # levels inside a jump map back to x, and at breakpoints an end belongs to the range
    # iff it maps back to x (inside rising segments a round trip may land an ulp off,
    # which the set semantics must not depend on)
    fx, left = parts[0], parts[1]
    lo, hi, closed_lo, closed_hi = _quantile_ranges(f, grid)
    nonempty = (lo < hi) | (closed_lo & closed_hi)
    jumped = fx > left
    bad = np.count_nonzero(nonempty & ((lo < left) | (hi > fx)))
    bad += np.count_nonzero(jumped & (~nonempty | (lo != left) | (hi != fx)))
    # the levels to map back, each with the index of its point: 1/4, 1/2 and 3/4 of
    # the way across each jump, and the ends F(x-) and F(x) at breakpoints
    j = np.flatnonzero(jumped)
    inner_at = np.tile(j, 3)
    inner = np.concatenate([left[j] + frac * (fx[j] - left[j]) for frac in (0.25, 0.5, 0.75)])
    keep = (left[inner_at] < inner) & (inner < fx[inner_at])
    inner, inner_at = inner[keep], inner_at[keep]
    b = np.flatnonzero(np.isin(grid, f.xs))
    ends_at = np.tile(b, 2)
    ends = np.concatenate([left[b], fx[b]])
    keep = (0.0 < ends) & (ends < 1.0)
    ends, i = ends[keep], ends_at[keep]
    back_inner, back_ends = np.split(_left_quantiles(f, np.concatenate([inner, ends])), [inner.size])
    bad += np.count_nonzero(back_inner != grid[inner_at])
    member = (lo[i] <= ends) & (ends <= hi[i]) & ((ends != lo[i]) | closed_lo[i]) & ((ends != hi[i]) | closed_hi[i])
    bad += np.count_nonzero(member != (back_ends == grid[i]))
    return int(bad)


@_analytic("jump_gap_complement", 0)
def _check_jump_gaps(f: Cdf, attained):
    raw = [Interval.open(j.lo, j.hi) for j in f._jumps]
    unit = RealSet.of(Interval.open(0.0, 1.0))
    expected = unit.difference(attained)
    bad = 0 if RealSet(tuple(raw)).intersect(unit) == expected else 1
    # the gaps of successive jumps are disjoint (the merged set would hide an overlap):
    # two open gaps meet iff the larger left end lies below the smaller right end
    lo, hi = np.array([iv.lo for iv in raw]), np.array([iv.hi for iv in raw])
    return bad + int(np.count_nonzero(np.maximum(lo[:-1], lo[1:]) < np.minimum(hi[:-1], hi[1:])))


@_analytic("jump_gap_roundtrip", EXACT_TOL)
def _check_phi_roundtrip(f: Cdf, attained):
    rng = np.random.default_rng(20240901)
    m = len(f._jumps)
    worst = 0.0
    bad = 0
    for _ in range(8):
        lams = rng.uniform(0.05, 0.95, size=m).tolist()
        vals = jump_gap_values(f, lams)
        bad += int(np.count_nonzero(attained.contains_many(vals)))
        back = jump_gap_weights(f, vals)
        if m:
            worst = max(worst, max(abs(b - l) for b, l in zip(back, lams)))
    if bad:
        return bad + 1.0, "output hit an attained level"
    return worst


@_analytic("null_set_inversion", EXACT_TOL)
def _check_null_sets(f: Cdf, grid, parts):
    # t = 0 or 1 lies in the exceptional set, and no t is NaN; a t in (0, 1) inverts
    # to at most x, and to x off that set (within INVERSION_TOL where F has no jump)
    worst = 0.0
    bad = 0
    tol = np.where(parts[2] > 0.0, 0.0, INVERSION_TOL)
    for lam, t in zip(LAMBDA_GRID, parts[3]):
        rep = inversion_null_set(f, lam)
        worst = max(worst, abs(measure_set(f, rep.plateau_union)))
        if measure_set(f, rep.zero_set.union(rep.one_set)) == 0.0:
            worst = max(worst, abs(rep.total_measure))
        excepted = rep.union().contains_many(grid)
        edge = (t == 0.0) | (t == 1.0)
        inside = (0.0 < t) & (t < 1.0)
        x, y = grid[inside], _left_quantiles(f, t[inside])
        wrong = (y > x + EXACT_TOL, ~excepted[inside] & (np.abs(y - x) > tol[inside]))
        bad += sum(map(np.count_nonzero, (edge & ~excepted, ~(edge | inside), *wrong)))
    return worst + bad


@_analytic("transform_cdf_uniform", EXACT_TOL)
def _check_transform_cdf(f: Cdf, rows):
    a = np.array([row[0] for row in rows])
    return _worst(np.abs(_transform_cdf_totals(f, f, a) - a))


@_analytic("uniformity_displays", EXACT_TOL)
def _check_uniformity_displays(f: Cdf, rows):
    # on flat levels (the rows with hi > lo): P(F(X) <= a) = a = P(X <= left quantile)
    worst = 0.0
    for a, lo, hi, *_ in rows:
        if hi > lo:
            below = measure_interval(f, Interval(-math.inf, hi, False, f.value(hi) == a))
            worst = max(worst, abs(below - a), abs(f.value(lo) - a))
    # every jump puts an equally sized atom on the law of F(X); j.hi is F at the jump
    for j in f._jumps:
        worst = max(worst, abs(measure_value_level(f, j.hi) - j.mass))
    return worst


@_analytic("jump_characterization", 0)
def _check_jump_characterization(f: Cdf, rows):
    jump_set(f)  # raises if the stored atoms and the quantile scans disagree
    bad = 0
    for _, lo, hi, _, beyond, *_ in rows:
        if (hi > lo) != (not beyond.is_empty()):
            bad += 1
    return bad


@_analytic("total_mass_and_df_conditions", EXACT_TOL)
def _check_total_mass(f: Cdf):
    worst = abs(measure_set(f, RealSet.reals()) - 1.0)
    xs = f.xs
    lo = xs[0] - 1.0
    hi = xs[-1] + 1.0
    cuts = np.linspace(lo, hi, 17)
    parts = sum(
        measure_interval(f, Interval.open_closed(a, b)) for a, b in zip(cuts, cuts[1:])
    )
    worst = max(worst, abs(parts - (f.value(hi) - f.value(lo))))
    rep = df_condition_report(f)
    if not (rep.all_agree() and rep.is_distribution_function()):
        worst = max(worst, 1.0)
    return worst


def analytic_checks(f: Cdf) -> list[CheckResult]:
    """Every exact identity the representation supports, on one CDF.

    A check that raises a StepDistError reports that as its own FAIL.
    """
    rows = _level_rows(f, alpha_population(f))
    grid = probe_grid(f)
    parts = _grid_parts(f, grid)
    # like the rows, outside the guard: F(x_i) <= F(x_{i+1}-), so no piece is malformed
    attained = attained_values(f)
    return [
        _check_transform_sandwich(f, grid, parts),
        _check_quantile_sandwich(f, rows),
        _check_halfline_sets(f, rows, grid, parts),
        _check_level_set_cases(f, rows),
        _check_flat_mass(f, rows),
        _check_sublevel_union(f, rows, grid, parts),
        _check_quantile_ranges(f, grid, parts),
        _check_jump_gaps(f, attained),
        _check_phi_roundtrip(f, attained),
        _check_null_sets(f, grid, parts),
        _check_transform_cdf(f, rows),
        _check_uniformity_displays(f, rows),
        _check_jump_characterization(f, rows),
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
    for a, exact in zip(levels.tolist(), _transform_cdf_totals(f, f, levels).tolist()):
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
