"""The analytic checks that run as array passes, pinned to the loops they replaced.

The oracle bodies below are the earlier point-by-point checks, kept verbatim in
substance: they call the public scalar functions (``lambda_transform``,
``quantile_range_of_point``, ``left_quantile``, ``transform_cdf_exact``) once per
point or level, and compare successive jump gaps with ``Interval.intersect``.  The
five checks that read a level's sets off its columns are pinned to their earlier
bodies, which intersect, unite and measure one row of ``RealSet``s at a time; those
rows come from the scalar readers.  Each array check must return the same
``CheckResult``: the bits of its value and its detail.  The scalar functions
themselves are pinned to the array kernels the checks call, bit for bit,
``attained_values`` to its earlier construction from every breakpoint's values, and
``jump_gap_weights``, which reads each weight off the jump table, to its earlier
left-quantile scan.  The checks that read each table once are pinned to their earlier
bodies too: the null-set check to one report and one inversion pass per weight, the
jump-gap round trip to eight rounds of the public list functions, the total mass to one
``measure_interval`` call per cell, ``jump_set`` to one quantile-pair scan per jump,
and the transforms formed off the tables to ``lambda_transforms``.  The checks that
read the suite's one level table and the sorted ends of the attained values are pinned
to the bodies that built their own: the jump-gap complement to the ``RealSet`` of the
gaps, the round trip to ``RealSet`` membership, and the law of the transform to the
totals that build a level table of their own.
"""

import copy
import math
import struct
from collections import Counter

import numpy as np
import pytest

import stepdist as sd
from stepdist import checks, transform
from stepdist.cdf import (
    _check_jump_round_trip,
    _FlatRun,
    _Jump,
    _jump_columns,
    _jump_round_trip_levels,
    _left_quantiles,
    _level_ends,
    _null_sets,
    _quantile_pair_unchecked,
    jump_set,
    left_quantile,
)
from stepdist.checks import (
    EXACT_TOL,
    LAMBDA_GRID,
    _analytic,
    _grid_parts,
    _level_rows,
    _nondecreasing,
    alpha_population,
    probe_grid,
)
from stepdist.measure import measure_interval, measure_level_set, measure_set, measure_value_level
from stepdist.monotone import df_condition_report
from stepdist.realset import Interval, RealSet, _cuts
from stepdist.stochastic import INVERSION_TOL, _transform_cdf_totals, _transform_cdf_totals_of, transform_cdf_exact
from stepdist.transform import (
    _attained_ends,
    _jump_gap_values,
    _jump_gap_weights,
    _quantile_ranges,
    _transforms_of_parts,
    attained_values,
    inversion_null_set,
    jump_gap_values,
    jump_gap_weights,
    lambda_transform,
    lambda_transforms,
    quantile_range_of_point,
)
from test_vector_oracle import (
    FLOAT_RESOLUTION_LAWS,
    OVERSHOOTING_UNIFORM,
    SUB_ULP_CASES,
    decimal_uniforms,
    evaluated,
    rescaled_functions,
    reversed_table,
    rows_by_scalar_readers,
    scan_once,
    suite_inputs,
    widenings,
    without_point,
)

# -- the oracle ----------------------------------------------------------------


@_analytic("transform_sandwich", EXACT_TOL)
def sandwich_by_point(f, grid, parts):
    worst = 0.0
    his, los, jumps = (p.tolist() for p in parts[:3])
    for x, lo, hi, jump in zip(grid, los, his, jumps):
        ts = [lambda_transform(f, x, lam) for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for t in ts:
            worst = max(worst, lo - t, t - hi)
        worst = max(worst, abs(ts[0] - lo), abs(ts[-1] - hi))
        if jump == 0.0:
            vals = {ts[0], lambda_transform(f, x, 0.3), lambda_transform(f, x, 0.7), ts[-1]}
            if len(vals) > 1:
                worst = max(worst, max(vals) - min(vals))
    return worst


@_analytic("quantile_sandwich", EXACT_TOL)
def quantile_sandwich_by_level(f, rows):
    worst = 0.0
    for a, lo, hi, *_ in rows:
        if lo > hi:
            worst = max(worst, lo - hi)
        worst = max(worst, f.left_value(lo) - a, a - f.value(lo))
        worst = max(worst, f.left_value(hi) - a, a - f.value(hi))
        for d in (1e-6, 1e-3, 0.25):
            if not f.value(lo - d) < a:
                worst = max(worst, f.value(lo - d) - a + 2.0 * EXACT_TOL)
            worst = max(worst, a - f.value(lo + d))
    return worst


@_analytic("quantile_range_of_point", 0)
def quantile_ranges_by_point(f, grid, parts):
    bad = 0
    bps = set(f.xs)
    his, los = (p.tolist() for p in parts[:2])
    for x, lo, hi in zip(grid, los, his):
        s = quantile_range_of_point(f, x)
        for iv in s.components:
            if iv.lo < lo or iv.hi > hi:
                bad += 1
        if hi > lo:
            if len(s.components) != 1:
                bad += 1
            else:
                iv = s.components[0]
                if iv.lo != lo or iv.hi != hi:
                    bad += 1
            for frac in (0.25, 0.5, 0.75):
                a = lo + frac * (hi - lo)
                if lo < a < hi and left_quantile(f, a) != x:
                    bad += 1
        if x in bps:
            for a in (lo, hi):
                if 0.0 < a < 1.0:
                    if s.contains(a) != (left_quantile(f, a) == x):
                        bad += 1
    return bad


@_analytic("jump_gap_complement", 0)
def jump_gaps_by_pair(f):
    raw = [Interval.open(j.lo, j.hi) for j in f._jumps]
    unit = RealSet.of(Interval.open(0.0, 1.0))
    expected = unit.difference(attained_values(f))
    bad = 0 if RealSet(tuple(raw)).intersect(unit) == expected else 1
    for a, b in zip(raw, raw[1:]):
        if a.intersect(b) is not None:
            bad += 1
    return bad


def attained_by_breakpoint(f):
    """The earlier construction of ``attained_values``: {0}, {1}, F and F(x-) at each
    breakpoint as points, and one closed interval per rising segment."""
    parts = [Interval.point(0.0), Interval.point(1.0)]
    values, lefts, _ = f.value_parts(f.xs)
    lefts = lefts.tolist()
    for i, (lo, hi) in enumerate(zip(lefts, values.tolist())):
        parts += [Interval.point(lo), Interval.point(hi)]
        if i < len(lefts) - 1 and f.rises[i] > 0.0:
            parts.append(Interval.closed(hi, lefts[i + 1]))
    return RealSet(tuple(parts))


def _expected_level_set(f, a, lo, hi) -> RealSet:
    if lo == hi:
        return RealSet.point(lo) if f.value(lo) == a else RealSet.empty()
    if f.value(hi) == a:
        return RealSet.of(Interval.closed(lo, hi))
    return RealSet.of(Interval.closed_open(lo, hi))


@_analytic("level_set_cases", 0)
def level_set_cases_by_row(f, rows):
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
def flat_mass_by_row(f, rows):
    worst = 0.0
    for a, lo, hi, ls, beyond, *_ in rows:
        worst = max(worst, abs(measure_set(f, beyond)))
        m = measure_level_set(f, a)
        worst = max(worst, abs(m - measure_set(f, ls)))
        if hi > lo:
            worst = max(worst, abs(m - (a - f.left_value(lo))), abs(m - f.jump(lo)))
    return worst


@_analytic("sublevel_union", 0)
def sublevel_union_by_row(f, rows, grid, parts):
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


@_analytic("uniformity_displays", EXACT_TOL)
def uniformity_displays_by_row(f, rows):
    worst = 0.0
    for a, lo, hi, *_ in rows:
        if hi > lo:
            below = measure_interval(f, Interval(-math.inf, hi, False, f.value(hi) == a))
            worst = max(worst, abs(below - a), abs(f.value(lo) - a))
    for j in f._jumps:
        worst = max(worst, abs(measure_value_level(f, j.hi) - j.mass))
    return worst


def jump_gap_weights_by_scan(f, alphas) -> list:
    """The earlier body of ``jump_gap_weights``: after the same validation, each weight
    is (a - F(q-)) / jump(q) with q the left quantile of a, from one evaluation at q."""
    alphas = [float(a) for a in alphas]
    if len(alphas) != len(f._jumps):
        raise sd.LengthMismatch(f"{len(alphas)} levels for {len(f._jumps)} jump points")
    out = []
    for n, ((_, lo, hi, _), a) in enumerate(zip(f._jumps, alphas)):
        if math.isnan(a) or not lo < a < hi:
            raise sd.AlphaNotInJumpInterval(n, f"level {a} not inside ({lo}, {hi})")
        _, left, jump = f._point(left_quantile(f, a))
        out.append((a - left) / jump)
    return out


@_analytic("jump_characterization", 0)
def jump_characterization_by_row(f, rows):
    jump_set_by_scan(f)
    bad = 0
    for _, lo, hi, _, beyond, *_ in rows:
        if (hi > lo) != (not beyond.is_empty()):
            bad += 1
    return bad


@_analytic("transform_cdf_uniform", EXACT_TOL)
def transform_cdf_by_level(f, rows):
    worst = 0.0
    for a, *_ in rows:
        br = transform_cdf_exact(f, f, a)
        worst = max(worst, abs(br.total - a))
    return worst


@_analytic("null_set_inversion", EXACT_TOL)
def null_sets_by_weight(f, grid, parts):
    """The earlier body: one exceptional-set report, its measures, its membership on
    the grid and one left-quantile pass per weight."""
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


@_analytic("jump_gap_roundtrip", EXACT_TOL)
def phi_roundtrip_by_round(f, attained):
    """The earlier body: eight rounds, each drawing one weight per jump and mapping
    them into the gaps and back with the public list functions."""
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


@_analytic("total_mass_and_df_conditions", EXACT_TOL)
def total_mass_by_cell(f):
    """The earlier body: the 16 cells measured one ``measure_interval`` call each."""
    worst = abs(measure_set(f, RealSet.reals()) - 1.0)
    xs = f.xs
    lo = xs[0] - 1.0
    hi = xs[-1] + 1.0
    cuts = np.linspace(lo, hi, 17)
    parts = sum(measure_interval(f, Interval.open_closed(a, b)) for a, b in zip(cuts, cuts[1:]))
    worst = max(worst, abs(parts - (f.value(hi) - f.value(lo))))
    rep = df_condition_report(f)
    if not (rep.all_agree() and rep.is_distribution_function()):
        worst = max(worst, 1.0)
    return worst


def jump_set_by_scan(f):
    """The earlier body of ``jump_set``: one scalar quantile-pair scan per jump."""
    for x, lo, hi, mass in f._jumps:
        u = lo + 0.5 * mass
        if lo < u < hi and 0.0 < u < 1.0:
            pair = _quantile_pair_unchecked(f, u)
            if pair != (x, x):
                raise sd.ValidationError(f"jump at {x} fails the quantile round trip: got {tuple(pair)}")
    return [(j.x, j.mass) for j in f._jumps]


def jump_gap_values_by_jump(f, lams) -> list:
    """The earlier body of ``jump_gap_values``: one sum per jump, moved off a gap's
    ends one float at a time."""
    lams = [float(v) for v in lams]
    if len(lams) != len(f._jumps):
        raise sd.LengthMismatch(f"{len(lams)} weights for {len(f._jumps)} jump points")
    out = []
    for n, ((_, lo, hi, mass), lam) in enumerate(zip(f._jumps, lams)):
        if math.isnan(lam) or not 0.0 < lam < 1.0:
            raise sd.LambdaOutOfRange(f"weight {n} must lie strictly inside (0, 1), got {lam}")
        v = lo + lam * mass
        if v <= lo:
            v = math.nextafter(lo, math.inf)
        if v >= hi:
            v = math.nextafter(hi, -math.inf)
        out.append(v)
    return out


@_analytic("jump_gap_complement", 0)
def jump_gaps_by_set(f, attained):
    """The earlier body of the complement check: the gaps' ``RealSet`` against the
    complement of the attained values in (0, 1)."""
    raw = [Interval.open(j.lo, j.hi) for j in f._jumps]
    unit = RealSet.of(Interval.open(0.0, 1.0))
    expected = unit.difference(attained)
    bad = 0 if RealSet(tuple(raw)).intersect(unit) == expected else 1
    lo, hi = np.array([iv.lo for iv in raw]), np.array([iv.hi for iv in raw])
    return bad + int(np.count_nonzero(np.maximum(lo[:-1], lo[1:]) < np.minimum(hi[:-1], hi[1:])))


@_analytic("jump_gap_roundtrip", EXACT_TOL)
def phi_roundtrip_by_set(f, attained):
    """The earlier body of the round trip: one draw of 8 x m weights and the gap
    kernels, with membership in the attained values' ``RealSet``."""
    lams = np.random.default_rng(20240901).uniform(0.05, 0.95, size=(8, len(f._jumps)))
    vals = _jump_gap_values(f, lams)
    bad = int(np.count_nonzero(attained.contains_many(vals)))
    back = _jump_gap_weights(f, vals)
    if bad:
        return bad + 1.0, "output hit an attained level"
    return checks._worst(np.abs(back - lams))


def transform_cdf_totals_by_own_table(f, law_of_x, a):
    """The earlier body of ``_transform_cdf_totals``: a level table of its own, and the
    law's parts off it where the law is F, else from one search of its ends."""
    _, q, hi, flat, start, closed, _, fx, left, jump = _level_ends(f, a)
    law_fx, law_left, law_jump = (fx, left, jump) if law_of_x is f else law_of_x.value_parts(np.stack((q, hi, start)))
    fq, beta = fx[0], jump[0]
    coef = np.zeros(a.shape)
    np.divide(a - fq, beta, out=coef, where=beta != 0.0)
    term_flat = np.where(flat, np.where(closed, law_fx[1], law_left[1]) - law_fx[2], 0.0)
    term_atom = coef * (law_jump[0] - beta)
    term_left = law_fx[0] - fq
    return a + term_flat + term_atom + term_left


def jump_tables(f):
    """The two tables ``analytic_checks`` slices off its one level table beside the
    rows: that of F(x) at every jump, and (jump points, table) of jump_set's levels."""
    points, levels = _jump_round_trip_levels(f)
    _, _, at_jumps, trip = _level_rows(f, alpha_population(f), _jump_columns(f)[2], levels)
    return at_jumps, (points, trip)


def uniformity_displays(f, rows):
    """The uniformity check, with the table of the jump levels from ``jump_tables``."""
    return checks._check_uniformity_displays(f, rows, jump_tables(f)[0])


def jump_characterization(f, rows):
    """The jump characterization, with jump_set's levels from ``jump_tables``."""
    return checks._check_jump_characterization(f, rows, jump_tables(f)[1])


# -- comparison ------------------------------------------------------------------


def bits(x) -> bytes:
    return struct.pack("<d", x)


def same_result(got, ref) -> bool:
    return got == ref and bits(got.value) == bits(ref.value) and got.detail == ref.detail


def with_rows(f, rows):
    """A copy of f whose jump table is ``rows``, its jump columns to be read from them:
    the one way the tests hand the checks a jump table that disagrees with F."""
    g = copy.copy(f)
    object.__setattr__(g, "_jump_rows", tuple(rows))
    object.__setattr__(g, "_jump_cols", None)
    return g


def mixed(k):
    """Breakpoints 0, 1, ..., k-1 with about half of them atoms and 60 % of the segments rising."""
    r = np.random.default_rng(0)
    atoms = np.where(r.random(k) < 0.5, r.uniform(0.05, 1.0, k), 0.0)
    rises = np.where(r.random(k - 1) < 0.6, r.uniform(0.05, 1.0, k - 1), 0.0)
    return sd.normalize(sd.MonotoneStepLinear(xs=np.arange(k, dtype=float), atoms=atoms, rises=rises))


@pytest.fixture(scope="module")
def oracle_laws(small_population, fb, fm, fu):
    """A slice of the seeded population, the canonical laws, three-decimal uniform laws
    (the overshooting one FAILs the suite), the float-resolution laws and one large law.
    The old loops cost about 5 ms per small law, so the whole population would add a
    second to tier-1."""
    return [
        *small_population,
        fb,
        fm,
        fu,
        OVERSHOOTING_UNIFORM,
        *decimal_uniforms(np.random.default_rng(12), 20),
        *FLOAT_RESOLUTION_LAWS,
        *SUB_ULP_CASES,
        mixed(2000),
    ]


# (array check, oracle, what they read): the probe grid and its table, the
# levels (as columns for the check, as rows of sets for the oracle), or both
PAIRS = [
    (checks._check_transform_sandwich, sandwich_by_point, "grid"),
    (checks._check_quantile_sandwich, quantile_sandwich_by_level, "rows"),
    (checks._check_level_set_cases, level_set_cases_by_row, "rows"),
    (checks._check_flat_mass, flat_mass_by_row, "rows"),
    (checks._check_sublevel_union, sublevel_union_by_row, "both"),
    (checks._check_quantile_ranges, quantile_ranges_by_point, "grid"),
    (checks._check_transform_cdf, transform_cdf_by_level, "rows"),
    (uniformity_displays, uniformity_displays_by_row, "rows"),
    (jump_characterization, jump_characterization_by_row, "rows"),
]
# the checks that read the grid's table, those that read a level's sets, and those
# that read only its quantiles
GRID_PAIRS = [pair for pair in PAIRS if pair[2] != "rows"]
SET_PAIRS = [PAIRS[n] for n in (2, 3, 4, 7, 8)]
QUANTILE_PAIRS = [PAIRS[n] for n in (1, 6)]


def run_pair(pair, f, rows, with_q, tuples, grid, parts) -> tuple:
    """The results of an array check and of its oracle, each given what it reads."""
    check, oracle, reads = pair
    if reads == "grid":
        return check(f, grid, parts), oracle(f, grid, parts)
    if reads == "rows":
        return check(f, rows), oracle(f, tuples)
    return check(f, rows, with_q, grid, parts), oracle(f, tuples, grid, parts)


def assert_same_checks(f, rows, with_q, tuples, grid, parts, pairs=PAIRS) -> set:
    """Each array check returns the loop's result; the names of the nonzero ones."""
    nonzero = set()
    for pair in pairs:
        got, ref = run_pair(pair, f, rows, with_q, tuples, grid, parts)
        assert same_result(got, ref), (f, got, ref)
        if ref.value:
            nonzero.add(ref.name)
    return nonzero


def oracle_inputs(f):
    """The level table and ``with_q``, the rows of sets the scalar readers give, the grid
    and its table."""
    rows, with_q, grid, parts = suite_inputs(f)
    return rows, with_q, rows_by_scalar_readers(f, alpha_population(f)), grid, parts


def test_array_checks_equal_the_point_loops(oracle_laws, scan_once):
    # scan_once runs the scalar left scan once per law and level: on the span that
    # overflows, each scan corrects its solve, and the readers and oracles repeat them
    nonzero = set()
    with np.errstate(over="ignore", invalid="ignore"):  # the span that overflows
        for f in oracle_laws:
            nonzero |= assert_same_checks(f, *oracle_inputs(f))
    # rounding-sized sandwich and flat-mass deviations on some laws, the FAILs of the
    # span that overflows and the unresolvable ramp, the sub-ulp atom's uniformity
    # FAIL, and sublevel counts on overshooting uniform laws
    assert nonzero == {"quantile_sandwich", "flat_piece_mass", "uniformity_displays", "sublevel_union"}


def test_array_checks_equal_the_point_loops_on_wrong_tables(small_population, fb, fm, fu):
    # tables that disagree with F give nonzero values of every kind.  Grid tables:
    # F and F(x-) exchanged; F one float high; F and the transform at weight 1 one
    # float high, which only the spread of the weights where F does not jump shows;
    # F(x-) halved, whose levels inside the made-up jumps map back left of x.  Rows:
    # the two quantiles exchanged; the left quantile moved to the right one, where
    # only the strict part of the sandwich shows at a flat level.  F is taken again
    # at the moved ends, as the level table takes it.  The quantile-range check builds
    # its ranges from F and F(x-) in the grid table, and the transform-CDF check its
    # totals from the level table, so each is pinned to its loop on the true table
    # beside the wrong ones, and must read a wrong table as a nonzero value
    (sandwich, transform_cdf), ranges = QUANTILE_PAIRS, PAIRS[5]
    others = [pair for pair in GRID_PAIRS if pair is not ranges]
    nonzero = set()
    read_wrong = Counter()
    for f in (fb, fm, fu, OVERSHOOTING_UNIFORM, *small_population[:6]):
        rows, with_q, tuples, grid, (fx, left, jump, ts) = oracle_inputs(f)
        true = (fx, left, jump, ts)
        up = np.nextafter(fx, math.inf)
        nonzero |= assert_same_checks(f, rows, with_q, tuples, grid, true, [ranges])
        for n, table in enumerate((
            (left, fx, jump, ts),
            (up, left, jump, ts),
            (up, left, jump, (*ts[:-1], np.nextafter(ts[-1], math.inf))),
            (fx, 0.5 * left, jump, ts),
        )):
            nonzero |= assert_same_checks(f, rows, with_q, tuples, grid, table, others)
            read_wrong["grid", n] += checks._check_quantile_ranges(f, grid, table).value > 0
        for n, (moved, wrong) in enumerate((
            (rows._replace(lo=rows.hi, hi=rows.lo), [(a, hi, lo, *rest) for a, lo, hi, *rest in tuples]),
            (rows._replace(lo=rows.hi), [(a, hi, hi, *rest) for a, _, hi, *rest in tuples]),
        )):
            moved = evaluated(f, moved)
            nonzero |= assert_same_checks(f, moved, with_q, wrong, grid, true, [sandwich])
            nonzero |= assert_same_checks(f, rows, with_q, wrong, grid, true, [transform_cdf])
            read_wrong["rows", n] += checks._check_transform_cdf(f, moved).value > 0
    assert nonzero == {"transform_sandwich", "quantile_sandwich", "sublevel_union"}
    # every wrong grid table shows in the quantile ranges; the exchanged quantiles show
    # in the law of the transform (a left quantile moved to the right one does not)
    assert all(read_wrong["grid", n] > 5 for n in range(4)), read_wrong
    assert read_wrong["rows", 0] > 3 and read_wrong["rows", 1] == 0, read_wrong


def test_set_checks_equal_the_row_bodies_on_faulted_rows(small_population, fm):
    # each fault injected into the rows of sets has a counterpart in the columns:
    # {q} left out of every split clears with_q, and a flat piece made to start left
    # of lo moves start, with F taken again at the moved ends.  On each faulted input
    # (both faults at once too), and on a grid table out of order,
    # every check that reads a level's sets reports what its row body reports, and
    # the checks that the fault concerns report another value than on the true rows
    moved = Counter()
    for f in (fm, *small_population[:6]):
        rows, with_q, tuples, grid, parts = oracle_inputs(f)
        clean = [run_pair(pair, f, rows, with_q, tuples, grid, parts)[1] for pair in SET_PAIRS]
        faults = {
            "without {q}": (*without_point(rows, with_q, tuples), grid, parts),
            **{
                f"started below {n}": (*wide, grid, parts)
                for n, wide in enumerate(widenings(f, rows, with_q, tuples))
            },
            # the piece right of lo then holds lo, which the split leaves out
            "both": (*widenings(f, *without_point(rows, with_q, tuples))[1], grid, parts),
            "reversed table": (rows, with_q, tuples, grid, reversed_table(parts)),
        }
        for fault, inputs in faults.items():
            for pair, true in zip(SET_PAIRS, clean):
                got, ref = run_pair(pair, f, *inputs)
                assert same_result(got, ref), (f, fault, got, ref)
                if ref.value != true.value:
                    assert ref.value
                    moved[fault, ref.name] += 1
    assert set(moved) == {
        ("without {q}", "sublevel_union"),
        *(
            (fault, name)
            for fault in ("started below 0", "started below 1", "both")
            for name in ("level_set_cases", "flat_piece_mass", "sublevel_union")
        ),
        ("reversed table", "sublevel_union"),
    }


def test_successive_gaps_are_counted_as_the_pairwise_intersections(oracle_laws):
    rng = np.random.default_rng(43)
    ends = (0.0, 0.25, 0.5, 0.75, 1.0)  # few values, so that gaps touch and coincide
    tampered = 0
    for f in oracle_laws:
        with np.errstate(over="ignore", invalid="ignore"):  # the span that overflows
            assert same_result(checks._check_jump_gaps(f, _attained_ends(f)), jump_gaps_by_pair(f))
        if len(f._jumps) < 2:
            continue
        # gaps moved to random ends, empty ones included, on a copy of the law
        rows = []
        for j in f._jumps:
            lo, hi = sorted(rng.choice(ends, 2).tolist())
            rows.append(_Jump(j.x, lo, hi, j.mass))
        g = with_rows(f, rows)
        got, ref = checks._check_jump_gaps(g, _attained_ends(g)), jump_gaps_by_pair(g)
        assert same_result(got, ref)
        tampered += ref.value > 1
    assert tampered > 10


# -- the kernels the checks call -------------------------------------------------


def gap_levels(f, rng) -> list:
    """Vectors of one level per jump to invert: three of random levels inside the gaps,
    and two of one float inside each end of every gap (a random level where the gap
    holds no float beside that end)."""
    lo, hi = np.array([j.lo for j in f._jumps]), np.array([j.hi for j in f._jumps])
    inner = [np.array(transform.jump_gap_values(f, rng.uniform(0.05, 0.95, lo.size))) for _ in range(3)]
    up, down = np.nextafter(lo, math.inf), np.nextafter(hi, -math.inf)
    ends = (np.where(up < hi, up, inner[0]), np.where(down > lo, down, inner[0]))
    return [v.tolist() for v in (*inner, *ends)]


def weights_or_error(weights, f, levels):
    """The bits of the weights, or the type and arguments of the exception raised."""
    try:
        return [bits(w) for w in weights(f, levels)]
    except sd.StepDistError as exc:
        return type(exc), exc.args, getattr(exc, "index", None)


def test_jump_gap_weights_equal_the_scan(population, fb, fm, fu):
    # a level strictly inside the n-th gap has the n-th jump point as its left
    # quantile, so the weight read off the jump table is the scan's, bit for bit;
    # where a gap holds no float, both forms raise the same exception
    rng = np.random.default_rng(61)
    laws = [*population, *rescaled_functions(rng, 200), fb, fm, fu, *SUB_ULP_CASES, mixed(2000)]
    levels_checked = raised = 0
    for f in laws:
        for levels in gap_levels(f, rng):
            got = weights_or_error(transform.jump_gap_weights, f, levels)
            assert got == weights_or_error(jump_gap_weights_by_scan, f, levels), f
            if isinstance(got, list):
                assert [left_quantile(f, a) for a in levels] == list(f.jump_points), f
                levels_checked += len(levels)
            else:
                raised += 1
    # every vector of the sub-ulp atom's law raises: its second gap holds no float
    assert raised == len(gap_levels(SUB_ULP_CASES[0], rng)) and levels_checked > 5000


def range_bits(s: RealSet) -> list:
    return [(bits(iv.lo), bits(iv.hi), iv.closed_lo, iv.closed_hi) for iv in s.components]


def test_quantile_range_of_point_equals_the_array_kernel(population, fb, fm, fu):
    functions = [*population, fb, fm, fu, *rescaled_functions(np.random.default_rng(47), 30), *SUB_ULP_CASES]
    kinds = set()
    for f in functions:
        xs = np.asarray(f.xs)
        x = np.concatenate(
            [probe_grid(f), np.nextafter(xs, -math.inf), np.nextafter(xs, math.inf), [-math.inf, math.inf, -0.0]]
        )
        lo, hi, closed_lo, closed_hi = _quantile_ranges(f, x)
        for p, *iv in zip(x.tolist(), lo.tolist(), hi.tolist(), closed_lo.tolist(), closed_hi.tolist()):
            ref = quantile_range_of_point(f, p)
            assert range_bits(RealSet.of(Interval(*iv))) == range_bits(ref), (f, p)
            kinds.add((len(ref.components), ref.components[0].is_point() if ref.components else None))
    assert kinds == {(0, None), (1, True), (1, False)}  # empty, a point and an interval


def test_attained_values_equal_the_breakpoint_construction(population, fb, fm, fu, monkeypatch):
    # {0}, {1} and one closed piece per segment give the set the points and
    # rises gave, bit for bit: the endpoints, the sign of a zero and the flags
    functions = [
        *population,
        fb,
        fm,
        fu,
        *rescaled_functions(np.random.default_rng(59), 50),
        *SUB_ULP_CASES,
        *FLOAT_RESOLUTION_LAWS,
        sd.point_mass(0.0),
        # F and F(x-) are -0.0 at the first two breakpoints: the set keeps {0}'s +0.0
        sd.Cdf(xs=(0.0, 1.0, 2.0), atoms=(-0.0, -0.0, 1.0), rises=(-0.0, -0.0), base=-0.0),
        mixed(2000),
    ]
    # the wrapper builds one set of the merged components of _attained_ends
    built = []
    monkeypatch.setattr(transform, "RealSet", lambda parts: built.append(len(parts)) or RealSet(parts))
    kinds = set()
    with np.errstate(over="ignore", invalid="ignore"):  # the span that overflows
        for f in functions:
            built.clear()
            got = transform.attained_values(f)
            assert built == [len(got.components)]
            assert range_bits(got) == range_bits(attained_by_breakpoint(f)), f
            lo, hi = _attained_ends(f)
            assert [(bits(a), bits(b)) for a, b in zip(lo.tolist(), hi.tolist())] == [r[:2] for r in range_bits(got)]
            kinds.update(iv.is_point() for iv in got.components)
    assert kinds == {True, False}


def test_quantile_ranges_reject_nan_like_the_scalar(fm):
    with pytest.raises(sd.ValidationError):
        quantile_range_of_point(fm, math.nan)
    with pytest.raises(sd.ValidationError):
        _quantile_ranges(fm, [0.0, math.nan])


def test_transform_cdf_exact_totals_equal_the_array_kernel(population, fb, fm, fu):
    functions = [*population[:30], fb, fm, fu, *rescaled_functions(np.random.default_rng(53), 20)]
    flat_terms = 0
    for f, g in [*zip(functions, functions), *zip(functions, functions[1:])]:
        levels = alpha_population(f)  # a percent grid, f's flat levels and jump-gap interiors
        got = _transform_cdf_totals(f, g, np.array(levels))
        refs = [transform_cdf_exact(f, g, a) for a in levels]
        assert [bits(v) for v in got.tolist()] == [bits(r.total) for r in refs], (f, g)
        flat_terms += sum(r.term_flat != 0.0 for r in refs)
    assert flat_terms > 20  # g differs from f on flat levels of f


# -- the checks that read each table once ------------------------------------------

# the span that overflows, the ramp narrower than the float grid, the sub-ulp atom and
# the uniform law whose ramp solve overshoots
DEFECT_LAWS = [*FLOAT_RESOLUTION_LAWS, SUB_ULP_CASES[0], OVERSHOOTING_UNIFORM]
# the ends of the exceptional set of the inversion: a single atom (the zero and one
# sets touch at weight 1), a flat piece at level 0 that ends in a jump and one that F
# leaves continuously, a ramp that reaches 1 with no atom, a plateau that ends in the
# jump to 1 (it touches the one set at weight 1) and an atom at x0
NULL_SET_EDGE_LAWS = [
    sd.Cdf(xs=(0.5,), atoms=(1.0,), rises=()),
    sd.Cdf(xs=(0.0, 1.0, 2.0), atoms=(0.0, 0.5, 0.0), rises=(0.0, 0.5)),
    sd.Cdf(xs=(0.0, 1.0, 2.0), atoms=(0.0, 0.0, 0.0), rises=(0.0, 1.0)),
    sd.Cdf(xs=(0.0, 1.0, 3.0), atoms=(0.25, 0.0, 0.0), rises=(0.75, 0.0)),
    sd.Cdf(xs=(-1.0, 1.0, 2.0), atoms=(0.0, 0.0, 0.5), rises=(0.5, 0.0)),
    sd.Cdf(xs=(0.0, 1.0), atoms=(0.5, 0.0), rises=(0.5,)),
]


def outcome(call, *args):
    """What a call returns, or the type and arguments of the exception it raises."""
    try:
        return call(*args)
    except sd.StepDistError as exc:
        return type(exc), exc.args


def moved_gaps(f, rng):
    """A copy of f whose jump rows keep their points and masses but have gaps moved to
    random ends, empty and overlapping ones included."""
    ends = (0.0, 0.25, 0.5, 0.75, 1.0)
    return with_rows(f, (_Jump(j.x, *sorted(rng.choice(ends, 2).tolist()), j.mass) for j in f._jumps))


def test_checks_reading_each_table_once_equal_the_earlier_bodies(population, fb, fm, fu):
    # the null-set check with two reports and one inversion pass, the round trip with
    # one draw of 8 x m weights and the gap kernels, the total mass from one evaluation
    # of the cuts, and jump_set from one level-table pass each return what the earlier
    # bodies return, bit for bit; on the defect laws too, where some of them FAIL or raise
    failed = set()
    with np.errstate(over="ignore", invalid="ignore"):  # the span that overflows
        for f in (*population, fb, fm, fu, *DEFECT_LAWS, *NULL_SET_EDGE_LAWS, mixed(2000)):
            grid = probe_grid(f)
            parts = _grid_parts(f, grid)
            attained = attained_values(f)
            for got, ref in (
                (checks._check_null_sets(f, grid, parts), null_sets_by_weight(f, grid, parts)),
                (checks._check_phi_roundtrip(f, _attained_ends(f)), phi_roundtrip_by_round(f, attained)),
                (checks._check_total_mass(f), total_mass_by_cell(f)),
            ):
                assert same_result(got, ref), (f, got, ref)
                if not ref.passed:
                    failed.add((ref.name, ref.detail.split(":")[0]))
            assert outcome(jump_set, f) == outcome(jump_set_by_scan, f)
    # the sub-ulp atom's second gap holds no float; the span that overflows FAILs the
    # null-set check and its cuts are NaN; mixed(2000)'s round trip misses by 1.142e-12
    assert failed == {
        ("jump_gap_roundtrip", "raised AlphaNotInJumpInterval"),
        ("jump_gap_roundtrip", ""),
        ("null_set_inversion", ""),
        ("total_mass_and_df_conditions", "raised MalformedInterval"),
    }


def test_null_set_table_equals_the_reports(population, fb, fm, fu):
    # the exceptional set read off the breakpoints is, at every weight, the union of
    # inversion_null_set's report, component for component, with the measure_set of
    # its plateau union, of its zero and one sets and of the whole, and its membership
    # on the probe grid and at infinite and NaN points, bit for bit
    shapes = []
    with np.errstate(over="ignore", invalid="ignore"):  # the span that overflows
        for f in (*NULL_SET_EDGE_LAWS, *population, fb, fm, fu, *DEFECT_LAWS, mixed(2000)):
            grid = np.concatenate((probe_grid(f), [-math.inf, math.inf, math.nan]))
            table = _null_sets(f)
            for lam in LAMBDA_GRID:
                s, rep = table[lam == 1.0], inversion_null_set(f, lam)
                union = rep.union()
                cuts, below = s.cuts.tolist(), s.below.tolist()
                assert bits(cuts.pop()) == bits(math.nan) and below.pop() is False
                assert [(bits(v), b) for v, b in zip(cuts, below, strict=True)] == [
                    (bits(v), not above) for v, above in _cuts(union.components)
                ], (f, lam)
                assert bits(s.plateau) == bits(measure_set(f, rep.plateau_union)), (f, lam)
                assert bits(s.ends) == bits(measure_set(f, rep.zero_set.union(rep.one_set))), (f, lam)
                assert bits(s.total) == bits(rep.total_measure), (f, lam)
                assert s.contains_many(grid).tolist() == union.contains_many(grid).tolist(), (f, lam)
            shapes.append([len(s.cuts) // 2 for s in table])
    # at weight 1 the single atom's zero and one sets merge into the line, and the
    # plateau that ends in the jump to 1 merges with the one set
    assert shapes[: len(NULL_SET_EDGE_LAWS)] == [[2, 1], [2, 2], [2, 2], [2, 2], [3, 2], [2, 2]]


def test_checks_reading_each_table_once_equal_the_earlier_bodies_on_wrong_inputs(small_population, fb, fm, fu):
    # grid tables that disagree with F (F and F(x-) exchanged, F one float high, F(x-)
    # halved, the weights' transforms in reverse order, one transform NaN), jump rows
    # whose gaps are moved (the values then hit attained levels, or a gap holds no
    # float), jump rows whose points are moved to the next jump's point, and a flat
    # piece put at the level jump_set checks inside the first gap: every input gives
    # the earlier body's result, and each kind of fault shows
    rng = np.random.default_rng(67)
    nonzero = Counter()
    for f in (fb, fm, fu, *DEFECT_LAWS[2:], *small_population[:10]):
        grid = probe_grid(f)
        fx, left, jump, ts = _grid_parts(f, grid)
        nan = ts[1].copy()
        nan[len(grid) // 2] = math.nan
        for table in (
            (left, fx, jump, ts),
            (np.nextafter(fx, math.inf), left, jump, ts),
            (fx, 0.5 * left, jump, ts),
            (fx, left, jump, ts[::-1]),
            (fx, left, jump, (ts[0], nan, *ts[2:])),
        ):
            got, ref = checks._check_null_sets(f, grid, table), null_sets_by_weight(f, grid, table)
            assert same_result(got, ref), (f, got, ref)
            nonzero["null sets"] += ref.value > 0
        if len(f._jumps) < 2:
            continue
        g = moved_gaps(f, rng)
        got, ref = checks._check_phi_roundtrip(g, _attained_ends(g)), phi_roundtrip_by_round(g, attained_values(g))
        assert same_result(got, ref), (f, got, ref)
        nonzero[ref.detail.split(":")[0]] += 1
        points = [j.x for j in f._jumps]
        shifted = with_rows(f, (j._replace(x=x) for j, x in zip(f._jumps, points[1:] + points[:1])))
        ref = outcome(jump_set_by_scan, shifted)
        assert outcome(jump_set, shifted) == ref
        nonzero["jump_set"] += ref[0] is sd.ValidationError
        flat = copy.copy(f)
        x, lo, _, mass = f._jumps[0]
        runs = {**f._flat_runs, lo + 0.5 * mass: _FlatRun(x, x + 1.0, False)}
        object.__setattr__(flat, "_flat_table", runs)
        ref = outcome(jump_set_by_scan, flat)
        assert outcome(jump_set, flat) == ref
        nonzero["jump_set flat"] += ref[0] is sd.ValidationError
    assert nonzero["null sets"] > 20 and nonzero["jump_set"] > 5 and nonzero["jump_set flat"] > 5
    assert nonzero["output hit an attained level"] > 0 and nonzero["raised AlphaNotInJumpInterval"] > 0


def test_gap_kernels_equal_the_list_functions_row_by_row(population, fb, fm, fu):
    # the array kernels take one vector per row: each row maps as the list function
    # maps it, bit for bit, and a matrix with levels outside their gaps raises what the
    # first raising row raises; one draw of 8 x m weights is eight draws of m
    rng = np.random.default_rng(71)
    raised = mapped = 0
    for f in (*population, fb, fm, fu, *DEFECT_LAWS, *SUB_ULP_CASES[1:]):
        m = len(f._jumps)
        lams = np.random.default_rng(20240901).uniform(0.05, 0.95, size=(8, m))
        draws = np.random.default_rng(20240901)
        assert [bits(v) for v in lams.ravel().tolist()] == [bits(v) for _ in range(8) for v in draws.uniform(0.05, 0.95, size=m).tolist()]
        vals = transform._jump_gap_values(f, lams)
        assert [bits(v) for v in vals.ravel().tolist()] == [bits(v) for row in lams for v in jump_gap_values_by_jump(f, row)]
        assert [bits(v) for v in vals.ravel().tolist()] == [bits(v) for row in lams for v in jump_gap_values(f, row)]
        # levels from the gaps, three rows of them moved up by 1 (past the gaps' ends)
        # or by 0 from a random jump on
        levels = vals.copy()
        if m:
            for r in rng.choice(8, 3, replace=False):
                levels[r, rng.integers(m) :] += rng.choice([0.0, 1.0])
        rows = [outcome(jump_gap_weights, f, row.tolist()) for row in levels]
        first = next((row for row in rows if not isinstance(row, list)), None)
        got = outcome(transform._jump_gap_weights, f, levels)
        if first is None:
            assert [bits(v) for v in got.ravel().tolist()] == [bits(v) for row in rows for v in row]
            mapped += 1
        else:
            assert got == first
            raised += 1
    assert raised > 100 and mapped > 10


def test_transforms_formed_off_the_tables_equal_lambda_transforms(population, fb, fm, fu):
    # the grid table's transforms and the rows' with_q, formed from F, F(x-) and the
    # jump already in the tables, are what lambda_transforms returns from a search of
    # the same points, bit for bit
    with np.errstate(over="ignore", invalid="ignore"):  # the span that overflows
        for f in (*population, fb, fm, fu, *DEFECT_LAWS, *SUB_ULP_CASES[1:], mixed(2000)):
            grid = probe_grid(f)
            for lam, t in zip(LAMBDA_GRID, _grid_parts(f, grid)[3], strict=True):
                assert t.tobytes() == lambda_transforms(f, grid, lam).tobytes(), (f, lam)
            rows, with_q = _level_rows(f, alpha_population(f))
            at_q = _transforms_of_parts(rows.fx[0], rows.left[0], rows.jump[0], LAMBDA_GRID)
            for lam, t, keeps_q in zip(LAMBDA_GRID, at_q, with_q.T, strict=True):
                ref = lambda_transforms(f, rows.lo, lam)
                assert t.tobytes() == ref.tobytes(), (f, lam)
                assert np.array_equal(keeps_q, ref <= rows.a)


# -- the checks that read the suite's one level table and the attained ends ----------


def cross_checked(f, trip):
    """What jump_set returns, or raises, with its cross-check run on ``trip``, a pair
    (jump points, level table) from ``jump_tables``."""
    _check_jump_round_trip(*trip)
    return [(j.x, j.mass) for j in f._jumps]


def assert_same_gap_checks(f) -> tuple:
    """The complement and round-trip checks on the sorted ends return what the set
    bodies return on the breakpoint construction of the attained values; both values."""
    ends, attained = _attained_ends(f), attained_by_breakpoint(f)
    results = []
    for got, ref in (
        (checks._check_jump_gaps(f, ends), jump_gaps_by_set(f, attained)),
        (checks._check_phi_roundtrip(f, ends), phi_roundtrip_by_set(f, attained)),
    ):
        assert same_result(got, ref), (f, got, ref)
        results.append(ref)
    return tuple(results)


def test_checks_on_the_suite_tables_equal_the_bodies_that_built_their_own(population, fb, fm, fu):
    # the one level table sliced into the rows, the jump levels and jump_set's levels
    # holds, column for column, the tables each would get from a pass of its own; the
    # law of the transform off a table is the totals that build their own, for the law
    # F and another; the gap checks on the sorted ends are the set bodies; and the
    # cross-check on the sliced table is jump_set's scan.  Bit for bit, or the same
    # exception, on the population, the canonical and defect laws and mixed(2000)
    laws = [*population, fb, fm, fu, *DEFECT_LAWS, mixed(2000)]
    failed = set()
    with np.errstate(over="ignore", invalid="ignore"):  # the span that overflows
        for n, f in enumerate(laws):
            points, levels = _jump_round_trip_levels(f)
            alphas = np.array(alpha_population(f))
            rows, _, at_jumps, trip = _level_rows(f, alphas, _jump_columns(f)[2], levels)
            for table, a in ((rows, alphas), (at_jumps, _jump_columns(f)[2]), (trip, levels)):
                assert [c.tobytes() for c in table] == [c.tobytes() for c in _level_ends(f, a)], f
            for g in (f, laws[n - 1]):
                ref = transform_cdf_totals_by_own_table(f, g, alphas)
                assert _transform_cdf_totals(f, g, alphas).tobytes() == ref.tobytes(), (f, g)
            assert _transform_cdf_totals_of(rows).tobytes() == transform_cdf_totals_by_own_table(f, f, alphas).tobytes()
            assert outcome(cross_checked, f, (points, trip)) == outcome(jump_set_by_scan, f)
            for ref in assert_same_gap_checks(f):
                if not ref.passed:
                    failed.add((ref.name, ref.detail.split(":")[0]))
    # the sub-ulp atom's second gap holds no float; mixed(2000)'s round trip misses by 1.142e-12
    assert failed == {("jump_gap_roundtrip", "raised AlphaNotInJumpInterval"), ("jump_gap_roundtrip", "")}


def test_checks_on_the_suite_tables_equal_the_bodies_that_built_their_own_on_wrong_inputs(small_population, fb, fm, fu):
    # jump rows whose gaps are moved to random ends (empty, touching and overlapping
    # ones among them); rows with a copy of part of the first gap put after it, or
    # with the first gap split into two parts that overlap, which still merge to the
    # complement of the attained values; and rows whose points are moved to the next
    # jump's point: the gap checks return what the set bodies return, and the jump
    # characterization on the sliced table reports what it reports with jump_set's scan
    rng = np.random.default_rng(73)
    seen = Counter()
    gap_law = sd.Cdf(xs=(0.0, 1.0), atoms=(0.5, 0.5), rises=(0.0,))
    first, second = gap_law._jumps
    hand_made = [
        with_rows(gap_law, (first._replace(hi=0.6), second._replace(lo=0.4))),
        with_rows(gap_law, (first, _Jump(0.5, 0.25, 0.5, 0.25), second)),
        with_rows(gap_law, (first._replace(hi=0.3), first._replace(lo=0.2), second)),
        # a gap one float below the attained level 0.5 with a mass too small to leave
        # its left end: every output is moved up one float, onto {0.5}
        with_rows(gap_law, (_Jump(0.0, math.nextafter(0.5, 0.0), 0.75, 1e-300), second)),
    ]
    got = [tuple((r.value, r.detail) for r in assert_same_gap_checks(g)) for g in hand_made]
    assert [complement for complement, _ in got] == [(2.0, ""), (1.0, ""), (1.0, ""), (2.0, "")]
    assert got[3][1] == (9.0, "output hit an attained level")
    for f in (fb, fm, fu, *DEFECT_LAWS[2:], *SUB_ULP_CASES, *small_population[:10]):
        if not f._jumps:
            continue
        complement, roundtrip = assert_same_gap_checks(moved_gaps(f, rng))
        seen["moved", complement.value > 1, roundtrip.detail.split(":")[0]] += 1
        x, lo, hi, mass = f._jumps[0]
        inner = _Jump(x, lo + 0.25 * (hi - lo), hi, mass)
        if lo < inner.lo < hi:
            complement, _ = assert_same_gap_checks(with_rows(f, (f._jumps[0], inner, *f._jumps[1:])))
            seen["copied", complement.value] += 1
            split = (f._jumps[0]._replace(hi=lo + 0.6 * (hi - lo)), inner._replace(lo=lo + 0.4 * (hi - lo)))
            complement, _ = assert_same_gap_checks(with_rows(f, (*split, *f._jumps[1:])))
            seen["split", complement.value] += 1
        points = [j.x for j in f._jumps]
        shifted = with_rows(f, (j._replace(x=x) for j, x in zip(f._jumps, points[1:] + points[:1])))
        ref = jump_characterization_by_row(shifted, [])
        assert same_result(jump_characterization(shifted, _level_rows(shifted, [])[0]), ref)
        seen["shifted", ref.detail.startswith("raised ValidationError")] += 1
    # gaps moved onto each other (an overlap beside the mismatch), outputs that hit
    # attained levels and gaps without a float; each copy counts its one overlap alone;
    # moved points fail the round trip
    moved = Counter()
    for key, n in seen.items():
        if key[0] == "moved":
            moved[key[1]] += n
            moved[key[2]] += n
    assert moved[True] > 5 and moved["output hit an attained level"] > 3 and moved["raised AlphaNotInJumpInterval"] > 3
    assert seen["copied", 1.0] > 10 and seen["split", 1.0] > 10
    assert not any(key[0] in ("copied", "split") and key[1] != 1.0 for key in seen)
    assert seen["shifted", True] > 5
