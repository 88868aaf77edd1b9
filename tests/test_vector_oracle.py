"""Differential tests: each array pass against the scalar loop it replaced.

The scalar functions (``empirical_joint_cdf``, ``sklar_compose``,
``lambda_transform``, ``RealSet.contains``, ``value``, ``left_value``,
``jump``) and the loop bodies and kernels kept below are the reference; the
array forms must agree bit for bit.
"""

import bisect
import dataclasses
import itertools
import math
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

import stepdist as sd
from stepdist import cdf, checks, copula, monotone, stochastic, transform
from stepdist.checks import (
    LAMBDA_GRID,
    _check_halfline_sets,
    _check_sublevel_union,
    _grid_parts,
    _level_rows,
    alpha_population,
    default_copula_grid,
    probe_grid,
)
from stepdist.cdf import (
    _flat_ends,
    _jump_columns,
    _left_quantiles,
    _raise_to_level,
    _right_quantile_unchecked,
    left_quantile,
    level_set,
    normalize,
    quantile_pair,
    right_quantile,
)
from stepdist.copula import (
    CopulaSpec,
    dt_copula,
    empirical_joint_cdf,
    generate_joint_sample,
    sklar_compose,
    sklar_identity_check,
)
from stepdist.measure import measure_level_set, measure_set, measure_value_level
from stepdist.realset import Interval, RealSet
from stepdist.stochastic import (
    SeededStream,
    distributional_transform,
    inversion_check,
    ks_uniformity,
    sample_inverse,
    transform_cdf_exact,
)
from stepdist.transform import (
    inversion_null_set,
    invert_transform,
    lambda_transform,
    lambda_transforms,
    sublevel_decomposition,
)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


# -- the point-by-point loops -------------------------------------------------


def sklar_by_point(sample, c_hat, axes) -> float:
    worst = 0.0
    for x in itertools.product(*axes):
        lhs = empirical_joint_cdf(sample, x)
        rhs = sklar_compose(c_hat, sample.marginals, x)
        worst = max(worst, abs(lhs - rhs))
    return worst


def halfline_by_point(f, alphas) -> int:
    grid = probe_grid(f)
    bad = 0
    for a in alphas:
        xi = left_quantile(f, a)
        for x in grid:
            if (f.value(x) >= a) != (x >= xi):
                bad += 1
            if (f.value(x) < a) != (x < xi):
                bad += 1
    return bad


def sublevel_by_point(f, alphas) -> int:
    grid = probe_grid(f)
    bad = 0
    for a in alphas:
        for lam in LAMBDA_GRID:
            beyond, at, below = sublevel_decomposition(f, lam, a)
            if not beyond.intersect(at).is_empty() or not at.intersect(below).is_empty():
                bad += 1
            if not beyond.intersect(below).is_empty():
                bad += 1
            union = beyond.union(at).union(below)
            for x in grid:
                if (lambda_transform(f, x, lam) <= a) != union.contains(x):
                    bad += 1
    return bad


# -- the Sklar identity -------------------------------------------------------


class TestSklarIdentity:
    def assert_same(self, sample, c_hat, axes):
        assert bits(sklar_identity_check(sample, c_hat, axes)) == bits(sklar_by_point(sample, c_hat, axes))

    @pytest.mark.parametrize("dep", ["independent", "comonotone"])
    def test_criterion_6_pairs(self, fb, fm, fu, dep):
        for pair in ((fb, fb), (fm, fu), (fb, fm)):
            sample = generate_joint_sample(pair, dep, 20_000, seed=42)
            c_hat = dt_copula(sample, SeededStream(42, 2))
            self.assert_same(sample, c_hat, default_copula_grid(pair))

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_triples(self, seed):
        rng = np.random.default_rng([seed, 3])
        triple = tuple(sd.random_cdf(rng, 3, 2, 1) for _ in range(3))
        axes = default_copula_grid(triple)
        for dep in ("independent", "comonotone"):
            sample = generate_joint_sample(triple, dep, 2_000, seed=seed)
            c_hat = dt_copula(sample, SeededStream(seed, 3))
            self.assert_same(sample, c_hat, axes)
            for analytic in (CopulaSpec.independence(3), CopulaSpec.comonotone(3)):
                self.assert_same(sample, analytic, axes)

    def test_infinite_coordinates(self, fb, fm, fu):
        triple = (fb, fm, fu)
        sample = generate_joint_sample(triple, "independent", 5_000, seed=9)
        c_hat = dt_copula(sample, SeededStream(9, 3))
        axis = (-math.inf, -0.5, 0.0, 0.5, 0.75, 1.0, math.inf)
        self.assert_same(sample, c_hat, (axis, axis, axis))

    def test_countermonotone_and_other_row_count(self, fm, fu):
        sample = generate_joint_sample((fm, fu), "countermonotone", 3_000, seed=5)
        axes = default_copula_grid((fm, fu))
        self.assert_same(sample, CopulaSpec.countermonotone(), axes)
        # a copula estimated from a different number of rows than the sample
        other = generate_joint_sample((fm, fu), "independent", 1_234, seed=6)
        self.assert_same(sample, dt_copula(other, SeededStream(6, 2)), axes)
        # unsorted axes with repeats and infinite coordinates
        axes = ((math.inf, 0.75, -math.inf, 0.25, 0.75, 0.5), (0.5, -math.inf, 0.0, 1.0, 0.5))
        for cop in (dt_copula(sample, SeededStream(5, 2)), CopulaSpec.countermonotone()):
            self.assert_same(sample, cop, axes)

    def test_unsorted_and_repeated_axis_values(self, fb, fm, fu):
        rng = np.random.default_rng(12)
        triple = (fb, fm, fu)
        sample = generate_joint_sample(triple, "comonotone", 2_000, seed=11)
        c_hat = dt_copula(sample, SeededStream(11, 3))
        base = rng.uniform(-0.5, 1.5, size=6)
        axes = (
            rng.permutation(np.concatenate([base, base[:3], [0.0, 0.5, 1.0, 0.5]])),
            (1.0, 0.25, 1.0, -0.25, 0.5, 0.25),
            rng.permutation(np.concatenate([base, [math.inf, -math.inf, math.inf]])),
        )
        for cop in (c_hat, CopulaSpec.independence(3), CopulaSpec.comonotone(3)):
            self.assert_same(sample, cop, axes)
        # one value per axis, and axes of different lengths
        self.assert_same(sample, c_hat, ([0.5], [0.25], [0.75]))
        self.assert_same(sample, c_hat, ([0.5, 0.5], [math.inf], rng.uniform(0, 1, 40)))


# -- the half-line and sublevel checks ---------------------------------------


def halfline_by_level(f, rows, grid, parts) -> int:
    """The half-line check's body before prefix counts: the whole grid once per level."""
    fx = parts[0]
    bad = 0
    for a in rows.a.tolist():
        xi = left_quantile(f, a)
        bad += int(np.count_nonzero((fx >= a) != (grid >= xi)))
        bad += int(np.count_nonzero((fx < a) != (grid < xi)))
    return bad


def per_weight(row) -> list:
    """A row's sublevel splits as one ``(lam, (beyond, at, below))`` pair per weight,
    in grid order: ``at`` is the row's {q} at the weights of its ``with_q``, else empty."""
    *_, beyond, point, below, with_q = row
    return [(lam, (beyond, point if lam in with_q else RealSet.empty(), below)) for lam in LAMBDA_GRID]


def sublevel_by_level(f, rows, grid, parts) -> int:
    """The sublevel check's body before prefix counts, on rows of sets: each union
    over the whole grid, and every set operation once per weight."""
    transforms = dict(zip(LAMBDA_GRID, parts[3]))
    bad = 0
    for row in rows:
        a = row[0]
        for lam, (beyond, at, below) in per_weight(row):
            if not beyond.intersect(at).is_empty() or not at.intersect(below).is_empty():
                bad += 1
            if not beyond.intersect(below).is_empty():
                bad += 1
            union = beyond.union(at).union(below)
            member = transforms[lam] <= a
            bad += int(np.count_nonzero(member != union.contains_many(grid)))
    return bad


def decimal_uniforms(rng, count):
    """Uniform laws on [x0, x1] with three-decimal endpoints.  Their ramp solves
    can land a few floats above the least float reaching the level, so the
    half-line and sublevel checks count mismatches on many of them."""
    out = []
    while len(out) < count:
        x0, x1 = np.round(np.sort(rng.uniform(-5.0, 5.0, 2)), 3).tolist()
        if x0 < x1:
            out.append(sd.Cdf(xs=(x0, x1), atoms=(0.0, 0.0), rises=(1.0,)))
    return out


# its left quantile at 0.5 is two floats above the least float with F >= 0.5
OVERSHOOTING_UNIFORM = sd.Cdf(xs=(-1.311, 0.756), atoms=(0.0, 0.0), rises=(1.0,))


def _check_population(small_population, fb, fm, fu):
    """The seeded laws, then laws whose quantile overshoot gives nonzero counts
    (until ROADMAP item 1 makes every left quantile the least float)."""
    return [*small_population, fb, fm, fu, OVERSHOOTING_UNIFORM, *decimal_uniforms(np.random.default_rng(31), 40)]


def suite_inputs(f):
    """The level table and ``with_q`` beside it, the probe grid and the grid's table, as
    ``analytic_checks`` builds them."""
    grid = probe_grid(f)
    return *_level_rows(f, alpha_population(f)), grid, _grid_parts(f, grid)


def evaluated(f, rows):
    """The level table with F, F(x-) and the jump taken again at its ends, as
    ``cdf._level_ends`` takes them: an end moved by ``_replace`` reaches every check
    with the values F has there."""
    fx, left, jump = f.value_parts(np.stack((rows.lo, rows.hi, rows.start)))
    return rows._replace(fx=fx, left=left, jump=jump)


def without_point(rows, with_q, tuples):
    """The columns and the rows of sets with {q} left out of every split: at a level
    that is not flat the union is then (-inf, q), whose count is off wherever q is on
    the grid."""
    return rows, np.zeros_like(with_q), [(*row[:7], ()) for row in tuples]


def started_below(f, rows, with_q, tuples, start):
    """The columns and the rows of sets with every flat piece starting at ``start(lo)``,
    left of lo: its level set and the part of its splits right of lo then reach into
    (-inf, lo), and that part holds lo."""
    moved = np.where(rows.flat, start(rows.lo), rows.start)
    out = []
    for (a, lo, hi, level, beyond, *rest), s in zip(tuples, moved.tolist(), strict=True):
        if not beyond.is_empty():
            level, beyond = (RealSet.of(dataclasses.replace(part.components[0], lo=s)) for part in (level, beyond))
        out.append((a, lo, hi, level, beyond, *rest))
    return evaluated(f, rows._replace(start=moved)), with_q, out


def widenings(f, rows, with_q, tuples):
    """Both forms of the rows with each flat piece starting one float, and half a unit,
    left of lo."""
    return [
        started_below(f, rows, with_q, tuples, lambda lo: np.nextafter(lo, -math.inf)),
        started_below(f, rows, with_q, tuples, lambda lo: lo - 0.5),
    ]


def test_halfline_counts(small_population, fb, fm, fu):
    nonzero = 0
    for f in _check_population(small_population, fb, fm, fu):
        alphas = alpha_population(f)
        rows, _, grid, parts = suite_inputs(f)
        res = _check_halfline_sets(f, rows, grid, parts)
        assert res.value == halfline_by_point(f, alphas) == halfline_by_level(f, rows, grid, parts)
        nonzero += res.value > 0
    rows, _, grid, parts = suite_inputs(OVERSHOOTING_UNIFORM)
    assert _check_halfline_sets(OVERSHOOTING_UNIFORM, rows, grid, parts).value == 2
    assert nonzero > 0


def test_halfline_check_reads_the_rows_left_quantiles(small_population, fm, monkeypatch):
    # the rows carry every left quantile: the check scans no level again,
    # neither with the scalar scan nor with the array kernel
    scans = Counter()

    def counted(name, inner):
        def run(*args):
            scans[name] += 1
            return inner(*args)

        return run

    for f in (fm, *small_population[:5], OVERSHOOTING_UNIFORM):
        rows, _, grid, parts = suite_inputs(f)
        expected = halfline_by_level(f, rows, grid, parts)
        with monkeypatch.context() as m:
            m.setattr(cdf, "_left_quantile_unchecked", counted("scalar", cdf._left_quantile_unchecked))
            m.setattr(checks, "_left_quantiles", counted("array", checks._left_quantiles))
            assert _check_halfline_sets(f, rows, grid, parts).value == expected
        assert not scans


def test_sublevel_counts(small_population, fb, fm, fu):
    # the scalar loop judges the laws up to OVERSHOOTING_UNIFORM, the loop over
    # the sets read off the columns the rest; there, leaving {q} out of the splits
    # gives nonzero counts that do not depend on the overshoot
    nonzero = holed_nonzero = 0
    for n, f in enumerate(_check_population(small_population, fb, fm, fu)):
        alphas = alpha_population(f)
        rows, with_q, grid, parts = suite_inputs(f)
        res = _check_sublevel_union(f, rows, with_q, grid, parts)
        nonzero += res.value > 0
        if n <= len(small_population) + 3:
            assert res.value == sublevel_by_point(f, alphas)
            continue
        tuples = sets_of(rows, with_q)
        assert res.value == sublevel_by_level(f, tuples, grid, parts)
        *holed, holed_tuples = without_point(rows, with_q, tuples)
        res = _check_sublevel_union(f, *holed, grid, parts)
        assert res.value == sublevel_by_level(f, holed_tuples, grid, parts)
        holed_nonzero += res.value > 0
    assert nonzero > 0 and holed_nonzero > 0


def reversed_table(parts):
    """The grid table with F and every transform reversed, so that none is in order."""
    fx, left, jump, ts = parts
    return fx[::-1], left, jump, tuple(t[::-1] for t in ts)


def test_counts_fall_back_where_the_prefix_argument_fails(small_population, fm):
    # F or the transform out of order on the grid: both checks compare point
    # by point, and so count what the element-wise bodies count
    for f in [fm, small_population[3], OVERSHOOTING_UNIFORM]:
        rows, with_q, grid, parts = suite_inputs(f)
        tuples = sets_of(rows, with_q)
        *holed, holed_tuples = without_point(rows, with_q, tuples)
        backwards = reversed_table(parts)
        got = _check_halfline_sets(f, rows, grid, backwards).value
        assert got == halfline_by_level(f, rows, grid, backwards) > 0
        got = _check_sublevel_union(f, rows, with_q, grid, backwards).value
        assert got == sublevel_by_level(f, tuples, grid, backwards) > 0
        # at a flat level, a split without {q} is not one left half-line
        if f.plateau_levels:
            assert any(len(beyond.union(below).components) == 2 for *_, beyond, _, below, _ in holed_tuples)
        for table in (parts, backwards):
            got = _check_sublevel_union(f, *holed, grid, table).value
            assert got == sublevel_by_level(f, holed_tuples, grid, table)
    assert _check_sublevel_union(fm, *suite_inputs(fm)).value == 0


def test_overlaps_count_once_per_weight(small_population, fm):
    # a flat piece that starts left of q overlaps (-inf, q) in the split of every
    # weight, and {q} in the split of every weight that keeps {q}.  Each weight
    # counts its overlap once, however many weights share the row's parts; the
    # unions are counted as the loop over rows of sets counts them
    shown = 0
    for f in [fm, *small_population[:5]]:
        rows, with_q, grid, parts = suite_inputs(f)
        tuples = sets_of(rows, with_q)
        assert any(0 < n < len(LAMBDA_GRID) for n in with_q.sum(axis=1))
        overlaps = int((rows.flat * (len(LAMBDA_GRID) + with_q.sum(axis=1))).sum())
        assert (overlaps > 0) == bool(f.plateau_levels)
        for *widened, widened_tuples in widenings(f, rows, with_q, tuples):
            got = _check_sublevel_union(f, *widened, grid, parts).value
            assert got == sublevel_by_level(f, widened_tuples, grid, parts) >= overlaps
        shown += overlaps > 0
    assert shown > 1


# -- the level rows -----------------------------------------------------------


def rows_by_scalar_readers(f, alphas):
    """The rows of sets ``(a, lo, hi, level_set, beyond, point, below, with_q)`` as the
    scalar readers give them, level by level: the parts right of q and below q from
    the split at weight 1, {q} at the left quantile, and the weights whose split holds
    a nonempty ``at``."""
    rows = []
    for a in alphas:
        lo, hi = quantile_pair(f, a)
        beyond, _, below = sublevel_decomposition(f, 1.0, a)
        with_q = tuple(lam for lam in LAMBDA_GRID if not sublevel_decomposition(f, lam, a)[1].is_empty())
        rows.append((a, lo, hi, level_set(f, a), beyond, RealSet.point(lo), below, with_q))
    return rows


def sets_of(rows, with_q) -> list:
    """The sets read off the columns, one row of sets per level, in the form of
    ``rows_by_scalar_readers``."""
    out = []
    for a, lo, hi, flat, start, closed_end, attained, with_q in zip(*(c.tolist() for c in (*rows[:7], with_q))):
        point = RealSet.point(lo)
        empty = RealSet.empty()
        level = RealSet.of(Interval(start, hi, True, closed_end)) if flat else point if attained else empty
        beyond = RealSet.of(Interval(start, hi, False, closed_end)) if flat else empty
        below = RealSet.of(Interval.open(-math.inf, lo))
        out.append((a, lo, hi, level, beyond, point, below, tuple(itertools.compress(LAMBDA_GRID, with_q))))
    return out


def ends_by_scalar_readers(f, a) -> tuple:
    """At one level: the ends ``(lo, hi, flat, start, closed_end, attained)`` as the
    quantile pair, the flat table's rows (``flat_pieces``) and F(lo) give them; the
    level set's components as those ends give them ([start, hi] where the level is
    flat, {lo} where F(lo) equals the level, else none); and the level set the scalar
    reader returns.  Level 1, which the public readers reject, is read by the
    unchecked ones."""
    pair, level = (quantile_pair, level_set) if a < 1.0 else (cdf._quantile_pair_unchecked, cdf._level_set_unchecked)
    lo, hi = pair(f, a)
    run = flat_pieces(f).get(a)
    attained = f.value(lo) == a
    start, end, closed_end = (lo, lo, attained) if run is None else run
    ends = (lo, hi, run is not None, start, closed_end, attained)
    parts = [(start, end, True, closed_end)] if run is not None or attained else []
    return ends, parts, level(f, a)


# a span that overflows and a ramp narrower than the float grid; SUB_ULP_CASES
# holds the third float-resolution law, a sub-ulp atom, and rises too small to move F
FLOAT_RESOLUTION_LAWS = [
    sd.Cdf(xs=(-1e308, 1e308), atoms=(0.0, 0.0), rises=(1.0,)),
    sd.Cdf(xs=(1e15, 1e15 + 1.0), atoms=(0.0, 0.0), rises=(1.0,)),
]


def test_level_rows_are_array_passes_equal_to_the_scalar_readers(population, fb, fm, fu, monkeypatch, scan_once):
    # one array pass for the left quantiles, the transform at every weight formed
    # off the level table (no lambda_transforms call), and no scalar scan
    calls = Counter()

    def counted(m, module, name):
        inner = getattr(module, name, None)

        def run(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        m.setattr(module, name, run, raising=False)

    with monkeypatch.context() as m:
        for module in (checks, cdf):
            counted(m, module, "_left_quantiles")
        counted(m, checks, "lambda_transforms")
        for module in (cdf, transform):
            counted(m, module, "_left_quantile_unchecked")
        for f in (fm, population[3], OVERSHOOTING_UNIFORM):
            calls.clear()
            _level_rows(f, alpha_population(f))
            assert calls == {"_left_quantiles": 1}

    # bit for bit what the scalar readers return, whose scans scan_once caches
    rng = np.random.default_rng(37)
    functions = [
        *population,
        fb,
        fm,
        fu,
        *rescaled_functions(rng, 50),
        *decimal_uniforms(rng, 50),
        *FLOAT_RESOLUTION_LAWS,
        *SUB_ULP_CASES,
    ]
    with np.errstate(over="ignore", invalid="ignore"):  # the span that overflows
        for f in functions:
            alphas = alpha_population(f)
            rows, with_q = _level_rows(f, alphas)
            assert with_q.shape == (len(alphas), len(LAMBDA_GRID))
            # closed_end is whether F equals the level at hi, at every level
            assert np.array_equal(rows.closed_end, f.values(rows.hi) == rows.a)
            for got, ref in zip(sets_of(rows, with_q), rows_by_scalar_readers(f, alphas), strict=True):
                assert [bits(v) for v in got[:3]] == [bits(v) for v in ref[:3]]
                assert got[3:] == ref[3:]
                # every weight's split, read off the columns, is the scalar reader's
                assert per_weight(got) == [(lam, sublevel_decomposition(f, lam, got[0])) for lam in LAMBDA_GRID]
            # the ends cdf._level_ends reads, at these levels, every jump top and level 1,
            # are the quantile pair, the flat table's piece and the level set's ends and
            # closed flags, bit for bit, and F, F(x-) and the jump there are what one
            # value_parts search of the ends gives; the mass of each set below level 1
            # as the checks form it is what measure_value_level returns there
            levels = np.array([*alphas, *(j.hi for j in jump_rows(f)), 1.0])
            ends = cdf._level_ends(f, levels)
            assert ends.a is levels
            for got, ref in zip(ends[-3:], f.value_parts(np.stack((ends.lo, ends.hi, ends.start))), strict=True):
                assert got.shape == (3, levels.size) and got.tobytes() == ref.tobytes()
            for a, *got in zip(levels.tolist(), *(c.tolist() for c in ends[1:-3])):
                ref, parts, level = ends_by_scalar_readers(f, a)
                assert [bits(v) if isinstance(v, float) else v for v in got] == [
                    bits(v) if isinstance(v, float) else v for v in ref
                ]
                assert [tuple(map(bits, iv[:2])) + iv[2:] for iv in parts] == [
                    (bits(iv.lo), bits(iv.hi), iv.closed_lo, iv.closed_hi) for iv in level.components
                ]
            masses = 0.0 + checks._level_masses(ends)[1]
            below = levels < 1.0
            ref = [measure_value_level(f, a) for a in levels[below].tolist()]
            assert [bits(m) for m in masses[below].tolist()] == [bits(m) for m in ref]


# -- lambda_transforms and contains_many --------------------------------------


def test_lambda_transforms(small_population, fb, fm, fu):
    for f in _check_population(small_population, fb, fm, fu):
        grid = np.concatenate([probe_grid(f), [-math.inf, math.inf]])
        for lam in (0.0, 0.25, 0.3, 0.5, 0.7, 0.75, 1.0):  # every weight the sandwich check reads
            vec = lambda_transforms(f, grid, lam)
            ref = np.array([lambda_transform(f, x, lam) for x in grid])
            assert vec.tobytes() == ref.tobytes()


def test_invert_transform_equals_the_null_set_checks_pass(population, fb, fm, fu):
    # the null-set check inverts each weight's grid transforms t in (0, 1) in
    # one _left_quantiles pass; invert_transform returns the same float at every
    # such point.  No grid transform is NaN here, so none is left out of the pass
    rng = np.random.default_rng(41)
    functions = [
        *population,
        fb,
        fm,
        fu,
        *rescaled_functions(rng, 50),
        *decimal_uniforms(rng, 50),
        *FLOAT_RESOLUTION_LAWS,
        *SUB_ULP_CASES,
    ]
    pairs = 0
    with np.errstate(over="ignore", invalid="ignore"):  # the span that overflows
        for f in functions:
            grid = probe_grid(f)
            for lam in LAMBDA_GRID:
                t = lambda_transforms(f, grid, lam)
                assert not np.isnan(t).any()
                inside = (0.0 < t) & (t < 1.0)
                got = _left_quantiles(f, t[inside])
                ref = [invert_transform(f, x, lam) for x in grid[inside].tolist()]
                assert [bits(v) for v in got] == [bits(v) for v in ref]
                pairs += len(ref)
    assert pairs > 10 * len(functions)


def test_lambda_transforms_rejects_like_the_scalar(fb):
    with pytest.raises(sd.LambdaOutOfRange):
        lambda_transforms(fb, [0.0], 1.5)
    with pytest.raises(sd.ValidationError):
        lambda_transforms(fb, [0.0, math.nan], 0.5)


def test_contains_many():
    sets = [
        RealSet.of(Interval.open(-1.0, 2.0)),
        RealSet.of(Interval.closed(-1.0, 2.0)),
        RealSet.of(Interval.open_closed(0.0, 1.0), Interval.closed_open(3.0, 4.0)),
        RealSet.point(0.5),
        RealSet.of(Interval.open(-math.inf, 0.0), Interval.point(1.0), Interval(2.0, math.inf, True, False)),
        RealSet.reals(),
        RealSet.empty(),
    ]
    for s in sets:
        ends = [e for iv in s.components for e in (iv.lo, iv.hi)] + [0.0, -math.inf, math.inf]
        probes = np.array(
            [p for e in ends for p in (np.nextafter(e, -math.inf), e, np.nextafter(e, math.inf))]
        )
        got = s.contains_many(probes)
        assert got.dtype == bool
        assert got.tolist() == [s.contains(float(x)) for x in probes]


# -- one search per point set -------------------------------------------------
#
# The kernels below are the three-search forms the fused evaluation replaced:
# values with its own side="right" search, left_values searching twice and
# jumps once more.


def values_by_right_search(f, x):
    x = np.asarray(x, dtype=float)
    k = len(f.xs)
    if k == 0:
        return np.full(x.shape, f.base)
    xs = f._xs_arr
    idx = np.searchsorted(xs, x, side="right") - 1
    out = np.full(x.shape, f.base)
    last = idx >= k - 1
    out[last] = f._cums[k - 1]
    mid = (idx >= 0) & ~last
    i = idx[mid]
    frac = (x[mid] - xs[i]) / (xs[i + 1] - xs[i])
    out[mid] = f._cums[i] + f._rises_arr[i] * frac
    return out


def left_values_by_two_searches(f, x):
    x = np.asarray(x, dtype=float)
    out = values_by_right_search(f, x)
    k = len(f.xs)
    if k == 0:
        return out
    j = np.searchsorted(f._xs_arr, x, side="left")
    hit = (j < k) & (f._xs_arr[np.minimum(j, k - 1)] == x)
    out[hit] = f._lefts[j[hit]]
    return out


def jumps_by_left_search(f, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    k = len(f.xs)
    if k == 0:
        return out
    j = np.searchsorted(f._xs_arr, x, side="left")
    hit = (j < k) & (f._xs_arr[np.minimum(j, k - 1)] == x)
    out[hit] = f._atoms_arr[j[hit]]
    return out


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def eval_points(f) -> np.ndarray:
    """Every breakpoint, its float neighbours, segment midpoints, +-0.0 and +-inf."""
    xs = np.asarray(f.xs)
    mids = xs[:-1] + 0.5 * np.diff(xs) if xs.size > 1 else xs[:0]
    return np.concatenate(
        [xs, np.nextafter(xs, -math.inf), np.nextafter(xs, math.inf), mids, [0.0, -0.0, -math.inf, math.inf]]
    )


def eval_functions(population, fb, fm, fu):
    return list(population) + [
        fb,
        fm,
        fu,
        sd.point_mass(0.0),  # k = 1
        sd.point_mass(-2.5),
        sd.MonotoneStepLinear(xs=(), atoms=(), rises=(), base=0.25),  # k = 0
        sd.MonotoneStepLinear(xs=(-0.0, 1.0), atoms=(0.5, 0.25), rises=(0.125,), base=-0.5),
    ]


def test_fused_evaluation_matches_scalars_and_three_searches(population, fb, fm, fu):
    for f in eval_functions(population, fb, fm, fu):
        x = eval_points(f)
        fx, left, jump = f.value_parts(x)
        ref = (
            np.array([f.value(p) for p in x]),
            np.array([f.left_value(p) for p in x]),
            np.array([f.jump(p) for p in x]),
        )
        old = (values_by_right_search(f, x), left_values_by_two_searches(f, x), jumps_by_left_search(f, x))
        for got, scalar, three in zip((fx, left, jump), ref, old):
            assert same(got, scalar) and same(got, three)
        assert same(f.values(x), fx)
        assert same(f.left_values(x), left)
        assert same(f.jumps(x), jump)


@pytest.mark.parametrize("shape", [(0,), (0, 3), (), (2, 3), (3, 2, 1)])
def test_fused_evaluation_shapes_and_nan(fm, shape):
    for f in (fm, sd.point_mass(0.0), sd.MonotoneStepLinear(xs=(), atoms=(), rises=(), base=0.25)):
        pool = np.array([math.nan, 0.5, -0.0, math.inf, 0.25, -math.inf])
        x = np.resize(pool, shape)
        parts = f.value_parts(x)
        old = (values_by_right_search(f, x), left_values_by_two_searches(f, x), jumps_by_left_search(f, x))
        for got, three, single in zip(parts, old, (f.values(x), f.left_values(x), f.jumps(x))):
            assert same(got, three) and same(single, three)


# -- one search per scalar point ----------------------------------------------
#
# The bodies below are the three scalar kernels that the one-search triple
# replaced: value with its own bisect_right, left_value with a bisect_left
# that calls value (and searches again) off the breakpoints, and jump with
# one more bisect_left.


def value_by_right_bisect(f, x):
    x = float(x)
    if math.isnan(x):
        raise sd.ValidationError("evaluation point is NaN")
    xs = f.xs
    k = len(xs)
    if k == 0 or x < xs[0]:
        return f.base
    i = bisect.bisect_right(xs, x) - 1
    if i >= k - 1:
        return float(f._cums[k - 1])
    r = f.rises[i]
    c = float(f._cums[i])
    return c + r * ((x - xs[i]) / (xs[i + 1] - xs[i]))


def left_value_by_left_bisect(f, x):
    x = float(x)
    if math.isnan(x):
        raise sd.ValidationError("evaluation point is NaN")
    xs = f.xs
    if not xs or x <= xs[0]:
        return f.base
    i = bisect.bisect_left(xs, x)
    if i < len(xs) and xs[i] == x:
        return float(f._lefts[i])
    return value_by_right_bisect(f, x)


def jump_by_left_bisect(f, x):
    x = float(x)
    if math.isnan(x):
        raise sd.ValidationError("evaluation point is NaN")
    xs = f.xs
    i = bisect.bisect_left(xs, x)
    if i < len(xs) and xs[i] == x:
        return f.atoms[i]
    return 0.0


def scalar_points(f) -> list[float]:
    """The evaluation points, a point below the support and one above it."""
    ends = [f.xs[0] - 1.0, f.xs[-1] + 1.0] if f.xs else [-1.0, 1.0]
    return eval_points(f).tolist() + ends


def test_scalar_queries_match_the_three_kernels(population, fb, fm, fu):
    for f in eval_functions(population, fb, fm, fu):
        for x in scalar_points(f):
            for query, oracle in (
                (f.value, value_by_right_bisect),
                (f.left_value, left_value_by_left_bisect),
                (f.jump, jump_by_left_bisect),
            ):
                got, ref = query(x), oracle(f, x)
                assert type(got) is float and bits(got) == bits(ref), (query.__name__, x)


def test_scalar_queries_reject_nan(population, fb, fm, fu):
    for f in eval_functions(population[:3], fb, fm, fu):
        for query in (f.value, f.left_value, f.jump):
            with pytest.raises(sd.ValidationError, match="NaN"):
                query(math.nan)


def test_one_search_per_scalar_point(fm, monkeypatch):
    """Each scalar query, and each lambda_transform, searches the breakpoints once."""
    searches = []

    def counted(search):
        def run(*args, **kwargs):
            searches.append(search.__name__)
            return search(*args, **kwargs)

        return run

    monkeypatch.setattr(monotone, "bisect_right", counted(bisect.bisect_right))
    monkeypatch.setattr(monotone, "bisect_left", counted(bisect.bisect_left), raising=False)
    monkeypatch.setattr(np, "searchsorted", counted(np.searchsorted))
    queries = [fm.value, fm.left_value, fm.jump]
    queries += [lambda x, lam=lam: lambda_transform(fm, x, lam) for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
    for x in scalar_points(fm):
        for query in queries:
            searches.clear()
            query(x)
            # below the support the value is the base, found without a search
            assert searches == ([] if x < fm.xs[0] else ["bisect_right"]), x


# -- the ramp check of _left_quantiles -----------------------------------------


def left_quantiles_checked_by_values(f, a):
    """The kernel before the on-segment check: F(solved) from a fresh values() search.

    Also returns the mask of levels whose solve landed at or past its
    segment's right breakpoint x1; this kernel returned such a solve as is
    unless it was short.
    """
    cums = f._cums
    xs = f._xs_arr
    i = np.searchsorted(cums, a, side="left")
    out = np.empty(a.shape)
    first = i == 0
    out[first] = xs[0]
    rest = ~first
    ii = i[rest]
    av = a[rest]
    res = xs[ii].copy()
    interior = av < f._lefts[ii]
    ij = ii[interior] - 1
    x0 = xs[ij]
    ai = av[interior]
    solved = x0 + (ai - cums[ij]) / f._rises_arr[ij] * (xs[ij + 1] - x0)
    short = np.flatnonzero(f.values(solved) < ai)
    if short.size:
        solved[short] = _raise_to_level(f, solved[short], ai[short], xs[ij[short] + 1])
    reached = np.zeros(a.shape, dtype=bool)
    reached[np.flatnonzero(rest)[interior]] = x0 + (ai - cums[ij]) / f._rises_arr[ij] * (xs[ij + 1] - x0) >= xs[ij + 1]
    res[interior] = solved
    out[rest] = res
    return out, reached


def ramp_levels(f, rng) -> np.ndarray:
    """Uniform levels plus, on every rising segment, levels at both ends of its range."""
    rising = np.flatnonzero(f._rises_arr > 0.0)
    lo = f._cums[rising]
    hi = f._lefts[rising + 1]
    ends = [np.nextafter(lo, math.inf), np.nextafter(hi, -math.inf), np.nextafter(np.nextafter(hi, -1), -1)]
    a = np.concatenate([rng.random(200), *ends, lo + 0.5 * (hi - lo)])
    return a[(a > 0.0) & (a < 1.0)]


def test_on_segment_check_equals_values(population, fb, fm, fu):
    # on x0 <= x < x1 the expression _left_quantiles evaluates is values() there
    for f in [*population, fb, fm, fu]:
        xs = f._xs_arr
        for i in np.flatnonzero(f._rises_arr > 0.0):
            x0, x1 = xs[i], xs[i + 1]
            pts = np.concatenate([np.linspace(x0, x1, 17)[:-1], [np.nextafter(x1, -math.inf)]])
            on_segment = f._cums[i] + f._rises_arr[i] * ((pts - x0) / (x1 - x0))
            assert same(on_segment, f.values(pts))


def rescaled_functions(rng, count):
    """Small functions rescaled by normalize: their stored left limits come from
    division, not from summing the ramp, so a solve can land past x1 while the
    on-segment expression there is still below the level."""
    return list(map(normalize, rescaled_sources(rng, count)))


def rescaled_sources(rng, count):
    """The functions ``rescaled_functions`` normalizes: 2 or 3 breakpoints, masses
    and base rounded to 3 decimals."""
    out = []
    while len(out) < count:
        k = int(rng.integers(2, 4))
        xs = np.round(np.sort(rng.uniform(-5.0, 5.0, k)), 3)
        if len(np.unique(xs)) < k:
            continue
        atoms = np.where(rng.random(k) < 0.5, np.round(rng.uniform(0.0, 1.0, k), 3), 0.0)
        rises = np.round(rng.uniform(0.01, 1.0, k - 1), 3)
        base = float(np.round(rng.uniform(-3.0, 3.0), 3))
        out.append(sd.MonotoneStepLinear(xs=xs, atoms=atoms, rises=rises, base=base))
    return out


def least_reaching(f, x, a) -> bool:
    """Each x_i is the least float with F(x_i) >= a_i."""
    return bool((f.values(x) >= a).all() and (f.values(np.nextafter(x, -math.inf)) < a).all())


def test_left_quantiles_match_values_checked_kernel(population, fb, fm, fu):
    rng = np.random.default_rng(11)
    past = 0
    for f in [*population, fb, fm, fu, *rescaled_functions(rng, 300)]:
        a = ramp_levels(f, rng)
        ref, reached = left_quantiles_checked_by_values(f, a)
        got = _left_quantiles(f, a)
        # a solve that reached x1 is corrected from x0 now: the least float, not the solve
        assert same(got[~reached], ref[~reached])
        assert least_reaching(f, got[reached], a[reached])
        past += int(reached.sum())
    assert past > 0  # some solves reached their right breakpoint


def test_one_search_per_point_set(fm, monkeypatch):
    """Sampling, the transform and the inversion check search each n-point set once."""
    n = 4000
    sizes = []
    search = np.searchsorted

    def counted(a, v, *args, **kwargs):
        sizes.append(np.size(v))
        return search(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    stream = SeededStream(3)
    draws = sample_inverse(fm, stream, n)
    distributional_transform(fm, draws, stream.child(1), x_stream=stream)
    rep = inversion_check(fm, stream.child(2), n)
    assert rep.shortcut_failures == 0  # the shortcut branch ran: its levels were searched too
    full = [s for s in sizes if s > n // 2]
    assert len(full) == 6  # sample 1, transform 1, inversion check 4 (sample, F, two quantile passes)


def test_one_transform_kernel_call_per_point_set(fm, monkeypatch):
    """The distributional transform, its inversion check and the copula transform
    each form F(x-) + v * jump(x) in the one kernel, once per point set (per column
    for the copula), and call value_parts nowhere else."""
    kernel_sizes = []
    evaluations = []
    kernel = transform._transform_parts
    parts = monotone.MonotoneStepLinear.value_parts

    def counted_kernel(f, x, v):
        kernel_sizes.append(np.size(x))
        return kernel(f, x, v)

    def counted_parts(self, x):
        evaluations.append(np.size(x))
        return parts(self, x)

    monkeypatch.setattr(stochastic, "_transform_parts", counted_kernel)
    monkeypatch.setattr(copula, "_transform_parts", counted_kernel)
    monkeypatch.setattr(monotone.MonotoneStepLinear, "value_parts", counted_parts)
    stream = SeededStream(3)
    draws = sample_inverse(fm, stream, 600)
    for run, expected in (
        (lambda: distributional_transform(fm, draws.reshape(20, 30), stream.child(1)), [600]),
        (lambda: inversion_check(fm, stream.child(2), 400), [400]),
        (
            lambda: dt_copula(
                generate_joint_sample((fm, sd.bernoulli_half(), fm), "independent", 300, seed=5),
                SeededStream(5, 3),
            ),
            [300, 300, 300],
        ),
    ):
        kernel_sizes.clear()
        evaluations.clear()
        run()
        assert kernel_sizes == expected
        assert evaluations == expected


# -- sampling in level order ----------------------------------------------------
#
# The bodies below are the unsorted forms of sample_inverse,
# distributional_transform and inversion_check that the level-order kernels
# replaced: each searched its keys in the order the streams drew them.


def sample_unsorted(f, stream, n):
    return _left_quantiles(f, stream.uniforms(n))


def transform_unsorted(f, xs, v_stream):
    xs = np.asarray(xs, dtype=float)
    v = v_stream.uniforms(xs.size).reshape(xs.shape)
    _, left, jump = f.value_parts(xs)
    return left + v * jump


def inversion_unsorted(f, stream, n):
    xs = sample_unsorted(f, stream, n)
    fx, left, jump = f.value_parts(xs)
    u = left + stream.child(1).uniforms(n) * jump
    del left, jump
    back = _left_quantiles(f, u)
    failures = int((np.abs(back - xs) > stochastic.INVERSION_TOL).sum())

    z1 = cdf._left_quantile_unchecked(f, 1.0)
    shortcut_failures = None
    if f.jump(z1) == 0.0:
        ok = (fx > 0.0) & (fx < 1.0)
        bad = int((~ok).sum())
        back2 = _left_quantiles(f, fx[ok])
        bad += int((np.abs(back2 - xs[ok]) > stochastic.INVERSION_TOL).sum())
        shortcut_failures = bad
    return stochastic.InversionReport(
        failures=failures, shortcut_failures=shortcut_failures, n=int(n), seed=stream.seed, stream_id=stream.stream_id
    )


@pytest.fixture(scope="module")
def large():
    """A normalized k = 20,000 function: 30 % of breakpoints carry an atom, 25 % of segments are flat."""
    rng = np.random.default_rng([1, 0, 2])
    k = 20_000
    xs = rng.uniform(1.0, 11.0) + np.cumsum(rng.uniform(0.01, 1.0, size=k))
    atoms = np.where(rng.random(k) < 0.3, rng.uniform(0.05, 1.0, size=k), 0.0)
    rises = np.where(rng.random(k - 1) < 0.25, 0.0, rng.uniform(0.05, 1.0, size=k - 1))
    return normalize(sd.MonotoneStepLinear(xs=xs, atoms=atoms, rises=rises))


def recorded_search_keys(monkeypatch) -> list:
    """A list that receives a copy of the keys of every np.searchsorted call."""
    keys = []
    search = np.searchsorted

    def recorded(a, v, *args, **kwargs):
        keys.append(np.array(v, dtype=float).ravel())
        return search(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", recorded)
    return keys


def bit_multiset(a) -> bytes:
    """The bit patterns of a's elements, in an order that does not depend on a's."""
    return np.sort(np.asarray(a, dtype=float).ravel().view(np.int64)).tobytes()


def test_level_order_matches_unsorted_bodies(population, fb, fm, fu, large, monkeypatch):
    keys = recorded_search_keys(monkeypatch)
    tol = stochastic.INVERSION_TOL
    exact_misses = 0
    for j, f in enumerate([*population, fb, fm, fu, large]):
        n = 100_000 if f is large else 2_000
        x_stream, v_stream, i_stream = SeededStream(j, 0), SeededStream(j, 1), SeededStream(j, 2)
        draws = sample_inverse(f, x_stream, n)
        assert same(draws, sample_unsorted(f, x_stream, n))
        us = distributional_transform(f, draws, v_stream, x_stream=x_stream)
        assert same(us, transform_unsorted(f, draws, v_stream))
        # with no tolerance the counts see every round trip that is off by an ulp
        for t in (tol, 0.0):
            monkeypatch.setattr(stochastic, "INVERSION_TOL", t)
            keys.clear()
            rep = inversion_check(f, i_stream, n)
            searched = [bit_multiset(k) for k in keys if k.size > n // 2]
            keys.clear()
            assert rep == inversion_unsorted(f, i_stream, n)
            # the same keys reach each full-size search, only in another order
            assert searched == [bit_multiset(k) for k in keys if k.size > n // 2]
        exact_misses += rep.failures
    assert exact_misses > 0


def test_transform_of_any_shape_and_order_matches_unsorted(fb, fm, large):
    rng = np.random.default_rng(5)
    v_stream = SeededStream(8, 1)
    for f in (fb, fm, large):
        draws = sample_inverse(f, SeededStream(8, 0), 3_000)
        ties = rng.permutation(np.resize(np.asarray(f.jump_points), 3_000))
        inputs = [
            np.empty(0),
            np.empty((0, 3)),
            np.asarray(draws[0]),
            draws[:6].reshape(2, 3),
            draws[:24].reshape(2, 3, 4),
            draws[:24].reshape(4, 6).T,
            ties,
            np.array([-math.inf, math.inf, *draws[:5], -math.inf, math.inf]),
            np.sort(draws),
            np.sort(draws)[::-1],
            rng.permutation(draws),
        ]
        for xs in inputs:
            assert same(distributional_transform(f, xs, v_stream), transform_unsorted(f, xs, v_stream))


def test_sampling_searches_keys_in_level_order(fm, large, monkeypatch):
    keys = recorded_search_keys(monkeypatch)
    n = 20_000
    for f in (fm, large):
        keys.clear()
        draws = sample_inverse(f, SeededStream(4, 0), n)
        full = [k for k in keys if k.size > n // 2]
        assert len(full) == 1 and (np.diff(full[0]) >= 0.0).all()
        keys.clear()
        distributional_transform(f, draws, SeededStream(4, 1))
        assert len(keys) == 1 and (np.diff(keys[0]) >= 0.0).all()
        keys.clear()
        inversion_check(f, SeededStream(4, 2), n)
        full = [k for k in keys if k.size > n // 2]
        assert len(full) >= 3  # the sample, F at the draws, the transform's quantiles
        assert all((np.diff(k) >= 0.0).all() for k in full[:2])


# -- construction: the profile and the flat runs -------------------------------


def profile_by_loop(g):
    k = len(g.xs)
    lefts = np.empty(k)
    cums = np.empty(k)
    running = g.base
    for i in range(k):
        if i > 0:
            running = running + g.rises[i - 1]
        lefts[i] = running
        running = running + g.atoms[i]
        cums[i] = running
    return lefts, cums


def flat_runs_by_loop(f):
    k = len(f.xs)
    runs = []
    i = 0
    while i < k - 1:
        if f.rises[i] != 0.0:
            i += 1
            continue
        s = i
        m = i + 1
        while m < k - 1 and f.atoms[m] == 0.0 and f.rises[m] == 0.0:
            m += 1
        level = float(f._cums[s])
        if level < 1.0:
            runs.append((level, f.xs[s], f.xs[m], f.atoms[m] == 0.0))
        i = m
    return runs


def random_function(rng, k, atom_share, flat_share):
    xs = rng.uniform(-10.0, 10.0) + np.cumsum(rng.uniform(1e-3, 1.0, size=k))
    atoms = np.where(rng.random(k) < atom_share, rng.uniform(0.0, 1.0, size=k), 0.0)
    rises = np.where(rng.random(k - 1) < flat_share, 0.0, rng.uniform(0.0, 1.0, size=k - 1))
    if atoms.sum() + rises.sum() == 0.0:
        atoms[-1] = 1.0
    return sd.MonotoneStepLinear(xs=xs, atoms=atoms, rises=rises, base=float(rng.uniform(-1.0, 1.0)))


def flat_pieces(f) -> dict:
    """The flat table as rows keyed by level, read off its index array by a loop:
    ``F(x_i): (x_i, x_e, F(x_e) == F(x_i))`` for every entry i whose end e lies past i."""
    cums = f._cums.tolist()
    return {cums[i]: (f.xs[i], f.xs[e], cums[e] == cums[i]) for i, e in enumerate(_flat_ends(f).tolist()) if e > i}


def flat_runs_by_stored_values(f) -> list:
    """The earlier builder of the flat table, as rows ``(level, lo, hi, closed_end)``:
    a loop over the segments with F(x_{i+1}-) == F(x_i), joined at x_i unless
    F(x_i) > F(x_{i-1}), with the piece at level 1 dropped.  Unlike
    ``flat_runs_by_loop`` it reads the stored values, not the declared masses, so it
    also judges the sub-ulp laws."""
    cums, lefts = f._cums.tolist(), f._lefts.tolist()
    spans = []
    for i in range(len(cums) - 1):
        if cums[i] == lefts[i + 1]:
            if spans and spans[-1][1] == i and cums[i] == cums[i - 1]:
                spans[-1][1] = i + 1
            else:
                spans.append([i, i + 1])
    return [(cums[s], f.xs[s], f.xs[m], cums[m] == cums[s]) for s, m in spans if cums[s] != 1.0]


def flat_table_rows(f) -> str:
    return repr([(level, *run) for level, run in flat_pieces(f).items()])


def test_profile_and_flat_runs_match_loops(fb, fm, fu):
    rng = np.random.default_rng(5)
    sizes = [1, 2, 3, 4, 10, 5000, *rng.integers(1, 5001, size=34)]
    shares = [(0.0, 0.0), (0.3, 0.25), (0.05, 0.9), (0.9, 1.0), (0.5, 0.5)]
    for n, k in enumerate(sizes):
        g = random_function(rng, int(k), *shares[n % len(shares)])
        lefts, cums = profile_by_loop(g)
        assert same(g._lefts, lefts) and same(g._cums, cums)
        f = normalize(g)
        assert flat_table_rows(f) == repr(flat_runs_by_loop(f))
    for f in (fb, fm, fu, sd.point_mass(1.0), sd.Cdf(xs=(0.0, 1.0, 2.0), atoms=(0.0, 0.0, 0.5), rises=(0.0, 0.5))):
        assert flat_table_rows(f) == repr(flat_runs_by_loop(f))


# -- the right quantile: flat-piece end or left quantile ------------------------


def right_quantile_by_scan(f, a):
    """The right kernel before the flat-piece table: its own scan, solve and check.

    Also returns whether its ramp solve landed at or past the segment's right
    breakpoint x1; this kernel returned such a solve as is unless it was short.
    """
    cums = f._cums
    j = int(np.searchsorted(cums, a, side="right"))
    if j == 0:
        return f.xs[0], False
    if a >= float(f._lefts[j]):
        return f.xs[j], False
    c0 = float(cums[j - 1])
    if a == c0:
        return f.xs[j - 1], False
    x0, x1 = f.xs[j - 1], f.xs[j]
    x = x0 + (a - c0) / f.rises[j - 1] * (x1 - x0)
    reached = x >= x1
    if f.value(x) < a:
        x = float(_raise_to_level(f, np.array([x]), np.array([a]), np.array([x1]))[0])
    return x, reached


def stored_levels(f) -> list[float]:
    """Every stored breakpoint value and its float neighbours in (0, 1)."""
    v = np.concatenate([f._cums, f._lefts])
    v = np.unique(np.concatenate([v, np.nextafter(v, -1.0), np.nextafter(v, 2.0)]))
    return v[(v > 0.0) & (v < 1.0)].tolist()


def test_right_quantiles_match_scanning_kernel(population, fb, fm, fu):
    reached_x1 = 0
    for f in [*population, fb, fm, fu, *rescaled_functions(np.random.default_rng(12), 300)]:
        for a in stored_levels(f):
            ref, reached = right_quantile_by_scan(f, a)
            lo, hi = quantile_pair(f, a)
            got = right_quantile(f, a)
            assert bits(hi) == bits(got)
            if reached:  # corrected from x0 now: the least float reaching the level
                reached_x1 += 1
                assert lo == hi and least_reaching(f, np.array([got]), np.array([a]))
            else:
                assert bits(got) == bits(ref)
        # level 0: the right end of {F = 0}, which bounds the null set's zero set
        t0, _ = right_quantile_by_scan(f, 0.0)
        zero = Interval(-math.inf, t0, False, f.value(t0) == 0.0)
        assert bits(_right_quantile_unchecked(f, 0.0)) == bits(t0)
        assert repr(inversion_null_set(f, 1.0).zero_set) == repr(RealSet.of(zero))
    assert reached_x1 > 0


# an atom or a rise too small to move F in floats leaves F flat across it
SUB_ULP_CASES = [
    sd.Cdf(xs=(0.0, 1.0, 2.0, 3.0), atoms=(0.5, 1e-300, 0.0, 0.5), rises=(0.0, 0.0, 0.0)),
    sd.Cdf(xs=(0.0, 1.0, 2.0, 3.0), atoms=(0.5, 0.0, 0.0, 0.5), rises=(0.0, 1e-20, 0.0)),
    sd.Cdf(xs=(0.0, 1.0, 2.0, 3.0), atoms=(0.25, 0.0, 0.0, 0.0), rises=(0.25, 1e-20, 0.5)),
    sd.Cdf(xs=(0.0, 1.0, 2.0), atoms=(0.5, 0.0, 0.0), rises=(1e-300, 0.5)),
    sd.Cdf(xs=(0.0, 1.0, 2.0, 3.0), atoms=(0.25, 0.0, 0.25, 0.0), rises=(0.25, 1e-20, 0.25)),
]


def test_flat_table_is_read_off_stored_values():
    # one flat piece across the tiny atom or rise, whose end is where the
    # scanning kernel put the right quantile, and the rows of the earlier builder
    for f in SUB_ULP_CASES:
        for a in stored_levels(f):
            assert bits(right_quantile(f, a)) == bits(right_quantile_by_scan(f, a)[0])
        flat = [a for a in stored_levels(f) if left_quantile(f, a) < right_quantile(f, a)]
        assert list(f.plateau_levels) == flat
        assert flat_table_rows(f) == repr(flat_runs_by_stored_values(f))


# -- the jump table -------------------------------------------------------------


class Jump(NamedTuple):
    """One row of the jump table: the point ``x``, ``lo`` = F(x-), ``hi`` = F(x) and the mass."""

    x: float
    lo: float
    hi: float
    mass: float


def jump_rows(f):
    """The jump table as rows of Python floats, read off its columns."""
    return tuple(Jump(*row) for row in _jump_columns(f).T.tolist())


def jumps_by_index(f):
    """The index reading the jump table replaced: one row per positive stored atom."""
    return [(f.xs[i], float(f._lefts[i]), float(f._cums[i]), f.atoms[i]) for i in np.nonzero(f._atoms_arr > 0.0)[0]]


def test_jump_table_matches_index_reading(population, fb, fm, fu):
    rng = np.random.default_rng(29)
    large = [normalize(random_function(rng, k, 0.3, 0.25)) for k in (1, 2, 50, 5000)]
    # the validator accepts a -0.0 atom, which gets no row
    signed_zero = sd.Cdf(xs=(0.0, 1.0), atoms=(-0.0, 0.5), rises=(0.5,))
    functions = [*population, fb, fm, fu, *rescaled_functions(rng, 300), *SUB_ULP_CASES, *large, signed_zero]
    for f in functions:
        rows = jump_rows(f)
        old = jumps_by_index(f)
        assert [tuple(map(bits, r)) for r in rows] == [tuple(map(bits, r)) for r in old]
        # the readers of the columns hand out Python floats, with the oracle's bits
        points, masses, pairs = f.jump_points, f.jump_masses, sd.jump_set(f)
        assert all(type(v) is float for v in (*itertools.chain(*rows), *points, *masses, *itertools.chain(*pairs)))
        assert list(map(bits, points)) == [bits(r[0]) for r in old]
        assert list(map(bits, masses)) == [bits(r[3]) for r in old]
        assert [tuple(map(bits, p)) for p in pairs] == [(bits(r[0]), bits(r[3])) for r in old]
    assert jump_rows(signed_zero) == (Jump(1.0, 0.5, 1.0, 0.5),)
    # an atom too small to move F keeps its row, with an empty gap
    assert (1.0, 0.5, 0.5, 1e-300) in jump_rows(SUB_ULP_CASES[0])


def test_sampling_never_builds_the_jump_table(fm):
    # nor the flat-piece table: from normalize through the inversion check
    # neither derived table is built, and each is built on its first read
    large = random_function(np.random.default_rng(37), 2000, 0.3, 0.25)
    for g in (sd.MonotoneStepLinear(xs=fm.xs, atoms=fm.atoms, rises=fm.rises), large):
        f = normalize(g)
        xs = sample_inverse(f, SeededStream(1, 0), 1000)
        us = distributional_transform(f, xs, SeededStream(1, 1), x_stream=SeededStream(1, 0))
        ks_uniformity(us)
        inversion_check(f, SeededStream(1, 2), 1000)
        assert f._jump_cols is None and f._flat_end is None
    f = normalize(sd.MonotoneStepLinear(xs=fm.xs, atoms=fm.atoms, rises=fm.rises))
    assert f.jump_points == (0.5,) and f._jump_cols is _jump_columns(f) and f._flat_end is None
    assert f.plateau_levels == (0.25,) and f._flat_end is _flat_ends(f)


def validated_fields(xs, atoms, rises, base):
    """The conversion and validation construction runs on outside input, kept as
    an oracle: Python floats, then every field rule.  Returns the converted fields."""
    xs, atoms, rises, base = tuple(map(float, xs)), tuple(map(float, atoms)), tuple(map(float, rises)), float(base)
    k = len(xs)
    if len(atoms) != k:
        raise sd.ValidationError(f"{len(atoms)} atoms for {k} breakpoints")
    if len(rises) != max(k - 1, 0):
        raise sd.ValidationError(f"{len(rises)} rises for {k} breakpoints")
    if not all(map(math.isfinite, xs + atoms + rises + (base,))):
        raise sd.ValidationError("breakpoints, masses and base must be finite")
    if not all(a < b for a, b in zip(xs, xs[1:])):
        a, b = next((a, b) for a, b in zip(xs, xs[1:]) if not a < b)
        raise sd.ValidationError(f"breakpoints not strictly increasing at {a}, {b}")
    if min(atoms, default=0.0) < 0.0:
        raise sd.ValidationError("negative atom mass")
    if min(rises, default=0.0) < 0.0:
        raise sd.ValidationError("negative segment increase")
    return xs, atoms, rises, base


def normalize_sources(population, fb, fm, fu):
    """Functions to normalize: the population and fb/fm/fu as they are (normalize
    copies them) and scaled and shifted, the sources of ``rescaled_functions``
    and one unnormalized function with k = 20,000."""
    rng = np.random.default_rng(31)
    named = [*population, fb, fm, fu]
    scaled = [
        sd.MonotoneStepLinear(f.xs, np.multiply(f.atoms, 2.5), np.multiply(f.rises, 2.5), base=-0.75)
        for f in named
    ]
    return [*named, *scaled, *rescaled_sources(rng, 300), random_function(rng, 20_000, 0.3, 0.25)]


def test_normalize_stores_fields_that_pass_validation(population, fb, fm, fu):
    # normalize stores the fields it rescales without converting or validating
    # them: the construction rules accept every one, and converting moves no float
    for f in map(normalize, normalize_sources(population, fb, fm, fu)):
        fields = validated_fields(f.xs, f.atoms, f.rises, f.base)
        for name, old in zip(("xs", "atoms", "rises"), fields):
            new = getattr(f, name)
            assert type(new) is tuple and all(type(v) is float for v in new)
            assert list(map(bits, new)) == list(map(bits, old))
            assert same(getattr(f, f"_{name}_arr"), np.asarray(old))
        assert type(f.base) is float and bits(f.base) == bits(fields[3])
        assert f._lefts.dtype == f._cums.dtype == np.float64


def test_flat_table_is_built_on_first_read_and_once(population, fb, fm, fu):
    for f in map(normalize, normalize_sources(population, fb, fm, fu)):
        assert f._flat_end is None
        end = _flat_ends(f)
        assert f._flat_end is end and _flat_ends(f) is end and not end.flags.writeable
        assert flat_table_rows(f) == repr(flat_runs_by_loop(f))


# -- ramp solves that round to or past the segment's right breakpoint ----------


def test_solve_past_right_breakpoint_regression():
    g = sd.MonotoneStepLinear(xs=(-0.944, -0.617, 3.692), atoms=(0, 0, 0.644), rises=(0.22, 0.139), base=-2.247)
    f = normalize(g)
    a = 0.21934197407776684  # one float below F(-0.617-)
    assert a == math.nextafter(float(f._lefts[1]), -math.inf)
    assert left_quantile(f, a) == right_quantile(f, a) == -0.617  # the solve was -0.6169999999999998
    assert _left_quantiles(f, np.array([a])).tolist() == [-0.617]


def test_solves_below_left_limits_stay_on_segment():
    # the level one float below each F(x1-): every quantile stays at or left of
    # x1, and a solve that reached x1 comes back as the least float reaching
    # the level (a solve left of x1 that overshoots is not corrected).  The
    # scalar pair is compared on the first 500 functions: each correction it
    # repeats costs about 120 one-point evaluations of F.
    reached_x1 = 0
    for n, f in enumerate(rescaled_functions(np.random.default_rng(13), 2000)):
        i = np.flatnonzero((f._rises_arr > 0.0) & (f._cums[:-1] < np.nextafter(f._lefts[1:], -1.0)))
        a = np.nextafter(f._lefts[i + 1], -math.inf)
        keep = a < 1.0
        i, a = i[keep], a[keep]
        x0, x1 = f._xs_arr[i], f._xs_arr[i + 1]
        reached = x0 + (a - f._cums[i]) / f._rises_arr[i] * (x1 - x0) >= x1
        vec = _left_quantiles(f, a)
        assert (vec <= x1).all() and least_reaching(f, vec[reached], a[reached])
        if n < 500:
            for ai, xi in zip(a.tolist(), vec.tolist()):
                lo, hi = quantile_pair(f, ai)
                assert bits(lo) == bits(hi) == bits(xi)
        reached_x1 += int(reached.sum())
    assert reached_x1 > 0


def walk_up(f, x, a):
    """The float a walk up from x one float at a time stops at: the first with F >= a."""
    x = math.nextafter(x, math.inf)
    while f.value(x) < a:
        x = math.nextafter(x, math.inf)
    return x


def walk_down_to_short(f, x, a):
    """The first float below x with F < a, walking down one float at a time."""
    x = math.nextafter(x, -math.inf)
    while f.value(x) >= a:
        x = math.nextafter(x, -math.inf)
    return x


def floats_from(x, n, direction):
    for _ in range(n):
        x = math.nextafter(x, direction)
    return x


def test_ramp_correction_returns_the_walks_float():
    # on a ramp that crosses 0 in steps of single subnormals, levels 1, 2, 3 and 40
    # floats above -0.0, -5e-324 and +0.0 (the walk skips +0.0: up from -0.0 it steps
    # to 5e-324), searched up from those starts and down from x1 in one call, and
    # levels 1, 2, 3 and 40 floats below x1 searched down, on that ramp and on a wide
    # one: each comes back as the float the walk up stops at, bit for bit.  Down from
    # x1 the walk starts at the first float below the answer
    tiny = sd.Cdf(xs=(-1e-321, 1e-321), atoms=(0.0, 0.0), rises=(1.0,))
    checked = 0
    for f in (tiny, OVERSHOOTING_UNIFORM):
        x0, x1 = f.xs
        starts, levels = [], []
        if f is tiny:
            for s in (-0.0, -5e-324, 0.0):
                for d in (1, 2, 3, 40):
                    starts.append(s)
                    levels.append(f.value(floats_from(s, d, math.inf)))
        ups = len(starts)
        for d in (1, 2, 3, 40):
            starts.append(x0)
            levels.append(f.value(floats_from(x1, d, -math.inf)))
        levels += levels[:ups]
        starts += [x0] * ups
        n = len(levels)
        down = np.arange(n) >= ups
        got = _raise_to_level(f, np.array(starts), np.array(levels), np.full(n, x1), down)
        for s, a, is_down, y in zip(starts, levels, down.tolist(), got.tolist()):
            assert f.value(s) < a <= f.value(x1)
            ref = walk_up(f, walk_down_to_short(f, x1, a) if is_down else s, a)
            assert bits(y) == bits(ref), (f, s, a, is_down)
            checked += 1
        # searched up from x0 as the kernel did before it searched down: the same floats
        assert same(_raise_to_level(f, np.full(n, x0), np.array(levels), np.full(n, x1))[down], got[down])
    assert checked == 2 * 3 * 4 + 2 * 4


def test_ramp_solves_are_corrected_by_one_kernel(fm, monkeypatch):
    # _raise_to_level runs only inside _left_quantiles: a scalar scan whose
    # solve needs correcting hands its level to the array kernel once, and
    # returns its answer bit for bit; a scan that corrects nothing never calls it
    calls = Counter()
    inside = [False]
    kernel, raise_to_level = cdf._left_quantiles, cdf._raise_to_level

    def counted_kernel(f, a):
        calls["_left_quantiles"] += 1
        before, inside[0] = inside[0], True
        try:
            return kernel(f, a)
        finally:
            inside[0] = before

    def counted_raise(*args):
        calls["_raise_to_level", inside[0]] += 1
        return raise_to_level(*args)

    for module in (cdf, checks, copula, stochastic):
        monkeypatch.setattr(module, "_left_quantiles", counted_kernel)
    monkeypatch.setattr(cdf, "_raise_to_level", counted_raise)
    rng = np.random.default_rng(13)
    corrected = 0
    for f in [*rescaled_functions(rng, 150), *decimal_uniforms(rng, 20)]:
        below_lefts = np.nextafter(f._lefts[1:], -math.inf)
        for a in [*below_lefts[(below_lefts > 0.0) & (below_lefts < 1.0)].tolist(), *alpha_population(f)]:
            calls.clear()
            x = left_quantile(f, a)
            if calls:
                assert calls == {"_left_quantiles": 1, ("_raise_to_level", True): 1}
                assert bits(x) == bits(kernel(f, np.array([a]))[0])
                corrected += 1
    assert corrected > 0
    # nor does any other reader reach it from outside the kernel
    calls.clear()
    for f in (fm, OVERSHOOTING_UNIFORM, *rescaled_functions(rng, 5)):
        checks.analytic_checks(f)
        sample_inverse(f, SeededStream(3), 2000)
        inversion_check(f, SeededStream(4), 2000)
    assert calls["_raise_to_level", True] > 0 and calls["_raise_to_level", False] == 0


# -- level sets, splits, flat masses and null sets: read off the flat-piece table


def pair_by_scan(f, a):
    """The pair scanning at every level: one left scan, then the flat piece's right end."""
    lo = cdf._left_quantile_unchecked(f, a)
    run = flat_pieces(f).get(a)
    return lo, lo if run is None else run[1]


def level_set_by_pair(f, a, lo, hi):
    if lo == hi:
        return RealSet.point(lo) if f.value(lo) == a else RealSet.empty()
    if f.value(hi) == a:
        return RealSet.of(Interval.closed(lo, hi))
    return RealSet.of(Interval.closed_open(lo, hi))


def sublevel_by_pair(f, lam, a, lo, hi):
    if lo == hi:
        beyond = RealSet.empty()
    elif f.value(hi) == a:
        beyond = RealSet.of(Interval.open_closed(lo, hi))
    else:
        beyond = RealSet.of(Interval.open(lo, hi))
    t_at = f.value(lo) if lam == 1.0 else f.left_value(lo) + lam * f.jump(lo)
    at = RealSet.point(lo) if t_at <= a else RealSet.empty()
    return beyond, at, RealSet.of(Interval.open(-math.inf, lo))


def measure_level_set_by_pair(f, a, lo, hi):
    if lo == hi:
        return measure_set(f, level_set_by_pair(f, a, lo, hi))
    return a - f.left_value(lo)


def term_flat_by_level_set(f, law, a, lo, hi):
    return measure_set(law, level_set_by_pair(f, a, lo, hi).intersect(RealSet.of(Interval.open(lo, math.inf))))


def plateau_union_by_pair(f):
    parts = (sublevel_by_pair(f, 1.0, a, *pair_by_scan(f, a))[0].components for a in f.plateau_levels)
    return RealSet(tuple(itertools.chain.from_iterable(parts)))


@pytest.fixture()
def scan_once(monkeypatch):
    """Run the left scan once per function and level, for the oracle and the readers alike.

    A ramp solve that reached its right breakpoint takes about 120
    evaluations of F to correct, and stored levels just below F(x1-) hit
    that path; the scan depends on (f, a) only, so its result is reused.
    """
    scan = cdf._left_quantile_unchecked
    done = {}

    def cached(f, a):
        key = (id(f), a)
        if key not in done:
            done[key] = scan(f, a)
        return done[key]

    for module in (cdf, stochastic, transform):
        monkeypatch.setattr(module, "_left_quantile_unchecked", cached)


def test_flat_piece_readers_match_pair_and_evaluate(population, fb, fm, fu, scan_once):
    functions = [*population, fb, fm, fu, *rescaled_functions(np.random.default_rng(14), 300), *SUB_ULP_CASES]
    flat = 0
    for n, f in enumerate(functions):
        law = functions[n - 1]
        for a in stored_levels(f):
            lo, hi = pair_by_scan(f, a)
            assert [bits(v) for v in quantile_pair(f, a)] == [bits(lo), bits(hi)]
            assert repr(level_set(f, a)) == repr(level_set_by_pair(f, a, lo, hi))
            assert repr(sublevel_decomposition(f, 0.5, a)) == repr(sublevel_by_pair(f, 0.5, a, lo, hi))
            assert bits(measure_level_set(f, a)) == bits(measure_level_set_by_pair(f, a, lo, hi))
            for g in (f, law):
                assert bits(transform_cdf_exact(f, g, a).term_flat) == bits(term_flat_by_level_set(f, g, a, lo, hi))
            flat += lo < hi
        assert repr(inversion_null_set(f, 1.0).plateau_union) == repr(plateau_union_by_pair(f))
    assert flat > 0
