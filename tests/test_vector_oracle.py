"""Differential tests: each array pass against the scalar loop it replaced.

The scalar functions (``empirical_joint_cdf``, ``sklar_compose``,
``lambda_transform``, ``RealSet.contains``) and the point-by-point loop
bodies kept below are the reference; the array forms must agree bit for bit.
"""

import itertools
import math

import numpy as np
import pytest

import stepdist as sd
from stepdist import copula
from stepdist.checks import (
    LAMBDA_GRID,
    _check_halfline_sets,
    _check_sublevel_union,
    alpha_population,
    default_copula_grid,
    probe_grid,
)
from stepdist.cdf import left_quantile, sublevel_decomposition
from stepdist.copula import (
    CopulaSpec,
    dt_copula,
    empirical_joint_cdf,
    generate_joint_sample,
    sklar_compose,
    sklar_identity_check,
)
from stepdist.realset import Interval, RealSet
from stepdist.stochastic import SeededStream
from stepdist.transform import lambda_transform, lambda_transforms


def bits(x) -> bytes:
    return np.float64(x).tobytes()


# -- the point-by-point loops -------------------------------------------------


def sklar_by_point(sample, c_hat, grid) -> float:
    worst = 0.0
    for x in grid:
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


def product_grid(*axes):
    return [np.array(p, dtype=float) for p in itertools.product(*axes)]


# -- the Sklar identity -------------------------------------------------------


class TestSklarIdentity:
    def assert_same(self, sample, c_hat, grid):
        assert bits(sklar_identity_check(sample, c_hat, grid)) == bits(sklar_by_point(sample, c_hat, grid))

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
        grid = default_copula_grid(triple)
        for dep in ("independent", "comonotone"):
            sample = generate_joint_sample(triple, dep, 2_000, seed=seed)
            c_hat = dt_copula(sample, SeededStream(seed, 3))
            self.assert_same(sample, c_hat, grid)
            for analytic in (CopulaSpec.independence(3), CopulaSpec.comonotone(3)):
                self.assert_same(sample, analytic, grid)

    def test_infinite_coordinates(self, fb, fm, fu):
        triple = (fb, fm, fu)
        sample = generate_joint_sample(triple, "independent", 5_000, seed=9)
        c_hat = dt_copula(sample, SeededStream(9, 3))
        axis = (-math.inf, -0.5, 0.0, 0.5, 0.75, 1.0, math.inf)
        self.assert_same(sample, c_hat, product_grid(axis, axis, axis))

    def test_countermonotone_and_other_row_count(self, fm, fu):
        sample = generate_joint_sample((fm, fu), "countermonotone", 3_000, seed=5)
        grid = default_copula_grid((fm, fu))
        self.assert_same(sample, CopulaSpec.countermonotone(), grid)
        # a copula estimated from a different number of rows than the sample
        other = generate_joint_sample((fm, fu), "independent", 1_234, seed=6)
        self.assert_same(sample, dt_copula(other, SeededStream(6, 2)), grid)

    def test_scattered_grids(self, fb, fm, fu, monkeypatch):
        triple = (fb, fm, fu)
        sample = generate_joint_sample(triple, "comonotone", 2_000, seed=11)
        c_hat = dt_copula(sample, SeededStream(11, 3))
        rng = np.random.default_rng(12)
        cells = []
        counts = copula._dominance_counts

        def recorded(rows, axes, at):
            cells.append(math.prod(a.size + 1 for a in axes))
            return counts(rows, axes, at)

        monkeypatch.setattr(copula, "_dominance_counts", recorded)
        # few scattered points: their product table is small enough to build
        self.assert_same(sample, c_hat, list(rng.uniform(-0.5, 1.5, size=(12, 3))))
        assert cells and max(cells) == 13**3
        # many scattered points: no 401^3 table; evaluated point by point
        cells.clear()
        self.assert_same(sample, c_hat, list(rng.uniform(-0.5, 1.5, size=(400, 3))))
        assert cells == []


# -- the half-line and sublevel checks ---------------------------------------


def _check_population(small_population, fb, fm, fu):
    return list(small_population) + [fb, fm, fu]


def test_halfline_counts(small_population, fb, fm, fu):
    for f in _check_population(small_population, fb, fm, fu):
        alphas = alpha_population(f)
        res = _check_halfline_sets(f, alphas)
        assert res.value == halfline_by_point(f, alphas)


def test_sublevel_counts(small_population, fb, fm, fu):
    for f in _check_population(small_population, fb, fm, fu):
        alphas = alpha_population(f)
        res = _check_sublevel_union(f, alphas)
        assert res.value == sublevel_by_point(f, alphas)


# -- lambda_transforms and contains_many --------------------------------------


def test_lambda_transforms(small_population, fb, fm, fu):
    for f in _check_population(small_population, fb, fm, fu):
        grid = np.concatenate([probe_grid(f), [-math.inf, math.inf]])
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            vec = lambda_transforms(f, grid, lam)
            ref = np.array([lambda_transform(f, x, lam) for x in grid])
            assert vec.tobytes() == ref.tobytes()


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
