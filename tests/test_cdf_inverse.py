import math

import numpy as np
import pytest

import stepdist as sd
from stepdist import AlphaOutOfRange, LambdaOutOfRange
from stepdist.cdf import (
    Cdf,
    _left_quantiles,
    jump_set,
    left_quantile,
    level_set,
    quantile_pair,
    right_quantile,
)
from stepdist.realset import Interval, RealSet
from stepdist.transform import sublevel_decomposition


class TestLeftQuantile:
    def test_atom_attainment(self, fb):
        assert left_quantile(fb, 0.5) == 0.0

    def test_jump_past_level(self, fm):
        # F first reaches 0.3 by jumping to 0.5 at x = 0.5
        assert left_quantile(fm, 0.3) == 0.5

    def test_continuous_case(self, fu):
        assert left_quantile(fu, 0.3) == 0.3

    def test_alpha_out_of_range(self, fb):
        for a in (0.0, 1.0, -0.2, 1.5, float("nan")):
            with pytest.raises(AlphaOutOfRange):
                left_quantile(fb, a)


class TestRightQuantile:
    def test_plateau_end(self, fb):
        assert right_quantile(fb, 0.5) == 1.0

    def test_mixed_plateau(self, fm):
        assert right_quantile(fm, 0.25) == 0.5

    def test_continuous_case(self, fu):
        assert right_quantile(fu, 0.3) == 0.3

    def test_alpha_out_of_range(self, fu):
        with pytest.raises(AlphaOutOfRange):
            right_quantile(fu, 1.0)


def _float_rank(x: float) -> int:
    """Position of x in the order of all floats, one step per float."""
    i = int(np.float64(x).view(np.int64))
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


class TestShortRampSolve:
    """A ramp solve near 0 can land far short of its level in floats, since its
    absolute rounding error is many ulps of a result close to 0.  Both quantile
    kernels must still return the least float that reaches the level, within a
    bounded number of evaluations of F: at most 64 gallop and 64 bisection
    passes (the check that finds the solve short evaluates F on its segment,
    and the vector kernel's bound keeps one evaluation of slack)."""

    MAX_EVALS = 2 * 64 + 1

    @pytest.fixture
    def short_solves(self):
        f = Cdf(xs=(-2.61, 4.76), atoms=(0.3, 0.0), rises=(0.7,))
        f0 = f.value(0.0)
        # a band around F(0), where solves land far short, and the whole ramp
        levels = np.concatenate([np.linspace(f0 - 1e-6, f0 + 1e-6, 3000), np.linspace(0.31, 0.99, 3000)])
        x0, x1 = f.xs
        solve = x0 + (levels - float(f._cums[0])) / f.rises[0] * (x1 - x0)
        short = f.values(solve) < levels
        return f, levels[short], solve[short]

    @pytest.fixture
    def eval_count(self, monkeypatch):
        calls = {"value": 0, "values": 0}
        for name in calls:
            orig = getattr(Cdf, name)

            def counted(self, x, _orig=orig, _name=name):
                calls[_name] += 1
                return _orig(self, x)

            monkeypatch.setattr(Cdf, name, counted)
        return calls

    def test_least_float_reaching_the_level(self, short_solves, eval_count):
        f, levels, solve = short_solves
        assert levels.size > 0
        vec = _left_quantiles(f, levels)
        assert eval_count["values"] <= self.MAX_EVALS
        assert (f.values(vec) >= levels).all()
        assert (f.values(np.nextafter(vec, -np.inf)) < levels).all()
        # the case that made the one-float walk unbounded: far more floats
        # between the solve and the answer than the walk could step through
        far = max(_float_rank(x) - _float_rank(s) for x, s in zip(vec, solve))
        assert far > 10**6

    def test_scalar_kernels_agree_with_vector(self, short_solves, eval_count):
        f, levels, _ = short_solves
        vec = _left_quantiles(f, levels)
        for a, x in zip(levels.tolist(), vec.tolist()):
            eval_count["value"] = eval_count["values"] = 0
            lo, hi = quantile_pair(f, a)
            # the solve is checked on its segment, and the right quantile is a
            # lookup: one correction, and no call of value()
            assert eval_count["value"] == 0
            assert eval_count["values"] <= self.MAX_EVALS - 1
            assert lo == x and hi == x  # a strictly rising ramp: both quantiles agree

    def test_matches_one_float_walk(self, short_solves):
        f, levels, solve = short_solves
        vec = _left_quantiles(f, levels)
        near = [i for i in range(levels.size) if _float_rank(vec[i]) - _float_rank(solve[i]) <= 10_000]
        assert near
        for i in near:
            x = float(solve[i])
            while f.value(x) < levels[i]:
                x = math.nextafter(x, math.inf)
            assert np.float64(x).tobytes() == vec[i].tobytes()


class TestLevelSet:
    def test_half_open_case(self, fb):
        assert level_set(fb, 0.5) == RealSet.of(Interval.closed_open(0.0, 1.0))

    def test_empty_case(self, fb):
        assert level_set(fb, 0.3).is_empty()

    def test_singleton_case(self, fu):
        assert level_set(fu, 0.5) == RealSet.point(0.5)

    def test_closed_case(self):
        # flat piece that ends by continuous take-off keeps its right endpoint
        f = sd.Cdf(xs=(0.0, 1.0, 2.0, 3.0), atoms=(0.5, 0.0, 0.0, 0.0), rises=(0.0, 0.0, 0.5))
        assert level_set(f, 0.5) == RealSet.of(Interval.closed(0.0, 2.0))


class TestSublevelDecomposition:
    def test_bernoulli_at_half(self, fb):
        beyond, at, below = sublevel_decomposition(fb, 0.5, 0.5)
        assert beyond == RealSet.of(Interval.open(0.0, 1.0))
        assert at == RealSet.point(0.0)
        assert below == RealSet.of(Interval.open(-math.inf, 0.0))

    def test_bernoulli_excluded_quantile(self, fb):
        beyond, at, below = sublevel_decomposition(fb, 0.9, 0.6)
        assert beyond.is_empty() and at.is_empty()
        assert below == RealSet.of(Interval.open(-math.inf, 1.0))

    def test_uniform_keeps_quantile(self, fu):
        beyond, at, below = sublevel_decomposition(fu, 1.0, 0.5)
        assert beyond.is_empty()
        assert at == RealSet.point(0.5)
        assert below == RealSet.of(Interval.open(-math.inf, 0.5))

    def test_lambda_range(self, fu):
        with pytest.raises(LambdaOutOfRange):
            sublevel_decomposition(fu, 0.0, 0.5)
        with pytest.raises(LambdaOutOfRange):
            sublevel_decomposition(fu, 1.5, 0.5)

    def test_only_at_part_depends_on_lambda(self, fm):
        for a in (0.25, 0.5, 0.61):
            parts = [sublevel_decomposition(fm, lam, a) for lam in (0.25, 0.5, 1.0)]
            for beyond, _, below in parts[1:]:
                assert beyond == parts[0][0]
                assert below == parts[0][2]


class TestJumpSet:
    def test_declared_atoms(self, fb, fm, fu):
        assert jump_set(fb) == [(0.0, 0.5), (1.0, 0.5)]
        assert jump_set(fu) == []
        assert jump_set(fm) == [(0.5, 0.25)]


class TestQuantileProperties:
    def test_sandwiches_on_random_pairs(self, population):
        # 1000 random (F, alpha): F(lo-) <= a <= F(lo) plus the strict form
        rng = np.random.default_rng(101)
        tol = 1e-12
        for _ in range(1000):
            f = population[int(rng.integers(len(population)))]
            a = float(rng.uniform(0.001, 0.999))
            lo, hi = quantile_pair(f, a)
            assert lo <= hi
            assert f.left_value(lo) <= a + tol
            assert f.value(lo) >= a - tol
            assert f.left_value(hi) <= a + tol
            assert f.value(hi) >= a - tol
            delta = float(rng.uniform(1e-6, 1.0))
            eps = float(rng.uniform(1e-6, 1.0))
            assert f.value(lo - delta) < a
            assert f.value(lo + eps) >= a - tol

    def test_halfline_representation(self, small_population):
        for f in small_population:
            for a in (0.1, 0.37, 0.5, 0.9, *f.plateau_levels):
                lo = left_quantile(f, a)
                probes = np.concatenate(
                    [np.asarray(f.xs), np.asarray(f.xs) - 1e-5, np.asarray(f.xs) + 1e-5, [lo]]
                )
                for x in probes:
                    assert (f.value(x) >= a) == (x >= lo)
                    assert (f.value(x) < a) == (x < lo)

    def test_level_set_case_split(self, small_population):
        for f in small_population:
            for a in (0.2, 0.44, 0.8, *f.plateau_levels):
                lo, hi = quantile_pair(f, a)
                ls = level_set(f, a)
                assert (f.value(lo) == a) == (not ls.is_empty())
                assert (hi == lo) == (ls.is_empty() or ls == RealSet.point(lo))
                if hi > lo:
                    assert (f.jump(hi) == 0.0) == (f.value(hi) == a)

    def test_flat_equivalence(self, small_population):
        # hi > lo exactly when some x beyond lo still sits at the level
        for f in small_population:
            for a in (0.15, 0.5, 0.85, *f.plateau_levels):
                lo, hi = quantile_pair(f, a)
                beyond, _, _ = sublevel_decomposition(f, 1.0, a)
                assert (hi > lo) == (not beyond.is_empty())

    def test_plateau_levels_sorted_disjoint(self, small_population):
        for f in small_population:
            levels = f.plateau_levels
            assert all(0.0 < a < 1.0 for a in levels)
            assert list(levels) == sorted(levels)
            sets = [level_set(f, a) for a in levels]
            for s, t in zip(sets, sets[1:]):
                assert s.intersect(t).is_empty()

    def test_union_covers_sublevel(self, small_population):
        for f in small_population[:10]:
            probes = np.concatenate(
                [np.asarray(f.xs), np.asarray(f.xs) - 1e-5, np.asarray(f.xs) + 1e-5]
            )
            for a in (0.3, 0.7, *f.plateau_levels):
                for lam in (0.25, 1.0):
                    beyond, at, below = sublevel_decomposition(f, lam, a)
                    union = beyond.union(at).union(below)
                    for x in probes:
                        t = sd.lambda_transform(f, x, lam)
                        assert (t <= a) == union.contains(x)
