import math

import numpy as np
import pytest

from stepdist import AlphaOutOfRange, MalformedInterval
from stepdist.cdf import level_set, quantile_pair
from stepdist.measure import measure_interval, measure_level_set, measure_set, measure_value_level
from stepdist.realset import Interval, RealSet
from stepdist.transform import sublevel_decomposition

INF = math.inf


class TestMeasureInterval:
    def test_half_open(self, fm):
        assert measure_interval(fm, Interval.open_closed(0.25, 0.5)) == 0.25

    def test_singleton_is_the_atom(self, fm):
        assert measure_interval(fm, Interval.point(0.5)) == 0.25

    def test_reaching_below_support(self, fb):
        assert measure_interval(fb, Interval.open_closed(-2.0, 0.0)) == 0.5

    def test_open_vs_closed_endpoints(self, fb):
        assert measure_interval(fb, Interval.open(-1.0, 1.0)) == 0.5
        assert measure_interval(fb, Interval.closed(0.0, 1.0)) == 1.0
        assert measure_interval(fb, Interval.closed_open(0.0, 1.0)) == 0.5

    def test_unbounded_ends(self, fb):
        assert measure_interval(fb, Interval(1.0, INF, True, False)) == 0.5
        assert measure_interval(fb, Interval(1.0, INF, False, False)) == 0.0
        assert measure_interval(fb, Interval.open(-INF, INF)) == 1.0

    def test_malformed(self, fb):
        with pytest.raises(MalformedInterval):
            measure_interval(fb, "not an interval")


class TestMeasureSet:
    def test_union_of_tail_pieces(self, fb):
        s = RealSet.of(Interval.open(-INF, 0.0), Interval(1.0, INF, True, False))
        assert measure_set(fb, s) == 0.5

    def test_empty(self, fb):
        assert measure_set(fb, RealSet.empty()) == 0.0

    def test_empty_union_is_a_float(self, fb):
        assert type(measure_set(fb, RealSet.empty())) is float
        assert type(measure_level_set(fb, 0.3)) is float  # its level set is empty

    def test_uniform_full_mass(self, fu):
        assert measure_set(fu, RealSet.of(Interval.open(0.0, 1.0))) == 1.0


class TestMeasureLevelSet:
    def test_bernoulli_plateau(self, fb):
        assert measure_level_set(fb, 0.5) == 0.5

    def test_mixed_plateau_carries_nothing(self, fm):
        assert measure_level_set(fm, 0.25) == 0.0

    def test_continuous_singleton(self, fu):
        assert measure_level_set(fu, 0.5) == 0.0

    def test_alpha_out_of_range(self, fu):
        with pytest.raises(AlphaOutOfRange):
            measure_level_set(fu, 0.0)


class TestMeasureProperties:
    def test_total_mass_one(self, small_population):
        for f in small_population:
            assert measure_set(f, RealSet.reals()) == 1.0

    def test_partition_additivity(self, small_population):
        rng = np.random.default_rng(3)
        for f in small_population:
            x = f.xs[0] - float(rng.uniform(0, 1))
            y = f.xs[-1] + float(rng.uniform(0, 1))
            cuts = np.sort(np.concatenate([[x, y], rng.uniform(x, y, size=15)]))
            total = sum(
                measure_interval(f, Interval.open_closed(a, b)) for a, b in zip(cuts, cuts[1:])
            )
            assert total == pytest.approx(f.value(y) - f.value(x), abs=1e-12)

    def test_flat_pieces_have_zero_mass(self, small_population):
        for f in small_population:
            for a in f.plateau_levels:
                for lam in (0.25, 0.5, 0.75, 1.0):
                    beyond, _, _ = sublevel_decomposition(f, lam, a)
                    assert measure_set(f, beyond) == 0.0

    def test_consistency_triangle(self, population):
        # level-set mass agrees with measure_set of level_set on random pairs
        rng = np.random.default_rng(17)
        for _ in range(1000):
            f = population[int(rng.integers(len(population)))]
            a = float(rng.uniform(0.01, 0.99))
            m = measure_level_set(f, a)
            assert m == pytest.approx(measure_set(f, level_set(f, a)), abs=1e-12)
            lo, hi = quantile_pair(f, a)
            if hi > lo:
                assert m == pytest.approx(a - f.left_value(lo), abs=1e-12)
                assert m == pytest.approx(f.jump(lo), abs=1e-12)

    def test_value_level_mass(self, fb, fu):
        assert measure_value_level(fb, 0.5) == 0.5
        assert measure_value_level(fb, 1.0) == 0.5
        assert measure_value_level(fb, 0.25) == 0.0
        assert measure_value_level(fu, 1.0) == 0.0
        assert measure_value_level(fu, 0.0) == 0.0
