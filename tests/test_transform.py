import math

import numpy as np
import pytest

import stepdist as sd
from stepdist import (
    AlphaNotInJumpInterval,
    LambdaOutOfRange,
    LengthMismatch,
    TransformOutOfRange,
)
from stepdist.measure import measure_set
from stepdist.realset import Interval, RealSet
from stepdist.transform import (
    attained_values,
    inversion_null_set,
    invert_transform,
    jump_gap_values,
    jump_gap_weights,
    lambda_transform,
    quantile_range_of_point,
)
from test_vector_oracle import jump_rows

INF = math.inf


class TestLambdaTransform:
    def test_bernoulli(self, fb):
        assert lambda_transform(fb, 0.0, 0.4) == 0.2

    def test_mixed_atom(self, fm):
        assert lambda_transform(fm, 0.5, 0.5) == 0.375

    def test_continuity_point_ignores_lambda(self, fu):
        assert lambda_transform(fu, 0.3, 0.77) == 0.3

    def test_endpoints_recover_limits(self, fm):
        for x in (-1.0, 0.25, 0.5, 0.8, 2.0):
            assert lambda_transform(fm, x, 0.0) == fm.left_value(x)
            assert lambda_transform(fm, x, 1.0) == fm.value(x)

    def test_sandwich_everywhere(self, small_population):
        for f in small_population:
            probes = np.concatenate([np.asarray(f.xs), np.asarray(f.xs) + 0.1, [-9.0, 9.0]])
            for x in probes:
                lo, hi = f.left_value(x), f.value(x)
                for lam in (0.0, 0.2, 0.5, 0.9, 1.0):
                    t = lambda_transform(f, x, lam)
                    assert lo <= t <= hi

    def test_lambda_independence_at_continuity(self, small_population):
        for f in small_population:
            mids = (np.asarray(f.xs[:-1]) + np.asarray(f.xs[1:])) / 2
            for x in mids:
                if f.jump(x) == 0.0:
                    vals = {lambda_transform(f, x, lam) for lam in (0.0, 0.3, 0.7, 1.0)}
                    assert len(vals) == 1

    def test_out_of_range(self, fb):
        with pytest.raises(LambdaOutOfRange):
            lambda_transform(fb, 0.0, -0.1)
        with pytest.raises(LambdaOutOfRange):
            lambda_transform(fb, 0.0, 1.1)


WEIGHT_TAKERS = {
    "[0, 1]": [
        lambda f, lam: lambda_transform(f, 0.5, lam),
        lambda f, lam: sd.lambda_transforms(f, [0.5], lam),
    ],
    "(0, 1]": [
        lambda f, lam: sd.sublevel_decomposition(f, lam, 0.5),
        lambda f, lam: inversion_null_set(f, lam),
        lambda f, lam: invert_transform(f, 0.5, lam),
    ],
}


@pytest.mark.parametrize("lam", [-0.1, 1.5, math.nan, 0.0, -0.0])
def test_weight_range_messages(fu, lam):
    for bounds, takers in WEIGHT_TAKERS.items():
        for take in takers:
            if lam == 0.0 and bounds == "[0, 1]":
                take(fu, lam)  # a zero weight is the left limit
                continue
            with pytest.raises(LambdaOutOfRange) as err:
                take(fu, lam)
            assert str(err.value) == f"weight must lie in {bounds}, got {lam}"


class TestQuantileRangeOfPoint:
    def test_mixed_atom(self, fm):
        assert quantile_range_of_point(fm, 0.5) == RealSet.of(Interval.open_closed(0.25, 0.5))

    def test_bernoulli_first_atom(self, fb):
        assert quantile_range_of_point(fb, 0.0) == RealSet.of(Interval.open_closed(0.0, 0.5))

    def test_bernoulli_top_atom(self, fb):
        assert quantile_range_of_point(fb, 1.0) == RealSet.of(Interval.open(0.5, 1.0))

    def test_continuous_point(self, fu):
        assert quantile_range_of_point(fu, 0.3) == RealSet.point(0.3)

    def test_plateau_interior_empty(self, fm):
        assert quantile_range_of_point(fm, 0.4).is_empty()

    def test_inclusions(self, small_population):
        for f in small_population:
            for x in list(f.xs) + [f.xs[0] - 1.0, f.xs[-1] + 1.0]:
                lo, hi = f.left_value(x), f.value(x)
                s = quantile_range_of_point(f, x)
                for iv in s.components:
                    assert lo <= iv.lo and iv.hi <= hi
                if hi > lo:
                    mid = lo + 0.5 * (hi - lo)
                    assert s.contains(mid)
                    assert sd.left_quantile(f, mid) == x


class TestJumpGapBijection:
    def test_bernoulli_values(self, fb):
        assert jump_gap_values(fb, [0.4, 0.6]) == [0.2, 0.8]

    def test_mixed_value(self, fm):
        assert jump_gap_values(fm, [0.5]) == [0.375]

    def test_continuous_empty(self, fu):
        assert jump_gap_values(fu, []) == []

    def test_inverse_examples(self, fb, fm):
        assert jump_gap_weights(fb, [0.2, 0.8]) == pytest.approx([0.4, 0.6], abs=1e-12)
        assert jump_gap_weights(fm, [0.375]) == pytest.approx([0.5], abs=1e-12)

    def test_inverse_rejects_boundary(self, fb):
        with pytest.raises(AlphaNotInJumpInterval) as err:
            jump_gap_weights(fb, [0.5, 0.8])
        assert err.value.index == 0

    def test_length_mismatch(self, fb):
        with pytest.raises(LengthMismatch):
            jump_gap_values(fb, [0.5])
        with pytest.raises(LengthMismatch):
            jump_gap_weights(fb, [0.2])

    def test_weights_must_be_interior(self, fb):
        with pytest.raises(LambdaOutOfRange):
            jump_gap_values(fb, [0.0, 0.5])

    def test_roundtrip_and_avoidance(self, small_population):
        rng = np.random.default_rng(23)
        for f in small_population:
            attained = attained_values(f)
            m = len(f.jump_points)
            for _ in range(5):
                lams = rng.uniform(0.01, 0.99, size=m).tolist()
                vals = jump_gap_values(f, lams)
                for v, (_, lo, hi, _) in zip(vals, jump_rows(f)):
                    assert lo < v < hi
                    assert not attained.contains(v)
                back = jump_gap_weights(f, vals)
                assert back == pytest.approx(lams, abs=1e-12)

    def test_gap_union_is_unattained_part_of_unit(self, small_population):
        unit = RealSet.of(Interval.open(0.0, 1.0))
        for f in small_population:
            gaps = RealSet(tuple(Interval.open(j.lo, j.hi) for j in jump_rows(f)))
            assert gaps.intersect(unit) == unit.difference(attained_values(f))


class TestNullSet:
    def test_mixed_full_weight(self, fm):
        rep = inversion_null_set(fm, 1.0)
        assert rep.zero_set == RealSet.of(Interval(-INF, 0.0, False, True))
        assert rep.one_set == RealSet.of(Interval(1.0, INF, True, False))
        assert rep.plateau_union == RealSet.of(Interval.open(0.25, 0.5))
        assert rep.total_measure == 0.0

    def test_bernoulli_half_weight(self, fb):
        rep = inversion_null_set(fb, 0.5)
        assert rep.zero_set == RealSet.of(Interval.open(-INF, 0.0))
        # every x above the top atom still maps to 1: the set is (1, inf)
        assert rep.one_set == RealSet.of(Interval.open(1.0, INF))
        assert rep.plateau_union == RealSet.of(Interval.open(0.0, 1.0))
        assert rep.total_measure == 0.0

    def test_bernoulli_full_weight_flags_hypothesis(self, fb):
        rep = inversion_null_set(fb, 1.0)
        assert rep.one_set == RealSet.of(Interval(1.0, INF, True, False))
        assert rep.total_measure == 0.5
        assert measure_set(fb, rep.zero_set.union(rep.one_set)) == 0.5

    def test_plateau_union_always_null(self, small_population):
        for f in small_population:
            for lam in (0.25, 0.5, 0.75, 1.0):
                rep = inversion_null_set(f, lam)
                assert measure_set(f, rep.plateau_union) == 0.0

    def test_membership_matches_definition(self, small_population):
        for f in small_population[:10]:
            probes = np.concatenate(
                [np.asarray(f.xs), np.asarray(f.xs) - 1e-5, np.asarray(f.xs) + 1e-5, [-20.0, 20.0]]
            )
            for lam in (0.5, 1.0):
                rep = inversion_null_set(f, lam)
                for x in probes:
                    t = lambda_transform(f, x, lam)
                    assert rep.zero_set.contains(x) == (t == 0.0)
                    assert rep.one_set.contains(x) == (t == 1.0)


class TestInvertTransform:
    def test_mixed_atom(self, fm):
        assert invert_transform(fm, 0.5, 0.5) == 0.5

    def test_bernoulli_top(self, fb):
        assert invert_transform(fb, 1.0, 0.5) == 1.0

    def test_plateau_point_drops_to_left_quantile(self, fm):
        assert invert_transform(fm, 0.3, 1.0) == 0.25

    def test_rejects_boundary_values(self, fb):
        with pytest.raises(TransformOutOfRange):
            invert_transform(fb, -1.0, 0.5)  # transform is 0 there
        with pytest.raises(TransformOutOfRange):
            invert_transform(fb, 1.0, 1.0)  # transform is 1 there

    def test_never_exceeds_and_matches_off_null_set(self, small_population):
        for f in small_population:
            for lam in (0.25, 0.5, 0.75, 1.0):
                rep = inversion_null_set(f, lam)
                exceptional = rep.union()
                probes = np.concatenate(
                    [np.asarray(f.xs), np.asarray(f.xs) + 1e-5, np.asarray(f.xs) - 1e-5]
                )
                for x in probes:
                    t = lambda_transform(f, x, lam)
                    if t == 0.0 or t == 1.0:
                        assert exceptional.contains(x)
                        continue
                    y = invert_transform(f, x, lam)
                    assert y <= x + 1e-12
                    if not exceptional.contains(x):
                        tol = 0.0 if f.jump(x) > 0.0 else 1e-9
                        assert abs(y - x) <= tol
