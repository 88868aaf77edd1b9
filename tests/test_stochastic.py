import math

import numpy as np
import pytest
import scipy.stats

import stepdist as sd
from stepdist import EmptySample, StreamCollision, ValidationError
from stepdist.measure import measure_value_level
from stepdist.stochastic import (
    SeededStream,
    distributional_transform,
    inversion_check,
    ks_uniformity,
    sample_inverse,
    transform_cdf_exact,
)

N = 100_000
KS_BOUND = 1.6276 / math.sqrt(N)


class TestSeededStream:
    def test_reproducible(self):
        a = SeededStream(42, 0).uniforms(1000)
        b = SeededStream(42, 0).uniforms(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeededStream(42, 0).uniforms(1000)
        b = SeededStream(42, 1).uniforms(1000)
        assert not np.array_equal(a, b)

    def test_open_interval(self):
        u = SeededStream(7, 3).uniforms(200_000)
        assert (u > 0.0).all() and (u < 1.0).all()

    def test_seed_validation(self):
        with pytest.raises(ValidationError):
            SeededStream(-1, 0)
        with pytest.raises(ValidationError):
            SeededStream(1, -2)

    @pytest.mark.parametrize("seed, stream_id", [(7, 0.5), (7.9, 0), ("7", 0), (7, "0"), (None, 0), (7, 1.0)])
    def test_fields_must_be_integers(self, seed, stream_id):
        # truncating would give SeededStream(7, 0.5) the draws of stream 0
        with pytest.raises(ValidationError, match="must be an integer"):
            SeededStream(seed, stream_id)

    def test_numpy_integers_are_stored_as_ints(self):
        s = SeededStream(np.uint64(7), np.int64(2))
        assert type(s.seed) is int and type(s.stream_id) is int
        assert s == SeededStream(7, 2)
        assert np.array_equal(s.uniforms(100), SeededStream(7, 2).uniforms(100))

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_uniforms_count_must_be_an_integer(self, n):
        # truncating would give uniforms(2.5) the draws of uniforms(2)
        with pytest.raises(ValidationError, match="must be an integer"):
            SeededStream(7).uniforms(n)

    def test_uniforms_count_must_be_nonnegative(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            SeededStream(7).uniforms(-1)

    def test_uniforms_count_zero_and_numpy_integers(self):
        assert SeededStream(7).uniforms(0).shape == (0,)
        assert np.array_equal(SeededStream(7).uniforms(np.int64(5)), SeededStream(7).uniforms(5))


class TestSampleInverse:
    def test_bernoulli_atom_frequency(self, fb):
        xs = sample_inverse(fb, SeededStream(42, 0), N)
        assert set(np.unique(xs)) == {0.0, 1.0}
        assert abs((xs == 0.0).mean() - 0.5) < 0.005  # 3 sigma of binomial

    def test_uniform_single_draw(self, fu):
        x = sample_inverse(fu, SeededStream(5, 0), 1)
        assert x.shape == (1,) and 0.0 < x[0] < 1.0

    def test_mixed_atom_frequency(self, fm):
        xs = sample_inverse(fm, SeededStream(7, 0), N)
        assert abs((xs == 0.5).mean() - 0.25) < 0.005

    def test_empirical_cdf_converges(self, fm):
        xs = sample_inverse(fm, SeededStream(11, 0), N)
        for q in (0.1, 0.3, 0.6, 0.9):
            assert abs((xs <= q).mean() - fm.value(q)) < 0.01

    def test_empty(self, fu):
        with pytest.raises(EmptySample):
            sample_inverse(fu, SeededStream(1, 0), 0)

    @pytest.mark.parametrize("n", [2.7, 3.0, "3"])
    def test_draw_count_must_be_an_integer(self, fu, n):
        with pytest.raises(ValidationError, match="integer"):
            sample_inverse(fu, SeededStream(1, 0), n)

    def test_numpy_integer_draw_count(self, fu):
        assert sample_inverse(fu, SeededStream(1, 0), np.int64(3)).shape == (3,)


class TestDistributionalTransform:
    def test_continuous_case_ignores_v(self, fu):
        xs = np.array([0.1, 0.5, 0.99])
        u1 = distributional_transform(fu, xs, SeededStream(1, 5))
        u2 = distributional_transform(fu, xs, SeededStream(2, 6))
        assert np.array_equal(u1, fu.values(xs))
        assert np.array_equal(u1, u2)

    def test_atom_spreads_uniformly(self, fb):
        xs = np.zeros(10_000)
        us = distributional_transform(fb, xs, SeededStream(3, 1))
        assert (us > 0.0).all() and (us < 0.5).all()
        v = SeededStream(3, 1).uniforms(10_000)
        assert np.array_equal(us, 0.5 * v)

    @pytest.mark.parametrize("xs", [math.nan, [0.5, math.nan, 0.25]])
    def test_nan_point_is_rejected(self, fm, xs):
        with pytest.raises(ValidationError, match="NaN"):
            distributional_transform(fm, xs, SeededStream(1, 1))

    def test_transform_lands_in_value_gap(self, fm):
        xs = sample_inverse(fm, SeededStream(4, 0), 5000)
        us = distributional_transform(fm, xs, SeededStream(4, 1))
        assert (fm.left_values(xs) <= us).all()
        assert (us <= fm.values(xs)).all()

    def test_uniformity_all_dists(self, fb, fm, fu):
        for f in (fb, fm, fu):
            for seed in (1, 2, 3):
                x_stream = SeededStream(seed, 0)
                xs = sample_inverse(f, x_stream, N)
                us = distributional_transform(f, xs, SeededStream(seed, 1), x_stream=x_stream)
                assert ks_uniformity(us) < KS_BOUND

    def test_stream_collision(self, fb):
        s = SeededStream(1, 0)
        with pytest.raises(StreamCollision):
            distributional_transform(fb, [0.0], s, x_stream=s)


class TestTransformCdfExact:
    def test_matched_bernoulli(self, fb):
        br = transform_cdf_exact(fb, fb, 0.3)
        assert br.total == 0.3
        assert br.atom_coef == pytest.approx(-0.4, abs=1e-15)
        assert br.term_flat == 0.0 and br.term_atom == 0.0 and br.term_left == 0.0

    def test_point_mass_inside_plateau(self, fb):
        law = sd.point_mass(0.25)
        br = transform_cdf_exact(fb, law, 0.5)
        assert br.term_flat == 1.0
        assert br.term_left == -0.5
        assert br.term_atom == 0.0
        assert br.total == 1.0

    def test_matched_uniform(self, fu):
        assert transform_cdf_exact(fu, fu, 0.7).total == 0.7

    def test_matched_is_identity_everywhere(self, small_population):
        for f in small_population:
            levels = [i / 20 for i in range(1, 20)] + list(f.plateau_levels)
            for a in levels:
                assert transform_cdf_exact(f, f, a).total == pytest.approx(a, abs=1e-12)

    def test_monte_carlo_bridge(self, fb, fm, fu):
        for f in (fb, fm, fu):
            x_stream = SeededStream(42, 0)
            xs = sample_inverse(f, x_stream, N)
            us = distributional_transform(f, xs, SeededStream(42, 1), x_stream=x_stream)
            for a in (0.2, 0.5, 0.8):
                exact = transform_cdf_exact(f, f, a).total
                se = math.sqrt(exact * (1 - exact) / N)
                assert abs((us <= a).mean() - exact) < 4 * se


class TestKsStatistic:
    def test_centered_grid(self):
        n = 128
        us = [(i - 0.5) / n for i in range(1, n + 1)]
        assert ks_uniformity(us) == 0.5 / n

    def test_single_values(self):
        assert ks_uniformity([0.5]) == 0.5
        assert ks_uniformity([1.0]) == 1.0

    def test_empty(self):
        with pytest.raises(EmptySample):
            ks_uniformity([])

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            ks_uniformity([0.5, 1.2])

    def test_matches_scipy(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            us = rng.random(500)
            ours = ks_uniformity(us)
            theirs = scipy.stats.kstest(us, "uniform").statistic
            assert ours == pytest.approx(theirs, abs=1e-12)

    @staticmethod
    def ks_stable_sort(us) -> float:
        """The statistic as computed with a stable sort."""
        s = np.sort(np.asarray(us, dtype=float), kind="stable").ravel()
        n = s.size
        upper = np.arange(1, n + 1, dtype=float) / n
        lower = np.arange(0, n, dtype=float) / n
        return max(float((upper - s).max()), float((s - lower).max()))

    def test_same_bits_as_stable_sort(self, small_population):
        rng = np.random.default_rng(17)
        samples = []
        for i, f in enumerate(small_population):
            stream = SeededStream(31, 2 * i)
            draws = sample_inverse(f, stream, 2000)
            samples.append(distributional_transform(f, draws, SeededStream(31, 2 * i + 1)))
        samples.append(np.round(rng.random(5000), 2))  # heavy ties
        samples.append(np.repeat(rng.random(50), 40))
        signed_zeros = np.array([0.0, -0.0] * 300 + [0.5, 0.25, 0.25, 1.0] * 50)
        for _ in range(5):
            samples.append(rng.permutation(signed_zeros))
        samples.append(np.concatenate([-np.zeros(100), rng.random(400), np.zeros(100)]))
        for us in samples:
            assert np.float64(ks_uniformity(us)).tobytes() == np.float64(self.ks_stable_sort(us)).tobytes()

    def test_array_of_any_shape_is_one_sample(self):
        us = np.random.default_rng(3).random(600)
        assert ks_uniformity(us.reshape(20, 30)) == ks_uniformity(us)
        assert ks_uniformity(us.reshape(20, 30)) == self.ks_stable_sort(us)


class TestNecessityOfContinuity:
    def test_bernoulli_value_law_has_atom(self, fb):
        # the law of F(X) puts mass exactly 0.5 at the level 0.5: not uniform
        assert measure_value_level(fb, fb.value(0.0)) == 0.5

    def test_every_jump_shows_up_exactly(self, small_population):
        for f in small_population:
            for x, mass in zip(f.jump_points, f.jump_masses):
                assert measure_value_level(f, f.value(x)) == pytest.approx(mass, abs=1e-12)


class TestInversionCheck:
    def test_zero_failures(self, fb, fm, fu):
        for f, seed in ((fb, 1), (fm, 2), (fu, 3)):
            rep = inversion_check(f, SeededStream(seed, 0), N)
            assert rep.failures == 0

    def test_shortcut_applies_to_continuous_top(self, fu, fm, fb):
        assert inversion_check(fu, SeededStream(3, 0), 1000).shortcut_failures == 0
        assert inversion_check(fm, SeededStream(3, 0), 1000).shortcut_failures == 0
        assert inversion_check(fb, SeededStream(3, 0), 1000).shortcut_failures is None

    def test_report_echoes_seed_policy(self, fu):
        rep = inversion_check(fu, SeededStream(9, 4), 100)
        assert (rep.seed, rep.stream_id, rep.n) == (9, 4, 100)

    @pytest.mark.parametrize("n", [2.5, 2.0])
    def test_draw_count_must_be_an_integer(self, fu, n):
        with pytest.raises(ValidationError, match="integer"):
            inversion_check(fu, SeededStream(1, 0), n)

    def test_numpy_integer_draw_count(self, fu):
        assert inversion_check(fu, SeededStream(1, 0), np.int32(5)).n == 5
