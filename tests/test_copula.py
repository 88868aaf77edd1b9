import math

import numpy as np
import pytest

from stepdist import (
    CountermonotoneDimension,
    DimensionMismatch,
    EmptySample,
    NotAFlatLevel,
    StreamCollision,
    ValidationError,
)
from stepdist.copula import (
    CopulaSpec,
    JointSample,
    copula_at_flat_alpha,
    copula_eval,
    dt_copula,
    empirical_joint_cdf,
    generate_joint_sample,
    sklar_compose,
    sklar_identity_check,
)
from stepdist.stochastic import SeededStream, ks_uniformity

N = 100_000
KS_BOUND = 1.6276 / math.sqrt(N)


class TestCopulaEval:
    def test_independence(self):
        assert copula_eval(CopulaSpec.independence(2), (0.5, 0.5)) == 0.25

    def test_comonotone(self):
        assert copula_eval(CopulaSpec.comonotone(2), (0.5, 0.25)) == 0.25

    def test_countermonotone(self):
        assert copula_eval(CopulaSpec.countermonotone(), (0.3, 0.4)) == 0.0
        assert copula_eval(CopulaSpec.countermonotone(), (0.8, 0.7)) == pytest.approx(0.5)

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            copula_eval(CopulaSpec.independence(3), (0.5, 0.5))
        with pytest.raises(CountermonotoneDimension):
            CopulaSpec("countermonotone", 3)

    @pytest.mark.parametrize("dim", [2.5, 0, -1, "2", None])
    def test_dimension_is_a_positive_integer(self, dim):
        with pytest.raises(ValidationError, match="copula dimension"):
            CopulaSpec("independence", dim)

    def test_one_dimensional_copula(self):
        cop = CopulaSpec.independence(np.int64(1))
        assert type(cop.dim) is int and cop.dim == 1
        assert copula_eval(cop, (0.3,)) == 0.3

    def test_boundary_grounding_and_marginals(self):
        for cop in (CopulaSpec.independence(2), CopulaSpec.comonotone(2), CopulaSpec.countermonotone()):
            assert copula_eval(cop, (0.0, 0.7)) == 0.0
            assert copula_eval(cop, (0.7, 1.0)) == pytest.approx(0.7, abs=1e-15)

    def test_two_increasing_on_rectangles(self):
        rng = np.random.default_rng(31)
        kinds = (CopulaSpec.independence(2), CopulaSpec.comonotone(2), CopulaSpec.countermonotone())
        for cop in kinds:
            for _ in range(200):
                a = np.sort(rng.random(2))
                b = np.sort(rng.random(2))
                lo = np.minimum(a, b)
                hi = np.maximum(a, b)
                volume = (
                    copula_eval(cop, hi)
                    - copula_eval(cop, (lo[0], hi[1]))
                    - copula_eval(cop, (hi[0], lo[1]))
                    + copula_eval(cop, lo)
                )
                assert volume >= -1e-12


    @pytest.mark.parametrize("sample", [[0.1, 0.2], [], 0.5, [[[0.1, 0.2]]]])
    def test_empirical_needs_a_matrix(self, sample):
        # the dimension is read off the sample's columns, so a sample that is
        # not a matrix is rejected like the constructor rejects it
        with pytest.raises(ValidationError, match="N x d matrix"):
            CopulaSpec.empirical(sample)
        assert CopulaSpec.empirical([[0.1, 0.2]]).dim == 2


class TestSklarCompose:
    def test_independent_uniforms(self, fu):
        assert sklar_compose(CopulaSpec.independence(2), (fu, fu), (0.5, 0.5)) == 0.25

    def test_independent_bernoulli_atoms(self, fb):
        assert sklar_compose(CopulaSpec.independence(2), (fb, fb), (0.0, 0.0)) == 0.25

    def test_comonotone_mixed(self, fb, fu):
        assert sklar_compose(CopulaSpec.comonotone(2), (fb, fu), (0.0, 0.3)) == 0.3

    def test_marginal_recovery_exact(self, fb, fm, fu):
        marginals = (fb, fm, fu)
        for cop in (CopulaSpec.independence(3), CopulaSpec.comonotone(3)):
            for j, m in enumerate(marginals):
                for x in np.linspace(-1.0, 2.0, 41):
                    point = [math.inf] * 3
                    point[j] = x
                    assert sklar_compose(cop, marginals, point) == m.value(x)


class TestJointSampleGeneration:
    def test_independent_streams_recorded(self, fb, fu):
        s = generate_joint_sample((fb, fu), "independent", 100, seed=1)
        assert [st.stream_id for st in s.provenance] == [0, 1]
        assert s.rows.shape == (100, 2)

    def test_comonotone_shares_stream(self, fu, fm):
        s = generate_joint_sample((fu, fm), "comonotone", 100, seed=1)
        assert s.provenance[0] == s.provenance[1]

    def test_countermonotone_needs_two(self, fu):
        with pytest.raises(CountermonotoneDimension):
            generate_joint_sample((fu, fu, fu), "countermonotone", 10, seed=1)

    @pytest.mark.parametrize("dep", ["independent", "comonotone", "countermonotone"])
    @pytest.mark.parametrize("n", [2.7, "3"])
    def test_row_count_must_be_an_integer(self, fb, fu, dep, n):
        with pytest.raises(ValidationError, match="integer"):
            generate_joint_sample((fb, fu), dep, n, seed=1)

    @pytest.mark.parametrize("dep", ["independent", "comonotone", "countermonotone"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_row_count_must_be_positive(self, fb, fu, dep, n):
        with pytest.raises(EmptySample, match="need at least one draw"):
            generate_joint_sample((fb, fu), dep, n, seed=1)

    @pytest.mark.parametrize("dep", ["independent", "comonotone", "countermonotone"])
    def test_numpy_integer_row_count(self, fb, fu, dep):
        s = generate_joint_sample((fb, fu), dep, np.int64(3), seed=1)
        assert s.rows.shape == (3, 2)
        assert s.rows.tobytes() == generate_joint_sample((fb, fu), dep, 3, seed=1).rows.tobytes()

    def test_marginals_converge(self, fb, fm):
        s = generate_joint_sample((fb, fm), "independent", N, seed=42)
        for j, m in enumerate(s.marginals):
            for q in (0.2, 0.5, 0.8):
                assert abs((s.rows[:, j] <= q).mean() - m.value(q)) < 0.01


class TestDtCopula:
    def test_stream_collision(self, fb, fu):
        s = generate_joint_sample((fb, fu), "independent", 100, seed=1)
        with pytest.raises(StreamCollision):
            dt_copula(s, SeededStream(1, 1))

    def test_uniform_marginals(self, fb, fm):
        s = generate_joint_sample((fb, fm), "independent", N, seed=42)
        c = dt_copula(s, SeededStream(42, 2))
        for j in range(2):
            assert ks_uniformity(c.sample[:, j]) < KS_BOUND

    def test_independent_bernoulli_square(self, fb):
        s = generate_joint_sample((fb, fb), "independent", N, seed=42)
        c = dt_copula(s, SeededStream(42, 2))
        assert abs(copula_eval(c, (0.5, 0.5)) - 0.25) < 0.01

    def test_comonotone_diagonal(self, fu):
        s = generate_joint_sample((fu, fu), "comonotone", N, seed=42)
        c = dt_copula(s, SeededStream(42, 1))
        for g in (0.25, 0.5, 0.75):
            assert abs(copula_eval(c, (g, g)) - g) < 0.01

    def test_countermonotone_matches_floor(self, fu):
        s = generate_joint_sample((fu, fu), "countermonotone", N, seed=42)
        c = dt_copula(s, SeededStream(42, 1))
        for g1, g2 in ((0.3, 0.4), (0.8, 0.7), (0.5, 0.5)):
            expected = max(g1 + g2 - 1.0, 0.0)
            assert abs(copula_eval(c, (g1, g2)) - expected) < 0.01

    def test_one_dimensional_identity(self, fu):
        s = generate_joint_sample((fu,), "independent", N, seed=42)
        c = dt_copula(s, SeededStream(42, 1))
        for g in (0.2, 0.5, 0.8):
            assert abs(copula_eval(c, (g,)) - g) < 0.01

    def test_nan_row_is_rejected(self, fb, fm):
        # the transform would send the NaN coordinate to U = 1.0, and
        # empirical_joint_cdf would never count that row: the Sklar identity
        # would break without an error
        rows = [[0.0, 0.3], [math.nan, 0.6], [1.0, 0.9]]
        with pytest.raises(ValidationError):
            JointSample(rows, (fb, fm), (SeededStream(1, 0), SeededStream(1, 1)))


class TestSklarIdentity:
    def test_independent_bernoulli_grid(self, fb):
        s = generate_joint_sample((fb, fb), "independent", N, seed=42)
        c = dt_copula(s, SeededStream(42, 2))
        axis = (-0.5, 0.0, 0.5, 1.0)
        assert sklar_identity_check(s, c, [axis, axis]) < 0.01

    def test_grid_below_support(self, fb, fm):
        s = generate_joint_sample((fb, fm), "independent", 1000, seed=7)
        c = dt_copula(s, SeededStream(7, 2))
        assert sklar_identity_check(s, c, [[-5.0], [-5.0]]) == 0.0

    def test_comonotone_uniforms(self, fu):
        s = generate_joint_sample((fu, fu), "comonotone", N, seed=42)
        c = dt_copula(s, SeededStream(42, 1))
        axis = np.linspace(0.1, 0.9, 5)
        assert sklar_identity_check(s, c, [axis, axis]) < 0.01

    def test_empty_axis(self, fb, fm):
        s = generate_joint_sample((fb, fm), "independent", 100, seed=7)
        c = dt_copula(s, SeededStream(7, 2))
        assert sklar_identity_check(s, c, [[], []]) == 0.0
        assert sklar_identity_check(s, c, [[0.0, 0.5], []]) == 0.0
        assert sklar_identity_check(s, CopulaSpec.independence(2), [[], [1.0]]) == 0.0

    def test_wrong_number_of_axes(self, fb, fm):
        s = generate_joint_sample((fb, fm), "independent", 100, seed=7)
        c = dt_copula(s, SeededStream(7, 2))
        with pytest.raises(DimensionMismatch):
            sklar_identity_check(s, c, [[0.0, 0.5]])
        with pytest.raises(DimensionMismatch):
            sklar_identity_check(s, c, [[0.0], [0.0], [0.0]])
        with pytest.raises(DimensionMismatch):
            sklar_identity_check(s, c, [])

    def test_nan_coordinate(self, fb, fm):
        s = generate_joint_sample((fb, fm), "independent", 100, seed=7)
        c = dt_copula(s, SeededStream(7, 2))
        with pytest.raises(ValidationError):
            sklar_identity_check(s, c, [[0.0, 0.5], [math.nan, 0.5]])
        # a NaN is an error even when another axis is empty
        with pytest.raises(ValidationError):
            sklar_identity_check(s, c, [[math.nan], []])
        # the number of axes is checked first
        with pytest.raises(DimensionMismatch):
            sklar_identity_check(s, c, [[math.nan, 0.5]])

    def test_copula_dimension_mismatch(self, fb, fm):
        s = generate_joint_sample((fb, fm), "independent", 100, seed=7)
        with pytest.raises(DimensionMismatch):
            sklar_identity_check(s, CopulaSpec.independence(3), [[0.0], [0.0]])


class TestFlatAlpha:
    def test_independent_bernoulli(self, fb):
        s = generate_joint_sample((fb, fb), "independent", N, seed=42)
        c = dt_copula(s, SeededStream(42, 2))
        lhs, rhs = copula_at_flat_alpha(s, c, (0.5, 0.5))
        assert abs(lhs - 0.25) < 0.01 and abs(rhs - 0.25) < 0.01

    def test_not_a_flat_level(self, fb):
        s = generate_joint_sample((fb, fb), "independent", 1000, seed=1)
        c = dt_copula(s, SeededStream(1, 2))
        with pytest.raises(NotAFlatLevel) as err:
            copula_at_flat_alpha(s, c, (0.5, 0.3))
        assert err.value.index == 1

    def test_dimension_mismatch_names_both_dimensions(self, fb):
        s = generate_joint_sample((fb, fb), "independent", 100, seed=1)
        with pytest.raises(DimensionMismatch, match="^copula dimension 3 vs sample 2$"):
            copula_at_flat_alpha(s, CopulaSpec.independence(3), (0.5, 0.5))
        with pytest.raises(DimensionMismatch, match="^1 levels for dimension 2$"):
            copula_at_flat_alpha(s, CopulaSpec.independence(2), (0.5,))

    def test_mixed_pair(self, fm):
        s = generate_joint_sample((fm, fm), "independent", N, seed=42)
        c = dt_copula(s, SeededStream(42, 2))
        lhs, rhs = copula_at_flat_alpha(s, c, (0.25, 0.25))
        assert abs(lhs - 0.0625) < 0.01 and abs(rhs - 0.0625) < 0.01


class TestEmpiricalJointCdf:
    def test_counts_weakly(self, fb):
        s = generate_joint_sample((fb, fb), "independent", 1000, seed=3)
        assert empirical_joint_cdf(s, (1.0, 1.0)) == 1.0
        assert empirical_joint_cdf(s, (-1.0, 1.0)) == 0.0

    def test_nan_coordinate(self, fb):
        s = generate_joint_sample((fb, fb), "independent", 100, seed=3)
        for x in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValidationError):
                empirical_joint_cdf(s, x)
