import pytest

from stepdist import Cdf
from stepdist.checks import (
    alpha_population,
    analytic_checks,
    default_copula_grid,
    sklar_checks,
    stochastic_checks,
)


class TestAlphaPopulation:
    def test_covers_structure(self, fm):
        levels = alpha_population(fm)
        assert len(levels) >= 50
        assert all(0.0 < a < 1.0 for a in levels)
        for p in fm.plateau_levels:
            assert p in levels
        # interior of the jump gap at the atom
        assert any(0.25 < a < 0.5 and fm.left_value(0.5) < a < fm.value(0.5) for a in levels)


class TestAnalyticSuite:
    def test_canonical_distributions(self, fb, fm, fu):
        for f in (fb, fm, fu):
            results = analytic_checks(f)
            assert len(results) == 14
            failed = [c for c in results if not c.passed]
            assert not failed, failed

    def test_random_population(self, small_population):
        for f in small_population:
            failed = [c for c in analytic_checks(f) if not c.passed]
            assert not failed, failed

    @pytest.mark.parametrize(
        "f",
        [
            Cdf(xs=(0.0, 1.0, 2.0, 3.0), atoms=(0.25, 0.0, 0.0, 0.0), rises=(0.25, 1e-20, 0.5)),
            Cdf(xs=(0.0, 1.0, 2.0), atoms=(0.5, 0.0, 0.0), rises=(1e-300, 0.5)),
            Cdf(xs=(0.0, 1.0, 2.0, 3.0), atoms=(0.25, 0.0, 0.25, 0.0), rises=(0.25, 1e-20, 0.25)),
        ],
    )
    def test_rises_too_small_to_move_f(self, f):
        # F is flat in floats across the tiny rise, so no level's left
        # quantile lies inside or at the right end of that segment
        failed = [c for c in analytic_checks(f) if not c.passed]
        assert not failed, failed


class TestStochasticSuite:
    @pytest.mark.parametrize("seed", [1, 42])
    def test_passes(self, fm, seed):
        failed = [c for c in stochastic_checks(fm, seed=seed, n=20_000) if not c.passed]
        assert not failed, failed

    def test_check_names_stable(self, fu):
        names = [c.name for c in stochastic_checks(fu, seed=42, n=5_000)]
        assert names == ["ks_uniformity", "inversion_failures", "mc_bridge_4se"]


class TestSklarSuite:
    def test_mixed_pair(self, fb, fm):
        for dep in ("independent", "comonotone"):
            failed = [c for c in sklar_checks((fb, fm), dep, 20_000, seed=42) if not c.passed]
            assert not failed, failed

    def test_grid_contains_offset_breakpoints(self, fb, fm):
        grid = default_copula_grid((fb, fm))
        firsts = {p[0] for p in grid}
        assert {-0.25, 0.0, 0.25, 0.75, 1.0, 1.25} <= firsts
