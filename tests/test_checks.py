import json
from collections import Counter

import numpy as np
import pytest

from stepdist import Cdf, checks
from stepdist.checks import (
    LAMBDA_GRID,
    alpha_population,
    analytic_checks,
    default_copula_grid,
    probe_grid,
    sklar_checks,
    stochastic_checks,
)
from stepdist.monotone import MonotoneStepLinear
from stepdist.realset import RealSet
from stepdist.transform import lambda_transforms


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

    def test_null_set_check_evaluates_each_pair_once(self, fm, monkeypatch):
        # inside the null-set check, outside the null sets and their measures,
        # the only scalar evaluation is the one invert_transform makes: t comes
        # from one array transform per weight and the jumps from one array pass
        grid = probe_grid(fm)
        pairs = [
            (x, lam)
            for lam in LAMBDA_GRID
            for x, t in zip(grid, lambda_transforms(fm, grid, lam))
            if 0.0 < t < 1.0
        ]
        assert len(grid) * len(LAMBDA_GRID) == 76 and len(pairs) == 44
        counting = [False]
        points = [0]
        inverted = Counter()
        point = MonotoneStepLinear._point
        invert = checks.invert_transform

        def counted_point(self, x):
            points[0] += counting[0]
            return point(self, x)

        def counted_invert(f, x, lam):
            inverted[x, lam] += 1
            return invert(f, x, lam)

        def with_counting(fn, on):
            def run(*args):
                before, counting[0] = counting[0], on
                try:
                    return fn(*args)
                finally:
                    counting[0] = before

            return run

        monkeypatch.setattr(MonotoneStepLinear, "_point", counted_point)
        monkeypatch.setattr(checks, "invert_transform", counted_invert)
        monkeypatch.setattr(checks, "_check_null_sets", with_counting(checks._check_null_sets, True))
        for name in ("inversion_null_set", "measure_set"):
            monkeypatch.setattr(checks, name, with_counting(getattr(checks, name), False))
        failed = [c for c in analytic_checks(fm) if not c.passed]
        assert not failed, failed
        assert inverted == Counter(pairs)
        assert points[0] <= len(pairs)

    def test_set_algebra_once_per_distinct_split(self, fm, small_population, monkeypatch):
        # a row keeps each distinct sublevel split once, with the weights that
        # give it: the sublevel check forms at most three intersections and two
        # unions per distinct split, and the flat-mass check measures each
        # split's beyond part once (and the level set once per row)
        calls = Counter()
        inside = [None]

        def counted(owner, name):
            inner = getattr(owner, name)

            def run(*args):
                calls[inside[0], name] += 1
                return inner(*args)

            monkeypatch.setattr(owner, name, run)

        def marked(check):
            inner = getattr(checks, check)

            def run(*args):
                before, inside[0] = inside[0], check
                try:
                    return inner(*args)
                finally:
                    inside[0] = before

            monkeypatch.setattr(checks, check, run)

        counted(RealSet, "intersect")
        counted(RealSet, "union")
        counted(checks, "measure_set")
        marked("_check_sublevel_union")
        marked("_check_flat_mass")
        for f in (fm, *small_population[:4]):
            rows = checks._level_rows(f, alpha_population(f))
            distinct = sum(len(splits) for *_, splits in rows)
            assert len(rows) < distinct < 2 * len(rows)
            calls.clear()
            failed = [c for c in analytic_checks(f) if not c.passed]
            assert not failed, failed
            assert calls["_check_sublevel_union", "intersect"] <= 3 * distinct
            assert calls["_check_sublevel_union", "union"] == 2 * distinct
            assert calls["_check_flat_mass", "measure_set"] == distinct + len(rows)

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

    @pytest.mark.parametrize(
        "f, check, error",
        [
            # a 1e-300 atom cannot move F: its jump gap is empty in floats
            (
                Cdf(xs=(0.0, 1.0, 2.0, 3.0), atoms=(0.5, 1e-300, 0.0, 0.5), rises=(0.0, 0.0, 0.0)),
                "jump_gap_roundtrip",
                "AlphaNotInJumpInterval",
            ),
            # the span overflows: the mass check's cut points come out NaN
            (
                Cdf(xs=(-1e308, 1e308), atoms=(0.0, 0.0), rises=(1.0,)),
                "total_mass_and_df_conditions",
                "MalformedInterval",
            ),
        ],
    )
    def test_raised_error_is_that_checks_fail(self, fb, f, check, error):
        results = analytic_checks(f)
        assert len(results) == 14
        assert [c.name for c in results] == [c.name for c in analytic_checks(fb)]
        (raised,) = [c for c in results if c.detail.startswith("raised ")]
        assert raised.name == check
        assert not raised.passed and raised.value == 1.0
        assert error in raised.detail
        json.dumps([c.value for c in results], allow_nan=False)


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
        axes = default_copula_grid((fb, fm))
        assert len(axes) == 2
        assert {-0.25, 0.0, 0.25, 0.75, 1.0, 1.25} <= set(axes[0])
        for axis in axes:
            assert np.all(np.diff(axis) > 0)
