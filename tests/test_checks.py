import json
from collections import Counter

import numpy as np
import pytest

from stepdist import Cdf, cdf, checks, measure, stochastic, transform
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
from stepdist.realset import Interval
from stepdist.transform import _attained_ends
from test_check_oracle import with_rows


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

    def test_probe_grid_is_searched_once_per_table_column(self, fm, small_population, monkeypatch):
        # one run builds one grid table: F, F(x-) and the jump from one
        # value_parts search, and the transform at every weight formed from them
        # without a search.  One check searches the grid once more for the function
        # it verifies: the sandwich check the transform at weight 0; the
        # quantile-range check builds its ranges from F and F(x-) in the table.  The
        # null-set check inverts the transforms of all weights in one left-quantile
        # pass, and the quantile-range check maps its levels back in one more.  One
        # level table holds the levels of the rows (with the transform at q formed
        # off them), the jump levels of the uniformity check and the round-trip
        # levels of jump_set: one left-quantile pass, from which the law of the
        # transform, the uniformity check and the jump characterization read their
        # slices.  These array checks, and the jump-gap round trip, scan no level and
        # evaluate F at no single point: none of them does so once per jump.  The
        # null-set check reads its exceptional sets off the breakpoints, with no
        # inversion_null_set report: the one measure_set call of a run is the total
        # mass check's.  The level table takes F, F(x-) and the jump at its ends from
        # one value_parts search, its only search outside the ramp corrections of its
        # left quantiles, and no check searches those ends again
        grids = []
        calls = Counter()
        inside = [None]
        building = [None]  # "table" while a level table is built, "correcting" in its ramp corrections
        ends = []  # the ends of every level table built in this run

        def on_grid(x):
            return bool(grids) and x is grids[-1]

        def at_ends(f, x):
            # the grid and the breakpoints are no level ends, even where every value is one
            x = np.asarray(x)
            if not ends or not x.size or on_grid(x) or np.array_equal(x, f.xs):
                return False
            return bool(np.isin(x, np.concatenate(ends)).all())

        def tabled(module):
            inner = module._level_ends

            def run(f, a):
                calls["level table"] += 1
                building[0] = "table"
                try:
                    table = inner(f, a)
                finally:
                    building[0] = None
                ends.append(np.concatenate((table.lo, table.hi, table.start)))
                return table

            monkeypatch.setattr(module, "_level_ends", run)

        raise_to_level = cdf._raise_to_level

        def correcting(*args):
            before = building[0]
            building[0] = before and "correcting"
            try:
                return raise_to_level(*args)
            finally:
                building[0] = before

        def wrapped(owner, name, key):
            inner = getattr(owner, name)

            def run(*args):
                calls[key(*args)] += 1
                return inner(*args)

            monkeypatch.setattr(owner, name, run)

        def flagged(name, label):
            inner = getattr(checks, name)

            def run(*args):
                before, inside[0] = inside[0], label
                try:
                    return inner(*args)
                finally:
                    inside[0] = before

            monkeypatch.setattr(checks, name, run)

        probe = checks.probe_grid
        monkeypatch.setattr(checks, "probe_grid", lambda f: grids.append(probe(f)) or grids[-1])
        wrapped(MonotoneStepLinear, "_locate", lambda self, x: ("search", on_grid(x)))
        wrapped(MonotoneStepLinear, "value_parts", lambda self, x: ("value_parts", on_grid(x)))
        wrapped(checks, "lambda_transforms", lambda f, x, lam: ("transform", on_grid(x), lam))
        for module in (checks, cdf):
            wrapped(module, "_left_quantiles", lambda f, a: ("left quantiles", inside[0]))
        for module in (cdf, transform, measure):
            wrapped(module, "_left_quantile_unchecked", lambda f, a: ("scan", inside[0]))
        wrapped(MonotoneStepLinear, "_point", lambda self, x: ("point", inside[0]))
        monkeypatch.setattr(cdf, "_raise_to_level", correcting)
        wrapped(MonotoneStepLinear, "value_parts", lambda self, x: ("value_parts", building[0]))
        wrapped(MonotoneStepLinear, "_locate", lambda self, x: ("search", building[0]))
        wrapped(MonotoneStepLinear, "_locate", lambda self, x: ("at ends", building[0] or inside[0], at_ends(self, x)))
        for module in (checks, stochastic):
            tabled(module)
        array_checks = (
            "_check_transform_sandwich",
            "_check_quantile_sandwich",
            "_check_quantile_ranges",
            "_check_null_sets",
            "_check_transform_cdf",
            "_check_uniformity_displays",
            "_check_phi_roundtrip",
        )
        for name in array_checks:
            flagged(name, name)
        flagged("_check_total_mass", "_check_total_mass")
        wrapped(transform, "inversion_null_set", lambda f, lam: ("inversion_null_set",))
        for module in (checks, transform, measure):
            wrapped(module, "measure_set", lambda f, s: ("measure_set", inside[0]))
        for f in (fm, *small_population[:4]):
            calls.clear()
            ends.clear()
            failed = [c for c in analytic_checks(f) if not c.passed]
            assert not failed, failed
            assert calls["level table"] == calls["value_parts", "table"] == calls["search", "table"] == 1
            assert all(calls["at ends", name, True] == 0 for name in array_checks)
            # the table and the sandwich's weight 0, each a value_parts call
            assert calls["search", True] == calls["value_parts", True] == 2
            assert calls["transform", True, 0.0] == 1
            assert all(calls["transform", True, lam] == 0 for lam in LAMBDA_GRID)
            # the sandwich's weights 0.3 and 0.7, only where F does not jump; none at the rows
            assert calls["transform", False, 0.3] == calls["transform", False, 0.7] == 1
            assert sum(calls[key] for key in calls if key[0] == "transform") == 3
            assert calls["left quantiles", "_check_null_sets"] == 1
            assert calls["left quantiles", "_check_quantile_ranges"] == 1
            assert calls["left quantiles", "_check_transform_cdf"] == 0
            assert calls["left quantiles", "_check_uniformity_displays"] == 0
            assert calls["left quantiles", None] == 1  # the one level table
            assert all(calls[kind, name] == 0 for kind in ("scan", "point") for name in array_checks)
            assert calls["point", "_check_total_mass"] > 0
            assert calls["inversion_null_set",] == 0
            assert {key: n for key, n in calls.items() if key[0] == "measure_set"} == {("measure_set", "_check_total_mass"): 1}

    def test_null_set_check_counts_a_nan_transform_as_one_bad_point(self, fm):
        # a NaN transform has no left quantile: the check counts it and does
        # not hand it to the array kernel, where it would index past xs
        grid = probe_grid(fm)
        fx, left, jump, ts = checks._grid_parts(fm, grid)
        assert checks._check_null_sets(fm, grid, (fx, left, jump, ts)).value == 0
        for k in range(len(grid)):
            t = ts[0].copy()
            t[k] = np.nan
            res = checks._check_null_sets(fm, grid, (fx, left, jump, (t, *ts[1:])))
            assert res.value == 1 and not res.detail

    def test_overlapping_jump_gaps_are_counted(self):
        # the gaps of successive jumps must be disjoint; rows whose gaps (0, 0.6) and
        # (0.4, 1) overlap count once for the overlap, beside the complement mismatch
        # (their merged set (0, 1) has no gap at the attained 0.5)
        f = Cdf(xs=(0.0, 1.0), atoms=(0.5, 0.5), rises=(0.0,))
        attained = _attained_ends(f)
        assert checks._check_jump_gaps(f, attained).value == 0
        rows = (f._jumps[0]._replace(hi=0.6), f._jumps[1]._replace(lo=0.4))
        assert checks._check_jump_gaps(with_rows(f, rows), attained).value == 2

    def test_jump_columns_are_built_once_per_cdf(self, fm, small_population):
        # the readers of the jump table's columns share one read-only conversion of
        # the rows, made on first use and kept beside them across runs
        for law in (fm, *small_population[:4]):
            f = with_rows(law, law._jumps)
            assert f._jump_cols is None
            analytic_checks(f)
            cols = f._jump_cols
            assert cols.tobytes() == np.array(f._jumps, dtype=float).reshape(-1, 4).T.tobytes()
            assert not cols.flags.writeable
            analytic_checks(f)
            assert cdf._jump_columns(f) is cols

    def test_attained_values_are_built_once_per_run(self, fm, small_population, monkeypatch):
        # the two jump-gap checks read the component ends analytic_checks builds
        # beside the rows
        calls = []
        inner = checks._attained_ends
        monkeypatch.setattr(checks, "_attained_ends", lambda f: calls.append(f) or inner(f))
        for f in (fm, *small_population[:4]):
            calls.clear()
            failed = [c for c in analytic_checks(f) if not c.passed]
            assert not failed, failed
            assert calls == [f]

    def test_level_columns_build_no_interval(self, fm, small_population, monkeypatch):
        # a level's sets are read off its ends: the level rows and the checks that
        # read them, the uniformity check's jump levels included, construct no
        # Interval, so no RealSet either, while the rest of the suite does.  Nor do
        # the jump-gap checks, which compare and search the sorted ends of the
        # attained values, and the law of the transform
        built = Counter()
        inside = [None]
        post_init = Interval.__post_init__
        monkeypatch.setattr(Interval, "__post_init__", lambda iv: built.update([inside[0]]) or post_init(iv))

        def marked(name):
            inner = getattr(checks, name)

            def run(*args):
                before, inside[0] = inside[0], name
                try:
                    return inner(*args)
                finally:
                    inside[0] = before

            monkeypatch.setattr(checks, name, run)

        names = (
            "_level_rows",
            "_check_level_set_cases",
            "_check_flat_mass",
            "_check_sublevel_union",
            "_check_uniformity_displays",
            "_check_jump_characterization",
            "_check_jump_gaps",
            "_check_phi_roundtrip",
            "_check_transform_cdf",
        )
        for name in names:
            marked(name)
        for f in (fm, *small_population[:4]):
            built.clear()
            failed = [c for c in analytic_checks(f) if not c.passed]
            assert not failed, failed
            assert built[None] > 0
            assert all(built[name] == 0 for name in names), built

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
        "f, check, error, numeric",
        [
            # a 1e-300 atom cannot move F: its jump gap is empty in floats
            (
                Cdf(xs=(0.0, 1.0, 2.0, 3.0), atoms=(0.5, 1e-300, 0.0, 0.5), rises=(0.0, 0.0, 0.0)),
                "jump_gap_roundtrip",
                "AlphaNotInJumpInterval",
                {},
            ),
            # the span overflows: the mass check's cut points come out NaN, and numpy
            # warns of the overflow and of the NaN that follow
            (
                Cdf(xs=(-1e308, 1e308), atoms=(0.0, 0.0), rises=(1.0,)),
                "total_mass_and_df_conditions",
                "MalformedInterval",
                {"over": "ignore", "invalid": "ignore"},
            ),
        ],
    )
    def test_raised_error_is_that_checks_fail(self, fb, f, check, error, numeric):
        with np.errstate(**numeric):
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
