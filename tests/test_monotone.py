import math

import numpy as np
import pytest

from stepdist import (
    Cdf,
    DegenerateRange,
    MonotoneStepLinear,
    ValidationError,
    df_condition_report,
    parse_distribution,
)
from stepdist.cdf import normalize


def halved_bernoulli():
    return MonotoneStepLinear(xs=(0.0, 1.0), atoms=(0.25, 0.25), rises=(0.0,))


class TestEvaluation:
    def test_value_includes_atom(self, fb):
        assert fb.value(0.0) == 0.5

    def test_value_on_flat_segment(self, fm):
        assert fm.value(0.3) == 0.25

    def test_value_below_support(self, fb):
        assert fb.value(-7.0) == 0.0

    def test_left_value_at_atom(self, fb):
        assert fb.left_value(0.0) == 0.0

    def test_left_value_at_mixed_atom(self, fm):
        assert fm.left_value(0.5) == 0.25

    def test_left_value_continuity_point(self, fm):
        assert fm.left_value(0.75) == fm.value(0.75) == 0.75

    def test_jump_values(self, fb, fm):
        assert fb.jump(1.0) == 0.5
        assert fm.jump(0.5) == 0.25
        assert fm.jump(0.3) == 0.0

    def test_limits_at_infinity(self, fm):
        assert fm.value(np.inf) == 1.0
        assert fm.value(-np.inf) == 0.0
        assert fm.left_value(np.inf) == 1.0

    def test_vectorized_matches_scalar(self, fm):
        xs = np.array([-1.0, 0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0, 2.0])
        assert np.array_equal(fm.values(xs), [fm.value(x) for x in xs])
        assert np.array_equal(fm.left_values(xs), [fm.left_value(x) for x in xs])
        assert np.array_equal(fm.jumps(xs), [fm.jump(x) for x in xs])

    def test_nan_rejected(self, fb):
        with pytest.raises(ValidationError):
            fb.value(float("nan"))


class TestValidation:
    def test_unsorted_breakpoints(self):
        with pytest.raises(ValidationError):
            MonotoneStepLinear(xs=(1.0, 0.0), atoms=(0.5, 0.5), rises=(0.0,))

    def test_negative_mass(self):
        with pytest.raises(ValidationError):
            MonotoneStepLinear(xs=(0.0,), atoms=(-0.1,), rises=())

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            MonotoneStepLinear(xs=(0.0, 1.0), atoms=(0.5,), rises=(0.0,))


# (xs, atoms, rises, base) and the exact diagnostic each must raise
INVALID_INPUTS = [
    ((0.0, 1.0), (0.5,), (0.0,), 0.0, "1 atoms for 2 breakpoints"),
    ((0.0, 1.0), (0.5, 0.5), (), 0.0, "0 rises for 2 breakpoints"),
    ((0.0,), (1.0,), (0.5,), 0.0, "1 rises for 1 breakpoints"),
    ((0.0, math.nan), (0.5, 0.5), (0.0,), 0.0, "breakpoints, masses and base must be finite"),
    ((0.0, 1.0), (0.5, math.inf), (0.0,), 0.0, "breakpoints, masses and base must be finite"),
    ((0.0, 1.0), (0.5, 0.5), (-math.inf,), 0.0, "breakpoints, masses and base must be finite"),
    ((-math.inf, 1.0), (0.5, 0.5), (0.0,), 0.0, "breakpoints, masses and base must be finite"),
    ((0.0, 1.0), (0.5, 0.5), (0.0,), math.nan, "breakpoints, masses and base must be finite"),
    ((0.0, 2.0, 1.0, 0.5), (0.25,) * 4, (0.0,) * 3, 0.0, "breakpoints not strictly increasing at 2.0, 1.0"),
    ((0.0, 1.0, 1.0, 0.5), (0.25,) * 4, (0.0,) * 3, 0.0, "breakpoints not strictly increasing at 1.0, 1.0"),
    ((0.0, 1.0, 1.0), (0.25, 0.25, 0.5), (0.0,) * 2, 0.0, "breakpoints not strictly increasing at 1.0, 1.0"),
    ((0.0, 1.0, 2.0), (0.5, -0.25, 0.5), (0.0, 0.0), 0.0, "negative atom mass"),
    ((0.0, 1.0, 2.0), (0.5, 0.0, 0.5), (0.5, -1e-300), 0.0, "negative segment increase"),
    # finite fields whose range overflows: the top itself, or the top minus the base
    ((0.0, 1.0), (1e308, 1e308), (0.0,), 0.0, "range overflows a float: top inf minus base 0.0 is not finite"),
    ((0.0, 1.0), (0.0, 1e308), (1e308,), -1e308, "range overflows a float: top 1e+308 minus base -1e+308 is not finite"),
]

CONTAINERS = {
    "tuple": tuple,
    "list": list,
    "ndarray": np.array,
    "generator": lambda v: (x for x in v),
}


@pytest.mark.parametrize("kind", CONTAINERS)
class TestConstructionDiagnostics:
    @pytest.mark.parametrize("xs, atoms, rises, base, message", INVALID_INPUTS)
    def test_same_type_and_message(self, kind, xs, atoms, rises, base, message):
        wrap = CONTAINERS[kind]
        with pytest.raises(ValidationError) as info:
            MonotoneStepLinear(xs=wrap(xs), atoms=wrap(atoms), rises=wrap(rises), base=base)
        assert type(info.value) is ValidationError
        assert str(info.value) == message

    def test_fields_are_tuples_of_python_floats(self, kind):
        wrap = CONTAINERS[kind]
        g = MonotoneStepLinear(
            xs=wrap(np.array([-1.0, 0.0, 2.5], dtype=np.float32)),
            atoms=wrap([0, 1, 0.5]),
            rises=wrap((np.float64(0.25), 0.0)),
            base=np.float64(0.125),
        )
        f = normalize(g)
        for obj in (g, f):
            for name in ("xs", "atoms", "rises"):
                value = getattr(obj, name)
                assert type(value) is tuple
                assert all(type(v) is float for v in value)
            assert type(obj.base) is float
        assert g.xs == (-1.0, 0.0, 2.5) and g.atoms == (0.0, 1.0, 0.5)


# invalid inputs to every way a CDF is built, each with its exception class
# and exact message
INVALID_ENTRIES = {
    "cdf without breakpoints": (
        lambda: Cdf(xs=(), atoms=(), rises=()),
        DegenerateRange, "a constant function is not a distribution function"),
    "cdf base": (
        lambda: Cdf(xs=(0.0,), atoms=(1.0,), rises=(), base=0.5),
        ValidationError, "base must be exactly 0.0, got 0.5"),
    "cdf top below 1": (
        lambda: Cdf(xs=(0.0,), atoms=(0.5,), rises=()),
        ValidationError, "top must be exactly 1.0, got 0.5"),
    "cdf top above 1": (
        lambda: Cdf(xs=(0.0, 1.0), atoms=(0.5, 0.6), rises=(0.0,)),
        ValidationError, "top must be exactly 1.0, got 1.1"),
    "cdf nan atom": (
        lambda: Cdf(xs=(0.0,), atoms=(math.nan,), rises=()),
        ValidationError, "breakpoints, masses and base must be finite"),
    "cdf negative atom": (
        lambda: Cdf(xs=(0.0, 1.0), atoms=(1.5, -0.5), rises=(0.0,)),
        ValidationError, "negative atom mass"),
    "cdf unordered": (
        lambda: Cdf(xs=(1.0, 0.0), atoms=(0.5, 0.5), rises=(0.0,)),
        ValidationError, "breakpoints not strictly increasing at 1.0, 0.0"),
    "normalize constant": (
        lambda: normalize(MonotoneStepLinear(xs=(0.0, 1.0), atoms=(0.0, 0.0), rises=(0.0,), base=0.3)),
        DegenerateRange, "constant function has no distribution-function rescaling"),
    "normalize without breakpoints": (
        lambda: normalize(MonotoneStepLinear(xs=(), atoms=(), rises=(), base=0.3)),
        DegenerateRange, "constant function has no distribution-function rescaling"),
    "normalize masses below an ulp of base": (
        lambda: normalize(MonotoneStepLinear(xs=(0.0, 1.0), atoms=(1.0, 1.0), rises=(0.0,), base=1e17)),
        DegenerateRange, "constant function has no distribution-function rescaling"),
    "normalize overflowing span": (
        lambda: normalize(MonotoneStepLinear(xs=(0.0, 1.0), atoms=(1e308, 1e308), rises=(0.0,))),
        ValidationError, "range overflows a float: top inf minus base 0.0 is not finite"),
    "normalize overflowing range": (
        lambda: normalize(MonotoneStepLinear(xs=(0.0, 1.0), atoms=(1e308, 1e308), rises=(0.0,), base=-1e308)),
        ValidationError, "range overflows a float: top 1e+308 minus base -1e+308 is not finite"),
    "parse no mass": (
        lambda: parse_distribution({"breakpoints": [{"x": 0.0, "atom": 0.0}], "segments": []}),
        DegenerateRange, "distribution: total mass is 0; the function is constant"),
    "parse empty": (
        lambda: parse_distribution({}),
        DegenerateRange, "distribution: no breakpoints or segments; the function is constant"),
    "parse mass": (
        lambda: parse_distribution({"breakpoints": [{"x": 0.0, "atom": 0.5}]}),
        ValidationError, "distribution: total mass 0.5 differs from 1 by more than 1e-09"),
    "parse negative atom": (
        lambda: parse_distribution({"breakpoints": [{"x": 0.0, "atom": -0.5}, {"x": 1.0, "atom": 1.5}]}),
        ValidationError, "distribution.breakpoints[0].atom: must be >= 0, got -0.5"),
    "parse nan": (
        lambda: parse_distribution({"breakpoints": [{"x": math.nan, "atom": 1.0}]}),
        ValidationError, "distribution.breakpoints[0].x: must be finite, got nan"),
    "parse duplicate": (
        lambda: parse_distribution({"breakpoints": [{"x": 0.0, "atom": 0.5}, {"x": 0.0, "atom": 0.5}]}),
        ValidationError, "distribution.breakpoints[1].x: duplicate breakpoint 0.0"),
    "parse segment": (
        lambda: parse_distribution({"segments": [{"from": 1.0, "to": 0.0, "increase": 1.0}]}),
        ValidationError, "distribution.segments[0].to: must exceed 'from' (1.0)"),
    "parse not an object": (
        lambda: parse_distribution([1, 2]),
        ValidationError, "distribution: expected an object at the top level"),
}


@pytest.mark.parametrize("entry", INVALID_ENTRIES)
def test_invalid_entries_keep_type_and_message(entry):
    make, kind, message = INVALID_ENTRIES[entry]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(kind) as info:
        make()
    assert type(info.value) is kind
    assert str(info.value) == message


class TestMonotoneProperties:
    def test_nondecreasing_and_left_below(self, population):
        rng = np.random.default_rng(11)
        for f in population[:50]:
            xs = np.sort(rng.uniform(f.xs[0] - 1, f.xs[-1] + 1, size=40))
            vals = f.values(xs)
            assert (np.diff(vals) >= 0).all()
            for x in xs:
                assert f.left_value(x) <= f.value(x)

    def test_left_equals_value_off_atoms(self, population):
        for f in population[:20]:
            mids = (np.asarray(f.xs[:-1]) + np.asarray(f.xs[1:])) / 2
            for x in mids:
                assert f.left_value(x) == f.value(x)


class TestDfConditionReport:
    def test_proper_distribution_function(self, fb):
        rep = df_condition_report(fb)
        assert rep.all_agree() and rep.is_distribution_function()

    def test_raised_base_fails_all(self):
        g = MonotoneStepLinear(xs=(0.0,), atoms=(0.8,), rises=(), base=0.2)
        rep = df_condition_report(g)
        assert rep.all_agree() and not rep.is_distribution_function()

    def test_low_top_fails_all(self):
        g = MonotoneStepLinear(xs=(0.0, 1.0), atoms=(0.45, 0.45), rises=(0.0,))
        rep = df_condition_report(g)
        assert rep.all_agree() and not rep.is_distribution_function()

    def test_range_outside_unit_rejected(self):
        g = MonotoneStepLinear(xs=(0.0,), atoms=(2.0,), rises=())
        with pytest.raises(ValidationError):
            df_condition_report(g)

    def test_equivalence_on_random_sub_unit_functions(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            xs = np.sort(rng.uniform(-2, 2, size=k))
            while len(np.unique(xs)) < k:
                xs = np.sort(rng.uniform(-2, 2, size=k))
            atoms = rng.uniform(0, 0.2, size=k)
            rises = rng.uniform(0, 0.1, size=max(k - 1, 0))
            base = float(rng.choice([0.0, 0.0, rng.uniform(0, 0.2)]))
            g = MonotoneStepLinear(tuple(xs), tuple(atoms), tuple(rises), base)
            if g.top > 1.0:
                continue
            rep = df_condition_report(g)
            assert rep.all_agree()
            assert rep.cond_limits == (g.base == 0.0 and g.top == 1.0)


class TestNormalize:
    def test_rescales_halved_bernoulli(self, fb):
        assert normalize(halved_bernoulli()) == fb

    def test_identity_on_normalized(self, fb):
        assert normalize(fb) == fb

    def test_constant_rejected(self):
        with pytest.raises(DegenerateRange):
            normalize(MonotoneStepLinear(xs=(), atoms=(), rises=(), base=0.3))

    def test_pointwise_affine_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            k = int(rng.integers(1, 8))
            xs = np.sort(rng.uniform(-3, 3, size=k))
            while len(np.unique(xs)) < k:
                xs = np.sort(rng.uniform(-3, 3, size=k))
            g = MonotoneStepLinear(
                tuple(xs),
                tuple(rng.uniform(0, 2, size=k)),
                tuple(rng.uniform(0, 2, size=max(k - 1, 0))),
                base=float(rng.uniform(-1, 1)),
            )
            if g.top <= g.base:
                continue
            f = normalize(g)
            span = g.top - g.base
            for x in np.concatenate([xs, rng.uniform(-4, 4, size=10)]):
                assert f.value(x) == pytest.approx((g.value(x) - g.base) / span, abs=1e-12)
            assert f.value(np.inf) == 1.0
            assert f.value(-np.inf) == 0.0
