"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Tolerances are pinned here: 1e-12 for exact arithmetic, stated
statistical bounds for sampled statements, and the runtime targets.
"""

import itertools
import math
import time

import numpy as np

from stepdist.cdf import level_set, quantile_pair
from stepdist.checks import alpha_population, default_copula_grid
from stepdist.copula import (
    CopulaSpec,
    copula_at_flat_alpha,
    dt_copula,
    generate_joint_sample,
    sklar_compose,
    sklar_identity_check,
)
from stepdist.measure import measure_level_set, measure_set, measure_value_level
from stepdist.realset import Interval, RealSet
from stepdist.stochastic import (
    SeededStream,
    distributional_transform,
    inversion_check,
    ks_uniformity,
    sample_inverse,
    transform_cdf_exact,
)
from stepdist.transform import (
    attained_values,
    inversion_null_set,
    invert_transform,
    jump_gap_values,
    jump_gap_weights,
    lambda_transform,
    lambda_transforms,
    quantile_range_of_point,
    sublevel_decomposition,
)

TOL = 1e-12
N = 100_000
KS_BOUND = 1.6276 / math.sqrt(N)  # = 0.00514692...
LAMBDAS = (0.25, 0.5, 0.75, 1.0)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _mixed_random_pair(population):
    """Two population members carrying both atoms and rising segments."""
    picked = []
    for f in population:
        if f.jump_points and any(r > 0 for r in f.rises):
            picked.append(f)
        if len(picked) == 2:
            return picked
    raise AssertionError("population lacks mixed members")


def test_criterion_1_exact_identity_suite(population):
    start = time.perf_counter()
    violations = 0
    worst = 0.0
    n_alpha = 10**9
    for f in population:
        alphas = alpha_population(f)
        n_alpha = min(n_alpha, len(alphas))
        xs = np.asarray(f.xs)
        probes = np.unique(np.concatenate([xs, xs - 1e-6, xs + 1e-6, xs + 0.25, xs - 0.25]))
        # transform sandwich: left limit <= transform <= value, at every weight
        for x in probes:
            lo_v, hi_v = f.left_value(x), f.value(x)
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                t = lambda_transform(f, x, lam)
                worst = max(worst, lo_v - t, t - hi_v)
        gaps = np.diff(xs).min() if len(xs) > 1 else 1.0
        for a in alphas:
            lo, hi = quantile_pair(f, a)
            # quantile sandwiches at both quantiles, plus the strict form
            worst = max(worst, f.left_value(lo) - a, a - f.value(lo))
            worst = max(worst, f.left_value(hi) - a, a - f.value(hi))
            for d in (1e-6, 0.25):
                if not f.value(lo - d) < a:
                    violations += 1
                worst = max(worst, a - f.value(lo + d))
            # level-range inclusions at the quantile point
            s = quantile_range_of_point(f, lo)
            glo, ghi = f.left_value(lo), f.value(lo)
            for iv in s.components:
                if iv.lo < glo or iv.hi > ghi:
                    violations += 1
            if ghi > glo and not s.contains(glo + 0.5 * (ghi - glo)):
                violations += 1
            # level-set case split
            ls = level_set(f, a)
            if lo == hi:
                expected = RealSet.point(lo) if f.value(lo) == a else RealSet.empty()
            elif f.value(hi) == a:
                expected = RealSet.of(Interval.closed(lo, hi))
            else:
                expected = RealSet.of(Interval.closed_open(lo, hi))
            if ls != expected:
                violations += 1
            # flat-piece mass identities
            if hi > lo:
                m = measure_level_set(f, a)
                worst = max(worst, abs(m - (a - f.left_value(lo))))
            for lam in LAMBDAS:
                beyond, at, below = sublevel_decomposition(f, lam, a)
                worst = max(worst, abs(measure_set(f, beyond)))
                union = beyond.union(at).union(below)
                check_pts = [lo - 1.0, lo, hi, hi + 0.5 * gaps]
                if hi > lo:
                    check_pts.append(lo + 0.5 * (hi - lo))
                for x in check_pts:
                    if (lambda_transform(f, x, lam) <= a) != union.contains(x):
                        violations += 1
    elapsed = time.perf_counter() - start
    ok = worst <= TOL and violations == 0 and elapsed < 30.0 and n_alpha >= 50
    _report(
        1,
        ok,
        f"{len(population)} CDFs x >= {n_alpha} levels: max violation {worst:.2e} "
        f"(tol 1e-12), {violations} set mismatches, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_transform_cdf_oracle(population):
    worst = 0.0
    for f in population:
        for a in alpha_population(f):
            worst = max(worst, abs(transform_cdf_exact(f, f, a).total - a))
    ok_exact = worst <= TOL

    spot_worst = 0.0
    pairs = 0
    for i, f in enumerate(population[::10]):
        if pairs >= 20:
            break
        for a in (0.2, 0.5, 0.8):
            if pairs >= 20:
                break
            x_stream = SeededStream(42, 0)
            xs = sample_inverse(f, x_stream, N)
            us = distributional_transform(f, xs, SeededStream(42, 1), x_stream=x_stream)
            exact = transform_cdf_exact(f, f, a).total
            se = math.sqrt(exact * (1.0 - exact) / N)
            spot_worst = max(spot_worst, abs(float((us <= a).mean()) - exact) / (4.0 * se))
            pairs += 1
    ok = ok_exact and spot_worst <= 1.0 and pairs == 20
    _report(
        2,
        ok,
        f"exact totals off by {worst:.2e} (tol 1e-12); {pairs} Monte Carlo spot checks "
        f"within {spot_worst:.2f} of the 4-standard-error band",
    )


def test_criterion_3_ae_inversion(population, fb):
    rng = np.random.default_rng(12345)
    checked = 0
    skipped = 0
    bad = 0
    for f in population:
        span_lo, span_hi = f.xs[0] - 0.5, f.xs[-1] + 0.5
        xs = np.asarray(f.xs)
        candidates = np.unique(
            np.concatenate([np.linspace(span_lo, span_hi, 3000), xs, xs - 1e-6, xs + 1e-6])
        )
        for lam in LAMBDAS:
            rep = inversion_null_set(f, lam)
            boundary = measure_set(f, rep.zero_set.union(rep.one_set))
            if boundary != 0.0:
                skipped += 1
                continue
            if rep.total_measure != 0.0:
                bad += 1
                continue
            ts = lambda_transforms(f, candidates, lam)
            pool = candidates[~rep.union().contains_many(candidates) & (0.0 < ts) & (ts < 1.0)]
            draws = rng.choice(len(pool), size=1000, replace=True)
            for k in draws:
                x = float(pool[k])
                y = invert_transform(f, x, lam)
                tol = 0.0 if f.jump(x) > 0.0 else 1e-9
                if abs(y - x) > tol:
                    bad += 1
            checked += 1
    # the counterexample: an atom on the top level defeats the hypothesis at lam=1
    flag = inversion_null_set(fb, 1.0)
    flagged = flag.total_measure == 0.5 and measure_set(fb, flag.one_set) == 0.5
    ok = bad == 0 and flagged and checked > 0
    _report(
        3,
        ok,
        f"{checked} (F, weight) cases x 1000 complement points all invert "
        f"({skipped} hypothesis-violating cases flagged); top-atom counterexample reports "
        f"measure {flag.total_measure} exactly",
    )


def test_criterion_4_sampled_inversion(population, fb, fm, fu):
    r1, r2 = _mixed_random_pair(population)
    slowest = 0.0
    total_failures = 0
    for f in (fb, fm, fu, r1, r2):
        start = time.perf_counter()
        for seed in (1, 2, 3):
            rep = inversion_check(f, SeededStream(seed, 0), N)
            total_failures += rep.failures + (rep.shortcut_failures or 0)
        slowest = max(slowest, time.perf_counter() - start)
    ok = total_failures == 0 and slowest < 5.0
    _report(
        4,
        ok,
        f"5 distributions x seeds {{1,2,3}} x n={N}: {total_failures} failures; "
        f"slowest distribution {slowest:.2f}s (< 5s)",
    )


def test_criterion_5_transform_uniformity(population, fb, fm, fu):
    r1, r2 = _mixed_random_pair(population)
    worst = 0.0
    for f in (fb, fm, fu, r1, r2):
        for seed in (1, 2, 3):
            x_stream = SeededStream(seed, 0)
            xs = sample_inverse(f, x_stream, N)
            us = distributional_transform(f, xs, SeededStream(seed, 1), x_stream=x_stream)
            worst = max(worst, ks_uniformity(us))
    atom = measure_value_level(fb, fb.value(0.0))
    necessity = atom == 0.5  # the law of F(X) carries an atom, so it is not uniform
    ok = worst < KS_BOUND and necessity
    _report(
        5,
        ok,
        f"KS at n={N} peaked at {worst:.5f} (< {KS_BOUND:.5f}); "
        f"law of F(X) for the two-atom CDF has an atom of exactly {atom} at 0.5",
    )


def test_criterion_6_sklar_both_directions(fb, fm, fu):
    start = time.perf_counter()
    # (a) converse: analytic copulas recover their marginals exactly
    conv_worst = 0.0
    marginals = (fb, fm, fu)
    grid = np.concatenate([np.linspace(-0.5, 1.5, 21), [math.inf, -math.inf]])
    for cop in (CopulaSpec.independence(3), CopulaSpec.comonotone(3)):
        for j, m in enumerate(marginals):
            for x in grid:
                point = [math.inf] * 3
                point[j] = x
                conv_worst = max(conv_worst, abs(sklar_compose(cop, marginals, point) - m.value(x)))

    # (b) forward: empirical copula from transform samples satisfies the identity
    fwd_worst = 0.0
    flat_worst = 0.0
    flat_vectors = 0
    for pair in ((fb, fb), (fm, fu), (fb, fm)):
        for dep in ("independent", "comonotone"):
            sample = generate_joint_sample(pair, dep, N, seed=42)
            c_hat = dt_copula(sample, SeededStream(42, 2))
            fwd_worst = max(
                fwd_worst, sklar_identity_check(sample, c_hat, default_copula_grid(pair))
            )
            axes = [m.plateau_levels for m in pair]
            if all(axes):
                for alphas in itertools.product(*axes):
                    lhs, rhs = copula_at_flat_alpha(sample, c_hat, alphas)
                    flat_worst = max(flat_worst, abs(lhs - rhs))
                    flat_vectors += 1
    elapsed = time.perf_counter() - start
    ok = conv_worst <= TOL and fwd_worst < 0.01 and flat_worst < 0.01 and elapsed < 30.0
    _report(
        6,
        ok,
        f"converse recovery off by {conv_worst:.2e} (tol 1e-12); forward identity "
        f"deviation {fwd_worst:.4f} and {flat_vectors} flat-level vectors off by "
        f"{flat_worst:.4f} (< 0.01); {elapsed:.1f}s (< 30s)",
    )


def test_criterion_7_jump_bijection_roundtrip(population):
    rng = np.random.default_rng(4242)
    worst = 0.0
    hit_attained = 0
    attained_cache = {}
    rounds = 0
    while rounds < 1000:
        f = population[rounds % len(population)]
        m = len(f.jump_points)
        lams = rng.uniform(0.001, 0.999, size=m).tolist()
        vals = jump_gap_values(f, lams)
        att = attained_cache.get(id(f))
        if att is None:
            att = attained_cache[id(f)] = attained_values(f)
        for v in vals:
            if att.contains(v):
                hit_attained += 1
        back = jump_gap_weights(f, vals)
        if m:
            worst = max(worst, max(abs(b - l) for b, l in zip(back, lams)))
        rounds += 1
    ok = worst <= TOL and hit_attained == 0
    _report(
        7,
        ok,
        f"1000 weight vectors round-trip within {worst:.2e} (tol 1e-12); "
        f"{hit_attained} outputs landed on attained levels",
    )
