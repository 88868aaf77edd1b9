"""``RealSet`` algebra pinned to the per-component algorithms it replaced.

The oracle below is the earlier implementation, kept verbatim in substance: the
sort-and-merge normal form, the pairwise interval intersection, the complement walk
and the per-component membership loop.  Every operation of the cut sweep must give
the same components bit for bit: endpoint bytes (so the sign of a zero) and flags.
"""

import math
import struct

import numpy as np
import pytest

import stepdist as sd
from stepdist.checks import LAMBDA_GRID, probe_grid
from stepdist.realset import Interval, RealSet
from stepdist.transform import attained_values, inversion_null_set

INF = math.inf


# -- the oracle ----------------------------------------------------------------


def _touches(a, b):
    # a.lo <= b.lo assumed; union of a and b is connected?
    if b.lo < a.hi:
        return True
    return b.lo == a.hi and (a.closed_hi or b.closed_lo)


def oracle_merge(intervals):
    parts = [iv for iv in intervals if not iv.is_empty()]
    parts.sort(key=lambda iv: (iv.lo, not iv.closed_lo))
    merged = []
    for iv in parts:
        if merged and _touches(merged[-1], iv):
            cur = merged.pop()
            if iv.hi > cur.hi:
                hi, chi = iv.hi, iv.closed_hi
            elif iv.hi < cur.hi:
                hi, chi = cur.hi, cur.closed_hi
            else:
                hi, chi = cur.hi, cur.closed_hi or iv.closed_hi
            merged.append(Interval(cur.lo, hi, cur.closed_lo, chi))
        else:
            merged.append(iv)
    return tuple(merged)


def oracle_interval_intersect(a, b):
    if a.lo > b.lo:
        lo, clo = a.lo, a.closed_lo
    elif b.lo > a.lo:
        lo, clo = b.lo, b.closed_lo
    else:
        lo, clo = a.lo, a.closed_lo and b.closed_lo
    if a.hi < b.hi:
        hi, chi = a.hi, a.closed_hi
    elif b.hi < a.hi:
        hi, chi = b.hi, b.closed_hi
    else:
        hi, chi = a.hi, a.closed_hi and b.closed_hi
    if lo > hi or (lo == hi and not (clo and chi)):
        return None
    return Interval(lo, hi, clo, chi)


def oracle_intersect(a, b):
    out = []
    for x in a:
        for y in b:
            iv = oracle_interval_intersect(x, y)
            if iv is not None:
                out.append(iv)
    return oracle_merge(out)


def oracle_complement(comps):
    out = []
    lo, clo = -INF, False
    for iv in comps:
        gap_hi, gap_chi = iv.lo, not iv.closed_lo
        if lo < gap_hi or (lo == gap_hi and clo and gap_chi):
            out.append(Interval(lo, gap_hi, clo, gap_chi))
        lo, clo = iv.hi, not iv.closed_hi
    if lo < INF:
        out.append(Interval(lo, INF, clo, False))
    return oracle_merge(out)


def oracle_contains_many(comps, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=bool)
    for iv in comps:
        inside = (x >= iv.lo) & (x <= iv.hi)
        if not iv.closed_lo:
            inside &= x != iv.lo
        if not iv.closed_hi:
            inside &= x != iv.hi
        out |= inside
    return out


# -- comparison ------------------------------------------------------------------


def bits(components):
    """Endpoint bytes and flags of each component: equal only if bit for bit equal."""
    return [
        (struct.pack("<d", iv.lo), struct.pack("<d", iv.hi), iv.closed_lo, iv.closed_hi)
        for iv in components
    ]


# a few values, so that ends touch and coincide often; both zeros and both infinities
VALUES = (-INF, -2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, INF)


def random_interval(rng):
    lo, hi = sorted(rng.choice(VALUES, 2), key=float)
    if rng.random() < 0.15:
        hi = lo  # a point, or an empty interval when a flag is open
    if rng.random() < 0.1 and lo == 0.0:
        hi = -lo  # a point or empty interval whose ends are zeros of both signs
    closed_lo = bool(rng.random() < 0.5) and lo != -INF
    closed_hi = bool(rng.random() < 0.5) and hi != INF
    if lo == INF or hi == -INF:  # [inf, inf] and [-inf, -inf] are not intervals
        lo, hi, closed_lo, closed_hi = -INF, INF, False, False
    return Interval(float(lo), float(hi), closed_lo, closed_hi)


def random_intervals(rng):
    return tuple(random_interval(rng) for _ in range(int(rng.integers(0, 51))))


PROBES = np.array([*VALUES, -1.5, -0.25, 0.25, 1.5, 3.0, math.nan])


def test_every_operation_matches_the_oracle_bit_for_bit():
    rng = np.random.default_rng(16)
    zero_sign_pairs = 0
    for _ in range(800):
        raw_a, raw_b = random_intervals(rng), random_intervals(rng)
        a, b = RealSet(raw_a), RealSet(raw_b)
        assert bits(a.components) == bits(oracle_merge(raw_a))
        assert bits(b.components) == bits(oracle_merge(raw_b))
        ca, cb = a.components, b.components
        assert bits(a.union(b).components) == bits(oracle_merge(ca + cb))
        assert bits(a.intersect(b).components) == bits(oracle_intersect(ca, cb))
        assert bits(a.complement().components) == bits(oracle_complement(ca))
        expected = oracle_intersect(ca, oracle_complement(cb))
        assert bits(a.difference(b).components) == bits(expected)
        assert a.contains_many(PROBES).tolist() == oracle_contains_many(ca, PROBES).tolist()
        for x, y in zip(raw_a, raw_b):
            got, want = x.intersect(y), oracle_interval_intersect(x, y)
            assert (got is None) == (want is None)
            if got is not None:
                assert bits([got]) == bits([want])
            zero_sign_pairs += x.lo == y.lo == 0.0 and math.copysign(1, x.lo) != math.copysign(1, y.lo)
    # the data did exercise zeros of both signs at one endpoint
    assert zero_sign_pairs > 100


def test_zero_signs_follow_the_oracle_at_unequal_flags():
    # equal values under different flags: the kept float is the oracle's, not the larger cut's
    cases = [
        (Interval(-1.0, -0.0, True, False), Interval(-0.5, 0.0, True, True)),
        (Interval(-0.5, 0.0, True, True), Interval(-1.0, -0.0, True, False)),
        (Interval(-0.0, 1.0, False, True), Interval(0.0, 2.0, True, True)),
        (Interval(0.0, 1.0, True, True), Interval(-0.0, 2.0, False, True)),
    ]
    for x, y in cases:
        assert bits(RealSet.of(x, y).components) == bits(oracle_merge((x, y)))
        assert bits([x.intersect(y)]) == bits([oracle_interval_intersect(x, y)])
        one, other = RealSet.of(x), RealSet.of(y)
        assert bits(one.intersect(other).components) == bits(oracle_intersect((x,), (y,)))


def test_an_empty_interval_adds_nothing():
    # (1, 1) is empty: it must not cut [0, 2] at 1
    s = RealSet.of(Interval.closed(0.0, 2.0), Interval.open(1.0, 1.0))
    assert s.components == (Interval.closed(0.0, 2.0),)
    assert RealSet.of(Interval.closed_open(1.0, 1.0)).is_empty()


def test_a_scalar_is_a_zero_dimensional_array():
    s = RealSet.of(Interval.open(0.0, 1.0))
    got = s.contains_many(0.5)
    assert isinstance(got, np.ndarray) and got.shape == () and bool(got)


def mixed(k):
    # xs = 0..k-1, an atom at about half of them, about 60 % of the segments rising
    xs = np.arange(k, dtype=float)
    r = np.random.default_rng(0)
    atoms = np.where(r.random(k) < 0.5, r.uniform(0.05, 1, k), 0)
    rises = np.where(r.random(k - 1) < 0.6, r.uniform(0.05, 1, k - 1), 0)
    return sd.normalize(sd.MonotoneStepLinear(tuple(xs), tuple(atoms), tuple(rises)))


@pytest.fixture(scope="module")
def mixed_sets():
    f = mixed(2000)
    attained = attained_values(f)
    gaps = RealSet(tuple(Interval.open(j.lo, j.hi) for j in f._jumps))
    null_sets = [inversion_null_set(f, lam).union() for lam in LAMBDA_GRID]
    return f, attained, gaps, null_sets


def test_the_suite_sets_of_a_large_law_match_the_oracle(mixed_sets):
    f, attained, gaps, null_sets = mixed_sets
    assert len(attained.components) > 1000 and len(gaps.components) > 1000
    unit = RealSet.of(Interval.open(0.0, 1.0))
    sets = [attained, gaps, unit, *null_sets]
    for s in sets:
        assert bits(s.complement().components) == bits(oracle_complement(s.components))
    for s, t in [(unit, attained), (gaps, unit), (attained, gaps), *[(n, unit) for n in null_sets]]:
        assert bits(s.intersect(t).components) == bits(oracle_intersect(s.components, t.components))
        want = oracle_intersect(s.components, oracle_complement(t.components))
        assert bits(s.difference(t).components) == bits(want)
    # membership: the oracle's loop on the probe grid and on levels in [0, 1], and the
    # scalar contains point by point on the grid (once: the four null sets differ only
    # in whether the point where F reaches 1 belongs)
    grid = probe_grid(f)
    levels = np.linspace(0.0, 1.0, 4001)
    for s, x in [(attained, levels), (gaps, levels), *[(n, grid) for n in null_sets]]:
        assert s.contains_many(x).tolist() == oracle_contains_many(s.components, x).tolist()
    assert null_sets[-1].contains_many(grid).tolist() == [null_sets[-1].contains(v) for v in grid.tolist()]
