"""The three benchmark workloads: seeded input generators, one op each, and
the correctness verdict on every op's output.

Inputs come only from the run seed and the op index, through numpy's own
generators; nothing here calls ``stepdist.catalog``, so a change to the
library cannot change what the benchmark feeds it.  Each workload object
has ``setup()`` (input generation plus construction, timed as ``setup_s``),
``run_op(i)`` (one verdict, timed), ``verify(i, out, tally)`` (untimed
checks of the outputs) and ``reference()`` (a stepdist-free kernel with the
same kind of work, timed to normalize op times).
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
import struct
import time

import numpy as np

import stepdist as sd

KS_CRIT = 1.6276  # the library's 1% two-sided KS point of sqrt(n) * D_n
EXACT_TOL = 1e-12

# verify-exact: mixed CDFs whose breakpoint count k, atom count and plateau
# count follow a fixed low-discrepancy (Halton) sequence, so that every
# prefix of the op stream has nearly the same cost mix whatever the seed; the
# seed places the breakpoints and draws the masses.
VERIFY_K_MIN = 8
VERIFY_K_MAX = 50
VERIFY_MAX_ATOMS = 24
VERIFY_MAX_PLATEAUS = 8
VERIFY_POPULATION = 96

# sample-stream: one large CDF rebuilt per op, then n-draw vector kernels.
# Its support and the sklar-copula marginals lie right of 0: a rising segment
# that crosses 0 makes _left_quantiles nudge a draw near 0 one ulp per pass,
# with a full evaluation of F over all n draws per pass, so the op time has a
# heavy (about 1/t) tail; ops of 10 s were seen at N = 1e4, and an op longer
# than a run's time limit is then likely within a benchmark session.
# verify-exact keeps supports around 0, where the scalar nudge stays cheap.
SAMPLE_K = 20_000
SAMPLE_N = 100_000
SAMPLE_POOL = 16
SAMPLE_ATOM_SHARE = 0.3
SAMPLE_FLAT_SHARE = 0.25

# sklar-copula: d small marginals, N rows, the default 729-point grid.
SKLAR_D = 3
SKLAR_N = 10_000
SKLAR_POOL = 64
SKLAR_DEPENDENCE = ("independent", "comonotone")


def op_seed(seed: int, i: int) -> int:
    """The library seed of op i; distinct per (run seed, op index)."""
    return (int(seed) << 24) + int(i)


def radical_inverse(i: int, base: int) -> float:
    """The i-th point of the van der Corput sequence in ``base``, in [0, 1)."""
    out, denom = 0.0, 1.0
    while i:
        denom *= base
        i, digit = divmod(i, base)
        out += digit / denom
    return out


def verify_shape(i: int) -> tuple[int, int, int]:
    """(k, atoms, flat segments) of population member i: Halton bases 2, 3, 5."""
    k = VERIFY_K_MIN + int(radical_inverse(i + 1, 2) * (VERIFY_K_MAX - VERIFY_K_MIN + 1))
    n_atoms = int(radical_inverse(i + 1, 3) * (min(VERIFY_MAX_ATOMS, k) + 1))
    n_flat = int(radical_inverse(i + 1, 5) * (min(VERIFY_MAX_PLATEAUS, k - 1) + 1))
    return k, n_atoms, n_flat


def _sorted_points(rng: np.random.Generator, k: int, lo: float, hi: float) -> np.ndarray:
    xs = np.sort(rng.uniform(lo, hi, size=k))
    while k > 1 and np.diff(xs).min() < 1e-3:
        xs = np.sort(rng.uniform(lo, hi, size=k))
    return xs


def mixed_spec(seed: int, i: int) -> dict:
    """Spec document of population member i: atoms, ramps and plateaus.

    Caps follow ``random_cdf(rng, 24, 24, 8)`` (at most 24 atoms and 8 flat
    segments; every other segment rises); the counts come from
    ``verify_shape(i)``, the positions and masses from the seed.
    """
    rng = np.random.default_rng([int(seed), int(i), 1])
    k, n_atoms, n_flat = verify_shape(i)
    xs = _sorted_points(rng, k, -5.0, 5.0)
    atoms = np.zeros(k)
    where = rng.choice(k, size=n_atoms, replace=False)
    atoms[where] = rng.uniform(0.05, 1.0, size=n_atoms)
    rises = rng.uniform(0.05, 1.0, size=k - 1)
    rises[rng.choice(k - 1, size=n_flat, replace=False)] = 0.0
    if atoms.sum() + rises.sum() == 0.0:
        atoms[int(rng.integers(0, k))] = 1.0
    total = atoms.sum() + rises.sum()
    atoms /= total
    rises /= total
    return {
        "breakpoints": [{"x": float(x), "atom": float(a)} for x, a in zip(xs, atoms)],
        "segments": [
            {"from": float(xs[j]), "to": float(xs[j + 1]), "increase": float(r)}
            for j, r in enumerate(rises)
            if r > 0.0
        ],
    }


def stream_arrays(seed: int, i: int) -> tuple[tuple, tuple, tuple]:
    """Breakpoints, atoms and rises of sample-stream pool member i (unnormalized)."""
    rng = np.random.default_rng([int(seed), int(i), 2])
    k = SAMPLE_K
    xs = rng.uniform(1.0, 11.0) + np.cumsum(rng.uniform(0.01, 1.0, size=k))
    atoms = np.where(rng.random(k) < SAMPLE_ATOM_SHARE, rng.uniform(0.05, 1.0, size=k), 0.0)
    rises = np.where(rng.random(k - 1) < SAMPLE_FLAT_SHARE, 0.0, rng.uniform(0.05, 1.0, size=k - 1))
    return tuple(xs.tolist()), tuple(atoms.tolist()), tuple(rises.tolist())


def sklar_marginal(rng: np.random.Generator) -> sd.Cdf:
    """Three breakpoints, at least one atom and one flat piece inside (0, 1)."""
    xs = _sorted_points(rng, 3, 1.0, 11.0)
    atoms = np.where(rng.random(3) < 0.5, rng.uniform(0.05, 1.0, size=3), 0.0)
    rises = rng.uniform(0.05, 1.0, size=2)
    flat = int(rng.integers(0, 2))
    rises[flat] = 0.0
    # mass on both sides of the flat piece puts its level strictly inside (0, 1)
    if flat == 0:
        atoms[0] = max(atoms[0], rng.uniform(0.05, 1.0))
    else:
        atoms[2] = max(atoms[2], rng.uniform(0.05, 1.0))
    g = sd.MonotoneStepLinear(xs=tuple(xs), atoms=tuple(atoms), rises=tuple(rises))
    return sd.normalize(g)


# -- reference kernels ---------------------------------------------------------
#
# The machine's speed drifts by up to 1.5x over minutes and by up to 1.7x
# between neighbouring ops.  Each workload therefore times, between its ops,
# a fixed kernel that uses no stepdist code but the same mix of work as its
# ops; the ``*_ref`` metrics divide each op time by the mean of the kernel
# times just before and after it.


def python_reference():
    """Scalar Python work like the check loops: bisection, float arithmetic."""
    xs = [0.37 * i for i in range(64)]

    def kernel():
        total = 0.0
        for j in range(8000):
            a = (j * 0.618) % 1.0 * xs[-1]
            i = bisect_right(xs, a)
            total += xs[i - 1] + a if i else a
        return total

    return kernel


def vector_reference():
    """Array work like the n-draw kernels: search, gather, compare, sort."""
    rng = np.random.default_rng(0)
    grid = np.sort(rng.uniform(0.0, 1.0, SAMPLE_K))
    u = rng.uniform(0.0, 1.0, SAMPLE_N // 4)

    def kernel():
        idx = np.minimum(np.searchsorted(grid, u, side="right"), SAMPLE_K - 1)
        out = grid[idx] * u
        return float(np.sort(out[out < u]).sum())

    return kernel


def scan_reference():
    """Row scans like the copula grid loop: one small array pass per point."""
    rng = np.random.default_rng(0)
    rows = rng.uniform(0.0, 1.0, (SKLAR_N, SKLAR_D))
    points = rng.uniform(0.0, 1.0, (24, SKLAR_D))

    def kernel():
        return sum(float(np.all(rows <= p, axis=1).mean()) for p in points)

    return kernel


class Digest:
    """sha256 over the outputs of the first ``limit`` ops, in op order."""

    def __init__(self, limit: int):
        self.limit = limit
        self.ops = 0
        self._h = hashlib.sha256()

    def add(self, i: int, chunks):
        if i >= self.limit:
            return
        self._h.update(struct.pack("<q", i))
        for c in chunks:
            self._h.update(c if isinstance(c, bytes) else repr(c).encode())
        self.ops += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def check_chunks(results) -> list:
    return [(r.name, r.passed, struct.pack("<d", r.value)) for r in results]


class VerifyExact:
    """One op: ``analytic_checks`` on one population CDF."""

    name = "verify-exact"
    params = {
        "shape": "Halton (bases 2, 3, 5) over k, atom count and flat-segment count",
        "k": [VERIFY_K_MIN, VERIFY_K_MAX],
        "max_atoms": VERIFY_MAX_ATOMS,
        "max_plateaus": VERIFY_MAX_PLATEAUS,
        "breakpoints": "uniform on [-5, 5], gaps >= 1e-3",
        "masses": "uniform on [0.05, 1] before normalizing",
        "population": VERIFY_POPULATION,
        "built_by": "parse_distribution",
    }
    op_shape = "analytic_checks(f) on population member i mod population"

    reference = staticmethod(python_reference)

    def __init__(self, seed: int):
        self.seed = seed
        self.population: list = []

    def setup(self):
        docs = [mixed_spec(self.seed, i) for i in range(VERIFY_POPULATION)]
        self.population = [
            sd.parse_distribution(doc, name=f"member{i}") for i, doc in enumerate(docs)
        ]

    def op_size(self, i: int) -> int:
        return len(self.population[i % VERIFY_POPULATION].xs)

    def run_op(self, i: int):
        return sd.analytic_checks(self.population[i % VERIFY_POPULATION])

    def verify(self, i: int, out, tally) -> list:
        names = [r.name for r in out]
        if len(out) != 14 or len(set(names)) != 14:
            tally.fail(i, f"expected 14 distinct checks, got {names}")
        for r in out:
            if not r.passed:
                tally.fail(i, f"{r.name} = {r.value!r} > {r.threshold!r}")
        return check_chunks(out)


class SampleStream:
    """One op: build a k-breakpoint CDF, then sample, transform, KS, inversion."""

    name = "sample-stream"
    params = {
        "k": SAMPLE_K,
        "n": SAMPLE_N,
        "pool": SAMPLE_POOL,
        "breakpoints": "uniform start on [1, 11], gaps uniform on [0.01, 1]",
        "atom_share": SAMPLE_ATOM_SHARE,
        "flat_share": SAMPLE_FLAT_SHARE,
        "masses": "uniform on [0.05, 1], normalized by the op",
        "streams": "(op_seed, 0) draws, (op_seed, 1) transform, (op_seed, 2) inversion",
    }
    op_shape = (
        "normalize(MonotoneStepLinear(pool[i mod pool])); sample_inverse, "
        "distributional_transform, ks_uniformity, inversion_check at n"
    )

    reference = staticmethod(vector_reference)

    def __init__(self, seed: int):
        self.seed = seed
        self.pool: list = []
        self.sample_s: list[float] = []

    def setup(self):
        self.pool = [stream_arrays(self.seed, i) for i in range(SAMPLE_POOL)]

    def op_size(self, i: int) -> int:
        return SAMPLE_K

    def run_op(self, i: int):
        xs, atoms, rises = self.pool[i % SAMPLE_POOL]
        s = op_seed(self.seed, i)
        f = sd.normalize(sd.MonotoneStepLinear(xs=xs, atoms=atoms, rises=rises))
        x_stream = sd.SeededStream(s, 0)
        t0 = time.perf_counter()
        draws = sd.sample_inverse(f, x_stream, SAMPLE_N)
        self.sample_s.append(time.perf_counter() - t0)
        us = sd.distributional_transform(f, draws, sd.SeededStream(s, 1), x_stream=x_stream)
        ks = sd.ks_uniformity(us)
        rep = sd.inversion_check(f, sd.SeededStream(s, 2), SAMPLE_N)
        return f, draws, us, ks, rep

    def verify(self, i: int, out, tally) -> list:
        f, draws, us, ks, rep = out
        s = op_seed(self.seed, i)
        if f.base != 0.0 or f.top != 1.0:
            tally.fail(i, f"normalized range [{f.base}, {f.top}]")
        u = sd.SeededStream(s, 0).uniforms(SAMPLE_N)
        fx, fl = f.values(draws), f.left_values(draws)
        if (fx < u).any():
            tally.fail(i, f"{int((fx < u).sum())} draws with F(x) below their level")
        if (fl > u + EXACT_TOL).any():
            tally.fail(i, f"{int((fl > u + EXACT_TOL).sum())} draws with F(x-) above their level")
        outside = (us < fl) | (us > fx)
        if outside.any():
            tally.fail(i, f"{int(outside.sum())} transforms outside [F(x-), F(x)]")
        if rep.failures or rep.shortcut_failures:
            tally.fail(i, f"inversion failures {rep.failures}, shortcut {rep.shortcut_failures}")
        if ks > KS_CRIT / math.sqrt(SAMPLE_N):
            tally.ks_rejections += 1
        return [
            draws.tobytes(),
            us.tobytes(),
            struct.pack("<d", ks),
            (rep.failures, rep.shortcut_failures),
        ]


class SklarCopula:
    """One op: ``sklar_checks`` on d marginals, N rows, the default grid."""

    name = "sklar-copula"
    params = {
        "d": SKLAR_D,
        "n": SKLAR_N,
        "grid": "default_copula_grid: (3 * 3)^3 = 729 points",
        "marginal": "3 breakpoints on [1, 11], >= 1 atom, 1 flat piece inside (0, 1)",
        "pool": SKLAR_POOL,
        "dependence": "independent on even ops, comonotone on odd ops",
    }
    op_shape = "sklar_checks(pool[i mod pool], dependence(i), N, op_seed)"

    reference = staticmethod(scan_reference)

    def __init__(self, seed: int):
        self.seed = seed
        self.pool: list = []

    def setup(self):
        self.pool = []
        for i in range(SKLAR_POOL):
            rng = np.random.default_rng([int(self.seed), i, 3])
            self.pool.append(tuple(sklar_marginal(rng) for _ in range(SKLAR_D)))

    def op_size(self, i: int) -> int:
        return 3

    def run_op(self, i: int):
        dep = SKLAR_DEPENDENCE[i % len(SKLAR_DEPENDENCE)]
        return sd.sklar_checks(self.pool[i % SKLAR_POOL], dep, SKLAR_N, op_seed(self.seed, i))

    def verify(self, i: int, out, tally) -> list:
        by_name = {r.name: r for r in out}
        if set(by_name) != {"copula_marginal_ks", "sklar_identity", "copula_flat_levels"}:
            tally.fail(i, f"unexpected checks {sorted(by_name)}")
            return check_chunks(out)
        for name in ("sklar_identity", "copula_flat_levels"):
            if not by_name[name].passed:
                tally.fail(i, f"{name} = {by_name[name].value!r}")
        if by_name["copula_flat_levels"].detail.startswith("0 "):
            tally.fail(i, "no flat level vector was checked")
        if not by_name["copula_marginal_ks"].passed:
            tally.ks_rejections += 1
        return check_chunks(out)


WORKLOADS = {w.name: w for w in (VerifyExact, SampleStream, SklarCopula)}
