"""Seeded sampling, the distributional transform, and its exact law.

Sampling is inverse-transform sampling through the exact left quantile.  The
distributional transform U = F(X-) + V * jump(X), with V uniform on (0,1)
and independent of X, is uniform on (0,1) no matter how many atoms F has;
the module computes its CDF exactly (no sampling) for an arbitrary law of X
and verifies the almost-sure inversion X = left_quantile(U) empirically.

Streams are identified by (seed, stream_id): the same pair always reproduces
the same draws, distinct stream_ids give independent streams.

The quantile and the transform are nondecreasing, so the kernels run over the
levels (or points) in increasing order: one argsort per call puts every
search on sorted keys, and since each key's result does not depend on the
order of the others, the outputs are bit-identical to an unsorted pass.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .cdf import Cdf, _LevelEnds, _check_alpha, _left_quantile_unchecked, _left_quantiles, _level_ends
from .errors import EmptySample, StreamCollision, ValidationError
from .measure import measure_interval
from .transform import _transform_parts

__all__ = [
    "SeededStream",
    "sample_inverse",
    "distributional_transform",
    "TransformCdfBreakdown",
    "transform_cdf_exact",
    "ks_uniformity",
    "InversionReport",
    "inversion_check",
]

INVERSION_TOL = 1e-9  # covers the float round trip through segment inversion


def _integer(value, name: str) -> int:
    """value as a Python int: a float or a string is rejected, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SeededStream:
    """A reproducible uniform stream: (seed, stream_id) fixes every draw."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for field in ("seed", "stream_id"):
            object.__setattr__(self, field, _integer(getattr(self, field), field))
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.stream_id < 0:
            raise ValidationError(f"stream_id must be nonnegative, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, offset: int = 1) -> "SeededStream":
        return SeededStream(self.seed, self.stream_id + offset)

    def uniforms(self, n: int) -> np.ndarray:
        """n draws from the open interval (0, 1); exact 0s are redrawn.  n must be
        an integer (else ValidationError) and nonnegative: n = 0 gives no draws."""
        n = _integer(n, "the number of draws")
        if n < 0:
            raise ValidationError(f"the number of draws must be nonnegative, got {n}")
        g = self.generator()
        u = g.random(n)
        while True:
            zero = u == 0.0
            if not zero.any():
                return u
            u[zero] = g.random(int(zero.sum()))


def _check_count(n) -> int:
    """n as a number of draws: an integer (else ValidationError), at least 1 (else EmptySample)."""
    n = _integer(n, "the number of draws")
    if n < 1:
        raise EmptySample("need at least one draw")
    return n


def _sorted_levels(stream: SeededStream, n) -> tuple[np.ndarray, np.ndarray]:
    """The permutation that sorts the stream's first n uniforms, and the sorted uniforms."""
    u = stream.uniforms(_check_count(n))
    order = np.argsort(u)
    return order, u[order]


def sample_inverse(f: Cdf, stream: SeededStream, n: int) -> np.ndarray:
    """n draws from F by applying the left quantile to uniform levels."""
    order, levels = _sorted_levels(stream, n)
    draws = _left_quantiles(f, levels)
    out = np.empty_like(draws)
    out[order] = draws
    return out


def distributional_transform(
    f: Cdf, xs, v_stream: SeededStream, x_stream: SeededStream | None = None
) -> np.ndarray:
    """F(x-) + V * jump(x) with fresh V ~ U(0,1) per observation.

    Each output lies in [F(x-), F(x)].  The randomization stream must not be
    the stream that produced xs; pass the producing stream as ``x_stream``
    to have the collision checked.  V is drawn in the flattened order of xs.
    """
    if x_stream is not None and x_stream.stream_id == v_stream.stream_id:
        raise StreamCollision(
            f"stream_id {v_stream.stream_id} used for both the sample and its randomization"
        )
    xs = np.asarray(xs, dtype=float)
    if np.isnan(xs).any():
        raise ValidationError("evaluation point is NaN")
    order = np.argsort(xs, axis=None)
    v = v_stream.uniforms(xs.size)[order]  # each x keeps its own V
    u = _transform_parts(f, xs.take(order), v)[1]
    out = np.empty(xs.size)
    out[order] = u
    return out.reshape(xs.shape)


@dataclass(frozen=True)
class TransformCdfBreakdown:
    """P(F_V(X) <= a) computed exactly, term by term.

    ``total`` is a plus the three correction terms; all three vanish when the
    law of X is the transform's own reference CDF, which is why the
    distributional transform is uniform.
    """

    quantile: float  # left quantile of the reference CDF at the level
    atom: float  # jump of the reference CDF there
    left_value: float  # reference CDF's left limit there
    atom_coef: float  # 0 if the atom vanishes, else (a - F(quantile)) / atom
    term_flat: float  # P(X > quantile and F(X) = a)
    term_atom: float  # atom_coef * (P(X = quantile) - atom)
    term_left: float  # P(X <= quantile) - F(quantile)
    total: float


def transform_cdf_exact(f: Cdf, law_of_x: Cdf, alpha: float) -> TransformCdfBreakdown:
    """Exact CDF of the distributional transform built from F, at one level.

    ``f`` is the reference CDF inside the transform; ``law_of_x`` is the
    actual law of the input variable (they may differ).  Every probability
    is read off the two representations, so the result is exact.
    """
    a = _check_alpha(alpha)
    q_pt = _left_quantile_unchecked(f, a)
    fq, qv, beta = f._point(q_pt)
    law_fq, _, law_beta = law_of_x._point(q_pt)
    c_beta = 0.0 if beta == 0.0 else (a - fq) / beta
    run = f._flat_runs.get(a)
    term_flat = 0.0 if run is None else measure_interval(law_of_x, run.interval(False))
    term_atom = c_beta * (law_beta - beta)
    term_left = law_fq - fq
    total = a + term_flat + term_atom + term_left
    return TransformCdfBreakdown(
        quantile=q_pt,
        atom=beta,
        left_value=qv,
        atom_coef=c_beta,
        term_flat=term_flat,
        term_atom=term_atom,
        term_left=term_left,
        total=total,
    )


def _transform_cdf_totals(f: Cdf, law_of_x: Cdf, a: np.ndarray) -> np.ndarray:
    """Array form of ``transform_cdf_exact(f, law_of_x, a_i).total`` for levels already
    inside (0, 1), each equal to the scalar's bit for bit: the level table of ``a``
    (``_level_ends``) and, where the law is not F itself, the law's F, F(x-) and jump
    at the table's ends from one search, summed by :func:`_transform_cdf_totals_of`."""
    table = _level_ends(f, a)
    law = None if law_of_x is f else law_of_x.value_parts(np.stack((table.lo, table.hi, table.start)))
    return _transform_cdf_totals_of(table, law)


def _transform_cdf_totals_of(table: _LevelEnds, law_parts=None) -> np.ndarray:
    """The totals of :func:`_transform_cdf_totals` off a level table of F: the terms of
    ``transform_cdf_exact`` from the levels' ends and F and the jump there, and the
    law's F, F(x-) and jump at the same ends (``law_parts``, one row per end; the
    table's own where the law is F), summed in the scalar's order."""
    a, q, hi, flat, start, closed, _, fx, left, jump = table
    law_fx, law_left, law_jump = (fx, left, jump) if law_parts is None else law_parts
    fq, beta = fx[0], jump[0]
    coef = np.zeros(a.shape)
    np.divide(a - fq, beta, out=coef, where=beta != 0.0)
    # the law's mass on each flat piece right of its left end, read as measure_interval reads it
    term_flat = np.where(flat, np.where(closed, law_fx[1], law_left[1]) - law_fx[2], 0.0)
    term_atom = coef * (law_jump[0] - beta)
    term_left = law_fx[0] - fq
    return a + term_flat + term_atom + term_left


def ks_uniformity(us) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of a sample against U(0,1)."""
    us = np.asarray(us, dtype=float)
    if us.size == 0:
        raise EmptySample("KS statistic of an empty sample")
    if np.isnan(us).any() or (us < 0.0).any() or (us > 1.0).any():
        raise ValidationError("sample values must lie in [0, 1]")
    s = np.sort(us, axis=None)
    n = s.size
    upper = np.arange(1, n + 1, dtype=float) / n
    lower = np.arange(0, n, dtype=float) / n
    d_plus = float((upper - s).max())
    d_minus = float((s - lower).max())
    return max(d_plus, d_minus)


@dataclass(frozen=True)
class InversionReport:
    """Failure counts of the sampled inversion identity.

    ``failures`` counts draws where the left quantile of the transformed
    value missed the original draw by more than the round-trip tolerance.
    ``shortcut_failures`` does the same for the untransformed composition
    left_quantile(F(x)), which is only expected to work when F never hits
    0 or 1 with positive mass; it is None when that hypothesis fails.
    """

    failures: int
    shortcut_failures: int | None
    n: int
    seed: int
    stream_id: int


def inversion_check(f: Cdf, stream: SeededStream, n: int) -> InversionReport:
    """Draw (x, v) pairs and count violations of x == left_quantile(transform).

    x is drawn from F via ``stream``; the independent v-stream is
    ``stream.child(1)``.  Atoms round-trip exactly; points inside rising
    segments are compared with tolerance 1e-9.
    """
    order, levels = _sorted_levels(stream, n)
    n = levels.size
    v = stream.child(1).uniforms(n)[order]  # each draw keeps its own V
    del order
    # the counts need no scatter back: the draws and F stay nondecreasing, and
    # the transform too, except among the draws that share an atom
    xs = _left_quantiles(f, levels)
    del levels
    fx, u = _transform_parts(f, xs, v)
    del v
    back = _left_quantiles(f, u)
    failures = int((np.abs(back - xs) > INVERSION_TOL).sum())

    z1 = _left_quantile_unchecked(f, 1.0)
    shortcut_failures = None
    if f.jump(z1) == 0.0:  # F reaches 1 continuously, so 0 < F(X) < 1 a.s.
        ok = (fx > 0.0) & (fx < 1.0)
        bad = int((~ok).sum())
        back2 = _left_quantiles(f, fx[ok])
        bad += int((np.abs(back2 - xs[ok]) > INVERSION_TOL).sum())
        shortcut_failures = bad
    return InversionReport(
        failures=failures,
        shortcut_failures=shortcut_failures,
        n=n,
        seed=stream.seed,
        stream_id=stream.stream_id,
    )
