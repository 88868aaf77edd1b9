"""Copulas and both directions of Sklar's theorem, on exact marginals.

Composing a copula with marginal CDFs yields a joint CDF; conversely, the
copula of a joint sample is recovered empirically by pushing every
coordinate through its distributional transform, which is uniform even in
the presence of atoms.  Analytic kinds (independence, comonotone,
countermonotone) evaluate in closed form; the empirical kind counts rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cdf import Cdf, _left_quantiles, quantile_pair
from .errors import (
    CountermonotoneDimension,
    DimensionMismatch,
    NotAFlatLevel,
    StreamCollision,
    ValidationError,
)
from .stochastic import SeededStream, _check_count, _integer
from .transform import _transform_parts

__all__ = [
    "CopulaSpec",
    "JointSample",
    "copula_eval",
    "sklar_compose",
    "dt_copula",
    "sklar_identity_check",
    "copula_at_flat_alpha",
    "generate_joint_sample",
    "empirical_joint_cdf",
]

_ANALYTIC_KINDS = ("independence", "comonotone", "countermonotone")


@dataclass(frozen=True)
class CopulaSpec:
    """An n-dimensional copula, either analytic or empirical.

    Empirical copulas carry the matrix of transform samples in [0,1]^(N x n)
    and evaluate by weak-inequality row counting.
    """

    kind: str
    dim: int
    sample: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _ANALYTIC_KINDS + ("empirical",):
            raise ValidationError(f"unknown copula kind {self.kind!r}")
        dim = _integer(self.dim, "copula dimension")
        if dim < 1:
            raise ValidationError(f"copula dimension must be at least 1, got {dim}")
        object.__setattr__(self, "dim", dim)
        if self.kind == "countermonotone" and self.dim != 2:
            raise CountermonotoneDimension("countermonotone copula needs dimension 2")
        if self.kind == "empirical":
            if self.sample is None:
                raise ValidationError("empirical copula needs a sample matrix")
            u = np.asarray(self.sample, dtype=float)
            if u.ndim != 2 or u.shape[1] != self.dim:
                raise ValidationError(f"sample must be N x {self.dim}")
            if u.size == 0 or np.isnan(u).any() or (u < 0).any() or (u > 1).any():
                raise ValidationError("sample entries must fill [0, 1]")
            object.__setattr__(self, "sample", u)
        elif self.sample is not None:
            raise ValidationError("only the empirical kind carries a sample")

    @staticmethod
    def independence(dim: int) -> "CopulaSpec":
        return CopulaSpec("independence", dim)

    @staticmethod
    def comonotone(dim: int) -> "CopulaSpec":
        return CopulaSpec("comonotone", dim)

    @staticmethod
    def countermonotone() -> "CopulaSpec":
        return CopulaSpec("countermonotone", 2)

    @staticmethod
    def empirical(sample) -> "CopulaSpec":
        u = np.asarray(sample, dtype=float)
        if u.ndim != 2:  # the dimension is read off a matrix's columns
            raise ValidationError(f"sample must be an N x d matrix, got shape {u.shape}")
        return CopulaSpec("empirical", u.shape[1], u)


def copula_eval(cop: CopulaSpec, gamma) -> float:
    """C(gamma) for gamma in [0,1]^n.

    independence: product; comonotone: minimum; countermonotone (n=2):
    max(g1 + g2 - 1, 0); empirical: fraction of rows <= gamma coordinatewise.
    """
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 1 or g.size != cop.dim:
        raise DimensionMismatch(f"expected {cop.dim} coordinates, got shape {g.shape}")
    if np.isnan(g).any() or (g < 0).any() or (g > 1).any():
        raise ValidationError("copula arguments must lie in [0, 1]")
    if cop.kind == "independence":
        return float(np.prod(g))
    if cop.kind == "comonotone":
        return float(g.min())
    if cop.kind == "countermonotone":
        return float(max(g[0] + g[1] - 1.0, 0.0))
    return float(np.all(cop.sample <= g, axis=1).mean())


def sklar_compose(cop: CopulaSpec, marginals, x) -> float:
    """The joint CDF C(H_1(x_1), ..., H_n(x_n)) at one point.

    Fixing all but one coordinate at +inf recovers that marginal exactly for
    the analytic kinds.
    """
    marginals = list(marginals)
    x = np.asarray(x, dtype=float)
    if len(marginals) != cop.dim or x.size != cop.dim:
        raise DimensionMismatch(
            f"copula dimension {cop.dim}, {len(marginals)} marginals, point of size {x.size}"
        )
    gamma = np.array([m.value(xi) for m, xi in zip(marginals, x)])
    return copula_eval(cop, gamma)


@dataclass(frozen=True)
class JointSample:
    """Rows of joint observations, their declared marginals, and provenance."""

    rows: np.ndarray
    marginals: tuple[Cdf, ...]
    provenance: tuple[SeededStream, ...]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "marginals", tuple(self.marginals))
        object.__setattr__(self, "provenance", tuple(self.provenance))
        n = len(self.marginals)
        if rows.ndim != 2 or rows.shape[1] != n:
            raise DimensionMismatch(f"rows must be N x {n}")
        if np.isnan(rows).any():
            raise ValidationError("row coordinate is NaN")
        if len(self.provenance) != n:
            raise DimensionMismatch("one provenance stream per coordinate")

    @property
    def dim(self) -> int:
        return len(self.marginals)

    @property
    def size(self) -> int:
        return int(self.rows.shape[0])


def generate_joint_sample(marginals, dependence: str, n: int, seed: int) -> JointSample:
    """Draw a joint sample with a known dependence structure.

    independent: one stream per coordinate (ids 0, 1, ...);
    comonotone: a single uniform driven through every left quantile;
    countermonotone (2 marginals): u and 1-u through the two quantiles.
    A non-integral n raises ValidationError, and n < 1 raises EmptySample.
    """
    marginals = tuple(marginals)
    d = len(marginals)
    if d < 1:
        raise DimensionMismatch("need at least one marginal")
    n = _check_count(n)
    if dependence == "independent":
        streams = tuple(SeededStream(seed, j) for j in range(d))
        cols = [_left_quantiles(m, s.uniforms(n)) for m, s in zip(marginals, streams)]
    elif dependence == "comonotone":
        s = SeededStream(seed, 0)
        u = s.uniforms(n)
        streams = tuple(s for _ in range(d))
        cols = [_left_quantiles(m, u) for m in marginals]
    elif dependence == "countermonotone":
        if d != 2:
            raise CountermonotoneDimension("countermonotone sampling needs exactly 2 marginals")
        s = SeededStream(seed, 0)
        u = s.uniforms(n)
        streams = (s, s)
        cols = [_left_quantiles(marginals[0], u), _left_quantiles(marginals[1], 1.0 - u)]
    else:
        raise ValidationError(f"unknown dependence {dependence!r}")
    return JointSample(np.column_stack(cols), marginals, streams)


def dt_copula(sample: JointSample, v_stream: SeededStream) -> CopulaSpec:
    """Empirical copula of the per-coordinate distributional transforms.

    Each coordinate is pushed to F_j(x-) + V * jump_j(x) with fresh uniforms
    from ``v_stream``, which must differ from every provenance stream.
    """
    if any(v_stream.stream_id == s.stream_id for s in sample.provenance):
        raise StreamCollision(
            f"randomization stream_id {v_stream.stream_id} collides with the sample's streams"
        )
    rows = sample.rows
    v = v_stream.uniforms(rows.size).reshape(rows.shape)
    cols = [_transform_parts(m, rows[:, j], v[:, j])[1] for j, m in enumerate(sample.marginals)]
    return CopulaSpec.empirical(np.column_stack(cols))


def empirical_joint_cdf(sample: JointSample, x) -> float:
    """Fraction of rows <= x coordinatewise."""
    x = np.asarray(x, dtype=float)
    if x.size != sample.dim:
        raise DimensionMismatch(f"point of size {x.size} for dimension {sample.dim}")
    if np.isnan(x).any():
        raise ValidationError("point coordinate is NaN")
    return float(np.all(sample.rows <= x, axis=1).mean())


def _dominance_counts(rows: np.ndarray, axes) -> np.ndarray:
    """Count the rows <= each point coordinatewise, for every point of a product of axes.

    ``axes[j]`` holds sorted distinct values; entry ``[i_0, ..., i_{d-1}]``
    of the result counts the rows <= ``(axes[0][i_0], ..., axes[d-1][i_{d-1}])``.
    A row binned at index b on axis j (the first axis value >= the row's
    coordinate) is counted at every index >= b, which is the weak
    inequality; rows beyond the last value land in an extra bin that is
    dropped.  One bincount and a cumulative sum per axis give every count at
    once.
    """
    shape = tuple(a.size + 1 for a in axes)
    bins = tuple(np.searchsorted(a, rows[:, j], side="left") for j, a in enumerate(axes))
    table = np.bincount(np.ravel_multi_index(bins, shape), minlength=math.prod(shape))
    table = table.reshape(shape)
    for j in range(len(shape)):
        np.cumsum(table, axis=j, out=table)
    return table[(slice(-1),) * len(shape)]


def sklar_identity_check(sample: JointSample, c_hat: CopulaSpec, axes) -> float:
    """Max deviation of the Sklar identity over the product grid of ``axes``.

    ``axes`` holds one 1-D array of coordinates per dimension, in any order
    and with repeats allowed; the grid is their product.  Compares the
    empirical joint CDF against the copula composed with the declared
    marginals, both estimated from the same rows.  The result is the
    maximum over grid points x of
    ``|empirical_joint_cdf(sample, x) - sklar_compose(c_hat, marginals, x)|``,
    bit for bit, and 0.0 when an axis is empty.

    Each side reads one d-dimensional table of dominated-row counts: every
    row is binned once per axis, and a cumulative sum over the table of bin
    counts gives each grid point's count (the empirical copula as rank
    counts).  The copula side builds its table from the transform sample
    against the distinct marginal values ``H_j(axis_j)`` and reads it at
    each axis value's level.  The cost is O(N d log G + G) for G grid
    points.  Analytic copulas are evaluated per point with
    :func:`copula_eval`, which scans no rows.

    A wrong number of axes or a copula of another dimension raises
    DimensionMismatch; a NaN coordinate raises ValidationError.
    """
    if c_hat.dim != sample.dim:
        raise DimensionMismatch(f"copula dimension {c_hat.dim} vs sample {sample.dim}")
    axes = [np.unique(np.asarray(a, dtype=float)) for a in axes]
    if len(axes) != sample.dim:
        raise DimensionMismatch(f"{len(axes)} axes for dimension {sample.dim}")
    if any(np.isnan(a).any() for a in axes):
        raise ValidationError("grid coordinate is NaN")
    if not all(a.size for a in axes):
        return 0.0
    lhs = _dominance_counts(sample.rows, axes) / sample.size
    gamma_axes = [m.values(a) for m, a in zip(sample.marginals, axes)]
    if c_hat.kind == "empirical":
        if any(((g < 0) | (g > 1)).any() for g in gamma_axes):
            raise ValidationError("copula arguments must lie in [0, 1]")
        levels, level_at = zip(*(np.unique(g, return_inverse=True) for g in gamma_axes))
        rhs = _dominance_counts(c_hat.sample, levels)[np.ix_(*level_at)] / c_hat.sample.shape[0]
    else:
        rhs = np.array([copula_eval(c_hat, g) for g in itertools.product(*gamma_axes)])
        rhs = rhs.reshape(lhs.shape)
    # fmax skips NaN (an empty sample) as the running max(worst, d) does
    return float(np.fmax.reduce(np.abs(lhs - rhs), axis=None, initial=0.0))


def copula_at_flat_alpha(sample: JointSample, c_hat: CopulaSpec, alphas) -> tuple[float, float]:
    """Evaluate the copula at a level vector of flat marginal levels.

    Every coordinate level must sit on a flat piece of its marginal (left
    quantile strictly below right quantile); at such levels the copula value
    equals the joint CDF at the left quantiles.  Returns (copula value,
    empirical joint CDF at the quantile vector).
    """
    alphas = np.asarray(alphas, dtype=float)
    if c_hat.dim != sample.dim:
        raise DimensionMismatch(f"copula dimension {c_hat.dim} vs sample {sample.dim}")
    if alphas.size != sample.dim:
        raise DimensionMismatch(f"{alphas.size} levels for dimension {sample.dim}")
    q = np.empty(sample.dim)
    for j, (m, a) in enumerate(zip(sample.marginals, alphas)):
        lo, hi = quantile_pair(m, a)
        if lo == hi:
            raise NotAFlatLevel(j, f"coordinate {j}: level {a} is not on a flat piece")
        q[j] = lo
    lhs = copula_eval(c_hat, alphas)
    rhs = empirical_joint_cdf(sample, q)
    return lhs, rhs
