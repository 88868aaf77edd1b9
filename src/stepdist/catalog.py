"""Ready-made distribution functions used across tests, demos and reports."""

from __future__ import annotations

import numpy as np

from .cdf import Cdf, normalize
from .monotone import MonotoneStepLinear

__all__ = [
    "bernoulli_half",
    "uniform_01",
    "ramp_plateau_atom",
    "point_mass",
    "random_cdf",
]


def bernoulli_half() -> Cdf:
    """Atoms of mass 1/2 at 0 and at 1."""
    return Cdf(xs=(0.0, 1.0), atoms=(0.5, 0.5), rises=(0.0,))


def uniform_01() -> Cdf:
    """The uniform distribution on (0, 1) as a single rising segment."""
    return Cdf(xs=(0.0, 1.0), atoms=(0.0, 0.0), rises=(1.0,))


def ramp_plateau_atom() -> Cdf:
    """Slope-1 ramp on [0, 0.25), flat on [0.25, 0.5), atom 1/4 at 0.5, ramp to 1.

    A mixed case with one plateau strictly inside (0,1) and one interior atom.
    """
    return Cdf(
        xs=(0.0, 0.25, 0.5, 1.0),
        atoms=(0.0, 0.0, 0.25, 0.0),
        rises=(0.25, 0.0, 0.5),
    )


def point_mass(x: float) -> Cdf:
    """All mass at a single point."""
    return Cdf(xs=(float(x),), atoms=(1.0,), rises=())


def random_cdf(
    rng: np.random.Generator,
    max_atoms: int = 10,
    max_segments: int = 10,
    max_plateaus: int = 5,
) -> Cdf:
    """A random step-linear CDF with atoms, rising segments and flat pieces.

    Breakpoints land in [-5, 5]; masses are kept well above float noise so
    exact-identity checks exercise real structure rather than degenerate
    slivers.  Always produces at least one positive mass.
    """
    n_atoms = int(rng.integers(0, max_atoms + 1))
    n_rises = int(rng.integers(0, max_segments + 1))
    n_flats = int(rng.integers(0, max_plateaus + 1))
    # one breakpoint per atom; every rise or flat needs a consecutive pair
    k = max(n_atoms, n_rises + n_flats + 1, 1)
    xs = np.sort(rng.uniform(-5.0, 5.0, size=k))
    while len(np.unique(xs)) < k or (k > 1 and np.diff(xs).min() < 1e-3):
        xs = np.sort(rng.uniform(-5.0, 5.0, size=k))

    atoms = np.zeros(k)
    if n_atoms > 0:
        where = rng.choice(k, size=min(n_atoms, k), replace=False)
        atoms[where] = rng.uniform(0.05, 1.0, size=len(where))

    rises = np.zeros(max(k - 1, 0))
    if k > 1:
        slots = rng.permutation(k - 1)
        rising = slots[: min(n_rises, k - 1)]
        rises[rising] = rng.uniform(0.05, 1.0, size=len(rising))
        # remaining slots stay flat; cap how many by adding rises back
        flat_slots = slots[min(n_rises, k - 1) :]
        for extra in flat_slots[max_plateaus:]:
            rises[extra] = rng.uniform(0.05, 1.0)

    if atoms.sum() + rises.sum() <= 0.0:
        atoms[int(rng.integers(0, k))] = 1.0
    g = MonotoneStepLinear(
        xs=tuple(xs), atoms=tuple(atoms), rises=tuple(rises), base=0.0
    )
    return normalize(g)
