"""Random diagonal potentials for the Anderson Hamiltonian.

Sampling uses the counter-based Philox generator keyed by (master seed,
realization index), so distinct realizations come from provably disjoint
streams and sweeps can be generated in any order, or concurrently, without
shared state.  A (distribution, seed, index) triple reproduces the potential
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union, get_args

import numpy as np

from .hierarchy import Truncation


@dataclass(frozen=True)
class Uniform:
    """Uniform on [center - width/2, center + width/2]."""

    center: float = 0.0
    width: float = 1.0
    absolutely_continuous = True
    kind = "uniform"

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"width must be positive, got {self.width}")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.center + self.width * (rng.random(n) - 0.5)


@dataclass(frozen=True)
class Gaussian:
    mean: float = 0.0
    sigma: float = 1.0
    absolutely_continuous = True
    kind = "gaussian"

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mean + self.sigma * rng.standard_normal(n)


@dataclass(frozen=True)
class Cauchy:
    """Heavy-tailed disorder; diagnostics must use medians, never moments."""

    location: float = 0.0
    scale: float = 1.0
    absolutely_continuous = True
    kind = "cauchy"

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # inverse CDF of the standard Cauchy, scaled and shifted
        return self.location + self.scale * np.tan(np.pi * (rng.random(n) - 0.5))


@dataclass(frozen=True)
class Bernoulli:
    """Two-point disorder: value a with probability q, else b.

    Not absolutely continuous, so conclusions that need conditional densities
    are flagged not-applicable downstream.
    """

    a: float
    b: float
    q: float = 0.5
    absolutely_continuous = False
    kind = "bernoulli"

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.where(rng.random(n) < self.q, self.a, self.b)


DistributionSpec = Union[Uniform, Gaussian, Cauchy, Bernoulli]
KINDS = {cls.kind: cls for cls in get_args(DistributionSpec)}  # by disorder.kind


@dataclass(frozen=True)
class PotentialSample:
    """One realization of the diagonal potential, fully determined by its key."""

    values: np.ndarray
    distribution: DistributionSpec
    seed: int
    index: int


def check_uint64(name: str, v: int):
    """Refuse a seed or realization index that cannot be half a Philox key."""
    if not 0 <= v < 2**64:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v}")


def sample_potential(
    dist: DistributionSpec, t: Truncation, seed: int, index: int = 0
) -> PotentialSample:
    """Draw the N_R i.i.d. potential values for realization (seed, index)."""
    check_uint64("seed", seed)
    check_uint64("index", index)
    key = np.array([seed, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    values = dist.draw(rng, t.site_count)
    return PotentialSample(values, dist, seed, index)

