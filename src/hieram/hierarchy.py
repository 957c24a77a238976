"""Finite hierarchical lattices: cluster addressing and the ultrametric distance.

Sites are integers 0..N_R-1 in little-endian mixed-radix addressing, so the
rank-r cluster containing x is the contiguous range Truncation.cluster_sites
gives, the one place that forms it.  Membership is a range test and per-level
scans are blocked, which keeps the operator kernels cache friendly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# site counts must stay indexable by signed 64-bit integers
MAX_SITES = 2**62


@dataclass(frozen=True)
class HierarchySpec:
    """Branching plan of a hierarchical lattice.

    ``factors[r-1]`` is the number of rank-(r-1) clusters merged into one
    rank-r cluster; ``depth`` is the truncation rank R.  ``degree`` is set for
    homogeneous lattices and fixes how the plan extends beyond the truncation
    (explicit plans extend by repeating their last factor).
    """

    factors: tuple[int, ...]
    depth: int
    degree: int | None = None

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if len(self.factors) != self.depth:
            raise ValueError(
                f"expected {self.depth} branching factors, got {len(self.factors)}"
            )
        for f in self.factors:
            if f < 2:
                raise ValueError(f"branching factors must be >= 2, got {f}")
        if self.degree is not None and self.degree < 2:
            raise ValueError(f"degree must be >= 2, got {self.degree}")

    @staticmethod
    def homogeneous(degree: int, depth: int) -> "HierarchySpec":
        """Constant branching: n_r = degree for every rank r >= 1."""
        if degree < 2:
            raise ValueError(f"degree must be >= 2, got {degree}")
        return HierarchySpec((degree,) * depth, depth, degree)

    @staticmethod
    def explicit(factors: Sequence[int]) -> "HierarchySpec":
        """Branching given level by level; depth equals the list length."""
        facs = tuple(int(f) for f in factors)
        degree = facs[0] if facs and all(f == facs[0] for f in facs) else None
        return HierarchySpec(facs, len(facs), degree)

    def factor(self, r: int) -> int:
        """Branching factor n_r, with n_0 = 1; extends past the depth."""
        if r < 0:
            raise ValueError(f"rank must be >= 0, got {r}")
        if r == 0:
            return 1
        if r <= self.depth:
            return self.factors[r - 1]
        if self.degree is not None:
            return self.degree
        if self.factors:
            return self.factors[-1]
        raise ValueError("cannot extend a depth-0 explicit branching plan")

    def size(self, r: int) -> int:
        """Cluster size N_r = prod_{s<=r} n_s as an exact integer; past the
        depth the factor is constant, so N_r = N_depth n^(r - depth)."""
        f = self.factor(r)  # refuses a negative rank
        n = math.prod(self.factors[:r])
        return n if r <= self.depth else n * f ** (r - self.depth)


class Truncation:
    """A depth-R hierarchical lattice on sites 0..N_R-1.

    Answers ``factor``, ``size`` and ``degree`` like its HierarchySpec, so
    either one serves where only the branching plan is read.  Immutable after
    construction; every query is pure and safe to call from any number of
    concurrent workers.
    """

    def __init__(self, spec: HierarchySpec):
        sizes = [1]
        for r in range(1, spec.depth + 1):
            sizes.append(sizes[-1] * spec.factor(r))
            if sizes[-1] > MAX_SITES:
                raise OverflowError(
                    f"site count exceeds {MAX_SITES} at rank {r}"
                )
        self.spec = spec
        self.depth = spec.depth
        self.degree = spec.degree
        self.sizes = tuple(sizes)
        self.site_count = sizes[-1]

    def factor(self, r: int) -> int:
        return self.spec.factor(r)

    def size(self, r: int) -> int:
        """N_r; ranks past the truncation depth use the extended plan."""
        if 0 <= r <= self.depth:
            return self.sizes[r]
        return self.spec.size(r)

    def cluster_lattice(self, r: int) -> "Truncation":
        """The depth-r lattice that every rank-r cluster is: t's first r factors."""
        self.check_rank(r)
        return Truncation(HierarchySpec(self.spec.factors[:r], r, self.degree))

    def cluster_sites(self, x: int, r: int) -> range:
        """The sites of Q_r(x), the rank-r cluster holding site x: the range
        [(x // N_r) N_r, (x // N_r + 1) N_r)."""
        self.check_site(x)
        self.check_rank(r)
        base = x // self.sizes[r] * self.sizes[r]
        return range(base, base + self.sizes[r])

    def distance(self, x: int, y: int) -> int:
        """Hierarchical distance: the smallest rank r with y in Q_r(x)."""
        self.check_site(x)
        self.check_site(y)
        return next(r for r in range(self.depth + 1) if int(y) in self.cluster_sites(x, r))

    def check_site(self, x: int, name: str = "site"):
        if not 0 <= x < self.site_count:
            raise ValueError(f"{name} {x} out of range [0, {self.site_count})")

    def check_rank(self, r: int, name: str = "rank"):
        if not 0 <= r <= self.depth:
            raise ValueError(f"{name} {r} out of range [0, {self.depth}]")


def distance_matrix(t: Truncation) -> np.ndarray:
    """Pairwise hierarchical distances d(x, y), the smallest rank s whose
    block holds both x and y: a uint8 fill with the depth (at most 62), then
    each level, top down, writes s into its diagonal rank-s blocks (a view)."""
    n = t.site_count
    d = np.full((n, n), t.depth, dtype=np.uint8)
    for s in range(t.depth - 1, -1, -1):
        k, b = n // t.sizes[s], t.sizes[s]
        np.einsum("ijik->ijk", d.reshape(k, b, k, b))[...] = s
    return d
