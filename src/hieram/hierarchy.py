"""Finite hierarchical lattices: cluster addressing and the ultrametric distance.

Sites are integers 0..N_R-1 in little-endian mixed-radix addressing, so the
rank-r cluster containing x is the contiguous range [ (x // N_r) * N_r,
(x // N_r + 1) * N_r ).  Membership is a range test and per-level scans are
blocked, which keeps the operator kernels cache friendly.
"""

from __future__ import annotations

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
        """Cluster size N_r = prod_{s<=r} n_s as an exact integer."""
        n = 1
        for s in range(1, r + 1):
            n *= self.factor(s)
        return n


@dataclass(frozen=True)
class ClusterId:
    """A rank-r cluster, identified by its index in addressing order."""

    rank: int
    index: int


class Truncation:
    """A depth-R hierarchical lattice on sites 0..N_R-1.

    Immutable after construction; every query is pure and safe to call from
    any number of concurrent workers.
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
        self.sizes = tuple(sizes)
        self.site_count = sizes[-1]

    def factor(self, r: int) -> int:
        return self.spec.factor(r)

    def size(self, r: int) -> int:
        """N_r; ranks past the truncation depth use the extended plan."""
        if 0 <= r <= self.depth:
            return self.sizes[r]
        return self.spec.size(r)

    def num_clusters(self, r: int) -> int:
        self._check_rank(r)
        return self.site_count // self.sizes[r]

    def cluster_of(self, x: int, r: int) -> ClusterId:
        """The unique rank-r cluster Q_r(x) containing site x."""
        self._check_site(x)
        self._check_rank(r)
        return ClusterId(r, x // self.sizes[r])

    def cluster_members(self, c: ClusterId) -> range:
        """Sites of a cluster as a contiguous range of length N_r."""
        self._check_rank(c.rank)
        n_r = self.sizes[c.rank]
        if not 0 <= c.index < self.site_count // n_r:
            raise ValueError(
                f"cluster index {c.index} out of range at rank {c.rank}"
            )
        return range(c.index * n_r, (c.index + 1) * n_r)

    def distance(self, x: int, y: int) -> int:
        """Hierarchical distance: the smallest rank r with y in Q_r(x)."""
        self._check_site(x)
        self._check_site(y)
        for r in range(self.depth + 1):
            if x // self.sizes[r] == y // self.sizes[r]:
                return r
        raise AssertionError("unreachable: Q_R is the whole lattice")

    def _check_site(self, x: int):
        if not 0 <= x < self.site_count:
            raise ValueError(f"site {x} out of range [0, {self.site_count})")

    def _check_rank(self, r: int):
        if not 0 <= r <= self.depth:
            raise ValueError(f"rank {r} out of range [0, {self.depth}]")


def spec_of(geometry: HierarchySpec | Truncation) -> HierarchySpec:
    """The branching plan of a plan or of a truncation."""
    return geometry.spec if isinstance(geometry, Truncation) else geometry


def build_truncation(spec: HierarchySpec) -> Truncation:
    """Construct the finite truncation with sizes N_0..N_R."""
    return Truncation(spec)


def distance_matrix(t: Truncation, m: int | None = None) -> np.ndarray:
    """Pairwise hierarchical distances of the first m sites (default: all).

    d(x, y) equals the number of ranks s with x // N_s != y // N_s, since the
    block indices agree exactly from rank d(x, y) upward.
    """
    if m is None:
        m = t.site_count
    if not 0 < m <= t.site_count:
        raise ValueError(f"m must be in [1, {t.site_count}], got {m}")
    x = np.arange(m, dtype=np.int64)
    dtype = np.uint8 if t.depth < 256 else np.int64
    d = np.zeros((m, m), dtype=dtype)
    for s in range(t.depth):
        blocks = x // t.sizes[s]
        d += (blocks[:, None] != blocks[None, :]).astype(dtype)
    return d
