"""The hierarchical operator on a truncation, plus dense oracles.

Every operator here - an averaging operator E_r, a cut-off or compressed
Laplacian, an Anderson Hamiltonian - is one object

    diag(potential) + sum_{s=0..R} w_s E_s + tau J,

where E_s replaces each rank-s block of a state by its block mean (E_0 is
the identity) and J is the all-ones kernel.  Compressing the full Laplacian
to the truncation leaves the cut-off part plus that uniform kernel carrying
the coupling tail: for x, y inside the truncation and s > R both sites share
their rank-s cluster, so each deep level contributes the constant p_s / N_s.
Applications run in O(N * R) via blocked scans.

Dense assembly goes through the distance kernel (independent of apply, so the
two paths can cross-check each other), and the dense symmetric eigensolver
wraps LAPACK's eigh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import CouplingSequence
from .hierarchy import Truncation, distance_matrix

DENSE_CAP = 4096


class DenseCapError(ValueError):
    """Raised when a dense assembly or eigensolve exceeds the size cap."""


def _as_state(t: Truncation, psi) -> np.ndarray:
    psi = np.asarray(psi)
    if psi.ndim != 1 or psi.shape[0] != t.site_count:
        raise ValueError(
            f"state must be a vector of length {t.site_count}, got shape {psi.shape}"
        )
    dtype = np.complex128 if np.iscomplexobj(psi) else np.float64
    return psi.astype(dtype, copy=False)


def _check_cap(n: int, cap: int):
    if n > cap:
        raise DenseCapError(f"dense size {n} exceeds cap {cap}")


def _check_rank(t: Truncation, r: int):
    if not 0 <= r <= t.depth:
        raise ValueError(f"rank {r} out of range [0, {t.depth}]")


def potential_values(t: Truncation, omega) -> np.ndarray:
    """The site values of a potential given as an array or a PotentialSample."""
    values = np.asarray(getattr(omega, "values", omega), dtype=float)
    if values.shape != (t.site_count,):
        raise ValueError(
            f"potential must have length {t.site_count}, got shape {values.shape}"
        )
    return values


class HierarchicalOperator:
    """diag(potential) + sum_{s=0..R} w_s E_s + tau J on a truncation.

    ``weights`` holds w_0..w_R, so R is the rank; ``potential`` may be None.
    """

    def __init__(self, t: Truncation, weights, tail: float = 0.0, potential=None):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1:
            raise ValueError(f"weights must be a vector, got shape {weights.shape}")
        self.rank = weights.size - 1
        _check_rank(t, self.rank)
        self.trunc = t
        self.weights = weights
        self.tail = tail
        self.potential = None if potential is None else potential_values(t, potential)

    def apply(self, psi) -> np.ndarray:
        """One bottom-up/top-down blocked pass over the ranks."""
        t = self.trunc
        psi = _as_state(t, psi)
        # block sums per level, then accumulate weighted means downward
        sums = [psi]
        for s in range(1, self.rank + 1):
            sums.append(sums[-1].reshape(-1, t.factor(s)).sum(axis=1))
        acc = (self.weights[-1] / t.sizes[self.rank]) * sums[-1]
        for s in range(self.rank, 0, -1):
            acc = np.repeat(acc, t.factor(s))
            acc = acc + (self.weights[s - 1] / t.sizes[s - 1]) * sums[s - 1]
        if self.potential is not None:
            acc = acc + self.potential * psi
        return acc + self.tail * psi.sum()

    def dense(self, cap: int = DENSE_CAP, m: int | None = None) -> np.ndarray:
        """The matrix on the first m sites (default: all) via the distance kernel.

        Entry (x, y) is K[d(x, y)] with K[d] = sum_{s=d}^{R} w_s / N_s + tau.
        """
        t = self.trunc
        n = t.site_count if m is None else m
        _check_cap(n, cap)
        per_site = self.weights / np.array(t.sizes[: self.rank + 1])
        k = np.zeros(t.depth + 1)
        k[: self.rank + 1] = np.cumsum(per_site[::-1])[::-1]
        h = (k + self.tail)[distance_matrix(t, m)]
        if self.potential is not None:
            h[np.diag_indices(n)] += self.potential[:n]
        return h


def averaging(t: Truncation, r: int) -> HierarchicalOperator:
    """E_r: orthogonal projection onto states constant on rank-r clusters."""
    _check_rank(t, r)
    return HierarchicalOperator(t, np.eye(r + 1)[r])


def laplacian(
    t: Truncation, seq: CouplingSequence, r: int, include_tail: bool = False
) -> HierarchicalOperator:
    """The rank-r cut-off Laplacian sum_{1<=s<=r} p_s E_s.

    ``include_tail`` adds the compression's uniform kernel, making it the
    exact compression of the full Laplacian; only meaningful at the depth.
    """
    _check_rank(t, r)
    if include_tail and r != t.depth:
        raise ValueError("the tail kernel only applies at the truncation depth")
    weights = [0.0] + [seq.p(s) for s in range(1, r + 1)]
    tail = seq.weighted_tail(t.depth, t) if include_tail else 0.0
    return HierarchicalOperator(t, weights, tail)


def hamiltonian(
    t: Truncation,
    seq: CouplingSequence,
    omega,
    r: int,
    include_tail: bool = False,
) -> HierarchicalOperator:
    """The rank-r Anderson Hamiltonian: potential plus cut-off Laplacian.

    ``omega`` is an array of site values or a PotentialSample.
    """
    lap = laplacian(t, seq, r, include_tail)
    return HierarchicalOperator(t, lap.weights, lap.tail, omega)


def cutoff_dense_block(
    t: Truncation, seq: CouplingSequence, r: int, cap: int = DENSE_CAP
) -> np.ndarray:
    """Dense rank-r cut-off Laplacian restricted to the cluster at site 0."""
    return laplacian(t, seq, r).dense(cap, t.sizes[r])


def compression_dense_block(
    t: Truncation, seq: CouplingSequence, r: int, cap: int = DENSE_CAP
) -> np.ndarray:
    """Dense compression of the full Laplacian onto the cluster at site 0."""
    weights = laplacian(t, seq, r).weights
    op = HierarchicalOperator(t, weights, seq.weighted_tail(r, t))
    return op.dense(cap, t.sizes[r])


@dataclass(frozen=True)
class DenseSpectrum:
    """Full symmetric eigendecomposition: ascending values, column vectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def dense_symmetric_eigensolve(a: np.ndarray) -> DenseSpectrum:
    """Eigendecompose a real symmetric matrix; deterministic for fixed input."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("cannot eigensolve an empty matrix")
    tol = 1e-12 * max(1.0, float(np.abs(a).max()))
    asym = float(np.abs(a - a.T).max())
    if asym > tol:
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:g}")
    values, vectors = np.linalg.eigh(a)
    return DenseSpectrum(values, vectors)
