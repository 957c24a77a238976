"""Dense blocks of the hierarchical Laplacian, the one symmetric eigensolver,
and the cut of a rank-r cluster out of a truncation.

On a rank-r cluster the cut-off Laplacian sum_{s=1..r} p_s E_s, where E_s
replaces each rank-s block of a state by its block mean, has entry
K[d(x, y)] with K[d] = sum_{s=d..r} p_s / N_s: a function of the
hierarchical distance alone, so both dense blocks are a lookup of the
distance kernel.  Compressing the full Laplacian to the cluster adds the
constant tail kernel: for x, y inside it and s > r both sites share their
rank-s cluster, so each deep level contributes p_s / N_s.

The dense symmetric eigensolver wraps LAPACK's eigh, or its values-only
eigvalsh where no vector is read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import CouplingSequence
from .hierarchy import Truncation, distance_matrix

DENSE_CAP = 4096
SYMMETRY_PANEL = 256  # rows per slice of the eigensolver's symmetry check


class DenseCapError(ValueError):
    """Raised when a dense assembly or eigensolve exceeds the size cap."""


def check_cap(n: int):
    if n > DENSE_CAP:
        raise DenseCapError(f"dense size {n} exceeds cap {DENSE_CAP}")


def potential_values(t: Truncation, omega) -> np.ndarray:
    """The site values of a potential given as an array or a PotentialSample."""
    values = np.asarray(getattr(omega, "values", omega), dtype=float)
    if values.shape != (t.site_count,):
        raise ValueError(
            f"potential must have length {t.site_count}, got shape {values.shape}"
        )
    return values


def cluster_cut(t: Truncation, omega, r: int, x: int):
    """Q_r(x) as a lattice of its own: (t.cluster_lattice(r), the potential
    on its sites, the local index of x there)."""
    sites = t.cluster_sites(x, r)
    values = potential_values(t, omega)[sites.start : sites.stop]
    return t.cluster_lattice(r), values, x - sites.start


def _distance_block(q: Truncation, seq: CouplingSequence, tail: float) -> np.ndarray:
    """sum_{s=1..r} p_s E_s + tail J on the depth-r lattice q of a rank-r
    cluster, dense: entry (x, y) is K[d(x, y)] + tail with
    K[d] = sum_{s=d..r} p_s / N_s."""
    check_cap(q.site_count)
    p = np.array([0.0] + [seq.p(s) for s in range(1, q.depth + 1)])
    k = np.cumsum((p / np.array(q.sizes))[::-1])[::-1]
    return (k + tail)[distance_matrix(q)]


def cutoff_dense_block(t: Truncation, seq: CouplingSequence, r: int) -> np.ndarray:
    """Dense rank-r cut-off Laplacian on a rank-r cluster (all share it)."""
    return _distance_block(t.cluster_lattice(r), seq, 0.0)


def compression_dense_block(t: Truncation, seq: CouplingSequence, r: int) -> np.ndarray:
    """Dense compression of the full Laplacian (tail: t's plan) onto a rank-r cluster."""
    q = t.cluster_lattice(r)
    return _distance_block(q, seq, seq.weighted_tail(r, t))


@dataclass(frozen=True)
class DenseSpectrum:
    """Ascending eigenvalues and column eigenvectors ((n, 0) if values only)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def dense_symmetric_eigensolve(a: np.ndarray, vectors: bool = True) -> DenseSpectrum:
    """Eigendecompose a real symmetric matrix; deterministic for fixed input.

    ``vectors=False`` calls eigvalsh (LAPACK jobz='N'): no back-transformation.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("cannot eigensolve an empty matrix")
    # one pass, a panel of rows at a time and no n x n temporary: the scale
    # from the whole panel, the asymmetry from its pairs (x, y >= x) alone
    asym = scale = 0.0
    for lo in range(0, len(a), SYMMETRY_PANEL):
        rows = a[lo : lo + SYMMETRY_PANEL]
        scale = max(scale, rows.max(), -rows.min())
        panel = rows[:, lo:] - a[lo:, lo : lo + SYMMETRY_PANEL].T
        asym = np.abs(panel).max(initial=asym)
    if asym > 1e-12 * max(1.0, scale):
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:g}")
    if not vectors:
        return DenseSpectrum(np.linalg.eigvalsh(a), np.empty((len(a), 0)))
    return DenseSpectrum(*np.linalg.eigh(a))
