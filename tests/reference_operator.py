"""The matrix-free hierarchical operator and its constructors, kept as the
dense oracle of the tests.

Every operator here - an averaging operator E_r, a cut-off or compressed
Laplacian, an Anderson Hamiltonian - is one object

    diag(potential) + sum_{s=0..R} w_s E_s + tau J,

where E_s replaces each rank-s block of a state by its block mean (E_0 is
the identity) and J is the all-ones kernel.  Applications run in O(N * R)
via blocked scans; dense assembly goes through the distance kernel, on its
own path, so the two can cross-check each other (test_operators.py), and
operators.cutoff_dense_block and operators.compression_dense_block must equal
dense() bit for bit (test_cluster_cut.py).
"""

import numpy as np

from hieram.coupling import CouplingSequence
from hieram.hierarchy import Truncation, distance_matrix
from hieram.operators import check_cap, potential_values


def _as_state(t: Truncation, psi) -> np.ndarray:
    psi = np.asarray(psi)
    if psi.ndim != 1 or psi.shape[0] != t.site_count:
        raise ValueError(
            f"state must be a vector of length {t.site_count}, got shape {psi.shape}"
        )
    dtype = np.complex128 if np.iscomplexobj(psi) else np.float64
    return psi.astype(dtype, copy=False)


class HierarchicalOperator:
    """diag(potential) + sum_{s=0..R} w_s E_s + tau J on a truncation.

    ``weights`` holds w_0..w_R, so R is the rank; ``potential`` may be None.
    """

    def __init__(self, t: Truncation, weights, tail: float = 0.0, potential=None):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1:
            raise ValueError(f"weights must be a vector, got shape {weights.shape}")
        self.rank = weights.size - 1
        t.check_rank(self.rank)
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

    def dense(self) -> np.ndarray:
        """The matrix via the distance kernel.

        Entry (x, y) is K[d(x, y)] with K[d] = sum_{s=d}^{R} w_s / N_s + tau.
        """
        t = self.trunc
        check_cap(t.site_count)
        per_site = self.weights / np.array(t.sizes[: self.rank + 1])
        k = np.zeros(t.depth + 1)
        k[: self.rank + 1] = np.cumsum(per_site[::-1])[::-1]
        h = (k + self.tail)[distance_matrix(t)]
        if self.potential is not None:
            h[np.diag_indices(t.site_count)] += self.potential
        return h


def averaging(t: Truncation, r: int) -> HierarchicalOperator:
    """E_r: orthogonal projection onto states constant on rank-r clusters."""
    t.check_rank(r)
    return HierarchicalOperator(t, np.eye(r + 1)[r])


def laplacian(t: Truncation, seq: CouplingSequence, r: int) -> HierarchicalOperator:
    """The rank-r cut-off Laplacian sum_{1<=s<=r} p_s E_s."""
    t.check_rank(r)
    return HierarchicalOperator(t, [0.0] + [seq.p(s) for s in range(1, r + 1)])


def hamiltonian(
    t: Truncation, seq: CouplingSequence, omega, r: int
) -> HierarchicalOperator:
    """The rank-r Anderson Hamiltonian: potential plus cut-off Laplacian.

    ``omega`` is an array of site values or a PotentialSample.
    """
    return HierarchicalOperator(t, laplacian(t, seq, r).weights, potential=omega)
