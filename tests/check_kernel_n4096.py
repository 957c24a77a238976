"""Kernel IPRs at N = 4096 against numpy's eigh.

Runs ipr_profile at degree 2, depth 12, rho 4, rank 12 on two draws (uniform,
seed 301, draw 0; Gaussian, seed 302, draw 0). Each draw must keep the level
kernel (one values-only dense solve, no eigh fallback), and match
np.linalg.eigh of the same block: eigenvalues within 1e-12 max|e| and IPRs
within 1e-8. The eigh alone takes seconds at this size, so this is a CI step
rather than a tier-1 test:

    PYTHONPATH=src python tests/check_kernel_n4096.py

Exits 1 if a draw fails.
"""

import sys

import numpy as np

from hieram import (
    Gaussian,
    GeometricCoupling,
    HierarchySpec,
    Truncation,
    Uniform,
    ipr_profile,
    operators,
    sample_potential,
)
from reference_operator import hamiltonian


def check(t, seq, dist, seed):
    omega = sample_potential(dist, t, seed, 0)
    solves, solve = [], operators.dense_symmetric_eigensolve

    def spy(a, vectors=True):
        solves.append(vectors)
        return solve(a, vectors)

    operators.dense_symmetric_eigensolve = spy
    try:
        pairs = np.array(ipr_profile(t, seq, omega, t.depth))
    finally:
        operators.dense_symmetric_eigensolve = solve
    values, vectors = np.linalg.eigh(hamiltonian(t, seq, omega, t.depth).dense())
    iprs = np.square(np.square(vectors, out=vectors), out=vectors).sum(axis=0)
    d_value = np.abs(pairs[:, 0] - values).max() / np.abs(values).max()
    d_ipr = np.abs(pairs[:, 1] - iprs).max()
    kernel = solves == [False]  # one values-only solve: no eigh fallback
    ok = kernel and d_value <= 1e-12 and d_ipr <= 1e-8
    print(
        f"{dist.kind} seed {seed} draw 0, N = {t.site_count}: "
        f"{'kernel' if kernel else 'eigh fallback'}, max |de| / max|e| {d_value:.3g}, "
        f"max |dIPR| {d_ipr:.3g}: {'ok' if ok else 'FAIL'}"
    )
    return ok


def main():
    t = Truncation(HierarchySpec.homogeneous(2, 12))
    seq = GeometricCoupling(4.0)
    draws = [(Uniform(0.0, 1.0), 301), (Gaussian(0.0, 1.0), 302)]
    results = [check(t, seq, dist, seed) for dist, seed in draws]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
