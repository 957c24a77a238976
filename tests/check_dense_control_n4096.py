"""The dense control at N = 4096 against numpy's eigvalsh of the whole block.

spectral.dense_control peels the kernel of the rank-1 tiles off the block and
solves the N/n_1 block left. Here its groups must equal group_eigenvalues of
np.linalg.eigvalsh of the full N x N block (the same multiplicities, and
locations within 1e-12) on four plans: degree 2, depth 12, geometric rho 4
and degree 4, depth 6, polygeometric (2, 0.3), each with and without the
tail. The full solve alone takes seconds at this size, so this is a CI step
rather than a tier-1 test:

    PYTHONPATH=src python tests/check_dense_control_n4096.py

Exits 1 if a plan fails.
"""

import sys

import numpy as np

from hieram import (
    GeometricCoupling,
    HierarchySpec,
    PolyGeometricCoupling,
    Truncation,
    exact_cutoff_spectrum,
    group_eigenvalues,
    operators,
    restricted_full_spectrum,
)
from hieram.spectral import dense_control


def check(t, seq, tail):
    r = t.depth
    exact, groups = dense_control(t, seq, r, tail)
    atoms = (restricted_full_spectrum if tail else exact_cutoff_spectrum)(t, seq, r)
    block = (operators.compression_dense_block if tail else operators.cutoff_dense_block)(t, seq, r)
    full = group_eigenvalues(np.linalg.eigvalsh(block), atoms)
    same = [m for _, m in groups] == [m for _, m in full]
    d_loc = max(abs(g - f) for (g, _), (f, _) in zip(groups, full))
    ok = exact == atoms and same and d_loc <= 1e-12
    print(
        f"degree {t.degree}, depth {t.depth}, {type(seq).__name__}, "
        f"{'with' if tail else 'without'} the tail, N = {t.site_count}: "
        f"{len(groups)} groups, multiplicities {'equal' if same else 'DIFFER'}, "
        f"max |d location| {d_loc:.3g}: {'ok' if ok else 'FAIL'}"
    )
    return ok


def main():
    plans = [((2, 12), GeometricCoupling(4.0)), ((4, 6), PolyGeometricCoupling(2, 0.3))]
    results = [
        check(Truncation(HierarchySpec.homogeneous(*shape)), seq, tail)
        for shape, seq in plans
        for tail in (True, False)
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
