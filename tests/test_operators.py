import numpy as np
import pytest

from hieram import (
    DenseCapError,
    ExplicitCoupling,
    GeometricCoupling,
    HierarchicalOperator,
    HierarchySpec,
    averaging,
    build_truncation,
    dense_symmetric_eigensolve,
    exact_cutoff_spectrum,
    hamiltonian,
    laplacian,
)
from hieram.operators import compression_dense_block, cutoff_dense_block


def _t(degree=2, depth=3):
    return build_truncation(HierarchySpec.homogeneous(degree, depth))


def test_averaging_on_delta():
    t = _t()
    delta0 = np.zeros(8)
    delta0[0] = 1.0
    out = averaging(t, 1).apply(delta0)
    assert np.array_equal(out, np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0]))


def test_averaging_fixes_constants():
    t = _t(3, 2)
    ones = np.ones(t.site_count)
    for r in range(t.depth + 1):
        assert np.allclose(averaging(t, r).apply(ones), ones, atol=1e-15)


def test_cutoff_row_sums_equal_partial_mass():
    # each averaging operator is stochastic, so rows sum to lambda_r
    t = _t(2, 4)
    seq = GeometricCoupling(4.0)
    dense = laplacian(t, seq, t.depth).dense()
    assert np.allclose(dense.sum(axis=1), seq.lam(t.depth), atol=1e-14)


def test_averaging_dense_two_sites():
    t = _t(2, 1)
    assert np.allclose(
        averaging(t, 1).dense(), np.array([[0.5, 0.5], [0.5, 0.5]]), atol=0
    )


def test_cutoff_dense_matches_kernel_formula():
    t = _t(2, 3)
    seq = GeometricCoupling(2.0)
    for r in range(t.depth + 1):
        dense = laplacian(t, seq, r).dense()
        for x in range(8):
            for y in range(8):
                d = t.distance(x, y)
                expected = sum(
                    seq.p(s) / t.sizes[s] for s in range(max(1, d), r + 1)
                )
                assert dense[x, y] == pytest.approx(expected, abs=1e-15)


def test_hamiltonian_diagonal_entries():
    t = _t(2, 3)
    seq = GeometricCoupling(4.0)
    omega = np.arange(8.0)
    r = 2
    dense = hamiltonian(t, seq, omega, r).dense()
    diag_kernel = sum(seq.p(s) / t.sizes[s] for s in range(1, r + 1))
    assert np.allclose(np.diag(dense), omega + diag_kernel, atol=1e-15)


def test_dense_matches_apply_on_basis_vectors():
    t = build_truncation(HierarchySpec.explicit([2, 3, 2]))
    seq = GeometricCoupling(3.0)
    ops = [
        averaging(t, 2),
        laplacian(t, seq, 3),
        laplacian(t, seq, t.depth, include_tail=True),
        hamiltonian(t, seq, np.linspace(-1, 1, 12), 2),
    ]
    basis = np.eye(t.site_count)
    for op in ops:
        dense = op.dense()
        for j in range(t.site_count):
            assert np.abs(op.apply(basis[j]) - dense[:, j]).max() < 1e-14


@pytest.mark.parametrize(
    "spec,seqf",
    [
        (HierarchySpec.homogeneous(2, 9), lambda: GeometricCoupling(4.0)),
        (HierarchySpec.homogeneous(3, 5), lambda: GeometricCoupling(2.0)),
        (HierarchySpec.explicit([2, 3, 2, 3, 2]), lambda: ExplicitCoupling(
            [0.4, 0.3, 0.1, 0.1, 0.05], 0.05
        )),
    ],
)
def test_apply_matches_dense_on_random_vectors(spec, seqf):
    t = build_truncation(spec)
    seq = seqf()
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(t.site_count)
    phi = rng.standard_normal(t.site_count) + 1j * rng.standard_normal(t.site_count)
    for op in [
        averaging(t, min(2, t.depth)),
        laplacian(t, seq, t.depth),
        laplacian(t, seq, t.depth, include_tail=True),
        hamiltonian(t, seq, rng.standard_normal(t.site_count), t.depth),
    ]:
        dense = op.dense()
        assert np.abs(op.apply(psi) - dense @ psi).max() < 1e-12
        assert np.abs(op.apply(phi) - dense @ phi).max() < 1e-12


def test_averaging_projection_algebra():
    # E_r E_s = E_max(r,s): averaging a coarser average changes nothing
    t = _t(2, 4)
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(t.site_count)
    for r in range(t.depth + 1):
        e_r = averaging(t, r)
        assert np.abs(e_r.apply(e_r.apply(psi)) - e_r.apply(psi)).max() < 1e-12
        for s in range(t.depth + 1):
            lhs = averaging(t, s).apply(e_r.apply(psi))
            rhs = averaging(t, max(r, s)).apply(psi)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_cutoff_symmetry_inner_product():
    t = _t(3, 3)
    seq = GeometricCoupling(2.0)
    rng = np.random.default_rng(11)
    op = laplacian(t, seq, 3)
    for _ in range(5):
        phi = rng.standard_normal(t.site_count)
        psi = rng.standard_normal(t.site_count)
        assert abs(phi @ op.apply(psi) - op.apply(phi) @ psi) < 1e-12


def test_cutoff_spectrum_inside_unit_band():
    t = _t(2, 5)
    seq = GeometricCoupling(2.0)
    for r in range(t.depth + 1):
        values = dense_symmetric_eigensolve(
            laplacian(t, seq, r).dense()
        ).eigenvalues
        assert values.min() > -1e-12
        assert values.max() < seq.lam(r) + 1e-12


@pytest.mark.parametrize("degree,rho", [(2, 4.0), (2, 2.0), (3, 4.0)])
def test_compression_within_tail_of_cutoff(degree, rho):
    # operator-norm gap between compression and cut-off is at most the tail
    t = build_truncation(HierarchySpec.homogeneous(degree, 4))
    seq = GeometricCoupling(rho)
    gap = laplacian(t, seq, t.depth, include_tail=True).dense() - laplacian(
        t, seq, t.depth
    ).dense()
    norm = np.abs(dense_symmetric_eigensolve(gap).eigenvalues).max()
    assert norm <= seq.tail(t.depth) + 1e-15


def test_eigensolve_identity():
    spectrum = dense_symmetric_eigensolve(np.eye(2))
    assert np.allclose(spectrum.eigenvalues, [1.0, 1.0])


def test_eigensolve_rank_one_block():
    # two-site cut-off Laplacian with p_1 = 3/4: kernel plus trace eigenvalue
    a = np.full((2, 2), 0.375)
    spectrum = dense_symmetric_eigensolve(a)
    assert np.allclose(spectrum.eigenvalues, [0.0, 0.75], atol=1e-15)


def test_eigensolve_agrees_with_exact_multiplicities():
    t = _t(2, 3)
    seq = GeometricCoupling(4.0)
    values = dense_symmetric_eigensolve(
        laplacian(t, seq, 3).dense()
    ).eigenvalues
    expected = np.concatenate(
        [[loc] * mult for loc, mult in exact_cutoff_spectrum(t, seq, 3)]
    )
    assert np.abs(values - expected).max() < 1e-12


def test_eigensolve_contract_checks():
    with pytest.raises(ValueError):
        dense_symmetric_eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        dense_symmetric_eigensolve(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        dense_symmetric_eigensolve(np.zeros((2, 3)))


def test_eigensolve_quality_and_determinism():
    t = _t(2, 6)
    seq = GeometricCoupling(2.0)
    rng = np.random.default_rng(5)
    h = hamiltonian(t, seq, rng.uniform(-0.5, 0.5, t.site_count), t.depth).dense()
    s1 = dense_symmetric_eigensolve(h)
    s2 = dense_symmetric_eigensolve(h.copy())
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)
    scale = np.abs(h).max()
    residual = h @ s1.eigenvectors - s1.eigenvectors * s1.eigenvalues
    assert np.abs(residual).max() < 1e-9 * scale
    gram = s1.eigenvectors.T @ s1.eigenvectors
    assert np.abs(gram - np.eye(t.site_count)).max() < 1e-10


def test_dense_cap_enforced():
    t = _t(2, 4)
    seq = GeometricCoupling(2.0)
    with pytest.raises(DenseCapError):
        laplacian(t, seq, 4).dense(cap=8)
    with pytest.raises(DenseCapError):
        cutoff_dense_block(t, seq, 4, cap=8)


def test_operator_argument_validation():
    t = _t(2, 3)
    seq = GeometricCoupling(2.0)
    with pytest.raises(ValueError):
        averaging(t, 4)
    with pytest.raises(ValueError):
        laplacian(t, seq, 3).apply(np.zeros(7))
    with pytest.raises(ValueError):
        hamiltonian(t, seq, np.zeros(4), 2)
    with pytest.raises(ValueError):
        hamiltonian(t, seq, np.zeros(8), 2, include_tail=True)


def test_compression_block_matches_full_matrix_corner():
    t = _t(2, 3)
    seq = GeometricCoupling(4.0)
    full = laplacian(t, seq, t.depth, include_tail=True).dense()
    assert np.allclose(compression_dense_block(t, seq, 3), full, atol=0)
    sub = compression_dense_block(t, seq, 2)
    # the rank-2 block carries its own, larger tail weight
    assert sub.shape == (4, 4)
    assert sub[0, 3] == pytest.approx(
        seq.p(2) / 4 + seq.weighted_tail(2, t), abs=1e-15
    )


def test_general_operator_apply_matches_dense():
    # identity weight, every averaging level, the uniform kernel and a potential
    t = build_truncation(HierarchySpec.explicit([2, 3, 2]))
    rng = np.random.default_rng(13)
    op = HierarchicalOperator(
        t, [0.3, 0.2, 0.1, 0.4], tail=0.05, potential=rng.standard_normal(12)
    )
    dense = op.dense()
    psi = rng.standard_normal(t.site_count)
    assert np.abs(op.apply(psi) - dense @ psi).max() < 1e-14
    expected = np.diag(op.potential) + 0.3 * np.eye(12) + 0.05
    for s, w in ((1, 0.2), (2, 0.1), (3, 0.4)):
        expected += w * averaging(t, s).dense()
    assert np.abs(dense - expected).max() < 1e-15
    # the block at site 0 is the corner of the full matrix
    assert np.array_equal(op.dense(m=6), dense[:6, :6])
