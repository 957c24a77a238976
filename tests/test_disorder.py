import numpy as np
import pytest

from hieram import (
    Bernoulli,
    Cauchy,
    Gaussian,
    GeometricCoupling,
    HierarchySpec,
    Uniform,
    build_truncation,
    hamiltonian,
    laplacian,
    sample_potential,
)


def _t(depth=3):
    return build_truncation(HierarchySpec.homogeneous(2, depth))


def test_uniform_support():
    t = _t(6)
    omega = sample_potential(Uniform(0.0, 1.0), t, 1, 0)
    assert omega.values.min() >= -0.5
    assert omega.values.max() <= 0.5
    shifted = sample_potential(Uniform(2.0, 0.5), t, 1, 0)
    assert shifted.values.min() >= 1.75
    assert shifted.values.max() <= 2.25


def test_sampling_is_deterministic():
    t = _t(6)
    a = sample_potential(Uniform(0.0, 1.0), t, 42, 3)
    b = sample_potential(Uniform(0.0, 1.0), t, 42, 3)
    assert np.array_equal(a.values, b.values)
    c = sample_potential(Uniform(0.0, 1.0), t, 42, 4)
    d = sample_potential(Uniform(0.0, 1.0), t, 43, 3)
    assert not np.array_equal(a.values, c.values)
    assert not np.array_equal(a.values, d.values)


def test_uniform_mean_within_clt_band():
    t = build_truncation(HierarchySpec.homogeneous(2, 12))  # 4096 sites
    omega = sample_potential(Uniform(0.0, 1.0), t, 2024, 0)
    sigma = (1.0 / np.sqrt(12.0)) / np.sqrt(t.site_count)
    assert abs(omega.values.mean()) < 3.0 * sigma


def test_gaussian_and_cauchy_draws():
    t = build_truncation(HierarchySpec.homogeneous(2, 12))
    g = sample_potential(Gaussian(1.0, 2.0), t, 7, 0)
    assert abs(g.values.mean() - 1.0) < 3.0 * 2.0 / np.sqrt(t.site_count)
    assert abs(g.values.std() - 2.0) < 0.2
    c = sample_potential(Cauchy(0.0, 1.0), t, 7, 0)
    # heavy tails: no moments, so check the median instead
    assert abs(np.median(c.values)) < 0.2
    assert np.abs(c.values).max() > 10.0


def test_bernoulli_two_point_support():
    t = _t(6)
    dist = Bernoulli(-1.0, 2.0, 0.25)
    assert not dist.absolutely_continuous
    omega = sample_potential(dist, t, 9, 0)
    assert set(np.unique(omega.values)) <= {-1.0, 2.0}
    assert Uniform(0.0, 1.0).absolutely_continuous
    assert Cauchy().absolutely_continuous


def test_distribution_validation():
    with pytest.raises(ValueError):
        Uniform(0.0, 0.0)
    with pytest.raises(ValueError):
        Gaussian(0.0, -1.0)
    with pytest.raises(ValueError):
        Cauchy(0.0, 0.0)
    with pytest.raises(ValueError):
        Bernoulli(0.0, 1.0, 1.0)
    t = _t(2)
    with pytest.raises(ValueError):
        sample_potential(Uniform(), t, -1, 0)
    with pytest.raises(ValueError):
        sample_potential(Uniform(), t, 0, 2**64)


def test_hamiltonian_rank0_is_diagonal():
    t = _t(3)
    seq = GeometricCoupling(4.0)
    omega = sample_potential(Uniform(0.0, 1.0), t, 5, 0)
    h = hamiltonian(t, seq, omega, 0)
    psi = np.arange(8.0)
    assert np.array_equal(h.apply(psi), omega.values * psi)


def test_zero_potential_reduces_to_cutoff():
    t = _t(3)
    seq = GeometricCoupling(4.0)
    omega = sample_potential(Uniform(0.0, 1.0), t, 5, 0)
    zero = type(omega)(np.zeros(8), omega.distribution, 0, 0)
    h = hamiltonian(t, seq, zero, 2)
    psi = np.linspace(-1, 1, 8)
    assert np.array_equal(h.apply(psi), laplacian(t, seq, 2).apply(psi))


def test_rank_r_clusters_are_invariant_blocks():
    t = _t(4)
    seq = GeometricCoupling(2.0)
    omega = sample_potential(Uniform(0.0, 1.0), t, 31, 2)
    r = 2
    h = hamiltonian(t, seq, omega, r)
    members = list(t.cluster_members(t.cluster_of(5, r)))
    psi = np.zeros(t.site_count)
    psi[members] = np.random.default_rng(0).standard_normal(len(members))
    out = h.apply(psi)
    outside = np.ones(t.site_count, dtype=bool)
    outside[members] = False
    assert np.all(out[outside] == 0.0)


def test_dense_hamiltonian_block_diagonal_and_symmetric():
    t = _t(4)
    seq = GeometricCoupling(2.0)
    omega = sample_potential(Gaussian(0.0, 1.0), t, 77, 0)
    r = 2
    dense = hamiltonian(t, seq, omega, r).dense()
    assert np.array_equal(dense, dense.T)
    n_r = t.sizes[r]
    for i in range(t.num_clusters(r)):
        for j in range(t.num_clusters(r)):
            block = dense[i * n_r : (i + 1) * n_r, j * n_r : (j + 1) * n_r]
            if i != j:
                assert np.all(block == 0.0)
