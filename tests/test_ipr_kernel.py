"""IPRs from the level kernel at values-only eigenvalues (ipr_profile): against
eigh over random plans, couplings and disorder; the eigh fallback bit for bit
where the kernel declines a draw; the residual identity; the repair of mixed
vectors; and no eigenvector matrix at the localize benchmark's shape."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hieram import (
    Bernoulli,
    Cauchy,
    ExplicitCoupling,
    Gaussian,
    GeometricCoupling,
    HierarchySpec,
    PolyGeometricCoupling,
    Truncation,
    Uniform,
    ipr_profile,
    operators,
    sample_potential,
)
from hieram import greens
from hieram.operators import cluster_cut, cutoff_dense_block, dense_symmetric_eigensolve
from reference_operator import hamiltonian


def _t(depth):
    return Truncation(HierarchySpec.homogeneous(2, depth))


def _eigh_profile(t, seq, omega, r, x=0):
    """ipr_profile as it was before the kernel: one eigh of the dense block."""
    q, values, _ = cluster_cut(t, omega, r, x)
    block = cutoff_dense_block(q, seq, r)
    block[np.diag_indices(q.site_count)] += values
    spectrum = dense_symmetric_eigensolve(block)
    iprs = np.sum(np.square(np.square(spectrum.eigenvectors)), axis=0)
    return list(zip(spectrum.eigenvalues.tolist(), iprs.tolist()))


def _oracle(t, seq, omega, r, x=0):
    """np.linalg.eigh of H_r on the whole lattice, restricted to Q_r(x)."""
    n_r = t.sizes[r]
    base = x // n_r * n_r
    h = hamiltonian(t, seq, omega, r).dense()[base : base + n_r, base : base + n_r]
    values, vectors = np.linalg.eigh(h)
    return values, np.sum(vectors**4, axis=0)


@st.composite
def couplings(draw):
    family = draw(st.sampled_from(["geometric", "polygeometric", "explicit"]))
    if family == "geometric":
        return GeometricCoupling(draw(st.floats(1.5, 8.0)))
    if family == "polygeometric":
        return PolyGeometricCoupling(draw(st.integers(2, 5)), draw(st.floats(0.1, 2.0)))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
    tail = draw(st.sampled_from([0.0, 0.2]))
    return ExplicitCoupling([(1.0 - tail) * w / sum(raw) for w in raw], tail)


@settings(max_examples=40)
@given(data=st.data())
def test_kernel_iprs_match_eigh(data):
    # from 8 children on, numpy's row sum leaves child order; N stays <= 512
    factors = data.draw(st.lists(st.integers(2, 9), min_size=1, max_size=4))
    while math.prod(factors) > 512:
        factors.pop()
    t = Truncation(HierarchySpec.explicit(factors))
    seq = data.draw(couplings())
    dist = data.draw(st.sampled_from([Uniform(0.0, 1.0), Gaussian(0.0, 1.0), Cauchy(0.0, 0.5)]))
    omega = sample_potential(dist, t, data.draw(st.integers(0, 2**32)), 0)
    r = data.draw(st.integers(0, t.depth))
    x = data.draw(st.integers(0, t.site_count - 1))
    pairs = np.array(ipr_profile(t, seq, omega, r, x=x))
    values, iprs = _oracle(t, seq, omega, r, x)
    scale = max(1.0, np.abs(values).max())
    assert np.abs(pairs[:, 0] - values).max() <= 1e-12 * scale
    assert np.abs(pairs[:, 1] - iprs).max() <= 1e-8
    n_r = t.sizes[r]
    assert np.all(pairs[:, 1] >= 1.0 / n_r * (1 - 1e-12)) and np.all(pairs[:, 1] <= 1.0)


@pytest.mark.parametrize("index", range(3))
def test_tied_spectra_take_the_eigh_path_bit_for_bit(index):
    t = _t(6)
    seq = GeometricCoupling(4.0)
    tied = sample_potential(Bernoulli(0.0, 1.0, 0.5), t, 301, index)
    zero = type(tied)(np.zeros(t.site_count), tied.distribution, 301, index)
    for omega in (tied, zero):
        for r in range(1, t.depth + 1):
            eigenvalues = np.array([e for e, _ in _eigh_profile(t, seq, omega, r)])
            q, values, _ = cluster_cut(t, omega, r, 0)
            if greens.eigenvector_iprs(q, seq, values, eigenvalues) is None:
                assert ipr_profile(t, seq, omega, r) == _eigh_profile(t, seq, omega, r)
            else:  # a small cluster whose two values differ has no tie
                assert omega is tied and r < t.depth


def test_ranks_zero_and_one():
    t = _t(4)
    seq = GeometricCoupling(4.0)
    omega = sample_potential(Uniform(0.0, 1.0), t, 7, 0)
    for x in range(t.site_count):
        assert ipr_profile(t, seq, omega, 0, x=x) == [(omega.values[x], 1.0)]
        pairs = np.array(ipr_profile(t, seq, omega, 1, x=x))
        values, iprs = _oracle(t, seq, omega, 1, x)
        assert np.abs(pairs[:, 0] - values).max() <= 1e-15
        assert np.abs(pairs[:, 1] - iprs).max() <= 1e-12
        assert np.all((pairs[:, 1] >= 0.5) & (pairs[:, 1] <= 1.0))


@pytest.mark.parametrize("factors,r", [([2, 2, 2], 3), ([3, 2, 4], 2), ([3, 2, 4], 1), ([5], 1)])
def test_kernel_quantities_against_dense_solves(factors, r):
    # off the spectrum the identity residual |d_r| / ||psi||, the IPR of
    # psi = (H_{r-1} - e)^{-1} phi_Q and that of the inverse-iteration step
    # (H_r - e)^{-1} psi must match dense computations
    t = Truncation(HierarchySpec.explicit(factors))
    seq = PolyGeometricCoupling(2, 0.5)
    omega = sample_potential(Gaussian(0.0, 1.0), t, 11, 0)
    energies = np.linspace(-2.05, 2.05, 23)
    cut = cluster_cut(t, omega, r, 0)
    iprs, residuals, norms, ok = greens._sweep_grid(greens._ipr_sweep, cut, seq, energies, r)
    assert ok.all()
    n_r = t.sizes[r]
    h_below = hamiltonian(t, seq, omega, r - 1).dense()[:n_r, :n_r]
    h = hamiltonian(t, seq, omega, r).dense()[:n_r, :n_r]
    phi = np.full(n_r, 1.0 / np.sqrt(n_r))
    for k, e in enumerate(energies):
        psi = np.linalg.solve(h_below - e * np.eye(n_r), phi)
        norm = np.linalg.norm(psi)
        assert norms[k] == pytest.approx(norm, rel=1e-10)
        direct = np.linalg.norm((h - e * np.eye(n_r)) @ psi) / norm
        assert residuals[k] == pytest.approx(direct, rel=1e-8)
        assert iprs[k] == pytest.approx(np.sum(psi**4) / norm**4, rel=1e-10)
        step = np.linalg.solve(h - e * np.eye(n_r), psi)
        got = greens._inverse_iteration_ipr(t.cluster_lattice(r), seq, omega.values[:n_r], e, r)
        assert got == pytest.approx(np.sum(step**4) / np.sum(step**2) ** 2, rel=1e-10)


def test_mixed_vectors_are_repaired():
    # degree 2, depth 10, rho 4, uniform width 1, seed 307, draw 5: two
    # eigenvalues 8e-9 apart hybridize, and the kernel vector at the float64
    # eigenvalue mixes in its partner (share 3.9e-7 per rounding unit).  On a
    # 2-core box with OpenBLAS 0.3.31 that put the kernel IPR 1.1e-7 off eigh,
    # and one step of inverse iteration brought it within 7e-10
    t = _t(10)
    seq = GeometricCoupling(4.0)
    omega = sample_potential(Uniform(0.0, 1.0), t, 307, 5)
    values, iprs = _oracle(t, seq, omega, 10)
    eigenvalues = np.linalg.eigvalsh(hamiltonian(t, seq, omega, 10).dense())
    cut = cluster_cut(t, omega, 10, 0)
    raw, _, norms, _ = greens._sweep_grid(greens._ipr_sweep, cut, seq, eigenvalues, 10)
    unit = np.finfo(float).eps * np.abs(eigenvalues).max()
    mixing = greens._mixing(eigenvalues, norms, unit)
    assert mixing.max() > 1e3 * greens.MIXING_TOL
    mixed = mixing > greens.MIXING_TOL
    repaired = np.array([v for _, v in ipr_profile(t, seq, omega, 10)])
    assert np.all(repaired[~mixed] == raw[~mixed]) and np.any(repaired[mixed] != raw[mixed])
    assert np.abs(repaired - iprs).max() < 2e-9


def test_a_draw_one_repair_step_cannot_fix_takes_the_eigh_path_bit_for_bit(monkeypatch):
    # with MIXING_TOL at 1e-30, every vector reads as mixed and no single
    # inverse-iteration step can bring a share that low, so the kernel must
    # decline the draw rather than repair it
    t = _t(6)
    seq = GeometricCoupling(4.0)
    omega = sample_potential(Uniform(0.0, 1.0), t, 301, 0)
    kernel = ipr_profile(t, seq, omega, 6)
    assert kernel != _eigh_profile(t, seq, omega, 6)  # the kernel path ran
    monkeypatch.setattr(greens, "MIXING_TOL", 1e-30)
    q, values, _ = cluster_cut(t, omega, 6, 0)
    eigenvalues = np.array([e for e, _ in kernel])
    assert greens.eigenvector_iprs(q, seq, values, eigenvalues) is None
    assert ipr_profile(t, seq, omega, 6) == _eigh_profile(t, seq, omega, 6)


def test_heavy_tailed_draw_keeps_the_kernel_through_many_repairs(monkeypatch):
    # Cauchy disorder at N = 1024 (seed 301, draw 1): tail eigenvalues make the
    # rounding unit eps max|e| large, so most vectors read as mixed; each one
    # is repairable, so the draw keeps the kernel and needs no eigh
    t = _t(10)
    seq = GeometricCoupling(4.0)
    omega = sample_potential(Cauchy(0.0, 0.5), t, 301, 1)
    values, iprs = _oracle(t, seq, omega, 10)
    cut = cluster_cut(t, omega, 10, 0)
    raw, _, norms, _ = greens._sweep_grid(greens._ipr_sweep, cut, seq, values, 10)
    unit = np.finfo(float).eps * np.abs(values).max()
    assert np.mean(greens._mixing(values, norms, unit) > greens.MIXING_TOL) > 0.25
    solves = []
    solve = operators.dense_symmetric_eigensolve

    def spy(a, vectors=True):
        solves.append(vectors)
        return solve(a, vectors)

    monkeypatch.setattr(operators, "dense_symmetric_eigensolve", spy)
    pairs = np.array(ipr_profile(t, seq, omega, 10))
    assert solves == [False]
    assert np.abs(pairs[:, 0] - values).max() <= 1e-12 * np.abs(values).max()
    assert np.abs(pairs[:, 1] - iprs).max() < 1e-8


def test_fourths_imply_squares():
    # W4_s is formed from the squares of W_s, so the second of two powers must
    # give the sums of v_s^4, with v_s = (H_s - e)^{-1} phi_Q the level vector
    t = Truncation(HierarchySpec.explicit([3, 2, 2]))
    seq = GeometricCoupling(3.0)
    omega = sample_potential(Gaussian(0.0, 1.0), t, 5, 0)
    z = np.linspace(-2.1, 2.1, 9)
    ok = greens._level0_ok(omega.values, z, {})
    for _, _, (_, w4) in greens._levels(t, seq, omega.values, z, 3, {}, ok, powers=2):
        pass
    assert ok.all()
    w4 = w4[:, 0]
    h = hamiltonian(t, seq, omega, 3).dense()
    for k, e in enumerate(z):
        v = np.linalg.solve(h - e * np.eye(12), np.full(12, 1 / np.sqrt(12)))
        assert w4[k] == pytest.approx(np.sum(v**4), rel=1e-10)


def test_no_eigenvector_matrix_at_the_localize_benchmark_shape(monkeypatch):
    # N = 1024: the dense block is 8 MiB, and the eigh path also held the
    # 8 MiB eigenvector matrix and two 8 MiB temporaries (32 MiB in all)
    t = _t(10)
    seq = GeometricCoupling(4.0)
    omega = sample_potential(Uniform(0.0, 1.0), t, 301, 0)
    ipr_profile(t, seq, omega, 10)
    solves = []
    solve = operators.dense_symmetric_eigensolve

    def spy(a, vectors=True):
        solves.append(vectors)
        return solve(a, vectors)

    monkeypatch.setattr(operators, "dense_symmetric_eigensolve", spy)
    tracemalloc.start()
    try:
        ipr_profile(t, seq, omega, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solves == [False]
    assert peak < 16 * 2**20
