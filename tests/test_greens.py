import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hieram import (
    Bernoulli,
    Cauchy,
    Gaussian,
    GeometricCoupling,
    HierarchySpec,
    PoleProximityError,
    Uniform,
    build_cascade,
    build_truncation,
    exact_cutoff_spectrum,
    green_column,
    green_entry,
    hamiltonian,
    moment_ladder,
    sample_potential,
)
from hieram.disorder import PotentialSample
from hieram.greens import cluster_norm_sweep, moment_ladder_sweep


def _setup(degree=2, depth=3, rho=4.0, seed=17, dist=Uniform(0.0, 1.0)):
    t = build_truncation(HierarchySpec.homogeneous(degree, depth))
    seq = GeometricCoupling(rho)
    omega = sample_potential(dist, t, seed, 0)
    return t, seq, omega


def _zeros(t):
    return PotentialSample(np.zeros(t.site_count), Uniform(0.0, 1.0), 0, 0)


def _dense_resolvent(t, seq, omega, z, r):
    h = hamiltonian(t, seq, omega, r).dense()
    return np.linalg.solve(h - z * np.eye(t.site_count), np.eye(t.site_count))


def test_single_site_alpha():
    t = build_truncation(HierarchySpec.homogeneous(2, 0))
    seq = GeometricCoupling(4.0)
    omega = PotentialSample(np.array([1.0]), Uniform(0.0, 1.0), 0, 0)
    c = build_cascade(t, seq, omega, 1j)
    assert c.alphas[0][0] == (0.5 + 0.5j)


def test_two_site_alpha_example():
    t = build_truncation(HierarchySpec.homogeneous(2, 1))
    seq = GeometricCoupling(4.0)  # p_1 = 0.75
    c = build_cascade(t, seq, _zeros(t), 1j)
    assert c.alphas[1][0] == pytest.approx(0.48 + 0.64j, abs=1e-15)


def test_free_top_alpha_is_constant_vector_resolvent():
    t, seq, _ = _setup(depth=4)
    c = build_cascade(t, seq, _zeros(t), 0.2 + 0.9j)
    expected = 1.0 / (seq.lam(4) - (0.2 + 0.9j))
    assert c.alphas[4][0] == pytest.approx(expected, abs=1e-14)


def test_alpha_matches_dense_quadratic_form():
    t, seq, omega = _setup(depth=3)
    z = 0.4 + 0.6j
    c = build_cascade(t, seq, omega, z)
    for s in range(t.depth + 1):
        resolvent = _dense_resolvent(t, seq, omega, z, s)
        n_s = t.sizes[s]
        for q in range(t.num_clusters(s)):
            phi = np.zeros(t.site_count)
            phi[q * n_s : (q + 1) * n_s] = 1.0 / math.sqrt(n_s)
            dense_alpha = phi @ resolvent @ phi
            assert abs(c.alphas[s][q] - dense_alpha) < 1e-10


def test_entry_rank0_and_symmetry():
    t, seq, omega = _setup(depth=4, rho=2.0)
    z = -0.3 + 0.8j
    c = build_cascade(t, seq, omega, z)
    for x in (0, 5, 11):
        assert green_entry(c, x, x, 0).value == pytest.approx(
            1.0 / (omega.values[x] - z), abs=1e-15
        )
    rng = np.random.default_rng(1)
    for _ in range(40):
        x, y = rng.integers(0, t.site_count, 2)
        forward = green_entry(c, int(x), int(y), 4).value
        backward = green_entry(c, int(y), int(x), 4).value
        assert abs(forward - backward) < 1e-12


def test_entry_two_site_dense_oracle():
    t = build_truncation(HierarchySpec.homogeneous(2, 1))
    seq = GeometricCoupling(4.0)
    c = build_cascade(t, seq, _zeros(t), 1j)
    dense = np.linalg.inv(
        hamiltonian(t, seq, _zeros(t), 1).dense() - 1j * np.eye(2)
    )
    assert green_entry(c, 0, 1, 1).value == pytest.approx(dense[0, 1], abs=1e-14)


def test_entry_expansion_matches_dense_at_every_level():
    t, seq, omega = _setup(depth=4, rho=2.0, seed=3)
    z = 0.1 + 0.5j
    c = build_cascade(t, seq, omega, z)
    pairs = [(0, 0), (0, 1), (2, 7), (3, 12), (9, 9)]
    for r in range(t.depth + 1):
        resolvent = _dense_resolvent(t, seq, omega, z, r)
        for x, y in pairs:
            query = green_entry(c, x, y, r)
            assert abs(query.value - resolvent[x, y]) < 1e-9
            g0 = (1.0 / (omega.values[x] - z)) if x == y else 0.0
            assert query.check_sum(g0) == query.value


def test_column_moment_rank0():
    t, seq, omega = _setup()
    z = 0.2 + 1.1j
    c = build_cascade(t, seq, omega, z)
    _, moment = green_column(c, 4, 0)
    assert moment == pytest.approx(1.0 / abs(omega.values[4] - z) ** 2, rel=1e-14)


@pytest.mark.parametrize(
    "spec,rho",
    [
        (HierarchySpec.homogeneous(2, 3), 4.0),
        (HierarchySpec.homogeneous(3, 3), 2.0),
        (HierarchySpec.explicit([2, 3, 2]), 3.0),
    ],
)
def test_column_matches_dense_solve(spec, rho):
    t = build_truncation(spec)
    seq = GeometricCoupling(rho)
    omega = sample_potential(Uniform(0.0, 1.0), t, 23, 1)
    z = 0.7 + 0.4j
    c = build_cascade(t, seq, omega, z)
    for r in range(t.depth + 1):
        h = hamiltonian(t, seq, omega, r).dense()
        for x in (0, t.site_count - 1):
            rhs = np.zeros(t.site_count)
            rhs[x] = 1.0
            ref = np.linalg.solve(h - z * np.eye(t.site_count), rhs)
            col, moment = green_column(c, x, r)
            scale = np.linalg.norm(ref)
            assert np.abs(col - ref).max() < 1e-9 * scale
            assert moment == pytest.approx(float(np.sum(np.abs(ref) ** 2)), rel=1e-9)


def test_column_vanishes_off_cluster_exactly():
    t, seq, omega = _setup(depth=4)
    c = build_cascade(t, seq, omega, 0.5 + 0.3j)
    x = 9
    for r in range(t.depth):
        col, _ = green_column(c, x, r)
        members = t.cluster_members(t.cluster_of(x, r))
        outside = np.ones(t.site_count, dtype=bool)
        outside[list(members)] = False
        assert np.all(col[outside] == 0.0)


def test_diagonal_entries_are_herglotz():
    t, seq, omega = _setup(depth=4, seed=29)
    c = build_cascade(t, seq, omega, 0.3 + 0.7j)
    for x in range(t.site_count):
        assert green_entry(c, x, x, t.depth).value.imag > 0.0


def test_free_moment_matches_spectral_weights():
    # omega = 0: S_r(z) = sum_s w_s / |lambda_s - z|^2 with the cut-off weights
    t, seq, _ = _setup(depth=4)
    zeros = _zeros(t)
    for z in (-1.0 + 0.0j, 0.3 + 0.8j):
        c = build_cascade(t, seq, zeros, z)
        for r in range(t.depth + 1):
            _, moment = green_column(c, 0, r)
            atoms = exact_cutoff_spectrum(t, seq, r)
            weights = [
                1.0 / t.sizes[s] - 1.0 / t.sizes[s + 1] for s in range(r)
            ] + [1.0 / t.sizes[r]]
            oracle = sum(
                w / abs(loc - z) ** 2 for (loc, _), w in zip(atoms, weights)
            )
            assert moment == pytest.approx(oracle, rel=1e-12)


def test_moment_ladder_matches_dense_norms():
    t, seq, omega = _setup(depth=3, seed=41)
    e = -0.85
    ladder = moment_ladder(t, seq, omega, e, range(t.depth + 1), x=2)
    for r, s_r in enumerate(ladder):
        h = hamiltonian(t, seq, omega, r).dense()
        rhs = np.zeros(t.site_count)
        rhs[2] = 1.0
        ref = np.linalg.solve(h - e * np.eye(t.site_count), rhs)
        assert s_r == pytest.approx(float(np.sum(ref**2)), rel=1e-9)
    assert ladder[0] == pytest.approx((omega.values[2] - e) ** -2, rel=1e-12)


def test_pole_guard_trips_at_exact_eigenvalue():
    t, seq, _ = _setup(depth=2)
    zeros = _zeros(t)
    with pytest.raises(PoleProximityError) as info:
        build_cascade(t, seq, zeros, 0.0)  # omega(x) - z = 0 at level 0
    assert info.value.level == 0
    with pytest.raises(PoleProximityError) as info:
        build_cascade(t, seq, zeros, seq.lam(1))  # constant-vector eigenvalue
    assert info.value.level == 1


def test_cascade_validation():
    t, seq, omega = _setup(depth=2)
    c = build_cascade(t, seq, omega, 1j, r=1)
    with pytest.raises(ValueError):
        green_entry(c, 0, 1, 2)
    with pytest.raises(ValueError):
        green_column(c, 9, 1)
    with pytest.raises(ValueError):
        build_cascade(t, seq, np.zeros(3), 1j)


def test_moment_ladder_sweep_matches_scalar_path():
    t, seq, omega = _setup(depth=3, seed=53)
    energies = np.linspace(-0.4, 1.3, 21)
    sweep, ok = moment_ladder_sweep(t, seq, omega, energies, t.depth, x=1)
    assert ok.all()
    for k, e in enumerate(energies):
        ladder = moment_ladder(t, seq, omega, e, range(t.depth + 1), x=1)
        assert np.allclose(sweep[:, k], ladder, rtol=1e-12)


def test_moment_ladder_sweep_masks_poles():
    t, seq, _ = _setup(depth=2)
    zeros = _zeros(t)
    energies = np.array([0.0, -2.0, seq.lam(1)])
    _, ok = moment_ladder_sweep(t, seq, zeros, energies, 2)
    assert list(ok) == [False, True, False]


def test_cluster_norm_sweep_matches_dense():
    t, seq, omega = _setup(depth=3, seed=67)
    energies = np.linspace(-0.6, 1.4, 17)
    r = 2
    norm2, ok = cluster_norm_sweep(t, seq, omega, energies, r, x=0)
    assert ok.all()
    h = hamiltonian(t, seq, omega, r).dense()
    ones = np.zeros(t.site_count)
    ones[: t.sizes[r]] = 1.0
    for k, e in enumerate(energies):
        ref = np.linalg.solve(h - e * np.eye(t.site_count), ones)
        assert norm2[k] == pytest.approx(float(np.sum(ref**2)), rel=1e-9)


# ---------------------------------------------------------------------------
# property tests: the real sweep kernel against the per-energy cascade and a
# dense solve, over branching plans, sites, ranks and disorder kinds
# ---------------------------------------------------------------------------

DISORDERS = (
    Uniform(0.0, 1.0),
    Gaussian(0.0, 1.0),
    Cauchy(0.0, 0.5),
    Bernoulli(0.0, 1.0, 0.5),
)


def _spectra(t, seq, omega, r):
    return [np.linalg.eigvalsh(hamiltonian(t, seq, omega, s).dense()) for s in range(r + 1)]


@st.composite
def sweep_cases(draw, dist):
    factors = draw(
        st.one_of(
            st.sampled_from([[2, 3, 2, 3], [3, 2, 4], [2, 2, 2, 2, 2], [4, 3]]),
            st.lists(st.integers(2, 4), min_size=1, max_size=4),
        )
    )
    t = build_truncation(HierarchySpec.explicit(factors))
    seq = GeometricCoupling(draw(st.floats(1.5, 8.0)))
    omega = sample_potential(dist, t, draw(st.integers(0, 2**32)), draw(st.integers(0, 3)))
    n = t.site_count
    x = draw(st.one_of(st.sampled_from([n // 2, n - 1]), st.integers(0, n - 1)))
    r = draw(st.integers(0, t.depth))
    # free energies plus poles: the potential values are the level-0 poles,
    # and every eigenvalue of H_0..H_r is a pole of some level up to r
    spectra = _spectra(t, seq, omega, r)
    poles = np.concatenate([omega.values, *spectra]).tolist()
    free = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=6))
    energies = np.array(free + draw(st.lists(st.sampled_from(poles), max_size=3)))
    return t, seq, omega, x, r, energies, spectra


def _cascade_or_none(t, seq, omega, e, r):
    try:
        return build_cascade(t, seq, omega, complex(e), r)
    except PoleProximityError:
        return None


def _rtol(spectra, e, floor):
    """Relative tolerance per rank s: floor, widened only near the spectrum.

    The cascade reaches H_s through H_0..H_{s-1}, so any evaluation order
    rounds S_s to about eps times the largest condition number
    ||H_s' - e|| ||(H_s' - e)^{-1}|| (s' <= s) on the way; 1e-14 is about
    90 eps.  It is infinite where e is an eigenvalue of some H_s'.
    """
    with np.errstate(divide="ignore"):
        cond = [np.abs(w - e).max() / np.abs(w - e).min() for w in spectra]
    return np.maximum(floor, 1e-14 * np.maximum.accumulate(cond))


@pytest.mark.parametrize("dist", DISORDERS, ids=lambda d: d.kind)
@given(data=st.data())
def test_sweeps_match_per_energy_cascade(dist, data):
    t, seq, omega, x, r, energies, spectra = data.draw(sweep_cases(dist))
    ladder, ok = moment_ladder_sweep(t, seq, omega, energies, r, x)
    norm2, ok_norm = cluster_norm_sweep(t, seq, omega, energies, r, x)
    assert np.array_equal(ok, ok_norm)
    n_r = t.sizes[r]
    lo = (x // n_r) * n_r
    for k, e in enumerate(energies):
        cascade = _cascade_or_none(t, seq, omega, e, r)
        assert ok[k] == (cascade is not None)
        if cascade is None:
            continue
        rtol = _rtol(spectra, e, 1e-12)
        oracle = np.array(moment_ladder(t, seq, omega, e, range(r + 1), x))
        assert np.all(np.abs(ladder[:, k] - oracle) <= rtol * oracle)
        level = cascade.levels[r][lo : lo + n_r]
        norm_oracle = n_r * float(np.sum(np.abs(level) ** 2))
        assert abs(norm2[k] - norm_oracle) <= rtol[r] * norm_oracle


@pytest.mark.parametrize("dist", DISORDERS, ids=lambda d: d.kind)
@given(data=st.data())
def test_cluster_norm_sweep_matches_dense_solve(dist, data):
    t, seq, omega, x, r, energies, spectra = data.draw(sweep_cases(dist))
    norm2, ok = cluster_norm_sweep(t, seq, omega, energies, r, x)
    h = hamiltonian(t, seq, omega, r).dense()
    n_r = t.sizes[r]
    ones = np.zeros(t.site_count)
    ones[(x // n_r) * n_r : (x // n_r + 1) * n_r] = 1.0
    for k, e in enumerate(energies):
        if ok[k]:
            ref = np.linalg.solve(h - e * np.eye(t.site_count), ones)
            oracle = float(np.sum(ref**2))
            assert abs(norm2[k] - oracle) <= _rtol(spectra, e, 1e-9)[r] * oracle


# ---------------------------------------------------------------------------
# build_cascade and the sweep average children in the same order
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("factors", [[3, 2, 4], [4, 3], [2, 8]])
def test_cascade_sums_children_in_order(factors):
    # beta_s(Q) = (((a_1 + a_2) + a_3) + ...) / n_s over the children of Q, the
    # order the sweep uses; numpy's mean sums pairwise and differs at n >= 4
    t = build_truncation(HierarchySpec.explicit(factors))
    seq = GeometricCoupling(4.0)
    omega = sample_potential(Gaussian(0.0, 1.0), t, 5, 0)
    for z in (0.3 + 0.01j, 0.7, -1.2 + 2j):
        c = build_cascade(t, seq, omega, z)
        for s in range(1, t.depth + 1):
            n_s = t.factor(s)
            children = c.alphas[s - 1].reshape(-1, n_s)
            beta = children[:, 0]
            for j in range(1, n_s):
                beta = beta + children[:, j]
            beta = beta / n_s
            assert np.array_equal(c.alphas[s], beta / (1.0 + seq.p(s) * beta))


@pytest.mark.parametrize("factors", [[3, 2, 4], [4, 3]])
@pytest.mark.parametrize("dist", DISORDERS, ids=lambda d: d.kind)
def test_sweep_pole_mask_is_cascade_pole_guard(factors, dist):
    t = build_truncation(HierarchySpec.explicit(factors))
    seq = GeometricCoupling(4.0)
    omega = sample_potential(dist, t, 11, 0)
    spectra = _spectra(t, seq, omega, t.depth)
    # a free grid plus every level-0..R pole, each exactly and one ulp off
    poles = np.concatenate([omega.values, *spectra])
    energies = np.concatenate(
        [np.linspace(-2.0, 3.0, 101), poles, np.nextafter(poles, np.inf)]
    )
    for r in range(t.depth + 1):
        _, ok = moment_ladder_sweep(t, seq, omega, energies, r)
        raised = [_cascade_or_none(t, seq, omega, e, r) is None for e in energies]
        assert ok.tolist() == [not flag for flag in raised]
        assert not ok.all()
