import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hieram import (
    CouplingSequence,
    EigenvalueGroupingError,
    ExplicitCoupling,
    GeometricCoupling,
    HierarchySpec,
    PolyGeometricCoupling,
    SpectralMeasure,
    Truncation,
    dense_symmetric_eigensolve,
    exact_cutoff_spectrum,
    finite_volume_dos,
    fit_spectral_dimension,
    group_eigenvalues,
    limiting_spectral_measure,
    operators,
    restricted_full_spectrum,
    spectral_dimension,
    walk_classification,
)
from hieram.operators import compression_dense_block
from hieram.spectral import dense_control
from reference_operator import laplacian


def cluster_eigenvalues(values, tol):
    """Independent grouping helper used against the exact multiplicities."""
    groups = []
    lo = 0
    for hi in range(1, len(values) + 1):
        if hi == len(values) or values[hi] - values[hi - 1] > tol:
            groups.append((values[lo:hi].mean(), hi - lo))
            lo = hi
    return groups


def test_cutoff_multiplicities_degree2():
    t = Truncation(HierarchySpec.homogeneous(2, 3))
    seq = GeometricCoupling(4.0)
    atoms = exact_cutoff_spectrum(t, seq, 3)
    assert [m for _, m in atoms] == [4, 2, 1, 1]
    assert [loc for loc, _ in atoms] == [seq.lam(r) for r in range(4)]


def test_cutoff_multiplicities_degree3():
    t = Truncation(HierarchySpec.homogeneous(3, 2))
    atoms = exact_cutoff_spectrum(t, GeometricCoupling(2.0), 2)
    assert [m for _, m in atoms] == [6, 2, 1]


def test_cutoff_rank0_trivial():
    t = Truncation(HierarchySpec.homogeneous(2, 3))
    assert exact_cutoff_spectrum(t, GeometricCoupling(2.0), 0) == [(0.0, 1)]


@pytest.mark.parametrize(
    "spec",
    [
        HierarchySpec.homogeneous(2, 5),
        HierarchySpec.homogeneous(3, 4),
        HierarchySpec.explicit([2, 3, 4, 2]),
    ],
)
def test_multiplicities_sum_to_cluster_size(spec):
    t = Truncation(spec)
    seq = GeometricCoupling(3.0)
    for r in range(t.depth + 1):
        atoms = exact_cutoff_spectrum(t, seq, r)
        assert sum(m for _, m in atoms) == t.sizes[r]
        locs = [loc for loc, _ in atoms]
        assert locs == sorted(locs)


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("rho", [2.0, 4.0])
def test_dense_oracle_reproduces_cutoff_spectrum(degree, rho):
    t = Truncation(HierarchySpec.homogeneous(degree, 5))
    seq = GeometricCoupling(rho)
    for r in range(t.depth + 1):
        exact = exact_cutoff_spectrum(t, seq, r)
        dense = dense_symmetric_eigensolve(
            laplacian(t, seq, r).dense()[: t.sizes[r], : t.sizes[r]]
        ).eigenvalues
        min_gap = min(
            (b - a for (a, _), (b, _) in zip(exact, exact[1:])), default=1.0
        )
        groups = cluster_eigenvalues(dense, 1e-7 * min_gap)
        assert len(groups) == len(exact)
        for (loc, mult), (eloc, emult) in zip(groups, exact):
            assert abs(loc - eloc) < 1e-9
            assert mult == emult


def test_restricted_spectrum_shifts_only_the_top():
    t = Truncation(HierarchySpec.homogeneous(2, 2))
    seq = GeometricCoupling(4.0)
    cut = exact_cutoff_spectrum(t, seq, 2)
    shifted = restricted_full_spectrum(t, seq, 2)
    assert shifted[:-1] == cut[:-1]
    # oracle: brute weighted tail of the compression's uniform kernel
    brute_shift = 4 * sum(3.0 * 4.0 ** (-s) / 2**s for s in range(3, 120))
    assert shifted[-1][0] == pytest.approx(cut[-1][0] + brute_shift, abs=1e-15)
    # dense oracle on the 4x4 compression
    dense = dense_symmetric_eigensolve(compression_dense_block(t, seq, 2))
    expected = np.concatenate([[loc] * m for loc, m in shifted])
    assert np.abs(dense.eigenvalues - expected).max() < 1e-12


def test_restricted_spectrum_zero_tail_is_cutoff():
    t = Truncation(HierarchySpec.homogeneous(2, 2))
    seq = ExplicitCoupling([0.7, 0.3])
    assert restricted_full_spectrum(t, seq, 2) == exact_cutoff_spectrum(t, seq, 2)


def test_restricted_spectrum_stays_within_tail():
    t = Truncation(HierarchySpec.homogeneous(3, 3))
    seq = GeometricCoupling(2.0)
    cut = exact_cutoff_spectrum(t, seq, 3)
    shifted = restricted_full_spectrum(t, seq, 3)
    deviation = max(abs(a[0] - b[0]) for a, b in zip(cut, shifted))
    assert deviation <= seq.tail(3) + 1e-15


def test_limiting_measure_degree2():
    measure = limiting_spectral_measure(
        HierarchySpec.homogeneous(2, 3), GeometricCoupling(2.0), 10
    )
    assert np.array_equal(measure.weights, 0.5 ** np.arange(1, 12))
    assert measure.mass == 1.0 - 0.5**11


def test_limiting_measure_degree3():
    measure = limiting_spectral_measure(
        HierarchySpec.homogeneous(3, 2), GeometricCoupling(2.0), 2
    )
    assert np.allclose(measure.weights, [2 / 3, 2 / 9, 2 / 27], atol=1e-16)
    assert measure.mass == pytest.approx(1.0 - 1.0 / 27, abs=1e-16)


@pytest.mark.parametrize("degree", [2, 3])
def test_limiting_measure_is_probability_in_the_limit(degree):
    spec = HierarchySpec.homogeneous(degree, 4)
    measure = limiting_spectral_measure(spec, GeometricCoupling(3.0), 12)
    remainder = 1.0 / spec.size(13)
    assert measure.mass + remainder == 1.0  # exact float identity
    assert abs(measure.weights.sum() - measure.mass) < 1e-12


def test_limiting_measure_tail_identity():
    spec = HierarchySpec.homogeneous(2, 3)
    seq = GeometricCoupling(4.0)
    measure = limiting_spectral_measure(spec, seq, 15)
    for r in range(10):
        retained = measure.weights[r:].sum()
        remainder = 1.0 - measure.mass
        assert retained + remainder == pytest.approx(1.0 / spec.size(r), abs=1e-14)


def test_finite_volume_dos_atoms():
    t = Truncation(HierarchySpec.homogeneous(2, 3))
    seq = GeometricCoupling(4.0)
    nu = finite_volume_dos(t, seq, 3)
    assert nu.mass == 1.0
    assert nu.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(nu.weights, [4 / 8, 2 / 8, 1 / 8, 1 / 8], atol=0)
    shifted = restricted_full_spectrum(t, seq, 3)
    assert np.abs(nu.locations - [loc for loc, _ in shifted]).max() < 1e-12


def test_dos_weights_converge_once_tail_clears_gap():
    t = Truncation(HierarchySpec.homogeneous(2, 6))
    seq = GeometricCoupling(4.0)
    lams = [seq.lam(s) for s in range(8)]
    for s in range(4):
        gaps = [abs(lams[s] - lams[j]) for j in range(len(lams)) if j != s]
        eps = min(gaps) / 2 / 3
        for r in range(s + 1, 7):
            if seq.tail(r) >= eps:
                continue
            nu = finite_volume_dos(t, seq, r)
            window = np.abs(nu.locations - lams[s]) <= eps
            mass = nu.weights[window].sum()
            expected = 1.0 / 2**s - 1.0 / 2 ** (s + 1)
            assert mass == pytest.approx(expected, abs=1e-15)


def test_spectral_dimension_analytic_values():
    assert spectral_dimension(GeometricCoupling(4.0), 2) == pytest.approx(1.0)
    assert spectral_dimension(GeometricCoupling(2.0), 2) == pytest.approx(2.0)
    assert spectral_dimension(GeometricCoupling(2.0), 4) == pytest.approx(4.0)
    with pytest.raises(ValueError, match="geometric coupling"):
        spectral_dimension(ExplicitCoupling([1.0]), 2)
    with pytest.raises(ValueError, match="homogeneous hierarchy"):
        spectral_dimension(GeometricCoupling(4.0), None)


class _DeclaredGeometric(CouplingSequence):
    """p_r = 3 * 4^{-r}, a geometric law that only its decay states."""

    decay = (4.0, 0.0)

    def _p(self, r):
        return 3.0 * 4.0**-r

    def _tail(self, r):
        return 4.0**-r


def test_the_geometric_law_is_read_off_decay():
    spec = HierarchySpec.homogeneous(2, 3)
    declared, geometric = _DeclaredGeometric(), GeometricCoupling(4.0)
    assert geometric.decay == (4.0, 0.0)
    assert spectral_dimension(declared, 2) == spectral_dimension(geometric, 2) == 1.0
    for seq in (declared, geometric):
        assert walk_classification(spec, seq, 30).analytic_classification == "recurrent"
    # a power of r in the law, or no law at all: no closed form
    for seq in (PolyGeometricCoupling(2, 0.3), ExplicitCoupling([0.5, 0.5])):
        assert seq.decay is None or seq.decay[1] < -3
        with pytest.raises(ValueError, match="geometric coupling"):
            spectral_dimension(seq, 2)
        assert walk_classification(spec, seq, 30).analytic_classification is None


@pytest.mark.parametrize("degree,rho,d", [(2, 4.0, 1.0), (2, 2.0, 2.0), (4, 2.0, 4.0)])
def test_fitted_dimension_matches_analytic(degree, rho, d):
    spec = HierarchySpec.homogeneous(degree, 3)
    seq = GeometricCoupling(rho)
    measure = limiting_spectral_measure(spec, seq, 25)
    fitted = fit_spectral_dimension(
        measure, seq.tail(20) * (1 - 1e-12), seq.tail(5) * (1 + 1e-12)
    )
    assert abs(fitted - d) / d < 0.05


@pytest.mark.parametrize("rho", [1.8, 2.5, 4.1])
def test_fit_window_keeps_its_top_atom(rho):
    # 1 - lambda_20 is off seq.tail(20) by 4.5e-12, 1.4e-9 and 6.8e-5
    # relative at these rho, more than the 1e-12 nudge of the window: the fit
    # must still take the rank-20 atom.  The weights are bent off the power
    # law, since on the exact one every sub-window has the same slope
    spec = HierarchySpec.homogeneous(2, 3)
    seq = GeometricCoupling(rho)
    exact = limiting_spectral_measure(spec, seq, 25)
    bend = np.linspace(1.0, 0.5, exact.weights.size)
    measure = SpectralMeasure(exact.locations, exact.weights * bend, exact.mass, exact.tails)
    fitted = fit_spectral_dimension(
        measure, seq.tail(20) * (1 - 1e-12), seq.tail(5) * (1 + 1e-12)
    )
    ranks = np.arange(5, 21)
    suffix = 1.0 - np.concatenate([[0.0], np.cumsum(measure.weights)[:-1]])
    tails = np.array([seq.tail(r) for r in ranks])
    # the closed-form slope against numpy's least-squares fit
    reference = 2.0 * np.polyfit(np.log(tails), np.log(suffix[ranks]), 1)[0]
    assert fitted == pytest.approx(reference, rel=1e-12, abs=0)


def test_fit_requires_three_atoms():
    spec = HierarchySpec.homogeneous(2, 3)
    seq = GeometricCoupling(2.0)
    measure = limiting_spectral_measure(spec, seq, 25)
    with pytest.raises(ValueError):
        fit_spectral_dimension(measure, seq.tail(6), seq.tail(5))
    with pytest.raises(ValueError):
        fit_spectral_dimension(measure, 0.5, 0.1)


def test_walk_transient_value():
    report = walk_classification(
        HierarchySpec.homogeneous(4, 2), GeometricCoupling(2.0), 60
    )
    assert report.classification == "transient"
    assert report.analytic_classification == "transient"
    # rational-arithmetic oracle: partial sums reach 3/2 exactly by r = 60
    assert abs(report.partial_sums[-1] - 1.5) < 1e-12
    assert report.value == pytest.approx(1.5, abs=1e-12)
    # term oracle (3/4) 2^{-r}
    assert np.allclose(
        report.terms[:10], 0.75 * 0.5 ** np.arange(10), rtol=1e-12
    )


def test_walk_recurrent_fast_divergence():
    report = walk_classification(
        HierarchySpec.homogeneous(2, 2), GeometricCoupling(4.0), 40
    )
    assert report.classification == "recurrent"
    assert report.analytic_classification == "recurrent"
    assert np.allclose(
        report.terms[1:8], 2.0 ** np.arange(0, 7), rtol=1e-12
    )


def test_walk_recurrent_boundary_dimension():
    report = walk_classification(
        HierarchySpec.homogeneous(2, 2), GeometricCoupling(2.0), 50
    )
    assert report.classification == "recurrent"
    assert report.analytic_classification == "recurrent"
    assert np.allclose(report.terms, 0.5, rtol=1e-12)


def test_walk_transient_past_underflowing_terms():
    # the terms (3/4) 2^{-r} underflow to 0 from r of about 1075; the sum is 3/2
    report = walk_classification(
        HierarchySpec.homogeneous(4, 2), GeometricCoupling(2.0), 1100
    )
    assert report.terms[-1] == 0.0
    assert report.classification == "transient"
    assert report.value == pytest.approx(1.5, abs=1e-12)


def test_walk_slow_convergence_is_not_recurrent():
    # rho just below the degree: ratio 1 - 2.5e-4 per level, sum about 2000
    spec, seq = HierarchySpec.homogeneous(2, 2), GeometricCoupling(1.9995)
    assert walk_classification(spec, seq, 40000).classification != "recurrent"
    report = walk_classification(spec, seq, 100000)
    assert report.classification == "transient"
    # to the 1e-9 relative precision the completion rule asks for
    assert report.value == pytest.approx(2000.0, rel=1e-9)
    assert report.analytic_classification == "transient"


def test_walk_polygeometric_sum_above_a_thousand():
    report = walk_classification(
        HierarchySpec.homogeneous(10, 2), PolyGeometricCoupling(9, 0.3), 1100
    )
    assert report.classification == "transient"
    assert report.value == 128448.16718260062


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_walk_boundary_stays_recurrent_at_depth(degree):
    # rho = n: every term is 1 - 1/n; the last-two-term ratio carries the
    # rounding of log N_r, which the slack must absorb
    report = walk_classification(
        HierarchySpec.homogeneous(degree, 2), GeometricCoupling(float(degree)), 200000
    )
    assert report.classification == "recurrent"


@settings(max_examples=40)
@given(
    degree=st.integers(2, 10),
    log_ratio=st.floats(1e-6, 1.0) | st.floats(-1.0, -1e-6),
    r_max=st.integers(1, 3000),
)
def test_walk_verdict_never_contradicts_the_analytic_one(degree, log_ratio, r_max):
    seq = GeometricCoupling(degree * math.exp(log_ratio))
    report = walk_classification(HierarchySpec.homogeneous(degree, 2), seq, r_max)
    opposite = {"transient": "recurrent", "recurrent": "transient"}
    assert report.classification != opposite[report.analytic_classification]
    explicit = walk_classification(
        HierarchySpec.homogeneous(degree, 2),
        ExplicitCoupling([0.5, 0.25], 0.25),
        max(r_max, 4),
    )
    assert explicit.classification != "recurrent"


def test_walk_argument_validation():
    with pytest.raises(ValueError):
        walk_classification(HierarchySpec.homogeneous(2, 2), GeometricCoupling(2.0), 0)


def test_walk_log_terms_match_direct_formula():
    spec = HierarchySpec.explicit([2, 3, 2])
    seq = GeometricCoupling(3.0)
    report = walk_classification(spec, seq, 8)
    for r in range(9):
        n_r = spec.size(r)
        direct = (1.0 / n_r - 1.0 / spec.size(r + 1)) / seq.tail(r)
        assert report.terms[r] == pytest.approx(direct, rel=1e-12)


def test_group_eigenvalues_splits_by_half_the_smallest_gap():
    atoms = [(0.0, 2), (1e-6, 1), (1.0, 3)]
    values = np.array([-1e-12, 1e-12, 1e-6, 1.0 - 1e-9, 1.0, 1.0 + 1e-9])
    groups = group_eigenvalues(values, atoms)
    assert [m for _, m in groups] == [2, 1, 3]
    assert np.allclose([loc for loc, _ in groups], [0.0, 1e-6, 1.0], atol=1e-9)
    # a single atom takes every value, however spread
    assert group_eigenvalues(np.array([0.0, 0.5]), [(0.25, 2)]) == [(0.25, 2)]


def test_group_eigenvalues_merges_atoms_at_equal_locations():
    # a coupling that vanishes beyond some rank repeats lambda_s exactly
    atoms = [(0.0, 2), (1.0, 2), (1.0, 1), (1.0, 1)]
    values = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    assert group_eigenvalues(values, atoms) == [(0.0, 2), (1.0, 4)]
    assert group_eigenvalues(np.array([1.0, 1.0]), [(1.0, 1), (1.0, 1)]) == [(1.0, 2)]


def test_group_eigenvalues_refuses_a_wrong_table():
    atoms = [(0.0, 2), (1.0, 2)]
    with pytest.raises(EigenvalueGroupingError):
        group_eigenvalues(np.array([0.0, 0.0, 0.0, 1.0]), atoms)
    with pytest.raises(EigenvalueGroupingError):
        group_eigenvalues(np.array([0.0, 0.4, 0.6, 1.0]), atoms)
    # right multiplicities, but a group sits more than half the gap off its atom
    with pytest.raises(EigenvalueGroupingError):
        group_eigenvalues(np.array([0.0, 1.6]), [(0.0, 1), (1.0, 1)])


def test_finite_volume_dos_refuses_unresolved_atoms():
    # at rho 1024 the top distinct atoms 1 - 2^-50 and 1.0 lie 8 ulps apart,
    # inside the eigensolver's rounding noise
    t = Truncation(HierarchySpec.homogeneous(2, 10))
    seq = GeometricCoupling(1024.0)
    with pytest.raises(EigenvalueGroupingError):
        finite_volume_dos(t, seq, 10)


def test_dense_control_drops_the_block_before_its_solve(monkeypatch):
    # tracemalloc does not see LAPACK's own copy, so the current size at the
    # call, not the peak, shows that the N_r x N_r block is gone by then
    t = Truncation(HierarchySpec.homogeneous(2, 10))
    solve, current = operators.dense_symmetric_eigensolve, []

    def spy(a, vectors=True):
        current.append(tracemalloc.get_traced_memory()[0])
        return solve(a, vectors)

    monkeypatch.setattr(operators, "dense_symmetric_eigensolve", spy)
    tracemalloc.start()
    try:
        dense_control(t, GeometricCoupling(4.0), 10)
    finally:
        tracemalloc.stop()
    assert len(current) == 1 and current[0] < 0.5 * t.site_count**2 * 8


def test_walk_without_tail_warns_nothing():
    # past a vanishing tail every term is inf; inf / inf must not be formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = walk_classification(
            HierarchySpec.homogeneous(2, 6), ExplicitCoupling([0.5, 0.5]), 60
        )
    assert np.isinf(report.terms[2:]).all()
    assert report.classification == "recurrent"


@pytest.mark.parametrize(
    "plan",
    [
        HierarchySpec.homogeneous(2, 6),
        HierarchySpec.homogeneous(3, 4),
        HierarchySpec.explicit([2, 3, 2, 3]),
    ],
    ids=["degree2", "degree3", "branching2323"],
)
@pytest.mark.parametrize(
    "seq",
    [GeometricCoupling(2.0), PolyGeometricCoupling(2, 0.3), ExplicitCoupling([0.5, 0.25], 0.25)],
    ids=["geometric", "polygeometric", "explicit"],
)
def test_plan_and_truncation_give_equal_measures_and_walks(plan, seq):
    t = Truncation(plan)
    a, b = limiting_spectral_measure(plan, seq, 12), limiting_spectral_measure(t, seq, 12)
    assert np.array_equal(a.locations, b.locations)
    assert np.array_equal(a.weights, b.weights)
    assert a.mass == b.mass
    a, b = walk_classification(plan, seq, 40), walk_classification(t, seq, 40)
    assert np.array_equal(a.terms, b.terms)
    assert np.array_equal(a.partial_sums, b.partial_sums)
    assert (a.classification, a.value, a.analytic_classification) == (
        b.classification,
        b.value,
        b.analytic_classification,
    )
