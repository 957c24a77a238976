import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from hieram import (
    Bernoulli,
    DenseCapError,
    GeometricCoupling,
    HierarchySpec,
    PowerSequence,
    Truncation,
    Uniform,
    borel_cantelli_profile,
    build_truncation,
    dense_symmetric_eigensolve,
    hamiltonian,
    ipr_profile,
    localization_sweep,
    measure_bound_check,
    operators,
    sample_potential,
)


def _t(depth):
    return build_truncation(HierarchySpec.homogeneous(2, depth))


def test_bound_formula_two_sites():
    t = _t(1)
    seq = GeometricCoupling(4.0)
    omega = sample_potential(Uniform(0.0, 1.0), t, 3, 0)
    report = measure_bound_check(t, seq, omega, 1, 1000.0, (-1.0, 2.0, 301))
    assert report.bound == pytest.approx(4.0 * 2.0 / math.sqrt(1000.0), rel=1e-15)
    assert report.passed


def test_exceedance_shrinks_as_threshold_grows():
    t = _t(4)
    seq = GeometricCoupling(2.0)
    omega = sample_potential(Uniform(0.0, 1.0), t, 11, 0)
    grid = (-1.0, 2.0, 1501)
    small = measure_bound_check(t, seq, omega, 4, 1e2, grid)
    large = measure_bound_check(t, seq, omega, 4, 1e6, grid)
    huge = measure_bound_check(t, seq, omega, 4, 1e12, grid)
    assert small.empirical_measure >= large.empirical_measure >= huge.empirical_measure
    assert huge.empirical_measure <= 0.01


def test_measure_bound_holds_across_realizations():
    t = _t(5)
    seq = GeometricCoupling(4.0)
    u = PowerSequence(2.0)
    threshold = (u(5) * t.sizes[5]) ** 2
    for index in range(8):
        omega = sample_potential(Uniform(0.0, 1.0), t, 99, index)
        report = measure_bound_check(t, seq, omega, 5, threshold, (-0.5, 1.5, 2001))
        assert report.passed
        assert report.skipped == 0


def test_measure_bound_grid_validation():
    t = _t(2)
    seq = GeometricCoupling(2.0)
    omega = sample_potential(Uniform(0.0, 1.0), t, 1, 0)
    with pytest.raises(ValueError):
        measure_bound_check(t, seq, omega, 2, 10.0, (0.0, 0.0, 100))
    with pytest.raises(ValueError):
        measure_bound_check(t, seq, omega, 2, 10.0, (0.0, 1.0, 1))
    with pytest.raises(ValueError):
        measure_bound_check(t, seq, omega, 2, -5.0, (0.0, 1.0, 10))


def test_summability_ledger_identities():
    t = _t(3)
    seq = GeometricCoupling(4.0)
    u = PowerSequence(2.0)
    ledger = borel_cantelli_profile(seq, t, u, 40)
    inv_u = np.array([1.0 / u(r) for r in ledger.r_values])
    # N_r / sqrt((u_r N_r)^2) collapses to 1/u_r exactly in floating point
    assert np.array_equal(ledger.coverage_terms, inv_u)
    assert np.array_equal(ledger.coverage_sums, np.cumsum(inv_u))
    # second series: p_r sqrt(M_r M_{r-1}) / N_r = p_r N_{r-1} u_{r-1} u_r
    for k, r in enumerate(ledger.r_values):
        direct = seq.p(r) * t.size(r - 1) * u(r - 1) * u(r)
        assert ledger.hypothesis_terms[k] == pytest.approx(direct, rel=1e-12)
    # 4 N_r / sqrt(M_r) = 4 / u_r
    assert np.allclose(ledger.bound_terms, 4.0 * inv_u, rtol=1e-15)


def test_summability_ledger_classical_series():
    t = _t(3)
    ledger = borel_cantelli_profile(GeometricCoupling(2.0), t, PowerSequence(2.0), 40)
    # partial sums of 1/r^2 approach pi^2 / 6 from below
    assert ledger.coverage_sums[-1] == pytest.approx(1.6202439630069352, abs=1e-15)
    assert ledger.coverage_sums[-1] < math.pi**2 / 6


def test_summability_ledger_hypothesis_side():
    t = _t(3)
    u = PowerSequence(2.0)
    converging = borel_cantelli_profile(GeometricCoupling(4.0), t, u, 50)
    diverging = borel_cantelli_profile(GeometricCoupling(2.0), t, u, 50)
    assert converging.hypothesis_terms[-1] < 1e-6
    assert diverging.hypothesis_terms[-1] == pytest.approx(
        0.5 * 49**2 * 50**2, rel=1e-12
    )
    with pytest.raises(ValueError):
        borel_cantelli_profile(GeometricCoupling(2.0), t, u, 0)


@pytest.mark.parametrize("r_max", [600, 1100])
def test_summability_ledger_past_the_float_range(r_max):
    # degree 2, u_r = r^2: M_r = (u_r N_r)^2 overflows from r = 495 on, p_r of
    # rho = 4 underflows to 0 from r = 538 on, and N_r itself from r = 1024 on
    t = _t(3)
    seq = GeometricCoupling(4.0)
    u = PowerSequence(2.0)
    ledger = borel_cantelli_profile(seq, t, u, r_max)
    inv_u = np.array([1.0 / u(r) for r in ledger.r_values])
    assert np.array_equal(ledger.coverage_terms, inv_u)
    assert np.array_equal(ledger.bound_terms, 4.0 * inv_u)
    for k, r in enumerate(ledger.r_values.tolist()):
        assert ledger.thresholds[k] == ((u(r) * 2**r) ** 2 if r < 495 else math.inf)
        # 0 where p_r = 0: no 0 * inf
        direct = seq.p(r) * 2.0 ** (r - 1) * u(r - 1) * u(r) if r < 538 else 0.0
        assert ledger.hypothesis_terms[k] == pytest.approx(direct, rel=1e-12)
    assert np.all(np.isfinite(ledger.hypothesis_sums))
    assert ledger.hypothesis_sums[-1] == ledger.hypothesis_sums[537]


def test_ipr_bounds_and_extremes():
    n = 16
    uniform = np.full(n, 1.0 / math.sqrt(n))
    assert np.sum(uniform**4) == pytest.approx(1.0 / n, rel=1e-14)
    point = np.zeros(n)
    point[3] = 1.0
    assert np.sum(point**4) == 1.0


def test_summability_ledger_has_no_inf_term_past_the_float_range():
    # degree 40, rho 41: N_{r-1} passes the float range at r = 194
    t = build_truncation(HierarchySpec.homogeneous(40, 2))
    u = PowerSequence(1.1)
    ledger = borel_cantelli_profile(GeometricCoupling(41.0), t, u, 200)
    assert np.isfinite(ledger.hypothesis_terms).all()
    exact = math.fsum((40 / 41) ** r * u(r - 1) * u(r) for r in range(1, 201))
    assert ledger.hypothesis_sums[-1] == pytest.approx(exact, rel=1e-12)


def test_summability_ledger_past_the_float_range_of_u():
    # u_r = r^200 passes the float range from r = 35; the ledger reads its
    # thresholds as inf and 1/u_r from exp(-200 log r), subnormal at r = 35
    t = Truncation(HierarchySpec.homogeneous(2, 4))
    ledger = borel_cantelli_profile(GeometricCoupling(4.0), t, PowerSequence(200.0), 40)
    assert ledger.coverage_terms[34] == 1.535999696719784e-309
    assert ledger.bound_terms[34] == 4.0 * ledger.coverage_terms[34]
    assert np.isinf(ledger.thresholds[34:]).all()
    assert ledger.coverage_terms[33] == 1.0 / 34.0**200


def test_ipr_profile_free_laplacian():
    t = _t(3)
    seq = GeometricCoupling(4.0)
    zeros = sample_potential(Uniform(0.0, 1.0), t, 0, 0)
    zeros = type(zeros)(np.zeros(8), zeros.distribution, 0, 0)
    pairs = ipr_profile(t, seq, zeros, 3)
    values = np.array([v for _, v in pairs])
    n = t.sizes[3]
    assert np.all(values >= 1.0 / n - 1e-12)
    assert np.all(values <= 1.0 + 1e-12)
    # the constant vector at the top eigenvalue spreads uniformly
    top = max(pairs, key=lambda p: p[0])
    assert top[1] == pytest.approx(1.0 / n, rel=1e-10)


def test_ipr_profile_matches_dense_hamiltonian():
    t = _t(3)
    seq = GeometricCoupling(2.0)
    omega = sample_potential(Uniform(0.0, 1.0), t, 13, 0)
    pairs = ipr_profile(t, seq, omega, t.depth)
    dense = hamiltonian(t, seq, omega, t.depth).dense()
    spectrum = dense_symmetric_eigensolve(dense)
    assert np.allclose(
        [e for e, _ in pairs], spectrum.eigenvalues, atol=1e-12
    )
    assert np.allclose(
        [v for _, v in pairs], np.sum(spectrum.eigenvectors**4, axis=0), atol=1e-12
    )


def test_ipr_profile_accepts_an_array_potential():
    t = _t(4)
    seq = GeometricCoupling(4.0)
    omega = sample_potential(Uniform(0.0, 1.0), t, 5, 0)
    assert ipr_profile(t, seq, omega.values, 4) == ipr_profile(t, seq, omega, 4)
    with pytest.raises(ValueError, match="potential must have length 16"):
        ipr_profile(t, seq, np.zeros(8), 3)


@pytest.mark.parametrize("index", range(3))
def test_ipr_profile_squares_twice(index):
    # the eigh path takes sum((v^2)^2), which rounds differently from
    # sum(v**4) but only in the last digit; Bernoulli ties take that path
    t = _t(8)
    seq = GeometricCoupling(4.0)
    tied = sample_potential(Bernoulli(0.0, 1.0, 0.5), t, 301, index)
    iprs = np.array([v for _, v in ipr_profile(t, seq, tied, t.depth)])
    dense = hamiltonian(t, seq, tied, t.depth).dense()
    vectors = dense_symmetric_eigensolve(dense).eigenvectors
    assert np.allclose(iprs, np.sum(vectors**4, axis=0), rtol=1e-15, atol=0.0)
    omega = sample_potential(Uniform(0.0, 1.0), t, 301, index)
    iprs = np.array([v for _, v in ipr_profile(t, seq, omega, t.depth)])
    oracle = np.linalg.eigh(hamiltonian(t, seq, omega, t.depth).dense())[1]
    assert np.allclose(iprs, np.sum(oracle**4, axis=0), rtol=0.0, atol=1e-8)


def test_localization_sweep_shapes_and_determinism():
    t = _t(5)
    seq = GeometricCoupling(4.0)
    grid = (-0.5, 1.5, 41)
    kwargs = dict(
        ranks=range(t.depth + 1), site=0, ipr_rank=t.depth
    )
    a = localization_sweep(t, seq, Uniform(0.0, 1.0), 7, 3, grid, **kwargs)
    b = localization_sweep(t, seq, Uniform(0.0, 1.0), 7, 3, grid, **kwargs)
    assert a.moments.shape == (3, t.depth + 1, 41)
    assert a.ok.shape == (3, 41)
    assert np.array_equal(a.moments, b.moments)
    assert np.array_equal(a.ok, b.ok)
    assert np.array_equal(a.ratio_medians, b.ratio_medians)
    assert a.mid_ipr_median == b.mid_ipr_median
    assert a.simon_wolff_applicable
    assert np.all(np.isfinite(a.ratio_medians))


def test_localization_sweep_rank0_ladder():
    t = _t(3)
    seq = GeometricCoupling(4.0)
    report = localization_sweep(
        t, seq, Uniform(0.0, 1.0), 21, 2, (-0.5, 1.5, 11), ranks=(0, 1)
    )
    for i, drawn in enumerate(report.potentials):
        omega = sample_potential(Uniform(0.0, 1.0), t, 21, i)
        assert drawn.index == i and np.array_equal(drawn.values, omega.values)
        for k, e in enumerate(report.energies):
            if report.ok[i, k]:
                expected = (omega.values[0] - e) ** -2
                assert report.moments[i, 0, k] == pytest.approx(expected, rel=1e-12)


def test_localization_sweep_order_independent_reduction():
    # evaluating realizations in reverse order must not change the report
    def reversed_map(f, xs):
        xs = list(xs)
        return reversed([f(x) for x in reversed(xs)])

    t = _t(4)
    seq = GeometricCoupling(4.0)
    args = (t, seq, Uniform(0.0, 1.0), 3, 4, (-0.5, 1.5, 15))
    kwargs = dict(ranks=range(5), ipr_rank=4)
    a = localization_sweep(*args, **kwargs)
    b = localization_sweep(*args, **kwargs, map_fn=reversed_map)
    assert np.array_equal(a.moments, b.moments)
    assert np.array_equal(a.ratio_medians, b.ratio_medians)
    assert a.mid_ipr_median == b.mid_ipr_median
    assert a.mid_ipr_quartiles == b.mid_ipr_quartiles


def test_localization_sweep_runs_one_dense_solve_at_a_time(monkeypatch):
    # each eigh already spans the cores through BLAS threads; a pooled map
    # must not run two at once
    lock = threading.Lock()
    in_flight, peak, calls = 0, 0, 0
    solve = operators.dense_symmetric_eigensolve

    def counted(*args, **kwargs):
        nonlocal in_flight, peak, calls
        with lock:
            in_flight += 1
            calls += 1
            peak = max(peak, in_flight)
        try:
            time.sleep(0.02)
            return solve(*args, **kwargs)
        finally:
            with lock:
                in_flight -= 1

    monkeypatch.setattr(operators, "dense_symmetric_eigensolve", counted)
    t = _t(4)
    seq = GeometricCoupling(4.0)
    args = (t, seq, Uniform(0.0, 1.0), 3, 4, (-0.5, 1.5, 15))
    kwargs = dict(ranks=range(5), ipr_rank=4)
    with ThreadPoolExecutor(2) as pool:
        pooled = localization_sweep(*args, **kwargs, map_fn=pool.map)
    assert (calls, peak) == (4, 1)
    serial = localization_sweep(*args, **kwargs)
    assert np.array_equal(pooled.ipr_values, serial.ipr_values)
    assert np.array_equal(pooled.ipr_eigenvalues, serial.ipr_eigenvalues)


def test_localization_sweep_fails_the_ipr_cap_before_any_sweep():
    calls = []

    def spy_map(f, xs):
        calls.append(f)
        return map(f, xs)

    t = _t(13)  # N = 8192 > DENSE_CAP
    seq = GeometricCoupling(4.0)
    with pytest.raises(DenseCapError, match="dense size 8192 exceeds cap 4096"):
        localization_sweep(
            t, seq, Uniform(0.0, 1.0), 1, 2, (-0.5, 1.5, 5),
            ranks=range(14), ipr_rank=13, map_fn=spy_map,
        )
    assert calls == []


def test_localization_report_is_frozen():
    t = _t(3)
    seq = GeometricCoupling(4.0)
    report = localization_sweep(
        t, seq, Uniform(0.0, 1.0), 5, 2, (-0.5, 1.5, 7), ranks=(0, 3), ipr_rank=3
    )
    assert [omega.index for omega in report.potentials] == [0, 1]
    assert report.ipr_values.shape == report.ipr_eigenvalues.shape == (2, 8)
    with pytest.raises(FrozenInstanceError):
        report.mid_ipr_median = 0.0
    bare = localization_sweep(t, seq, Uniform(0.0, 1.0), 5, 2, (-0.5, 1.5, 7), ranks=(0, 3))
    assert bare.ipr_rank is bare.ipr_values is bare.mid_ipr_quartiles is None


def test_localization_sweep_flags_singular_disorder():
    t = _t(3)
    seq = GeometricCoupling(4.0)
    report = localization_sweep(
        t, seq, Bernoulli(0.0, 1.0, 0.5), 5, 1, (-0.5, 1.5, 7), ranks=(0, 1, 2)
    )
    assert not report.simon_wolff_applicable


def test_localization_sweep_validation():
    t = _t(2)
    seq = GeometricCoupling(4.0)
    with pytest.raises(ValueError):
        localization_sweep(t, seq, Uniform(0.0, 1.0), 1, 0, (-1.0, 1.0, 5), ranks=(0,))
    with pytest.raises(ValueError):
        localization_sweep(t, seq, Uniform(0.0, 1.0), 1, 1, (1.0, -1.0, 5), ranks=(0,))
