"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import time

import numpy as np
import pytest

from hieram import (
    GeometricCoupling,
    HierarchySpec,
    PolyGeometricCoupling,
    PowerSequence,
    Truncation,
    Uniform,
    borel_cantelli_profile,
    build_cascade,
    check_main_hypothesis,
    dense_symmetric_eigensolve,
    exact_cutoff_spectrum,
    finite_volume_dos,
    fit_spectral_dimension,
    green_column,
    green_entry,
    limiting_spectral_measure,
    localization_sweep,
    measure_bound_check,
    restricted_full_spectrum,
    sample_potential,
    walk_classification,
)
from hieram.cli import main
from hieram.coupling import CONVERGES_ANALYTIC
from hieram.operators import compression_dense_block, cutoff_dense_block
from reference_operator import hamiltonian, laplacian


def report(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {number}: {description}")
    assert not failures, failures[:5]


def cluster(values, tol):
    groups, lo = [], 0
    for hi in range(1, len(values) + 1):
        if hi == len(values) or values[hi] - values[hi - 1] > tol:
            groups.append((values[lo:hi].mean(), hi - lo))
            lo = hi
    return groups


def test_criterion_1_exact_cutoff_spectrum():
    start = time.time()
    failures = []
    for degree, rho in itertools.product((2, 3), (2.0, 4.0)):
        t = Truncation(HierarchySpec.homogeneous(degree, 6))
        seq = GeometricCoupling(rho)
        for r in range(t.depth + 1):
            exact = exact_cutoff_spectrum(t, seq, r)
            values = dense_symmetric_eigensolve(
                cutoff_dense_block(t, seq, r)
            ).eigenvalues
            min_gap = min(
                (b - a for (a, _), (b, _) in zip(exact, exact[1:])), default=1.0
            )
            groups = cluster(values, 1e-7 * min_gap)
            if len(groups) != len(exact):
                failures.append((degree, rho, r, "group count"))
                continue
            for (loc, mult), (eloc, emult) in zip(groups, exact):
                if abs(loc - eloc) >= 1e-9:
                    failures.append((degree, rho, r, "location", loc, eloc))
                if mult != emult:
                    failures.append((degree, rho, r, "multiplicity", mult, emult))
    elapsed = time.time() - start
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    report(1, f"exact cut-off spectra vs dense oracle ({elapsed:.1f}s)", failures)


def test_criterion_2_compression_spectrum():
    failures = []
    for degree, rho in itertools.product((2, 3), (2.0, 4.0)):
        t = Truncation(HierarchySpec.homogeneous(degree, 4))
        seq = GeometricCoupling(rho)
        dense = dense_symmetric_eigensolve(
            compression_dense_block(t, seq, t.depth)
        ).eigenvalues
        expected = np.concatenate(
            [[loc] * m for loc, m in restricted_full_spectrum(t, seq)]
        )
        if np.abs(dense - expected).max() >= 1e-9:
            failures.append((degree, rho, "spectrum"))
        shift = expected[-1] - exact_cutoff_spectrum(t, seq, t.depth)[-1][0]
        if abs(shift - t.site_count * seq.weighted_tail(t.depth, t)) >= 1e-15:
            failures.append((degree, rho, "shift"))
        gap = (
            compression_dense_block(t, seq, t.depth)
            - laplacian(t, seq, t.depth).dense()
        )
        norm = np.abs(dense_symmetric_eigensolve(gap).eigenvalues).max()
        if norm > seq.tail(t.depth) + 1e-15:
            failures.append((degree, rho, "operator norm", norm))
    report(2, "compression = cut-off + rank-one top shift, within tail", failures)


def test_criterion_3_dos_convergence():
    failures = []
    t = Truncation(HierarchySpec.homogeneous(2, 6))
    seq = GeometricCoupling(4.0)
    lams = [seq.lam(s) for s in range(8)]
    for s in range(4):
        # isolation radius: a third of half the gap to the nearest eigenvalue
        delta = min(abs(lams[s] - lams[j]) for j in range(8) if j != s) / 2
        eps = 0.9 * delta / 3
        checked = 0
        for r in range(s + 1, t.depth + 1):
            if seq.tail(r) >= eps:
                continue
            nu = finite_volume_dos(t, seq, r)
            window = np.abs(nu.locations - lams[s]) <= eps
            counted = round(float(nu.weights[window].sum()) * t.sizes[r])
            expected = t.sizes[r] // t.sizes[s] - t.sizes[r] // t.sizes[s + 1]
            if counted != expected:
                failures.append((s, r, counted, expected))
            checked += 1
        if checked == 0:
            failures.append((s, "no rank cleared the gap condition"))
    report(3, "DOS mass near each eigenvalue is exact once the tail clears", failures)


def test_criterion_4_spectral_dimension():
    failures = []
    for degree, rho, d in ((2, 4.0, 1.0), (2, 2.0, 2.0), (4, 2.0, 4.0)):
        seq = GeometricCoupling(rho)
        measure = limiting_spectral_measure(
            HierarchySpec.homogeneous(degree, 3), seq, 25
        )
        fitted = fit_spectral_dimension(
            measure, seq.tail(20) * (1 - 1e-12), seq.tail(5) * (1 + 1e-12)
        )
        if abs(fitted - d) / d >= 0.05:
            failures.append((degree, rho, fitted, d))
    report(4, "fitted spectral dimension within 5% of 2 log n / log rho", failures)


def test_criterion_5_random_walk():
    failures = []
    transient = walk_classification(
        HierarchySpec.homogeneous(4, 2), GeometricCoupling(2.0), 60
    )
    if abs(transient.partial_sums[-1] - 1.5) >= 1e-6:
        failures.append(("transient sum", transient.partial_sums[-1]))
    if transient.classification != "transient":
        failures.append(("transient verdict", transient.classification))
    for rho, r_max in ((4.0, 40), (2.0, 2100)):
        rec = walk_classification(
            HierarchySpec.homogeneous(2, 2), GeometricCoupling(rho), r_max
        )
        if rec.classification != "recurrent":
            failures.append((rho, "verdict", rec.classification))
        if not rec.partial_sums[-1] > 1e3:
            failures.append((rho, "partial sum", rec.partial_sums[-1]))
    report(5, "return series: 3/2 transient limit, recurrent divergence", failures)


def test_criterion_6_green_cascade_oracle():
    start = time.time()
    failures = []
    cases = [
        (HierarchySpec.homogeneous(2, 9), GeometricCoupling(4.0)),
        (HierarchySpec.homogeneous(3, 5), GeometricCoupling(2.0)),
        (HierarchySpec.homogeneous(2, 8), GeometricCoupling(2.0)),
        (HierarchySpec.explicit([2, 3, 2, 3, 2]), PolyGeometricCoupling(2, 0.3)),
        (HierarchySpec.homogeneous(4, 4), GeometricCoupling(3.0)),
    ]
    rng = np.random.default_rng(20260810)
    for trial in range(20):
        spec, seq = cases[trial % len(cases)]
        t = Truncation(spec)
        omega = sample_potential(Uniform(0.0, 1.0), t, 1000, trial)
        im = rng.uniform(0.1, 2.0) * (1 if trial % 2 else -1)
        z = complex(rng.uniform(-0.5, 1.5), im)
        x = int(rng.integers(0, t.site_count))
        cascade = build_cascade(t, seq, omega, z)
        eye = np.eye(t.site_count)
        for r in range(t.depth + 1):
            h = hamiltonian(t, seq, omega, r).dense() - z * eye
            ref = np.linalg.solve(h, eye[:, x])
            col, moment = green_column(cascade, x, r)
            scale = float(np.linalg.norm(ref))
            if np.abs(col - ref).max() >= 1e-9 * scale:
                failures.append((trial, r, "column"))
            # expansion identity, one entry inside and one outside the cluster
            for y in (x, (x + 1) % t.site_count, int(rng.integers(0, t.site_count))):
                value = green_entry(cascade, x, y, r).value
                if abs(value - ref[y]) >= 1e-9 * max(scale, 1.0):
                    failures.append((trial, r, "expansion", y))
            members = t.cluster_sites(x, r)
            outside = np.ones(t.site_count, dtype=bool)
            outside[list(members)] = False
            if not np.all(col[outside] == 0.0):
                failures.append((trial, r, "off-cluster"))
        for _ in range(10):
            a, b = (int(v) for v in rng.integers(0, t.site_count, 2))
            forward = green_entry(cascade, a, b, t.depth).value
            backward = green_entry(cascade, b, a, t.depth).value
            if abs(forward - backward) >= 1e-12:
                failures.append((trial, "symmetry", a, b))
    elapsed = time.time() - start
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    report(6, f"cascade vs dense resolvent oracle, 20 draws ({elapsed:.1f}s)", failures)


def test_criterion_7_measure_bound():
    failures = []
    t = Truncation(HierarchySpec.homogeneous(2, 6))
    seq = GeometricCoupling(4.0)
    r = 6
    threshold = float((r**2 * t.sizes[r]) ** 2)
    for index in range(50):
        omega = sample_potential(Uniform(0.0, 1.0), t, 4242, index)
        rep = measure_bound_check(t, seq, omega, r, threshold, (-0.5, 1.5, 4001))
        if not rep.passed:
            failures.append((index, rep.empirical_measure, rep.bound, rep.allowance))
    report(7, "resolvent exceedance measure under 4N/sqrt(M), 50 draws", failures)


def test_criterion_8_hypothesis_checkers():
    failures = []
    t2 = Truncation(HierarchySpec.homogeneous(2, 3))
    u2 = PowerSequence(2.0)
    if check_main_hypothesis(GeometricCoupling(4.0), t2, u2, 40).converges is not True:
        failures.append("geometric rho=4 should converge")
    if check_main_hypothesis(GeometricCoupling(2.0), t2, u2, 40).converges is not False:
        failures.append("geometric rho=2 should diverge")
    poly = check_main_hypothesis(
        PolyGeometricCoupling(2, 0.3), t2, PowerSequence(1.1), 40
    )
    if poly.verdict != CONVERGES_ANALYTIC:
        failures.append(f"polygeometric verdict {poly.verdict}")
    ledger = borel_cantelli_profile(GeometricCoupling(4.0), t2, u2, 40)
    inv_u = np.array([1.0 / u2(r) for r in ledger.r_values])
    if not np.array_equal(ledger.coverage_sums, np.cumsum(inv_u)):
        failures.append("coverage ledger identity not exact")
    report(8, "hypothesis verdicts and exact summability ledger", failures)


def test_criterion_9_localization_proxy():
    start = time.time()
    failures = []
    t = Truncation(HierarchySpec.homogeneous(2, 10))
    seq = GeometricCoupling(4.0)
    rep = localization_sweep(
        t,
        seq,
        Uniform(0.0, 1.0),
        20260810,
        20,
        (-0.5, 1.5, 2001),
        ranks=range(t.depth + 1),
        ipr_rank=t.depth,
    )
    for r in range(6, t.depth):
        median = rep.ratio_medians[r]
        if not 0.9 <= median <= 1.1:
            failures.append((r, median))
    floor = 1.0 / t.site_count
    if not rep.mid_ipr_median > 20.0 * floor:
        failures.append(("ipr", rep.mid_ipr_median, 20.0 * floor))
    elapsed = time.time() - start
    report(
        9,
        f"moment-ratio band and IPR floor at N=1024 ({elapsed:.1f}s)",
        failures,
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    failures = []
    grid = {"min": -0.5, "max": 1.5, "points": 21}
    runs = {
        "spectrum": {},
        "dos": {"rank": 3, "r_max": 6},
        "dimension": {},
        "walk": {"r_max": 40},
        "hypothesis": {"u_exponent": 2.0, "r_max": 30},
        "green": {"z": {"re": 0.3, "im": 0.9}, "target": 5},
        "moments": {"energy_grid": grid, "ranks": [0, 2, 4], "realizations": 2},
        "localize": {"energy_grid": grid, "realizations": 2},
        "bound": {"energy_grid": dict(grid, points=201), "rank": 4, "realizations": 2},
    }
    for subcommand, extra in runs.items():
        config = {
            "hierarchy": {"degree": 2, "depth": 4},
            "coupling": {"family": "geometric", "rho": 4.0},
            "disorder": {"kind": "uniform", "center": 0.0, "width": 1.0},
            "seed": 31415,
            **extra,
        }
        cfg_path = tmp_path / f"{subcommand}.json"
        cfg_path.write_text(json.dumps(config))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{subcommand}-{tag}"
            code = main([subcommand, "--config", str(cfg_path), "--out", str(out)])
            if code != 0:
                failures.append((subcommand, "exit", code))
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        if files_a != files_b:
            failures.append((subcommand, "file sets differ"))
            continue
        for name in files_a:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                failures.append((subcommand, name, "bytes differ"))
    report(10, "every subcommand is byte-identical across re-runs", failures)
