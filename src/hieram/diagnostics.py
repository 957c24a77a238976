"""Localization diagnostics at finite volume.

These are finite proxies: the measure bound is a theorem about resolvent
exceedance sets and must hold for every sample up to grid resolution, the
summability ledger tracks the two series the localization argument needs, and
the moment-ladder sweep plus inverse participation ratios probe pure-point
behaviour that no finite computation can certify directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import greens, operators
from .coupling import CouplingSequence, PowerSequence
from .disorder import DistributionSpec, PotentialSample, sample_potential
from .hierarchy import Truncation

MID_SPECTRUM_WINDOW = (0.25, 0.75)  # eigenvalue-index band used for IPR medians


@dataclass(frozen=True)
class BoundCheckReport:
    """Empirical exceedance measure of a resolvent norm vs its proven bound."""

    rank: int
    threshold: float
    grid: tuple[float, float, int]
    empirical_measure: float
    bound: float
    allowance: float
    crossings: int
    skipped: int
    passed: bool


def measure_bound_check(
    t: Truncation,
    seq: CouplingSequence,
    omega: PotentialSample,
    r: int,
    threshold: float,
    grid: tuple[float, float, int],
    x: int = 0,
) -> BoundCheckReport:
    """Check m({e : ||(H_r - e)^{-1} 1_{Q_r(x)}||^2 >= M}) <= 4 N_r / sqrt(M).

    The left side is estimated by counting grid points (midpoint rule); the
    unavoidable discretization error is bounded by the grid spacing times the
    number of indicator sign changes and reported as the allowance.
    """
    e_min, e_max, points = grid
    if points < 2 or not e_max > e_min:
        raise ValueError(f"degenerate energy grid {grid}")
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    energies = np.linspace(e_min, e_max, points)
    spacing = (e_max - e_min) / (points - 1)
    norm2, ok = greens.cluster_norm_sweep(t, seq, omega, energies, r, x)
    exceed = ok & (norm2 >= threshold)
    crossings = int(np.sum(exceed[1:] != exceed[:-1]))
    empirical = float(exceed.sum()) * spacing
    bound = 4.0 * t.sizes[r] / math.sqrt(threshold)
    allowance = spacing * crossings
    return BoundCheckReport(
        rank=r,
        threshold=threshold,
        grid=(float(e_min), float(e_max), int(points)),
        empirical_measure=empirical,
        bound=bound,
        allowance=allowance,
        crossings=crossings,
        skipped=int((~ok).sum()),
        passed=empirical <= bound + allowance,
    )


@dataclass(frozen=True)
class SummabilityLedger:
    """The two series the localization argument needs, via M_r = (u_r N_r)^2.

    The first column sums N_r / sqrt(M_r), which equals 1/u_r algebraically;
    the second sums p_r sqrt(M_r M_{r-1}) / N_r = p_r N_{r-1} u_{r-1} u_r.
    """

    r_values: np.ndarray
    thresholds: np.ndarray
    bound_terms: np.ndarray
    coverage_terms: np.ndarray
    coverage_sums: np.ndarray
    hypothesis_terms: np.ndarray
    hypothesis_sums: np.ndarray


def borel_cantelli_profile(
    seq: CouplingSequence,
    t: Truncation,
    u: PowerSequence = PowerSequence(1.1),
    r_max: int = 40,
) -> SummabilityLedger:
    """Tabulate thresholds M_r = (u_r N_r)^2 and both summability series."""
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    rs = np.arange(1, r_max + 1)
    sizes = np.array([float(t.size(r)) for r in rs])
    u_vals = np.array([u(r) for r in rs])
    thresholds = (u_vals * sizes) ** 2
    sqrt_m = np.sqrt(thresholds)
    coverage = sizes / sqrt_m
    prev_sqrt_m = np.concatenate([[0.0], sqrt_m[:-1]])
    p_vals = np.array([seq.p(r) for r in rs])
    hypothesis = p_vals * sqrt_m * prev_sqrt_m / sizes
    return SummabilityLedger(
        r_values=rs,
        thresholds=thresholds,
        bound_terms=4.0 * sizes / sqrt_m,
        coverage_terms=coverage,
        coverage_sums=np.cumsum(coverage),
        hypothesis_terms=hypothesis,
        hypothesis_sums=np.cumsum(hypothesis),
    )


def ipr_profile(
    t: Truncation,
    seq: CouplingSequence,
    omega: PotentialSample,
    r: int,
    cap: int = operators.DENSE_CAP,
) -> list[tuple[float, float]]:
    """(eigenvalue, inverse participation ratio) pairs at finite volume.

    Dense eigensolve of the Hamiltonian restricted to the rank-r cluster at
    site 0; IPR of a normalized vector is sum_x psi(x)^4, ranging from 1/N_r
    (uniform spreading) to 1 (a point mass).
    """
    n_r = t.sizes[r]
    block = operators.cutoff_dense_block(t, seq, r, cap)
    block[np.diag_indices(n_r)] += omega.values[:n_r]
    spectrum = operators.dense_symmetric_eigensolve(block)
    # two squarings: numpy has no fast path for the exponent 4
    iprs = np.sum(np.square(np.square(spectrum.eigenvectors)), axis=0)
    return list(zip(spectrum.eigenvalues.tolist(), iprs.tolist()))


@dataclass
class LocalizationReport:
    """Moment ladders, growth ratios and IPR summaries for one sweep.

    Every cell traces back to its (seed, index, energy, rank) tuple; skipped
    cells mark pole-proximate grid points.  The reduction is an indexed
    gather, so results do not depend on evaluation order.
    """

    seed: int
    energies: np.ndarray
    ranks: tuple[int, ...]
    realization_indices: tuple[int, ...]
    moments: np.ndarray  # (realizations, len(ranks), len(energies))
    ok: np.ndarray  # (realizations, len(energies))
    ratio_medians: np.ndarray  # per adjacent rank pair
    ipr_ranks: tuple[int, ...]
    ipr_eigenvalues: dict[int, np.ndarray] = field(default_factory=dict)
    ipr_values: dict[int, np.ndarray] = field(default_factory=dict)
    mid_ipr_median: dict[int, float] = field(default_factory=dict)
    mid_ipr_quartiles: dict[int, tuple[float, float, float]] = field(
        default_factory=dict
    )
    simon_wolff_applicable: bool = True


def localization_sweep(
    t: Truncation,
    seq: CouplingSequence,
    dist: DistributionSpec,
    seed: int,
    realizations: int,
    grid: tuple[float, float, int],
    ranks,
    site: int = 0,
    ipr_ranks=(),
    cap: int = operators.DENSE_CAP,
    map_fn=map,
) -> LocalizationReport:
    """Moment-ladder and IPR sweep across disorder realizations.

    ``map_fn`` lets a caller supply a pool's order-preserving map; the library
    itself stays single-threaded and pure.
    """
    e_min, e_max, points = grid
    if points < 1 or (points > 1 and not e_max > e_min):
        raise ValueError(f"degenerate energy grid {grid}")
    if realizations < 1:
        raise ValueError(f"realizations must be >= 1, got {realizations}")
    ranks = tuple(int(r) for r in ranks)
    ipr_ranks = tuple(int(r) for r in ipr_ranks)
    energies = np.linspace(e_min, e_max, points)
    indices = tuple(range(realizations))

    def ladder(i):
        omega = sample_potential(dist, t, seed, i)
        full, ok = greens.moment_ladder_sweep(t, seq, omega, energies, max(ranks), site)
        return full[list(ranks), :], ok

    moments, ok = (np.stack(parts) for parts in zip(*map_fn(ladder, indices)))

    ratio_medians = np.empty(len(ranks) - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(len(ranks) - 1):
            ratios = moments[:, j + 1, :] / moments[:, j, :]
            valid = ratios[ok]
            ratio_medians[j] = float(np.median(valid)) if valid.size else math.nan

    report = LocalizationReport(
        seed=seed,
        energies=energies,
        ranks=ranks,
        realization_indices=indices,
        moments=moments,
        ok=ok,
        ratio_medians=ratio_medians,
        ipr_ranks=ipr_ranks,
        simon_wolff_applicable=dist.absolutely_continuous,
    )

    for r in ipr_ranks:
        def profile(i, r=r):
            return ipr_profile(t, seq, sample_potential(dist, t, seed, i), r, cap)

        eigs, iprs = np.moveaxis(np.array(list(map_fn(profile, indices))), -1, 0)
        report.ipr_eigenvalues[r] = eigs
        report.ipr_values[r] = iprs
        n_r = t.sizes[r]
        lo = int(MID_SPECTRUM_WINDOW[0] * n_r)
        hi = max(lo + 1, int(MID_SPECTRUM_WINDOW[1] * n_r))
        mid = iprs[:, lo:hi]
        report.mid_ipr_median[r] = float(np.median(mid))
        q25, q50, q75 = np.quantile(mid, [0.25, 0.5, 0.75])
        report.mid_ipr_quartiles[r] = (float(q25), float(q50), float(q75))
    return report
