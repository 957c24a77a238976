"""Localization diagnostics at finite volume.

These are finite proxies: the measure bound is a theorem about resolvent
exceedance sets and must hold for every sample up to grid resolution, the
summability ledger tracks the two series the localization argument needs, and
the moment-ladder sweep plus inverse participation ratios probe pure-point
behaviour that no finite computation can certify directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import greens, operators
from .coupling import CouplingSequence, PowerSequence, main_hypothesis_terms
from .disorder import DistributionSpec, PotentialSample, sample_potential
from .hierarchy import Truncation

MID_SPECTRUM_WINDOW = (0.25, 0.75)  # eigenvalue-index band used for IPR medians


@dataclass(frozen=True)
class BoundCheckReport:
    """Empirical exceedance measure of a resolvent norm vs its proven bound."""

    rank: int
    threshold: float
    empirical_measure: float
    bound: float
    allowance: float
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
        empirical_measure=empirical,
        bound=bound,
        allowance=allowance,
        skipped=int((~ok).sum()),
        passed=empirical <= bound + allowance,
    )


def exceedance_threshold(u: PowerSequence, t: Truncation, r: int) -> float:
    """M_r = (u_r N_r)^2 as the correctly rounded x * x; inf past the float range."""
    try:
        x = u(r) * t.size(r)
    except OverflowError:  # N_r beyond the float range
        return math.inf
    return x * x


@dataclass(frozen=True)
class SummabilityLedger:
    """The two series the localization argument needs, via M_r = (u_r N_r)^2.

    The first column sums N_r / sqrt(M_r) = 1/u_r; the second sums
    p_r sqrt(M_r M_{r-1}) / N_r = p_r N_{r-1} u_{r-1} u_r.  Both are taken
    from these identities, so they hold past the float range of M_r, where
    the thresholds read inf.
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
    u_vals = np.array([u(r) for r in rs])
    # 1/u_r, as exp(-log u_r) where u_r passes the float range (maybe subnormal)
    past = np.isinf(u_vals)
    coverage = np.where(past, [math.exp(-u.log(r)) for r in rs], 1.0 / u_vals)
    hypothesis = np.array(main_hypothesis_terms(seq, t, u, r_max))
    with np.errstate(over="ignore"):  # a partial sum past the float range reads inf
        coverage_sums, hypothesis_sums = np.cumsum(coverage), np.cumsum(hypothesis)
    return SummabilityLedger(
        r_values=rs,
        thresholds=np.array([exceedance_threshold(u, t, r) for r in rs.tolist()]),
        bound_terms=np.where(past, 4.0 * coverage, 4.0 / u_vals),
        coverage_terms=coverage,
        coverage_sums=coverage_sums,
        hypothesis_terms=hypothesis,
        hypothesis_sums=hypothesis_sums,
    )


def ipr_profile(
    t: Truncation,
    seq: CouplingSequence,
    omega,
    r: int,
    x: int = 0,
) -> list[tuple[float, float]]:
    """(eigenvalue, inverse participation ratio) pairs at finite volume.

    The IPR of a normalized vector is sum_y psi(y)^4, ranging from 1/N_r
    (uniform spreading) to 1 (a point mass).  The eigenvalues of H_r on the cut
    of Q_r(x) (operators.cluster_cut) come from a values-only dense solve and
    the IPRs from the level kernel at those eigenvalues
    (greens.eigenvector_iprs), so no eigenvector matrix is formed.  Where the
    kernel declines the draw, as with tied spectra, both come from a dense
    eigh.
    """
    q, values, _ = operators.cluster_cut(t, omega, r, x)
    block = operators.cutoff_dense_block(q, seq, r)
    block[np.diag_indices(q.site_count)] += values
    eigenvalues = operators.dense_symmetric_eigensolve(block, vectors=False).eigenvalues
    iprs = greens.eigenvector_iprs(q, seq, values, eigenvalues)
    if iprs is None:
        spectrum = operators.dense_symmetric_eigensolve(block)
        eigenvalues = spectrum.eigenvalues
        # two squarings: numpy has no fast path for the exponent 4
        iprs = np.sum(np.square(np.square(spectrum.eigenvectors)), axis=0)
    return list(zip(eigenvalues.tolist(), iprs.tolist()))


@dataclass(frozen=True)
class LocalizationReport:
    """Moment ladders, growth ratios and IPR summaries for one sweep.

    Every cell traces back to its (seed, index, energy, rank) tuple; skipped
    cells mark pole-proximate grid points.  The reduction is an indexed
    gather, so results do not depend on evaluation order.  The IPR fields
    are None when the sweep ran without an IPR rank.
    """

    seed: int
    energies: np.ndarray
    ranks: tuple[int, ...]
    potentials: tuple[PotentialSample, ...]  # one draw per realization
    moments: np.ndarray  # (realizations, len(ranks), len(energies))
    ok: np.ndarray  # (realizations, len(energies))
    ratio_medians: np.ndarray  # per adjacent rank pair
    simon_wolff_applicable: bool
    ipr_rank: int | None = None
    ipr_eigenvalues: np.ndarray | None = None  # (realizations, N_r)
    ipr_values: np.ndarray | None = None  # (realizations, N_r)
    mid_ipr_median: float | None = None
    mid_ipr_quartiles: tuple[float, float, float] | None = None


def localization_sweep(
    t: Truncation,
    seq: CouplingSequence,
    dist: DistributionSpec,
    seed: int,
    realizations: int,
    grid: tuple[float, float, int],
    ranks,
    site: int = 0,
    ipr_rank: int | None = None,
    map_fn=map,
) -> LocalizationReport:
    """Moment-ladder and IPR sweep across disorder realizations.

    Each realization is drawn once, on the calling thread.  ``map_fn`` lets
    a caller supply a pool's order-preserving map; the library itself stays
    single-threaded and pure.  Only the per-draw moment sweeps go through it:
    they are numpy loops that call no BLAS, so they scale with the pool.  The
    IPR profiles of the same draws (ipr_profile: eigenvalues from a
    values-only dense solve, IPRs from the level kernel at them, an eigh
    where the kernel declines a draw) run one after another on the calling
    thread, because each dense solve already runs on every core through the
    BLAS's own threads, and two solves at once only contend for them (and
    hold two N_r x N_r blocks).  Under a single-threaded BLAS
    (``OPENBLAS_NUM_THREADS=1``) that phase therefore uses one core.
    """
    e_min, e_max, points = grid
    if points < 1 or (points > 1 and not e_max > e_min):
        raise ValueError(f"degenerate energy grid {grid}")
    if realizations < 1:
        raise ValueError(f"realizations must be >= 1, got {realizations}")
    ranks = tuple(int(r) for r in ranks)
    if not ranks:
        raise ValueError("ranks must not be empty")
    for r in ranks:
        t.check_rank(r, "ranks entry")
    if ipr_rank is not None:  # fail the IPR cap before any draw or sweep
        ipr_rank = int(ipr_rank)
        t.check_rank(ipr_rank)
        operators.check_cap(t.sizes[ipr_rank])
    energies = np.linspace(e_min, e_max, points)
    potentials = tuple(sample_potential(dist, t, seed, i) for i in range(realizations))

    def ladder(omega):
        full, ok = greens.moment_ladder_sweep(t, seq, omega, energies, max(ranks), site)
        return full[list(ranks), :], ok

    moments, ok = (np.stack(parts) for parts in zip(*map_fn(ladder, potentials)))

    ratio_medians = np.empty(len(ranks) - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(len(ranks) - 1):
            ratios = moments[:, j + 1, :] / moments[:, j, :]
            valid = ratios[ok]
            ratio_medians[j] = float(np.median(valid)) if valid.size else math.nan

    ipr = {}
    if ipr_rank is not None:
        profiles = [ipr_profile(t, seq, omega, ipr_rank, site) for omega in potentials]
        eigs, iprs = np.moveaxis(np.array(profiles), -1, 0)
        n_r = t.sizes[ipr_rank]
        lo = int(MID_SPECTRUM_WINDOW[0] * n_r)
        hi = max(lo + 1, int(MID_SPECTRUM_WINDOW[1] * n_r))
        mid = iprs[:, lo:hi]
        quartiles = tuple(float(q) for q in np.quantile(mid, [0.25, 0.5, 0.75]))
        ipr = dict(ipr_rank=ipr_rank, ipr_eigenvalues=eigs, ipr_values=iprs)
        ipr.update(mid_ipr_median=float(np.median(mid)), mid_ipr_quartiles=quartiles)
    return LocalizationReport(
        seed=seed,
        energies=energies,
        ranks=ranks,
        potentials=potentials,
        moments=moments,
        ok=ok,
        ratio_medians=ratio_medians,
        simon_wolff_applicable=dist.absolutely_continuous,
        **ipr,
    )
