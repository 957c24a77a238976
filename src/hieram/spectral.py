"""Exact spectral theory of the free hierarchical Laplacian.

The cut-off Laplacian at rank r has eigenvalues lambda_0 < ... < lambda_r with
multiplicities N_r (1/N_s - 1/N_{s+1}) for s < r and 1 at the top; compressing
the full Laplacian instead only shifts the top eigenvalue, because the uniform
rank-one tail kernel acts on the constant vector alone.  The limiting measure
puts weight 1/N_r - 1/N_{r+1} at lambda_r; its edge scaling gives the spectral
dimension and the return-series classification of the generated random walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .coupling import CouplingSequence, GeometricCoupling
from .hierarchy import HierarchySpec, Truncation, spec_of


class EigenvalueGroupingError(ArithmeticError):
    """Dense eigenvalues do not group into the exact atoms' multiplicities."""


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite list of spectral atoms with a declared total mass."""

    locations: np.ndarray
    weights: np.ndarray
    mass: float

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.locations.tolist(), self.weights.tolist()))


def exact_cutoff_spectrum(
    t: Truncation, seq: CouplingSequence, r: int
) -> list[tuple[float, int]]:
    """Eigenvalues (lambda_s, multiplicity) of the rank-r cut-off Laplacian.

    Multiplicities are exact integers N_r/N_s - N_r/N_{s+1} for s < r, and 1
    for the constant vector at lambda_r; they total N_r.
    """
    if not 0 <= r <= t.depth:
        raise ValueError(f"rank {r} out of range [0, {t.depth}]")
    n_r = t.sizes[r]
    out = []
    for s in range(r):
        out.append((seq.lam(s), n_r // t.sizes[s] - n_r // t.sizes[s + 1]))
    out.append((seq.lam(r), 1))
    return out


def restricted_full_spectrum(
    t: Truncation, seq: CouplingSequence, r: int | None = None
) -> list[tuple[float, int]]:
    """Spectrum of the full Laplacian compressed onto the rank-r cluster.

    Identical to the cut-off spectrum except the top (constant-vector)
    eigenvalue moves up by N_r * sum_{s>r} p_s / N_s.
    """
    if r is None:
        r = t.depth
    atoms = exact_cutoff_spectrum(t, seq, r)
    shift = t.sizes[r] * seq.weighted_tail(r, t)
    top_loc, top_mult = atoms[-1]
    atoms[-1] = (top_loc + shift, top_mult)
    return atoms


def limiting_spectral_measure(
    geometry: HierarchySpec | Truncation, seq: CouplingSequence, r_max: int
) -> SpectralMeasure:
    """Atoms (lambda_r, 1/N_r - 1/N_{r+1}) for r <= r_max.

    The declared mass 1 - 1/N_{r_max+1} accounts for the truncation; the
    remainder sits above the last retained atom.
    """
    if r_max < 0:
        raise ValueError(f"r_max must be >= 0, got {r_max}")
    spec = spec_of(geometry)
    locations = np.empty(r_max + 1)
    weights = np.empty(r_max + 1)
    n_r = 1
    for r in range(r_max + 1):
        n_next = n_r * spec.factor(r + 1)
        locations[r] = seq.lam(r)
        weights[r] = 1.0 / n_r - 1.0 / n_next
        n_r = n_next
    return SpectralMeasure(locations, weights, 1.0 - 1.0 / n_r)


def group_eigenvalues(
    values: np.ndarray, atoms: list[tuple[float, int]]
) -> list[tuple[float, int]]:
    """Group sorted dense eigenvalues into (mean location, count) per exact atom.

    Sorted atoms at equal locations merge first, summing their multiplicities
    (a coupling that vanishes beyond some rank repeats lambda_s).  A new group
    starts wherever neighbouring values lie further apart than half the
    smallest gap between the merged atoms.  Raises EigenvalueGroupingError
    unless the groups reproduce the merged atoms' count and multiplicities,
    each mean within half that gap of its atom, as fails when two distinct
    atoms lie closer than the eigensolver resolves.
    """
    merged = []
    for loc, mult in atoms:
        if merged and merged[-1][0] == loc:
            mult += merged.pop()[1]
        merged.append((loc, mult))
    gap = min(np.diff([loc for loc, _ in merged]), default=math.inf)
    groups = []
    lo = 0
    for hi in range(1, values.size + 1):
        if hi == values.size or values[hi] - values[hi - 1] > gap / 2:
            groups.append((float(values[lo:hi].mean()), hi - lo))
            lo = hi
    if [m for _, m in groups] != [m for _, m in merged] or any(
        abs(g - a) > gap / 2 for (g, _), (a, _) in zip(groups, merged)
    ):
        raise EigenvalueGroupingError(
            f"{len(groups)} dense eigenvalue groups do not reproduce the "
            f"{len(merged)} distinct exact atoms (smallest gap {gap:g})"
        )
    return groups


def finite_volume_dos(
    t: Truncation, seq: CouplingSequence, r: int, cap: int = operators.DENSE_CAP
) -> SpectralMeasure:
    """Eigenvalue counting measure of the compression onto the rank-r cluster.

    Computed from a dense eigensolve; every eigenvalue carries weight 1/N_r
    and the eigenvalues of each exact atom coalesce into one atom.
    """
    block = operators.compression_dense_block(t, seq, r, cap)
    values = operators.dense_symmetric_eigensolve(block).eigenvalues
    groups = group_eigenvalues(values, restricted_full_spectrum(t, seq, r))
    locations = np.array([loc for loc, _ in groups])
    weights = np.array([mult / t.sizes[r] for _, mult in groups])
    return SpectralMeasure(locations, weights, 1.0)


def spectral_dimension(seq: GeometricCoupling, degree: int) -> float:
    """Edge-scaling exponent 2 log n / log rho for geometric couplings."""
    if not isinstance(seq, GeometricCoupling):
        raise TypeError("analytic spectral dimension needs a geometric coupling")
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    return 2.0 * math.log(degree) / math.log(seq.rho)


def fit_spectral_dimension(
    measure: SpectralMeasure, t_min: float, t_max: float
) -> float:
    """Least-squares edge-scaling fit of the measure near the top of the band.

    Samples the cumulative mass of [1-t, 1] exactly at the jump points
    t = 1 - lambda_r inside [t_min, t_max]; twice the log-log slope estimates
    the spectral dimension.
    """
    if not 0.0 < t_min < t_max:
        raise ValueError(f"need 0 < t_min < t_max, got ({t_min}, {t_max})")
    t_vals = 1.0 - measure.locations
    # mass of [location_r, 1] treating the declared remainder as lying above
    suffix = 1.0 - np.concatenate([[0.0], np.cumsum(measure.weights)[:-1]])
    keep = (t_vals >= t_min) & (t_vals <= t_max) & (t_vals > 0) & (suffix > 0)
    if keep.sum() < 3:
        raise ValueError(
            f"need at least 3 atoms in the fit window, found {int(keep.sum())}"
        )
    slope = np.polyfit(np.log(t_vals[keep]), np.log(suffix[keep]), 1)[0]
    return 2.0 * float(slope)


@dataclass(frozen=True)
class WalkReport:
    """Partial sums of the return series and their classification."""

    terms: np.ndarray
    partial_sums: np.ndarray
    classification: str  # "transient" | "recurrent" | "inconclusive"
    value: float | None
    analytic_classification: str | None


def walk_classification(
    geometry: HierarchySpec | Truncation,
    seq: CouplingSequence,
    r_max: int,
    divergence_threshold: float = 1e3,
) -> WalkReport:
    """Sum the return series (1/N_r - 1/N_{r+1}) / (1 - lambda_r).

    Terms are computed in log space so the partial sums stay finite-precision
    accurate at depths where N_r overflows.  A finite sum means the generated
    random walk is transient; divergence means recurrent.
    """
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    spec = spec_of(geometry)
    terms = np.empty(r_max + 1)
    log_n = 0.0
    for r in range(r_max + 1):
        f_next = spec.factor(r + 1)
        log_tail = seq.log_tail(r)
        if log_tail == -math.inf:
            terms[r] = math.inf
        else:
            terms[r] = math.exp(math.log1p(-1.0 / f_next) - log_n - log_tail)
        log_n += math.log(f_next)
    sums = np.cumsum(terms)

    analytic = None
    if spec.degree is not None and isinstance(seq, GeometricCoupling):
        analytic = "transient" if seq.rho < spec.degree else "recurrent"

    ratio = terms[-1] / terms[-2] if terms[-2] > 0 else math.inf
    if not math.isfinite(sums[-1]) or sums[-1] > divergence_threshold or ratio >= 1.0 - 1e-12:
        classification, value = "recurrent", None
    elif ratio < 1.0 and terms[-1] * ratio / (1.0 - ratio) < 1e-9 * max(sums[-1], 1.0):
        classification = "transient"
        value = float(sums[-1] + terms[-1] * ratio / (1.0 - ratio))
    else:
        classification, value = "inconclusive", None
    return WalkReport(terms, sums, classification, value, analytic)
