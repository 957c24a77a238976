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

from . import coupling, operators
from .hierarchy import HierarchySpec, Truncation


class EigenvalueGroupingError(ArithmeticError):
    """Dense eigenvalues do not group into the exact atoms' multiplicities."""


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite list of spectral atoms with a declared total mass.

    ``tails`` holds 1 - locations, formed without cancellation where the
    source knows them exactly.
    """

    locations: np.ndarray
    weights: np.ndarray
    mass: float
    tails: np.ndarray

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.locations.tolist(), self.weights.tolist()))


def exact_cutoff_spectrum(
    t: Truncation, seq: coupling.CouplingSequence, r: int
) -> list[tuple[float, int]]:
    """Eigenvalues (lambda_s, multiplicity) of the rank-r cut-off Laplacian.

    Multiplicities are exact integers N_r/N_s - N_r/N_{s+1} for s < r, and 1
    for the constant vector at lambda_r; they total N_r.
    """
    t.check_rank(r)
    n_r = t.sizes[r]
    out = []
    for s in range(r):
        out.append((seq.lam(s), n_r // t.sizes[s] - n_r // t.sizes[s + 1]))
    out.append((seq.lam(r), 1))
    return out


def restricted_full_spectrum(
    t: Truncation, seq: coupling.CouplingSequence, r: int | None = None
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
    geometry: HierarchySpec | Truncation, seq: coupling.CouplingSequence, r_max: int
) -> SpectralMeasure:
    """Atoms (lambda_r, 1/N_r - 1/N_{r+1}) for r <= r_max.

    The declared mass 1 - 1/N_{r_max+1} accounts for the truncation; the
    remainder sits above the last retained atom.  The tails 1 - lambda_r are
    the coupling's own (seq.tail), not the rounded differences.
    """
    if r_max < 0:
        raise ValueError(f"r_max must be >= 0, got {r_max}")
    tails = np.array([seq.tail(r) for r in range(r_max + 1)])
    weights = np.empty(r_max + 1)
    n_r, inv_r = 1, 1.0
    for r in range(r_max + 1):
        n_next = n_r * geometry.factor(r + 1)
        try:
            inv_next = 1.0 / n_next
        except OverflowError:  # N_{r+1} beyond the float range: int true division
            inv_next = 1 / n_next
        weights[r] = inv_r - inv_next
        n_r, inv_r = n_next, inv_next
    return SpectralMeasure(1.0 - tails, weights, 1.0 - inv_r, tails)


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


def dense_control(
    t: Truncation, seq: coupling.CouplingSequence, r: int, include_tail=True
) -> tuple[list[tuple[float, int]], list[tuple[float, int]]]:
    """(exact atoms, dense groups) of the compression onto the rank-r cluster,
    or of the cut-off Laplacian there without the tail: the closed-form atoms,
    and a values-only dense solve of the same block grouped against them.

    Every p_s E_s (s >= 1) and the tail are constant on each n_1 x n_1 tile
    of the block for a pair of rank-1 clusters, so the N_r - N_r/n_1 vectors
    summing to zero on each rank-1 cluster lie in its kernel (lambda_0 = 0),
    and the rest of its spectrum is that of n_1 C, with C one value per
    tile: the one dense solve, of order N_r/n_1.  Tiles that are not constant
    to the symmetry check's tolerance raise EigenvalueGroupingError."""
    if include_tail:
        exact = restricted_full_spectrum(t, seq, r)
        block = operators.compression_dense_block(t, seq, r)
    else:
        exact = exact_cutoff_spectrum(t, seq, r)
        block = operators.cutoff_dense_block(t, seq, r)
    n, n_1 = len(block), t.sizes[min(r, 1)]
    tiles = block.reshape(n // n_1, n_1, n // n_1, n_1)
    # one pass over panels of tile rows, no N_r x N_r temporary
    residual = scale = 0.0
    step = max(1, operators.SYMMETRY_PANEL // n_1)
    for lo in range(0, len(tiles), step):
        panel = tiles[lo : lo + step]
        scale = max(scale, panel.max(), -panel.min())
        residual = np.abs(panel - panel[:, :1, :, :1]).max(initial=residual)
    c = n_1 * tiles[:, 0, :, 0]
    del block, tiles, panel  # the full block is gone before the solve
    if residual > 1e-12 * max(1.0, scale):
        raise EigenvalueGroupingError(
            f"the dense block is not constant on its rank-1 tiles: max residual {residual:g}"
        )
    values = operators.dense_symmetric_eigensolve(c, vectors=False).eigenvalues
    values = np.sort(np.concatenate([np.zeros(n - len(c)), values]))
    return exact, group_eigenvalues(values, exact)


def finite_volume_dos(t: Truncation, seq: coupling.CouplingSequence, r: int) -> SpectralMeasure:
    """Eigenvalue counting measure of the compression onto the rank-r cluster:
    the distinct restricted_full_spectrum atoms at weight mult / N_r, once
    dense_control has matched them with the dense eigenvalues."""
    exact, dense = dense_control(t, seq, r)
    locations = np.unique([loc for loc, _ in exact])  # the merged atoms
    weights = np.array([mult / t.sizes[r] for _, mult in dense])
    return SpectralMeasure(locations, weights, 1.0, 1.0 - locations)


def spectral_dimension(seq: coupling.CouplingSequence, degree: int | None) -> float:
    """2 log n / log rho for a geometric coupling at degree n (None: inhomogeneous)."""
    rho, q = seq.decay or (None, None)  # geometric: p_r = C rho^{-r}, q = 0
    if degree is None or q != 0.0:
        raise ValueError("dimension needs a homogeneous hierarchy and a geometric coupling")
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    return 2.0 * math.log(degree) / math.log(rho)


def fit_spectral_dimension(
    measure: SpectralMeasure, t_min: float, t_max: float
) -> float:
    """Least-squares edge-scaling fit of the measure near the top of the band.

    Samples the cumulative mass of [1-t, 1] exactly at the jump points
    t = 1 - lambda_r inside [t_min, t_max], read from measure.tails; twice the
    log-log slope (a ratio of two centred sums) estimates the dimension.
    """
    if not 0.0 < t_min < t_max:
        raise ValueError(f"need 0 < t_min < t_max, got ({t_min}, {t_max})")
    t_vals = measure.tails
    # mass of [location_r, 1] treating the declared remainder as lying above
    suffix = 1.0 - np.concatenate([[0.0], np.cumsum(measure.weights)[:-1]])
    keep = (t_vals >= t_min) & (t_vals <= t_max) & (t_vals > 0) & (suffix > 0)
    if keep.sum() < 3:
        raise ValueError(
            f"need at least 3 atoms in the fit window, found {int(keep.sum())}"
        )
    x, y = np.log(t_vals[keep]), np.log(suffix[keep])
    x -= x.mean()
    return 2.0 * float(np.sum(x * (y - y.mean())) / np.sum(x * x))


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
    seq: coupling.CouplingSequence,
    r_max: int,
) -> WalkReport:
    """Sum the return series (1/N_r - 1/N_{r+1}) / (1 - lambda_r).

    Each term is exp of its logarithm L_r: finite-precision accurate where N_r
    overflows, inf past the float range.  One ratio test on the last two L_r
    decides, with the rounding they carry as slack: recurrent unless the sum
    is finite and the step falls below -slack; then transient, with the
    geometric completion added, if that completion is below 1e-9 max(sum, 1),
    else inconclusive.
    """
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    log_terms = []  # Python floats: inf - inf below is nan, without a warning
    log_n = 0.0
    for r in range(r_max + 1):
        f_next = geometry.factor(r + 1)
        # a vanishing tail (log_tail -inf) gives L_r = inf
        log_terms.append(math.log1p(-1.0 / f_next) - log_n - seq.log_tail(r))
        log_n += math.log(f_next)
    terms = np.array([coupling._exp(v) for v in log_terms])
    with np.errstate(over="ignore"):
        sums = np.cumsum(terms)

    analytic = None
    rho, q = seq.decay or (None, None)
    if geometry.degree is not None and q == 0.0:
        analytic = "transient" if rho < geometry.degree else "recurrent"

    step = log_terms[-1] - log_terms[-2]  # nan past a vanishing tail: recurrent
    slack = 8 * np.finfo(float).eps * max(1.0, log_n, -seq.log_tail(r_max))
    classification, value = "recurrent", None
    if math.isfinite(sums[-1]) and step < -slack:
        ratio = math.exp(step)
        completion = terms[-1] * ratio / (1.0 - ratio)
        classification = "inconclusive"
        if completion < 1e-9 * max(sums[-1], 1.0):
            classification, value = "transient", float(sums[-1] + completion)
    return WalkReport(terms, sums, classification, value, analytic)
