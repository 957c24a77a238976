"""Resolvent cascade for the hierarchical Anderson model.

Each averaging operator acts on a single cluster as the rank-one projection
onto the normalized indicator phi_Q, so the resolvent of the rank-s
Hamiltonian follows from the rank-(s-1) one by a Sherman-Morrison update per
cluster.  Tracking only the solves against phi_Q - one length-N array per
level plus one scalar per cluster - costs O(N * R) total and answers any
resolvent entry, column, or squared-column-norm query afterwards in O(r) to
O(N_r) time via the level expansion

    G_r(x, y) = G_0(x, y) - sum_{s=d(x,y)}^{r} p_s N_{s-1} g_{s-1}(x) g_s(y),

where g_s(t) is the mean of G_s(. , t) over the rank-s cluster of t.

Real energies are admitted: the resolvent exists off the countable union of
finite-volume eigenvalue sets, and a pole guard rejects evaluation points
whose cascade denominators fall below tolerance.  Sweep drivers are expected
to catch PoleProximityError and skip the offending grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingSequence
from .hierarchy import Truncation
from .operators import potential_values

POLE_TOL = 1e-12


class PoleProximityError(ArithmeticError):
    """The evaluation point is too close to a finite-volume eigenvalue."""

    def __init__(self, level: int, z: complex):
        self.level = level
        self.z = z
        super().__init__(
            f"cascade denominator below {POLE_TOL:g} at level {level} for z={z}"
        )


@dataclass(frozen=True)
class GreenCascade:
    """Per-level cluster-average resolvent data at one evaluation point.

    ``levels[s]`` packs the per-cluster solves (H_s - z)^{-1} phi_Q, each
    supported on its own rank-s cluster; ``alphas[s]`` holds the quadratic
    forms <phi_Q, (H_s - z)^{-1} phi_Q>.  Immutable; queries are pure.
    """

    trunc: Truncation
    coupling: CouplingSequence
    omega: np.ndarray
    z: complex
    depth: int
    levels: tuple[np.ndarray, ...]
    alphas: tuple[np.ndarray, ...]

    def g(self, s: int, x: int) -> complex:
        """Cluster-averaged resolvent g_s(x) = levels[s][x] / sqrt(N_s)."""
        return self.levels[s][x] / math.sqrt(self.trunc.sizes[s])


def build_cascade(
    t: Truncation,
    seq: CouplingSequence,
    omega,
    z: complex,
    r: int | None = None,
) -> GreenCascade:
    """Run the per-cluster rank-one recursion up to level r (default: depth)."""
    if r is None:
        r = t.depth
    if not 0 <= r <= t.depth:
        raise ValueError(f"rank {r} out of range [0, {t.depth}]")
    values = potential_values(t, omega)
    z = complex(z)

    denom0 = values - z
    if np.abs(denom0).min() < POLE_TOL:
        raise PoleProximityError(0, z)
    v = 1.0 / denom0
    levels = [v]
    alphas = [v]
    for s in range(1, r + 1):
        p_s = seq.p(s)
        n_s = t.factor(s)
        beta = alphas[-1].reshape(-1, n_s).mean(axis=1)
        denom = 1.0 + p_s * beta
        if np.abs(denom).min() < POLE_TOL:
            raise PoleProximityError(s, z)
        alphas.append(beta / denom)
        levels.append(levels[-1] / (math.sqrt(n_s) * np.repeat(denom, t.sizes[s])))
    return GreenCascade(
        t, seq, values, z, r, tuple(levels), tuple(alphas)
    )


@dataclass(frozen=True)
class GreenQueryResult:
    """One resolvent entry together with its audit trail of level terms."""

    value: complex
    terms: tuple[complex, ...]
    first_level: int

    def check_sum(self, g0: complex) -> complex:
        return g0 - sum(self.terms)


def green_entry(c: GreenCascade, x: int, y: int, r: int) -> GreenQueryResult:
    """Resolvent entry G_r(x, y; z) via the level expansion; O(r) per query."""
    t = c.trunc
    if not 0 <= r <= c.depth:
        raise ValueError(f"rank {r} exceeds cascade depth {c.depth}")
    d = t.distance(x, y)
    g0 = 1.0 / (c.omega[x] - c.z) if x == y else 0.0
    first = max(1, d)
    terms = tuple(
        c.coupling.p(s) * t.sizes[s - 1] * c.g(s - 1, x) * c.g(s, y)
        for s in range(first, r + 1)
    )
    return GreenQueryResult(g0 - sum(terms), terms, first)


def green_column(c: GreenCascade, x: int, r: int) -> tuple[np.ndarray, float]:
    """Full column G_r(x, . ; z) and its squared norm S = sum_y |G_r(x,y)|^2.

    The level-s contribution is constant-rank data on the rank-s cluster of
    x, so the column costs O(N_r) and vanishes identically off that cluster.
    """
    t = c.trunc
    if not 0 <= r <= c.depth:
        raise ValueError(f"rank {r} exceeds cascade depth {c.depth}")
    t._check_site(x)
    col = np.zeros(t.site_count, dtype=complex)
    col[x] = 1.0 / (c.omega[x] - c.z)
    for s in range(1, r + 1):
        n_s = t.sizes[s]
        lo = (x // n_s) * n_s
        coeff = c.coupling.p(s) * t.sizes[s - 1] * c.g(s - 1, x) / math.sqrt(n_s)
        col[lo : lo + n_s] -= coeff * c.levels[s][lo : lo + n_s]
    moment = float(np.sum(np.abs(col) ** 2))
    return col, moment


def moment_ladder(
    t: Truncation,
    seq: CouplingSequence,
    omega,
    e: float,
    ranks,
    x: int = 0,
) -> list[float]:
    """Squared resolvent-column norms S_r(e) = ||(H_r - e)^{-1} delta_x||^2.

    One cascade at the real energy e serves the whole rank ladder; the
    supremum over r bounds the second spectral moment that certifies
    localization.  Raises PoleProximityError when e is too close to the
    finite-volume spectrum.
    """
    ranks = list(ranks)
    if not ranks:
        return []
    cascade = build_cascade(t, seq, omega, complex(e), max(ranks))
    return [green_column(cascade, x, r)[1] for r in ranks]


# ---------------------------------------------------------------------------
# vectorized sweeps over energy grids (shared by the diagnostics module)
# ---------------------------------------------------------------------------


def _sweep_chunk(t, seq, values, z, x, r_max, want_column, top_rank):
    """Cascade over a chunk of energies at once; invalid points are masked."""
    n_e = z.shape[0]
    n = t.site_count
    ok = np.ones(n_e, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom0 = values[None, :] - z[:, None]
        ok &= np.abs(denom0).min(axis=1) >= POLE_TOL
        v = 1.0 / denom0
        alpha = v
        moments = None
        col = None
        g_x = v[:, x].copy()
        if want_column:
            moments = np.empty((r_max + 1, n_e))
            col = np.zeros((n_e, n), dtype=complex)
            col[:, x] = v[:, x]
            moments[0] = np.abs(col[:, x]) ** 2
        for s in range(1, r_max + 1):
            p_s = seq.p(s)
            n_s = t.sizes[s]
            beta = alpha.reshape(n_e, -1, t.factor(s)).mean(axis=2)
            denom = 1.0 + p_s * beta
            ok &= np.abs(denom).min(axis=1) >= POLE_TOL
            alpha = beta / denom
            v = v / (math.sqrt(t.factor(s)) * np.repeat(denom, n_s, axis=1))
            if want_column:
                lo = (x // n_s) * n_s
                coeff = p_s * t.sizes[s - 1] / math.sqrt(n_s)
                col[:, lo : lo + n_s] -= (
                    coeff * g_x[:, None] * v[:, lo : lo + n_s]
                )
                moments[s] = np.sum(np.abs(col) ** 2, axis=1)
            g_x = v[:, x] / math.sqrt(n_s)
        if want_column:
            return moments, ok
        lo = (x // t.sizes[top_rank]) * t.sizes[top_rank]
        hi = lo + t.sizes[top_rank]
        norm2 = t.sizes[top_rank] * np.sum(np.abs(v[:, lo:hi]) ** 2, axis=1)
        return norm2, ok


def moment_ladder_sweep(
    t: Truncation,
    seq: CouplingSequence,
    omega,
    energies: np.ndarray,
    r_max: int,
    x: int = 0,
    chunk: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """S_r(e) for r = 0..r_max over a grid of real energies.

    Returns (moments, ok) with moments of shape (r_max+1, len(energies)); grid
    points within pole tolerance of the finite-volume spectrum are flagged
    False in ok and their moments are not meaningful.
    """
    if not 0 <= r_max <= t.depth:
        raise ValueError(f"rank {r_max} out of range [0, {t.depth}]")
    t._check_site(x)
    values = potential_values(t, omega)
    energies = np.asarray(energies, dtype=float)
    moments = np.empty((r_max + 1, energies.size))
    ok = np.empty(energies.size, dtype=bool)
    for lo in range(0, energies.size, chunk):
        z = energies[lo : lo + chunk].astype(complex)
        m, good = _sweep_chunk(t, seq, values, z, x, r_max, True, r_max)
        moments[:, lo : lo + z.size] = m
        ok[lo : lo + z.size] = good
    return moments, ok


def cluster_norm_sweep(
    t: Truncation,
    seq: CouplingSequence,
    omega,
    energies: np.ndarray,
    r: int,
    x: int = 0,
    chunk: int = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """||(H_r - e)^{-1} 1_{Q_r(x)}||^2 over a grid of real energies.

    The indicator solve is sqrt(N_r) times the cascade's phi solve, so the
    squared norm is N_r times the squared norm of the stored level vector.
    """
    if not 0 <= r <= t.depth:
        raise ValueError(f"rank {r} out of range [0, {t.depth}]")
    t._check_site(x)
    values = potential_values(t, omega)
    energies = np.asarray(energies, dtype=float)
    norm2 = np.empty(energies.size)
    ok = np.empty(energies.size, dtype=bool)
    for lo in range(0, energies.size, chunk):
        z = energies[lo : lo + chunk].astype(complex)
        n, good = _sweep_chunk(t, seq, values, z, x, r, False, r)
        norm2[lo : lo + z.size] = n
        ok[lo : lo + z.size] = good
    return norm2, ok
