"""Resolvent cascade for the hierarchical Anderson model.

Each averaging operator acts on a single cluster as the rank-one projection
onto the normalized indicator phi_Q, so the resolvent of the rank-s
Hamiltonian follows from the rank-(s-1) one by a Sherman-Morrison update per
cluster.  Tracking only the solves against phi_Q - one length-N array per
level plus one scalar per cluster - costs O(N * R) per evaluation point and
answers any resolvent entry, column, or squared-column-norm query afterwards
in O(r) to O(N_r) time via the level expansion

    G_r(x, y) = G_0(x, y) - sum_{s=d(x,y)}^{r} p_s N_{s-1} g_{s-1}(x) g_s(y),

where g_s(t) is the mean of G_s(. , t) over the rank-s cluster of t.

The energy sweeps need only squared norms at real energies, so they keep the
per-cluster scalars and carry squared cluster norms up the tree instead of
level vectors: O(N + R^2) float64 work per energy (see _sweep).

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


def _child_sums(a, n):
    """Sums over each run of n consecutive entries of the last axis, the
    children of a cluster, in child order (build_cascade and _sweep alike)."""
    total = a[..., 0::n]
    for j in range(1, n):
        total = total + a[..., j::n]
    return total


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
        beta = _child_sums(alphas[-1], n_s) / n_s
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


def _sweep(t, seq, values, energies, x, r):
    """Moment ladder S_0..S_r(e), cluster norm and pole mask over real energies.

    Runs the alpha/beta recursion of build_cascade over every cluster of
    levels 1..r (the pole guard), but carries no level vectors.  With
    F_s(Q) = 1/(sqrt(n_s) d_s(Q)) the level vectors obey
    v_s(y) = F_s(Q_s(y)) v_{s-1}(y), so their squared norms over clusters,

        W_0(y) = v_0(y)^2,    W_s(Q) = F_s(Q)^2 sum_{children Q'} W_{s-1}(Q'),

    go up the tree inside Q_r(x) and give the cluster norm N_r W_r(Q_r(x)).
    On the shell d(x, y) = s the column is G_r(x, y) = -A_{r,s} v_{s-1}(y)
    with A_{r,s} = sum_{s'=s..r} b_{s'} prod_{s''=s..s'} F_{s''}(Q_{s''}(x))
    and b_s = p_s N_{s-1} g_{s-1}(x) / sqrt(N_s), hence

        S_r = G_r(x, x)^2 + sum_{s=1..r} A_{r,s}^2 shell_s,

    where shell_s sums W_{s-1} over the children of Q_s(x) other than
    Q_{s-1}(x).  Both results are sums of non-negative terms; the only signed
    sums are G_r(x, x) and A_{r,s}, the level sums the column path forms entry
    by entry.  Cost per energy is O(N + r^2) in float64.  Returns
    (moments, norm2, ok); entries where ok is False are not meaningful.
    """
    n_e = energies.size
    sizes = t.sizes
    lo = (x // sizes[r]) * sizes[r]
    ok = np.ones(n_e, dtype=bool)
    moments = np.empty((r + 1, n_e))
    shells = np.empty((r, n_e))
    amps = np.zeros((r, n_e))  # amps[s-1] = A_{s',s} at the current rank s'
    spans = np.empty((r, n_e))  # spans[s-1] = prod_{s''=s..s'} F_{s''}(Q_{s''}(x))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom0 = values[None, :] - energies[:, None]
        ok &= np.abs(denom0).min(axis=1) >= POLE_TOL
        alpha = 1.0 / denom0
        v_x = alpha[:, x].copy()  # v_s(x), the level vector at x
        g_xx = v_x.copy()  # G_s(x, x)
        w = alpha[:, lo : lo + sizes[r]] ** 2  # W_s over the rank-s clusters of Q_r(x)
        moments[0] = g_xx**2
        for s in range(1, r + 1):
            p_s = seq.p(s)
            n_s = t.factor(s)
            beta = _child_sums(alpha, n_s) / n_s
            denom = 1.0 + p_s * beta
            ok &= np.abs(denom).min(axis=1) >= POLE_TOL
            alpha = beta / denom

            parent = (x - lo) // sizes[s]
            child = (x - lo) // sizes[s - 1] % n_s
            siblings = np.delete(w[:, parent * n_s : (parent + 1) * n_s], child, axis=1)
            shells[s - 1] = siblings.sum(axis=1)
            first = lo // sizes[s]
            f_q = 1.0 / (math.sqrt(n_s) * denom[:, first : first + w.shape[1] // n_s])
            w = _child_sums(w, n_s) * f_q**2

            b = p_s * sizes[s - 1] / math.sqrt(sizes[s]) * (v_x / math.sqrt(sizes[s - 1]))
            f_x = f_q[:, parent]
            # divide as build_cascade does, so G_s(x, x) rounds like the column
            v_x = v_x / (math.sqrt(n_s) * denom[:, x // sizes[s]])
            g_xx = g_xx - b * v_x
            spans[s - 1] = 1.0
            spans[:s] *= f_x
            amps[:s] += b * spans[:s]
            moments[s] = g_xx**2 + np.sum(amps[:s] ** 2 * shells[:s], axis=0)
    return moments, sizes[r] * w[:, 0], ok


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
        e = energies[lo : lo + chunk]
        moments[:, lo : lo + e.size], _, ok[lo : lo + e.size] = _sweep(
            t, seq, values, e, x, r_max
        )
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
    squared norm is N_r times the squared norm of the rank-r level vector.
    """
    if not 0 <= r <= t.depth:
        raise ValueError(f"rank {r} out of range [0, {t.depth}]")
    t._check_site(x)
    values = potential_values(t, omega)
    energies = np.asarray(energies, dtype=float)
    norm2 = np.empty(energies.size)
    ok = np.empty(energies.size, dtype=bool)
    for lo in range(0, energies.size, chunk):
        e = energies[lo : lo + chunk]
        _, norm2[lo : lo + e.size], ok[lo : lo + e.size] = _sweep(
            t, seq, values, e, x, r
        )
    return norm2, ok
