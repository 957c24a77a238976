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

The energy sweeps need only squared norms at real energies, which depend on
the query's cluster Q_r(x) alone; they run there and carry squared cluster
norms up the tree instead of level vectors: O(N_r + r^2) float64 work per
energy (see _sweep).  They share the cascade's level kernel (_levels), and
their pole guard covers the clusters of Q_r(x) only.

Real energies are admitted: the resolvent exists off the countable union of
finite-volume eigenvalue sets, and a pole guard rejects evaluation points
whose cascade denominators fall below tolerance.  Sweep drivers are expected
to catch PoleProximityError and skip the offending grid point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .coupling import CouplingSequence
from .hierarchy import Truncation
from .operators import cluster_cut, potential_values

POLE_TOL = 1e-12
# largest residual ||(H_r - e) psi|| / ||psi|| at which eigenvector_iprs trusts
# a kernel vector psi at an eigenvalue e; tied spectra exceed it by far
# (0.85 and more under Bernoulli disorder at N = 1024), continuous disorder
# stays below 7e-9 there
EIGEN_RESIDUAL_TOL = 1e-8
# largest share of another eigenvector that an eigenvalue's rounding may leave
# in a kernel vector (_mixing) before eigenvector_iprs repairs it
MIXING_TOL = 1e-10
# energies x sites per sweep chunk; the chunk's workspace (_levels) holds
# 4 / n_1 + 1 / (n_1 n_2) times as many doubles, 2.25 at degree 2 (W4 adds
# 1 / n_1 + 1 / (n_1 n_2), 0.75 at degree 2)
SWEEP_CELLS = 2**17


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


def _buffer(work, key, shape, dtype=float):
    """A C-contiguous array of the given 2-D shape on the flat workspace buffer
    under key.  The buffer is made at the first request, which must be the
    largest: the level kernel asks for each key first at its widest level, and
    a sweep's first chunk is its widest.  The caller owns work, so no two calls
    share a buffer."""
    size = shape[0] * shape[1]
    if key not in work:
        work[key] = np.empty(size, dtype)
    return work[key][:size].reshape(shape)


def _child_sums(a, n, out):
    """Sums over each run of n consecutive entries of the last axis, the
    children of a cluster, in child order, written into out."""
    np.add(a[..., 0::n], a[..., 1::n], out=out)
    for j in range(2, n):
        np.add(out, a[..., j::n], out=out)
    return out


def _level0_ok(values, z, work):
    """The level-0 pole guard: min over the sites of |values - z| >= POLE_TOL,
    per point of z.  Float subtraction is monotone, and |fl(V - z)| =
    hypot(fl(V - Re z), Im z) grows with |fl(V - Re z)|, so the least is at one
    of Re z's two neighbours in the sorted potential, which is kept in work for
    a sweep's later chunks: O((N + len(z)) log N) in all."""
    if "sorted" not in work:
        work["sorted"] = np.sort(values)
    v = work["sorted"]
    i = np.searchsorted(v, z.real)
    below = np.abs(v[np.maximum(i - 1, 0)] - z)
    above = np.abs(v[np.minimum(i, v.size - 1)] - z)
    return np.minimum(below, above) >= POLE_TOL


def _children(t, values, z, s, work, below, powers):
    """Level s's sums over each cluster's children, written into level s's
    buffers of work (_levels): alpha, the sum of the children's alpha, and
    sums, the first powers of the sums of the children's W and W4, arrays of
    shape (len(z), rank-s clusters).  Returns (alpha, sums).

    below is level s-1's (alpha, sums), summed in child order (_child_sums).
    At s = 1 it is unused, and level 0 is folded in instead: alpha_0 =
    1 / (values - z), W_0 = alpha_0^2 and W4_0 = W_0^2 are formed one child
    slot at a time, in the other alpha buffer, and summed in child order, so
    no array spans the sites.  The caller sets np.errstate.
    """
    n_s = t.factor(s)
    shape = (z.size, t.site_count // t.sizes[s])
    alpha = _buffer(work, ("alpha", s % 2), shape, np.result_type(values, z))
    sums = tuple(_buffer(work, (key, s % 2), shape) for key in ("W", "W4")[:powers])
    if s == 1:  # alpha_0, W_0 = alpha_0^2 and W4_0 = W_0^2 of child slot j
        scratch = _buffer(work, ("alpha", 0), shape, alpha.dtype)
        for j in range(n_s):
            a_0 = scratch if j else alpha
            np.divide(1.0, np.subtract(values[j::n_s], z[:, None], out=a_0), out=a_0)
            if j:
                np.add(alpha, a_0, out=alpha)
            for w, base in zip(sums, (a_0, *sums)):
                if j:  # a_0 becomes alpha_0^2, then alpha_0^4
                    np.add(w, np.square(a_0, out=a_0), out=w)
                else:  # W_0 from a_0, then W4_0 from W_0
                    np.square(base, out=w)
    else:  # below holds level s-1's alpha and sums
        _child_sums(below[0], n_s, alpha)
        for w, child_w in zip(sums, below[1]):
            _child_sums(child_w, n_s, w)
    return alpha, sums


def _levels(t, seq, values, z, r, work, ok, powers=0):
    """The alpha/beta recursion over a 1-D array z of evaluation points.

    Yields (denom, alpha, sums) for s = 1..r, arrays of shape (len(z), rank-s
    clusters): denom = 1 + p_s beta with beta the children's mean alpha, and
    alpha = beta / denom.  Each level starts from its child sums (_children,
    which folds level 0 into level 1) and closes them here.  sums holds the
    first powers (0, 1 or 2) of: W_s, the squared norms of the level vectors
    over the rank-s clusters (see _sweep), then W4_s, their sums of fourth
    powers, W4_s(Q) = F_s(Q)^4 sum_{children Q'} W4_{s-1}(Q') from
    W4_0 = v_0^4 (see _ipr_sweep), formed from the squares of W_s.  ok is the
    level-0 mask (_level0_ok), cut in place from the first level with |denom|
    below POLE_TOL, past which alpha is not meaningful.  The dtype follows z.

    Two levels are live at a time: alpha and each of sums alternate between
    two buffers of the workspace dict work (by s mod 2), and every level shares
    one denom buffer.  The other alpha buffer, dead once its children are
    summed, is the level's scratch (alpha_0 of a child slot, |denom|, F_s,
    F_s^2, then F_s^4).  So a yielded denom and alpha hold until the next level
    is formed, and sums until the one after it.
    """
    level = None
    for s in range(1, r + 1):
        n_s = t.factor(s)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            alpha, sums = level = _children(t, values, z, s, work, level, powers)
            scratch = _buffer(work, ("alpha", 1 - s % 2), alpha.shape, alpha.dtype)
            denom = _buffer(work, "denom", alpha.shape, alpha.dtype)
            beta = np.divide(alpha, n_s, out=alpha)  # alpha holds sums, beta, then alpha
            np.add(1.0, np.multiply(seq.p(s), beta, out=denom), out=denom)
            ok &= np.abs(denom, out=scratch.real).min(axis=1) >= POLE_TOL
            np.divide(beta, denom, out=alpha)
            if sums:
                f = np.multiply(math.sqrt(n_s), denom, out=scratch)
                f = np.divide(1.0, f, out=f)  # F_s = 1 / (sqrt(n_s) d_s)
            for w in sums:  # W_s = F_s^2, W4_s = F_s^4 times the children's
                np.multiply(w, np.square(f, out=f), out=w)
        yield denom, alpha, sums


def build_cascade(
    t: Truncation,
    seq: CouplingSequence,
    omega,
    z: complex,
    r: int | None = None,
) -> GreenCascade:
    """Run the per-cluster rank-one recursion up to level r (default: depth).

    At a real z the cascade is real (float64), as in the energy sweeps.
    """
    if r is None:
        r = t.depth
    t.check_rank(r)
    values = potential_values(t, omega)
    z = complex(z)
    point = np.array([z.real if z.imag == 0.0 else z])
    work = {}
    ok = _level0_ok(values, point, work)
    if not ok[0]:
        raise PoleProximityError(0, z)
    v_0 = 1.0 / (values - point[0])
    levels, alphas = [v_0], [v_0]
    for s, (denom, alpha, _) in enumerate(_levels(t, seq, values, point, r, work, ok), 1):
        if not ok[0]:
            raise PoleProximityError(s, z)
        alphas.append(alpha[0].copy())
        # v_s = v_{s-1} / (sqrt(n_s) d_s) on each rank-s cluster
        scale = math.sqrt(t.factor(s)) * np.repeat(denom[0], t.sizes[s])
        levels.append(levels[-1] / scale)
    return GreenCascade(t, seq, values, z, r, tuple(levels), tuple(alphas))


@dataclass(frozen=True)
class GreenQueryResult:
    """One resolvent entry together with its audit trail of level terms."""

    value: complex
    terms: tuple[complex, ...]
    first_level: int


def _level_term(c: GreenCascade, x: int, s: int, sites: range) -> np.ndarray:
    """The level-s term p_s N_{s-1} g_{s-1}(x) g_s(y) of G(x, y) over a range
    of sites y, which lie in the rank-s cluster of x."""
    t = c.trunc
    coeff = c.coupling.p(s) * t.sizes[s - 1] * c.g(s - 1, x) / math.sqrt(t.sizes[s])
    return coeff * c.levels[s][sites.start : sites.stop]


def green_entry(c: GreenCascade, x: int, y: int, r: int) -> GreenQueryResult:
    """Resolvent entry G_r(x, y; z), green_column's row y, in O(r) time."""
    t = c.trunc
    if not 0 <= r <= c.depth:
        raise ValueError(f"rank {r} exceeds cascade depth {c.depth}")
    d = t.distance(x, y)
    g0 = 1.0 / (c.omega[x] - c.z) if x == y else 0.0
    first = max(1, d)
    terms = tuple(_level_term(c, x, s, range(y, y + 1))[0] for s in range(first, r + 1))
    return GreenQueryResult(reduce(operator.sub, terms, g0), terms, first)


def green_column(c: GreenCascade, x: int, r: int) -> tuple[np.ndarray, float]:
    """Full column G_r(x, . ; z) and its squared norm S = sum_y |G_r(x,y)|^2.

    The level-s contribution is constant-rank data on the rank-s cluster of
    x, so the column costs O(N_r) and vanishes identically off that cluster.
    """
    t = c.trunc
    if not 0 <= r <= c.depth:
        raise ValueError(f"rank {r} exceeds cascade depth {c.depth}")
    t.check_site(x)
    col = np.zeros(t.site_count, dtype=complex)
    col[x] = 1.0 / (c.omega[x] - c.z)
    for s in range(1, r + 1):
        cluster = t.cluster_sites(x, s)
        col[cluster.start : cluster.stop] -= _level_term(c, x, s, cluster)
    moment = float(np.sum(np.abs(col) ** 2))
    return col, moment


# ---------------------------------------------------------------------------
# vectorized sweeps over energy grids (shared by the diagnostics module)
# ---------------------------------------------------------------------------


def _sweep(t, seq, values, energies, x, r, work):
    """Moment ladder S_0..S_r(e) and pole mask over real energies.

    t is the rank-r cluster Q_r(x) itself (see _sweep_grid), so the level
    kernel's denominators d_s and pole mask cover its clusters only; no level
    vectors are carried.  With F_s(Q) = 1/(sqrt(n_s) d_s(Q)) the level vectors
    obey v_s(y) = F_s(Q_s(y)) v_{s-1}(y), so their squared norms over clusters,

        W_0(y) = v_0(y)^2,    W_s(Q) = F_s(Q)^2 sum_{children Q'} W_{s-1}(Q'),

    go up the tree and give the cluster norm N_r W_r(Q_r(x)) (_norm_sweep runs
    this recursion alone).
    On the shell d(x, y) = s the column is G_r(x, y) = -A_{r,s} v_{s-1}(y)
    with A_{r,s} = sum_{s'=s..r} b_{s'} prod_{s''=s..s'} F_{s''}(Q_{s''}(x))
    and b_s = p_s N_{s-1} g_{s-1}(x) / sqrt(N_s), hence

        S_r = G_r(x, x)^2 + sum_{s=1..r} A_{r,s}^2 shell_s,

    where shell_s sums W_{s-1} over the children of Q_s(x) other than
    Q_{s-1}(x).  Both results are sums of non-negative terms; the only signed
    sums are G_r(x, x) and A_{r,s}, the level sums the column path forms entry
    by entry.  Cost per energy is O(N_r + r^2) in float64.  Returns
    (moments, ok); entries where ok is False are not meaningful.
    """
    n_e = energies.size
    sizes = t.sizes
    moments = np.empty((r + 1, n_e))
    shells = np.empty((r, n_e))
    amps = np.zeros((r, n_e))  # amps[s-1] = A_{s',s} at the current rank s'
    spans = np.empty((r, n_e))  # spans[s-1] = prod_{s''=s..s'} F_{s''}(Q_{s''}(x))
    ok = _level0_ok(values, energies, work)
    levels = _levels(t, seq, values, energies, r, work, ok, powers=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v_x = 1.0 / (values[x] - energies)  # v_s(x), the level vector at x
        g_xx = v_x.copy()  # G_s(x, x)
        moments[0] = g_xx**2
        for s, (denom, _, (w_s,)) in enumerate(levels, start=1):
            n_s = t.factor(s)
            parent = x // sizes[s]
            child = x // sizes[s - 1] % n_s
            kids = slice(parent * n_s, (parent + 1) * n_s)
            if s == 1:  # W_0 is not kept: its values on Q_1(x) from the potential
                block = np.square(1.0 / (values[kids] - energies[:, None]))
            else:
                block = w[:, kids]  # W_{s-1}, still live
            shells[s - 1] = np.delete(block, child, axis=1).sum(axis=1)
            w = w_s
            d_q = denom[:, parent]  # d_s(Q_s(x)); the next level overwrites denom
            f_q = 1.0 / (math.sqrt(n_s) * d_q)  # F_s(Q_s(x)), as the kernel rounds it
            p_s = seq.p(s)
            b = p_s * sizes[s - 1] / math.sqrt(sizes[s]) * (v_x / math.sqrt(sizes[s - 1]))
            # divide as build_cascade does, so G_s(x, x) rounds like the column
            v_x = v_x / (math.sqrt(n_s) * d_q)
            g_xx = g_xx - b * v_x
            spans[s - 1] = 1.0
            spans[:s] *= f_q
            amps[:s] += b * spans[:s]
            moments[s] = g_xx**2 + np.sum(amps[:s] ** 2 * shells[:s], axis=0)
    return moments, ok


def _norm_sweep(t, seq, values, energies, x, r, work):
    """Cluster norm N_r W_r(Q_r(x)) and pole mask over real energies: the W_s
    recursion of _sweep alone, without shells, amplitudes or moments."""
    ok = _level0_ok(values, energies, work)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = np.square(1.0 / (values[x] - energies))[:, None]  # W_0(x), the answer at r = 0
    for _, _, (w,) in _levels(t, seq, values, energies, r, work, ok, powers=1):
        pass
    return t.sizes[r] * w[:, 0], ok


def _ipr_sweep(t, seq, values, energies, x, r, work):
    """IPRs and residuals of the vectors psi = (H_{r-1} - e)^{-1} phi_Q on the
    rank-r cluster Q over real energies e, with pole mask; r >= 1.

    Where 1 + p_r beta_r(e) = 0, e is an eigenvalue of H_r on Q and psi an
    eigenvector.  On each child C of Q, psi is the level vector v_{r-1} over
    sqrt(n_r), so with W_s and W4_s the sums of v_s^2 and v_s^4 over the rank-s
    clusters (_levels),

        IPR = sum_y psi(y)^4 / (sum_y psi(y)^2)^2 = sum_C W4_{r-1}(C) / (sum_C W_{r-1}(C))^2.

    (H_r - e) psi = (H_{r-1} - e) psi + p_r phi_Q <phi_Q, psi> = d_r phi_Q exactly,
    with d_r = 1 + p_r beta_r, so the residual ||(H_r - e) psi|| / ||psi|| is
    |d_r| / ||psi||, with ||psi||^2 = sum_C W_{r-1}(C) / n_r.  The kernel runs
    to level r - 1, and level r's sums over the children C (of alpha, W and
    W4) come from _children, as each lower level's do, in child order; at
    r = 1 that folds level 0 in.  Level r is not closed: the pole mask covers
    the levels below r only, where d_r is meant to vanish.  x is unused: the
    vectors span Q.  Returns (iprs, residuals, norms, ok), norms = ||psi||.
    """
    n_r = t.factor(r)
    ok = _level0_ok(values, energies, work)
    level = None  # at r = 1, level 0 is folded into level r
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _, *level in _levels(t, seq, values, energies, r - 1, work, ok, powers=2):
            pass
        alpha, (w, w4) = _children(t, values, energies, r, work, level, 2)
        denom = 1.0 + seq.p(r) * (alpha[:, 0] / n_r)
        norm2 = w[:, 0]
        iprs = w4[:, 0] / np.square(norm2)
        norms = np.sqrt(norm2 / n_r)
        residuals = np.abs(denom) / norms
    return iprs, residuals, norms, ok


def _sweep_grid(sweep, cut, seq, energies, r):
    """sweep (_sweep, _norm_sweep or _ipr_sweep) over real energies on cut, the
    (lattice, potential, site) of Q_r(x) that operators.cluster_cut gives, in
    chunks of SWEEP_CELLS // N_r energies that share one workspace; each output
    is joined along its energy axis."""
    q, values, x_q = cut
    energies = np.asarray(energies, dtype=float)
    chunk, work = max(1, SWEEP_CELLS // q.site_count), {}
    parts = [
        sweep(q, seq, values, energies[lo : lo + chunk], x_q, r, work)
        for lo in range(0, max(energies.size, 1), chunk)
    ]
    work.clear()  # free the workspace before the outputs are joined
    return tuple(np.concatenate(out, axis=-1) for out in zip(*parts))


def moment_ladder_sweep(
    t: Truncation,
    seq: CouplingSequence,
    omega,
    energies: np.ndarray,
    r_max: int,
    x: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """S_r(e) for r = 0..r_max over a grid of real energies.

    Returns (moments, ok) with moments of shape (r_max+1, len(energies)); grid
    points within pole tolerance of the finite-volume spectrum are flagged
    False in ok and their moments are not meaningful.
    """
    return _sweep_grid(_sweep, cluster_cut(t, omega, r_max, x), seq, energies, r_max)


def cluster_norm_sweep(
    t: Truncation,
    seq: CouplingSequence,
    omega,
    energies: np.ndarray,
    r: int,
    x: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """||(H_r - e)^{-1} 1_{Q_r(x)}||^2 over a grid of real energies.

    The indicator solve is sqrt(N_r) times the cascade's phi solve, so the
    squared norm is N_r times the squared norm of the rank-r level vector.
    """
    return _sweep_grid(_norm_sweep, cluster_cut(t, omega, r, x), seq, energies, r)


def eigenvector_iprs(
    q: Truncation, seq: CouplingSequence, values: np.ndarray, eigenvalues: np.ndarray
) -> np.ndarray | None:
    """IPRs of the eigenvectors of H_r on a rank-r cluster at its ascending
    eigenvalues, given the cluster's cut (operators.cluster_cut): its lattice
    q, of depth r, and the potential values on it.  They come from the kernel
    vectors psi = (H_{r-1} - e)^{-1} phi_Q (_ipr_sweep), with no eigenvector
    matrix; or None where the draw needs a dense eigh.

    The kernel must vouch for every vector: no eigenvalue within the pole
    guard of a level below r, every IPR finite, and every residual
    ||(H_r - e) psi|| / ||psi|| at most EIGEN_RESIDUAL_TOL.  Tied spectra
    (Bernoulli disorder, no disorder) fail this, as a degenerate eigenspace has
    no vector of the rank-one form.  A float64 eigenvalue is off by about
    u = eps max|e|, which mixes other eigenvectors into its kernel vector
    (_mixing); each vector mixed by more than MIXING_TOL is repaired by one
    step of inverse iteration (_inverse_iteration_ipr), which cuts the share
    of u_j by u / (|e_j - e_i| - u).  The draw is declined where one step
    cannot bring a share below MIXING_TOL.  At rank 0 the vector is a point
    mass.
    """
    r = q.depth
    if r == 0:
        return np.ones(len(eigenvalues))
    iprs, residuals, norms, ok = _sweep_grid(_ipr_sweep, (q, values, 0), seq, eigenvalues, r)
    if not (ok.all() and np.isfinite(iprs).all() and (residuals <= EIGEN_RESIDUAL_TOL).all()):
        return None
    unit = np.finfo(float).eps * np.abs(eigenvalues).max()
    mixing = _mixing(eigenvalues, norms, unit)
    mixed = np.flatnonzero(mixing > MIXING_TOL)
    gaps = np.diff(eigenvalues)
    nearest = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))[mixed]
    repairable = mixing[mixed] * unit <= MIXING_TOL * (nearest - unit)
    if not repairable.all():
        return None
    for k in mixed.tolist():
        iprs[k] = _inverse_iteration_ipr(q, seq, values, eigenvalues[k], r)
    return iprs if np.isfinite(iprs).all() else None


def _mixing(eigenvalues, norms, unit):
    """Per eigenvalue e_i, the largest share of another eigenvector u_j that an
    error of unit in e_i puts into its kernel vector psi_i.

    The kernel vector at e_i + unit is proportional to (H_r - e_i - unit)^{-1}
    phi_Q, whose u_j component relative to its u_i one is
    unit <u_j, phi_Q> / (<u_i, phi_Q> (e_j - e_i)) to first order, and
    <u_k, phi_Q> = -1 / (p_r ||psi_k||) at each eigenvalue; so the share is
    unit ||psi_i|| / (||psi_j|| |e_j - e_i|).  Near-tied eigenvalues whose
    vectors hybridize give large shares.  O(N_r^2), in panels of rows.
    """
    n = eigenvalues.size
    rows = max(1, SWEEP_CELLS // n)
    closest = np.empty(n)  # min over j != i of ||psi_j|| |e_j - e_i|
    for lo in range(0, n, rows):
        panel = np.abs(eigenvalues[lo : lo + rows, None] - eigenvalues) * norms
        k = np.arange(panel.shape[0])
        panel[k, lo + k] = np.inf
        closest[lo : lo + rows] = panel.min(axis=1, initial=np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        return unit * norms / closest


def _inverse_iteration_ipr(t, seq, values, e, r):
    """IPR of x = (H_r - e)^{-1} psi on the rank-r lattice t: one step of
    inverse iteration from the kernel vector psi = (H_{r-1} - e)^{-1} phi_Q
    (_ipr_sweep), r >= 1, in O(N_r r) with no dense matrix.

    Starting from x = (H_0 - e)^{-1} psi, each level applies the
    Sherman-Morrison update (H_s - e)^{-1} = G - p_s sum_C G phi_C
    phi_C^T G / d_s(C) with G = (H_{s-1} - e)^{-1}, over the rank-s clusters
    C, where G phi_C is the cascade's level vector on C over sqrt(n_s).  At an
    eigenvalue e_i of H_r, d_r(Q) is nearly 0, and the step cuts the share of
    each other eigenvector u_j in psi by about |e - e_i| / |e - e_j|.
    """
    c = build_cascade(t, seq, values, e, r - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = c.levels[r - 1] / (values - e)
        for s in range(1, r + 1):
            n_s, size = t.factor(s), t.sizes[s]
            proj = x.reshape(-1, size).sum(axis=1) / math.sqrt(size)  # <phi_C, x>
            # d_s as _levels forms it, from the children's alpha in child order
            denom = 1.0 + seq.p(s) * (_child_sums(c.alphas[s - 1], n_s, np.empty_like(proj)) / n_s)
            x = x - seq.p(s) / math.sqrt(n_s) * c.levels[s - 1] * np.repeat(proj / denom, size)
        x = np.square(x / np.abs(x).max())  # scaled: |x| grows as 1 / |e - e_i|
        return float(np.sum(np.square(x)) / np.sum(x) ** 2)
