"""The per-level buffer kernel of the resolvent sweeps, kept as the bit-for-bit
reference for hieram.greens.

It keeps one set of buffers for every level and forms level 0 as (energies x
sites) arrays.  hieram.greens folds level 0 into level 1 and keeps buffers
for two levels only, in the same arithmetic in the same order, so every array
below must equal its counterpart there bit for bit (test_level_kernel.py).
Every sum over a cluster's children runs in child order, at the top level of
the IPR sweep and in its inverse-iteration repair too.
"""

import math

import numpy as np

from hieram.greens import POLE_TOL, PoleProximityError
from hieram.operators import potential_values


def _buffer(work, key, shape, dtype=float):
    """The workspace array under key, cut to shape[0] rows.  It is made at the
    first request, which must be the largest: a sweep's first chunk is its
    widest.  The caller owns work, so no two calls share a buffer."""
    if key not in work:
        work[key] = np.empty(shape, dtype)
    return work[key][: shape[0]]


def _child_sums(a, n, out):
    """Sums over each run of n consecutive entries of the last axis, the
    children of a cluster, in child order, written into out."""
    np.copyto(out, a[..., 0::n])
    for j in range(1, n):
        np.add(out, a[..., j::n], out=out)
    return out


def _levels(t, seq, values, z, r, work):
    """The alpha/beta recursion over a 1-D array z of evaluation points.

    Yields (denom, alpha, ok) for s = 0..r, arrays of shape (len(z), rank-s
    clusters): denom = values - z at s = 0, else 1 + p_s beta with beta the
    children's mean alpha; alpha = beta / denom (beta = 1 at s = 0).  ok is
    the running pole mask, False from the first level with |denom| below
    POLE_TOL, past which alpha is not meaningful.  The dtype follows z.
    denom and alpha are per-level buffers of the workspace dict work.
    """
    ok = np.ones(z.size, dtype=bool)
    dtype = np.result_type(values, z)
    for s in range(r + 1):
        shape = (z.size, t.site_count // t.sizes[s])
        denom = _buffer(work, ("denom", s), shape, dtype)
        mag = _buffer(work, ("|denom|", s), shape)
        alpha_s = _buffer(work, ("alpha", s), shape, dtype)  # beta, then alpha
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if s:
                n_s = t.factor(s)
                beta = np.divide(_child_sums(alpha, n_s, alpha_s), n_s, out=alpha_s)
                np.add(1.0, np.multiply(seq.p(s), beta, out=denom), out=denom)
            else:
                beta = 1.0
                np.subtract(values[None, :], z[:, None], out=denom)
            ok &= np.abs(denom, out=mag).min(axis=1) >= POLE_TOL
            alpha = np.divide(beta, denom, out=alpha_s)
        yield denom, alpha, ok


def cascade(t, seq, omega, z, r):
    """build_cascade's (levels, alphas) at the point z, up to level r."""
    values = potential_values(t, omega)
    z = complex(z)
    point = np.array([z.real if z.imag == 0.0 else z])
    levels, alphas = [], []
    for s, (denom, alpha, ok) in enumerate(_levels(t, seq, values, point, r, {})):
        if not ok[0]:
            raise PoleProximityError(s, z)
        alphas.append(alpha[0])
        if s:  # v_s = v_{s-1} / (sqrt(n_s) d_s) on each rank-s cluster
            scale = math.sqrt(t.factor(s)) * np.repeat(denom[0], t.sizes[s])
            levels.append(levels[-1] / scale)
        else:
            levels.append(alpha[0])
    return levels, alphas


def _cluster_step(t, w, denom, s, work):
    """W_s from W_{s-1} over the rank-s clusters, and F_s there, both in
    buffers of work."""
    n_s = t.factor(s)
    f_q, f_sq, w_s = (_buffer(work, (name, s), denom.shape) for name in ("F", "F^2", "W"))
    np.divide(1.0, np.multiply(math.sqrt(n_s), denom, out=f_q), out=f_q)
    np.multiply(_child_sums(w, n_s, w_s), np.square(f_q, out=f_sq), out=w_s)
    return w_s, f_q


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
    levels = _levels(t, seq, values, energies, r, work)
    _, alpha, ok = next(levels)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v_x = alpha[:, x].copy()  # v_s(x), the level vector at x
        g_xx = v_x.copy()  # G_s(x, x)
        w = np.square(alpha, out=_buffer(work, ("W", 0), alpha.shape))  # W_s
        moments[0] = g_xx**2
        for s, (denom, _, ok) in enumerate(levels, start=1):
            n_s = t.factor(s)
            parent = x // sizes[s]
            child = x // sizes[s - 1] % n_s
            siblings = np.delete(w[:, parent * n_s : (parent + 1) * n_s], child, axis=1)
            shells[s - 1] = siblings.sum(axis=1)
            w, f_q = _cluster_step(t, w, denom, s, work)
            p_s = seq.p(s)
            b = p_s * sizes[s - 1] / math.sqrt(sizes[s]) * (v_x / math.sqrt(sizes[s - 1]))
            # divide as build_cascade does, so G_s(x, x) rounds like the column
            v_x = v_x / (math.sqrt(n_s) * denom[:, parent])
            g_xx = g_xx - b * v_x
            spans[s - 1] = 1.0
            spans[:s] *= f_q[:, parent]
            amps[:s] += b * spans[:s]
            moments[s] = g_xx**2 + np.sum(amps[:s] ** 2 * shells[:s], axis=0)
    return moments, ok


def _norm_sweep(t, seq, values, energies, x, r, work):
    """Cluster norm N_r W_r(Q_r(x)) and pole mask over real energies: the W_s
    recursion of _sweep alone, without shells, amplitudes or moments."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s, (denom, alpha, ok) in enumerate(_levels(t, seq, values, energies, r, work)):
            if s:
                w = _cluster_step(t, w, denom, s, work)[0]
            else:
                w = np.square(alpha, out=_buffer(work, ("W", 0), alpha.shape))
    return t.sizes[r] * w[:, 0], ok


def _fourth_step(t, w4, f_q, s, work):
    """W4_s from W4_{s-1} over the rank-s clusters, given F_s there
    (_cluster_step): F_s^4 = (F_s^2)^2 times the children's sum, in a buffer
    of work."""
    f_4, w4_s = (_buffer(work, (name, s), f_q.shape) for name in ("F^4", "W4"))
    np.square(np.square(f_q, out=f_4), out=f_4)
    np.multiply(_child_sums(w4, t.factor(s), w4_s), f_4, out=w4_s)
    return w4_s


def _powers(t, seq, values, z, r, work):
    """Yields (alpha, W, W4, ok) for s = 0..r: _levels' alpha and pole mask
    with W_s and W4_s, the sums of the level vectors' squares and fourth
    powers over the rank-s clusters, from W_0 = alpha_0^2 and W4_0 = W_0^2,
    each level's children summed in child order."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s, (denom, alpha, ok) in enumerate(_levels(t, seq, values, z, r, work)):
            if s:
                w, f_q = _cluster_step(t, w, denom, s, work)
                w4 = _fourth_step(t, w4, f_q, s, work)
            else:
                w = np.square(alpha, out=_buffer(work, ("W", 0), alpha.shape))
                w4 = np.square(w, out=_buffer(work, ("W4", 0), alpha.shape))
            yield alpha, w, w4, ok


def _ipr_sweep(t, seq, values, energies, x, r, work):
    """IPRs, residuals and norms of the kernel vectors on the rank-r cluster
    t, with the pole mask of the levels below r; r >= 1 and x unused, as in
    hieram.greens.  The children of the top level are summed in child order,
    as at every level below it."""
    for alpha, w, w4, ok in _powers(t, seq, values, energies, r - 1, work):
        pass
    n_r = t.factor(r)
    a, w, w4 = (_child_sums(v, n_r, np.empty((energies.size, 1))) for v in (alpha, w, w4))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = 1.0 + seq.p(r) * (a[:, 0] / n_r)
        norm2 = w[:, 0]
        iprs = w4[:, 0] / np.square(norm2)
        norms = np.sqrt(norm2 / n_r)
        residuals = np.abs(denom) / norms
    return iprs, residuals, norms, ok


def _inverse_iteration_ipr(t, seq, values, e, r):
    """The IPR of one step of inverse iteration from the kernel vector at e
    on the rank-r lattice t, as in hieram.greens, with each d_s formed from
    the cascade's alphas summed in child order."""
    levels, alphas = cascade(t, seq, values, e, r - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = levels[r - 1] / (values - e)
        for s in range(1, r + 1):
            n_s, size = t.factor(s), t.sizes[s]
            beta = _child_sums(alphas[s - 1], n_s, np.empty(t.site_count // size)) / n_s
            denom = 1.0 + seq.p(s) * beta
            proj = x.reshape(-1, size).sum(axis=1) / math.sqrt(size)
            x = x - seq.p(s) / math.sqrt(n_s) * levels[s - 1] * np.repeat(proj / denom, size)
        x = np.square(x / np.abs(x).max())
        return float(np.sum(np.square(x)) / np.sum(x) ** 2)
