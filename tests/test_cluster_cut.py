"""Every per-site query is a computation on Q_r(x) alone.

H_r splits into one block per rank-r cluster, and every block has the
branching plan of ``t.cluster_lattice(r)``.  So each per-site call on the
whole lattice must equal, bit for bit, the same call on the cluster lattice
with the potential cut to Q_r(x) and the site made local.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hieram import (
    Bernoulli,
    Cauchy,
    ExplicitCoupling,
    Gaussian,
    GeometricCoupling,
    HierarchySpec,
    PolyGeometricCoupling,
    Truncation,
    Uniform,
    build_cascade,
    green_column,
    ipr_profile,
    sample_potential,
)
from hieram import greens, operators
from hieram.greens import cluster_norm_sweep, moment_ladder_sweep
from hieram.operators import compression_dense_block, cutoff_dense_block
from reference_operator import HierarchicalOperator, laplacian

COUPLINGS = [
    GeometricCoupling(4.0),
    GeometricCoupling(2.5),
    PolyGeometricCoupling(2, 0.5),
    ExplicitCoupling([0.5, 0.25], 0.25),
    ExplicitCoupling([0.4, 0.3, 0.2, 0.1]),
]
DISORDERS = [Uniform(0.0, 1.0), Gaussian(0.2, 0.5), Cauchy(0.0, 0.3), Bernoulli(0.0, 1.0, 0.5)]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def cases(draw):
    factors = draw(
        st.one_of(
            st.sampled_from([[3, 2, 4], [2, 3, 2, 3, 2]]),
            st.lists(st.integers(2, 3), min_size=1, max_size=4),
        )
    )
    t = Truncation(HierarchySpec.explicit(factors))
    seq = draw(st.sampled_from(COUPLINGS))
    dist = draw(st.sampled_from(DISORDERS))
    omega = sample_potential(dist, t, draw(st.integers(0, 2**32)), draw(st.integers(0, 3)))
    return t, seq, omega


@settings(max_examples=8, deadline=None)
@given(case=cases())
def test_per_site_queries_equal_the_same_call_on_the_cut(case):
    t, seq, omega = case
    # a plain grid plus potential values, so the pole masks have work to do
    energies = np.concatenate([np.linspace(-1.0, 2.0, 13), omega.values[::5]])
    z = complex(0.3, 0.7)
    for r in range(t.depth + 1):
        q = t.cluster_lattice(r)
        n_r = t.sizes[r]
        for x in range(t.site_count):
            base = x // n_r * n_r
            cut, x_q = omega.values[base : base + n_r], x - base
            for sweep in (moment_ladder_sweep, cluster_norm_sweep):
                whole = sweep(t, seq, omega, energies, r, x)
                local = sweep(q, seq, cut, energies, r, x_q)
                assert all(map(_same_bits, whole, local)), (sweep.__name__, r, x)
            assert ipr_profile(t, seq, omega, r, x=x) == ipr_profile(q, seq, cut, r, x=x_q)
            column = green_column(build_cascade(t, seq, omega, z, r), x, r)[0]
            local = green_column(build_cascade(q, seq, cut, z, r), x_q, r)[0]
            assert _same_bits(column[base : base + n_r], local)
            assert not column[:base].any() and not column[base + n_r :].any()


@settings(max_examples=20, deadline=None)
@given(case=cases())
def test_dense_blocks_are_every_cluster_block_of_the_whole_matrix(case):
    t, seq, _ = case
    for r in range(t.depth + 1):
        n_r = t.sizes[r]
        weights = laplacian(t, seq, r).weights
        wholes = (
            (cutoff_dense_block, laplacian(t, seq, r).dense()),
            (
                compression_dense_block,
                HierarchicalOperator(t, weights, seq.weighted_tail(r, t)).dense(),
            ),
        )
        for block, whole in wholes:
            b = block(t, seq, r)
            for base in range(0, t.site_count, n_r):
                assert _same_bits(b, whole[base : base + n_r, base : base + n_r])


def test_each_per_site_query_cuts_its_cluster_once(monkeypatch):
    # diagnostics reads operators.cluster_cut, greens its own imported name
    calls, cut = [], operators.cluster_cut

    def counted(t, omega, r, x):
        calls.append((r, x))
        return cut(t, omega, r, x)

    monkeypatch.setattr(operators, "cluster_cut", counted)
    monkeypatch.setattr(greens, "cluster_cut", counted)
    t = Truncation(HierarchySpec.homogeneous(2, 6))
    seq = GeometricCoupling(4.0)
    energies = np.linspace(-0.5, 1.5, 11)
    # a uniform draw keeps the kernel; a Bernoulli one falls back to eigh
    for dist in (Uniform(0.0, 1.0), Bernoulli(0.0, 1.0, 0.5)):
        omega = sample_potential(dist, t, 301, 0)
        for query in (
            lambda: ipr_profile(t, seq, omega, 4, x=21),
            lambda: moment_ladder_sweep(t, seq, omega, energies, 4, 21),
            lambda: cluster_norm_sweep(t, seq, omega, energies, 4, 21),
        ):
            calls.clear()
            query()
            assert calls == [(4, 21)]
