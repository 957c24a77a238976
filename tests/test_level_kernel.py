"""The level kernel against its per-level reference (reference_kernel.py): the
two-level workspace with level 0 folded into level 1 changes no bit of the
sweeps, of build_cascade, of the fourth-power sums or of a pole mask; the IPR
sweep and its inverse-iteration repair sum each cluster's children in child
order, as the kernel does; and the sorted-potential level-0 guard is the
direct minimum over the sites."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_kernel as ref
from hieram import (
    Bernoulli,
    Cauchy,
    ExplicitCoupling,
    Gaussian,
    GeometricCoupling,
    HierarchySpec,
    PoleProximityError,
    PolyGeometricCoupling,
    Truncation,
    Uniform,
    build_cascade,
    sample_potential,
)
from hieram import greens
from hieram.greens import POLE_TOL, _level0_ok, cluster_norm_sweep, moment_ladder_sweep
from hieram.operators import cluster_cut

DISORDERS = (
    Uniform(0.0, 1.0),
    Gaussian(0.0, 1.0),
    Cauchy(0.0, 0.5),
    Bernoulli(0.0, 1.0, 0.5),
)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def couplings(draw):
    family = draw(st.sampled_from(["geometric", "polygeometric", "explicit"]))
    if family == "geometric":
        return GeometricCoupling(draw(st.floats(1.5, 8.0)))
    if family == "polygeometric":
        return PolyGeometricCoupling(draw(st.integers(2, 5)), draw(st.floats(0.1, 2.0)))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
    tail = draw(st.sampled_from([0.0, 0.2]))
    return ExplicitCoupling([(1.0 - tail) * w / sum(raw) for w in raw], tail)


@st.composite
def kernel_cases(draw, dist):
    # from 8 children on, numpy's row sum leaves child order; N stays <= 512
    factors = draw(st.lists(st.integers(2, 9), min_size=1, max_size=4))
    while math.prod(factors) > 512:
        factors.pop()
    t = Truncation(HierarchySpec.explicit(factors))
    seq = draw(couplings())
    omega = sample_potential(dist, t, draw(st.integers(0, 2**32)), draw(st.integers(0, 3)))
    # free energies, potential values (level-0 poles), and POLE_TOL off one
    # of them with both float neighbours of that
    free = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
    on = draw(st.lists(st.sampled_from(omega.values.tolist()), min_size=1, max_size=3))
    off = np.array([on[0] - POLE_TOL, on[0] + POLE_TOL])
    near = np.concatenate([off, np.nextafter(off, np.inf), np.nextafter(off, -np.inf)])
    energies = np.concatenate([free, on, near])
    n = t.site_count
    sites = sorted({0, n // 3, n - 1, draw(st.integers(0, n - 1))})
    return t, seq, omega, energies, sites


@pytest.mark.parametrize("dist", DISORDERS, ids=lambda d: d.kind)
@given(data=st.data())
def test_sweeps_equal_the_reference_kernel_bit_for_bit(dist, data):
    t, seq, omega, energies, sites = data.draw(kernel_cases(dist))
    for r in range(t.depth + 1):
        for x in sites:
            q, values, x_q = cluster_cut(t, omega, r, x)
            want_ladder, want_ok = ref._sweep(q, seq, values, energies, x_q, r, {})
            ladder, ok = moment_ladder_sweep(t, seq, omega, energies, r, x)
            assert _same_bits(ladder, want_ladder) and _same_bits(ok, want_ok)
            want_norm, want_ok = ref._norm_sweep(q, seq, values, energies, x_q, r, {})
            norm2, ok = cluster_norm_sweep(t, seq, omega, energies, r, x)
            assert _same_bits(norm2, want_norm) and _same_bits(ok, want_ok)


def _value_or_level(f, *args):
    """f(*args), or the level of the PoleProximityError it raises."""
    try:
        return f(*args)
    except PoleProximityError as err:
        return err.level


@pytest.mark.parametrize("dist", DISORDERS, ids=lambda d: d.kind)
@given(data=st.data())
def test_fourth_powers_equal_the_reference_kernel_bit_for_bit(dist, data):
    t, seq, omega, energies, _ = data.draw(kernel_cases(dist))
    ok = _level0_ok(omega.values, energies, {})
    levels = greens._levels(t, seq, omega.values, energies, t.depth, {}, ok, powers=2)
    want = ref._powers(t, seq, omega.values, energies, t.depth, {})
    next(want)  # level 0, which the kernel folds into level 1
    for (_, alpha, (w, w4)), (want_alpha, want_w, want_w4, want_ok) in zip(levels, want):
        assert _same_bits(alpha, want_alpha)
        assert _same_bits(w, want_w) and _same_bits(w4, want_w4)
    assert _same_bits(ok, want_ok)


@pytest.mark.parametrize("dist", DISORDERS, ids=lambda d: d.kind)
@given(data=st.data())
def test_ipr_sweep_equals_the_reference_kernel_bit_for_bit(dist, data):
    t, seq, omega, energies, sites = data.draw(kernel_cases(dist))
    for r in range(1, t.depth + 1):
        for x in sites:
            q, values, _ = cluster_cut(t, omega, r, x)
            work = {}
            # a second, narrower chunk reuses the first one's workspace
            for chunk in (energies, energies[1:]):
                got = greens._ipr_sweep(q, seq, values, chunk, 0, r, work)
                want = ref._ipr_sweep(q, seq, values, chunk, 0, r, {})
                for a, b in zip(got, want, strict=True):  # iprs, residuals, norms, ok
                    assert _same_bits(a, b)


@pytest.mark.parametrize("dist", DISORDERS, ids=lambda d: d.kind)
@given(data=st.data())
def test_inverse_iteration_equals_the_reference_bit_for_bit(dist, data):
    t, seq, omega, energies, sites = data.draw(kernel_cases(dist))
    for r in range(1, t.depth + 1):
        q, values, _ = cluster_cut(t, omega, r, sites[-1])
        for e in energies:
            got = _value_or_level(greens._inverse_iteration_ipr, q, seq, values, e, r)
            want = _value_or_level(ref._inverse_iteration_ipr, q, seq, values, e, r)
            assert type(got) is type(want)
            assert got == want if isinstance(want, int) else _same_bits(got, want)


@pytest.mark.parametrize("dist", DISORDERS, ids=lambda d: d.kind)
@given(data=st.data())
def test_cascade_equals_the_reference_kernel_bit_for_bit(dist, data):
    t, seq, omega, energies, _ = data.draw(kernel_cases(dist))
    r = data.draw(st.integers(0, t.depth))
    eta = data.draw(st.sampled_from([1e-3, 0.5]))
    for z in [*energies, *(energies + 1j * eta)]:
        want = _value_or_level(ref.cascade, t, seq, omega, z, r)
        if isinstance(want, int):
            with pytest.raises(PoleProximityError) as info:
                build_cascade(t, seq, omega, z, r)
            assert info.value.level == want
            continue
        c = build_cascade(t, seq, omega, z, r)
        assert len(c.levels) == len(c.alphas) == r + 1
        for got, expected in zip((*c.levels, *c.alphas), (*want[0], *want[1])):
            assert _same_bits(got, expected)


def _direct_guard(values, energies):
    return np.abs(values[None, :] - energies[:, None]).min(axis=1) >= POLE_TOL


@given(
    pool=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
    im=st.one_of(
        st.none(), st.sampled_from([0.0, 1e-16, -POLE_TOL, 1.0]), st.floats(-1e-8, 1e-8)
    ),
    data=st.data(),
)
def test_level0_guard_is_the_direct_minimum(pool, im, data):
    # repeated values (Bernoulli-like ties) and a lone site (N_r = 1) included;
    # with im, the points are complex, Re z as drawn and Im z = im
    values = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)))
    v = data.draw(st.sampled_from(values.tolist()))
    steps = np.array([v, v - POLE_TOL, v + POLE_TOL])
    outside = [values.min() - 1.0, values.max() + 1.0, -np.inf, np.inf]
    free = data.draw(st.lists(st.floats(-2e6, 2e6), max_size=4))
    energies = np.concatenate(
        [steps, np.nextafter(steps, np.inf), np.nextafter(steps, -np.inf), outside, free]
    )
    if im is not None:
        energies = energies + 1j * im
    work = {}
    assert np.array_equal(_level0_ok(values, energies, work), _direct_guard(values, energies))
    # a later chunk of the same call reads the sort kept in work
    backwards = energies[::-1]
    assert np.array_equal(_level0_ok(values, backwards, work), _direct_guard(values, backwards))
    assert not _level0_ok(values, values, {}).any()


def test_level0_guard_at_a_complex_point_is_the_direct_minimum():
    values = np.array([0.0, 1.0, 1.0, 2.5])
    points = np.array([1.0 + 1e-13j, 1.0 + 1e-11j, 0.5 - 2j])
    assert _level0_ok(values, points, {}).tolist() == [False, True, True]
