import math

import numpy as np
import pytest

from hieram import (
    CouplingSequence,
    ExplicitCoupling,
    GeometricCoupling,
    HierarchySpec,
    PolyGeometricCoupling,
    PowerSequence,
    build_truncation,
    check_main_hypothesis,
    check_molchanov_condition,
    fractional_moment_bounds,
    make_coupling,
)
from hieram.coupling import (
    CONVERGES_ANALYTIC,
    CONVERGES_NUMERIC,
    DIVERGES_ANALYTIC,
    DIVERGES_NUMERIC,
    INCONCLUSIVE,
)


def test_geometric_rho2_values():
    seq = GeometricCoupling(2.0)
    assert seq.p(0) == 0.0
    assert seq.p(1) == 0.5
    for r in range(1, 20):
        assert math.isclose(seq.lam(r), 1.0 - 2.0 ** (-r), rel_tol=0, abs_tol=1e-15)


def test_geometric_rho4_values():
    seq = GeometricCoupling(4.0)
    assert seq.p(1) == 0.75
    assert seq.lam(2) == 0.9375


def test_explicit_coupling_values():
    seq = ExplicitCoupling([0.7, 0.3])
    assert seq.lam(1) == pytest.approx(0.7, abs=1e-15)
    assert seq.lam(2) == 1.0
    assert seq.tail(2) == 0.0
    assert seq.p(3) == 0.0


def test_coupling_validation():
    with pytest.raises(ValueError):
        GeometricCoupling(1.0)
    with pytest.raises(ValueError):
        ExplicitCoupling([0.7, -0.3, 0.6])
    with pytest.raises(ValueError):
        ExplicitCoupling([0.5, 0.4])  # mass 0.9 without declared tail
    with pytest.raises(ValueError):
        PolyGeometricCoupling(1, 0.3)
    with pytest.raises(ValueError):
        PolyGeometricCoupling(2, 0.0)
    with pytest.raises(ValueError):
        make_coupling("nonsense")


def test_polygeometric_normalizes_to_unit_mass():
    for n, eps in [(2, 0.3), (3, 1.0)]:
        seq = PolyGeometricCoupling(n, eps)
        total = sum(seq.p(r) for r in range(1, 200))
        assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize(
    "seq",
    [
        GeometricCoupling(2.0),
        GeometricCoupling(4.0),
        PolyGeometricCoupling(2, 0.3),
        ExplicitCoupling([0.5, 0.3, 0.1], 0.1),
    ],
)
def test_tail_matches_brute_suffix_sum(seq):
    for r in range(6):
        brute = sum(seq.p(s) for s in range(r + 1, 300))
        if isinstance(seq, ExplicitCoupling):
            brute += seq.tail_mass
        assert abs(seq.tail(r) - brute) < 1e-12


def test_lambda_strictly_increasing_below_one():
    for seq in [GeometricCoupling(3.0), PolyGeometricCoupling(2, 0.5)]:
        lams = [seq.lam(r) for r in range(30)]
        assert all(b > a for a, b in zip(lams, lams[1:]))
        assert all(v < 1.0 for v in lams)


def test_geometric_two_sided_envelope():
    # the family sits exactly on the envelope C rho^{-r} with C = rho - 1
    seq = GeometricCoupling(3.0)
    for r in range(1, 30):
        assert seq.p(r) == pytest.approx((3.0 - 1.0) * 3.0 ** (-r), rel=1e-15)


def test_weighted_tail_matches_brute_sum():
    spec = HierarchySpec.homogeneous(2, 4)
    seq = GeometricCoupling(4.0)
    for r in range(5):
        brute = sum(seq.p(s) / spec.size(s) for s in range(r + 1, 120))
        assert abs(seq.weighted_tail(r, spec) - brute) < 1e-16
    poly = PolyGeometricCoupling(2, 0.3)
    brute = sum(poly.p(s) / spec.size(s) for s in range(3, 120))
    assert abs(poly.weighted_tail(2, spec) - brute) < 1e-16


def test_weighted_tail_explicit_concentrates_declared_mass():
    spec = HierarchySpec.homogeneous(2, 2)
    seq = ExplicitCoupling([0.6, 0.3], 0.1)
    # declared mass beyond the list is carried at the first unspecified rank
    assert seq.weighted_tail(2, spec) == pytest.approx(0.1 / 8, abs=1e-18)
    assert seq.weighted_tail(1, spec) == pytest.approx(0.3 / 4 + 0.1 / 8, abs=1e-18)
    assert ExplicitCoupling([0.7, 0.3]).weighted_tail(2, spec) == 0.0


@pytest.mark.parametrize("r", [0, 2, 3, 1099, 1100, 1200])
def test_weighted_tail_past_the_float_range(r):
    # N_s = 2^s passes the float range inside the list; every in-range term
    # keeps its bits, the others read 0
    spec = HierarchySpec.homogeneous(2, 3)
    seq = ExplicitCoupling([1 / 1100] * 1099, 1 / 1100)
    brute = 0.0
    for s in range(r + 1, max(r, 1099) + 2):
        mass = seq.p(s) if s <= 1099 else seq.tail_mass
        if spec.size(s) < 2**1024:
            brute += mass / spec.size(s)
    assert seq.weighted_tail(r, spec) == brute


def test_log_p_is_the_log_of_p():
    for seq in (GeometricCoupling(41.0), PolyGeometricCoupling(3, 0.5), ExplicitCoupling([0.6, 0.4])):
        for r in (1, 2):
            assert seq.log_p(r) == pytest.approx(math.log(seq.p(r)), rel=1e-14)
    # past the normal range p_r is subnormal, while the closed form stays exact
    seq = GeometricCoupling(41.0)
    assert 0.0 < seq.p(198) < 2.3e-308
    assert seq.log_p(198) == pytest.approx(math.log(40) - 198 * math.log(41), rel=1e-15)


def test_series_past_the_float_range_match_their_closed_forms():
    # degree 40: the float N_r is inf from r = 193 while p_r is still positive
    spec = HierarchySpec.homogeneous(40, 2)
    bracket = fractional_moment_bounds(GeometricCoupling(2.0), spec, 0.9)
    for report, ratio in ((bracket.lower, 40**0.1 / 2), (bracket.upper, 40**0.1 / 2**0.9)):
        assert report.converges is True
        assert all(math.isfinite(term) for term in report.terms)
        assert report.value == pytest.approx(ratio / (1 - ratio), rel=1e-12)
        for r in (193, 200):
            assert report.terms[r - 1] == pytest.approx(ratio**r, rel=1e-12)
    u = PowerSequence(1.1)
    main = check_main_hypothesis(GeometricCoupling(41.0), spec, u, 200)
    assert main.verdict == CONVERGES_ANALYTIC
    # p_r N_{r-1} = (40/41)^r; terms up to r = 193 keep the in-range product
    exact = [(40 / 41) ** r * u(r - 1) * u(r) for r in range(1, 201)]
    n_prev = 1.0
    for r in range(1, 194):
        assert main.terms[r - 1] == GeometricCoupling(41.0).p(r) * n_prev * u(r - 1) * u(r)
        n_prev *= 40
    assert np.allclose(main.terms[193:], exact[193:], rtol=1e-12, atol=0)
    assert main.partial_sums[-1] == pytest.approx(math.fsum(exact), rel=1e-12)


def test_overflowing_log_space_terms_read_inf():
    # 20^r passes the float range at r = 237; the series diverges analytically
    main = check_main_hypothesis(GeometricCoupling(2.0), HierarchySpec.homogeneous(40, 2), r_max=300)
    assert main.verdict == DIVERGES_ANALYTIC
    assert math.isfinite(main.terms[230]) and main.terms[260] == math.inf


def test_underflowed_weights_keep_their_terms():
    # p_r = 2^-r is 0.0 in float from r = 1075 on, while log p_r is exact
    u = PowerSequence(1.1)
    seq = GeometricCoupling(2.0)
    # degree 40: the terms are about 20^r, past the float range, not 0
    main = check_main_hypothesis(seq, HierarchySpec.homogeneous(40, 2), u, 1100)
    assert main.verdict == DIVERGES_ANALYTIC
    assert all(term == math.inf for term in main.terms[236:])
    # degree 2: p_r N_{r-1} = 1/2, so the terms stay u_{r-1} u_r / 2
    main = check_main_hypothesis(seq, HierarchySpec.homogeneous(2, 2), u, 1100)
    exact = [u(r - 1) * u(r) / 2 for r in range(1, 1101)]
    assert np.allclose(main.terms[1024:], exact[1024:], rtol=1e-12, atol=0)
    n_prev = 1.0
    for r in range(1, 1025):  # in range: the float product, bit for bit
        assert main.terms[r - 1] == seq.p(r) * n_prev * u(r - 1) * u(r)
        n_prev *= 2
    # the fractional-moment upper terms p_r^s N_r^{1-s} are 1 at s = 1/2
    bracket = fractional_moment_bounds(seq, HierarchySpec.homogeneous(2, 2), 0.5, 1100)
    assert np.allclose(bracket.upper.terms, 1.0, rtol=1e-12, atol=0)
    lower = [2.0 ** (-r / 2) for r in range(1075, 1101)]  # p_r N_r^{1/2} = 2^{-r/2}
    assert np.allclose(bracket.lower.terms[1074:], lower, rtol=1e-12, atol=0)


def test_zero_explicit_weights_stay_zero():
    # p_r is exactly 0 past the list: not an underflow, so no log-space term
    seq = ExplicitCoupling([0.5, 0.5])
    assert seq.log_p(3) == -math.inf
    spec = HierarchySpec.homogeneous(40, 2)
    main = check_main_hypothesis(seq, spec, PowerSequence(1.1), 300)
    assert np.array_equal(main.terms[2:], np.zeros(298))
    bracket = fractional_moment_bounds(seq, spec, 0.5, 300)
    assert np.array_equal(bracket.lower.terms[2:], np.zeros(298))
    assert np.array_equal(bracket.upper.terms[2:], np.zeros(298))


def test_power_sequence_contract():
    u = PowerSequence(2.0)
    assert u(0) == 0.0
    assert u(3) == 9.0
    with pytest.raises(ValueError):
        PowerSequence(1.0)


def test_main_hypothesis_geometric_converges():
    t = build_truncation(HierarchySpec.homogeneous(2, 3))
    rep = check_main_hypothesis(GeometricCoupling(4.0), t, PowerSequence(2.0), 30)
    assert rep.verdict == CONVERGES_ANALYTIC
    assert rep.converges is True
    # term oracle: p_r N_{r-1} u_{r-1} u_r = 3 4^{-r} 2^{r-1} (r-1)^2 r^2
    for r, term in zip(rep.r_values, rep.terms):
        oracle = 3.0 * 4.0 ** (-r) * 2.0 ** (r - 1) * (r - 1) ** 2 * r**2
        assert term == pytest.approx(oracle, rel=1e-13)


def test_main_hypothesis_geometric_diverges():
    t = build_truncation(HierarchySpec.homogeneous(2, 3))
    rep = check_main_hypothesis(GeometricCoupling(2.0), t, PowerSequence(2.0), 30)
    assert rep.verdict == DIVERGES_ANALYTIC
    assert rep.converges is False
    for r, term in zip(rep.r_values, rep.terms):
        assert term == pytest.approx(0.5 * (r - 1) ** 2 * r**2, rel=1e-13)
    assert rep.last_term == rep.terms[-1]


def test_main_hypothesis_polygeometric_matches_published_window():
    t = build_truncation(HierarchySpec.homogeneous(2, 3))
    rep = check_main_hypothesis(
        PolyGeometricCoupling(2, 0.3), t, PowerSequence(1.1), 40
    )
    assert rep.verdict == CONVERGES_ANALYTIC
    # exponents past 1 + eps/2 make the terms ~ r^{2b-3-eps} non-summable
    above_boundary = check_main_hypothesis(
        PolyGeometricCoupling(2, 0.3), t, PowerSequence(1.2), 40
    )
    assert above_boundary.verdict == DIVERGES_ANALYTIC


@pytest.mark.parametrize("degree,rho", [(2, 2.0), (2, 4.0), (3, 2.0), (3, 4.0), (4, 3.0)])
def test_main_hypothesis_verdict_iff_ratio_below_one(degree, rho):
    t = build_truncation(HierarchySpec.homogeneous(degree, 2))
    rep = check_main_hypothesis(GeometricCoupling(rho), t, PowerSequence(2.0), 25)
    assert rep.converges is (degree / rho < 1.0)


def test_main_hypothesis_rejects_tiny_horizon():
    t = build_truncation(HierarchySpec.homogeneous(2, 2))
    with pytest.raises(ValueError):
        check_main_hypothesis(GeometricCoupling(4.0), t, PowerSequence(2.0), 1)


def test_molchanov_condition_geometric_converges():
    for rho in (2.0, 4.0):
        rep = check_molchanov_condition(GeometricCoupling(rho), PowerSequence(2.0), 30)
        assert rep.verdict == CONVERGES_ANALYTIC


def test_molchanov_condition_explicit_diverges():
    r_max = 60
    weights = [1.0 / (r * (r + 1)) for r in range(1, r_max + 1)]
    tail = 1.0 - sum(weights)  # telescoping leaves 1/(r_max+1)
    seq = ExplicitCoupling(weights, tail)
    rep = check_molchanov_condition(seq, PowerSequence(2.0), r_max)
    assert rep.verdict == DIVERGES_NUMERIC
    # terms approach 1, partial sums grow linearly
    assert rep.terms[-1] == pytest.approx(r_max / (r_max + 1), rel=1e-12)


@pytest.mark.parametrize("r_max", [3, 10, 40])
def test_declared_tail_mass_past_r_max_is_inconclusive(r_max):
    # a quarter of the mass lies past the list, where p_r reads 0, so the
    # vanishing terms say nothing about how that mass is spread
    t = build_truncation(HierarchySpec.homogeneous(2, 6))
    seq = ExplicitCoupling([0.5, 0.25], 0.25)
    assert check_main_hypothesis(seq, t, r_max=r_max).verdict == INCONCLUSIVE
    assert check_molchanov_condition(seq, r_max=r_max).verdict == INCONCLUSIVE
    bracket = fractional_moment_bounds(seq, t, 0.5, r_max=r_max)
    assert bracket.lower.converges is None and bracket.upper.converges is None
    # the values stay the partial sums of p_r N_r^{1-s} and p_r^s N_r^{1-s}
    assert bracket.lower.value == 0.5 * 2.0**0.5 + 0.25 * 2.0
    assert bracket.upper.value == 0.5**0.5 * 2.0**0.5 + 0.25**0.5 * 2.0


@pytest.mark.parametrize("weights", [[0.5, 0.5], [0.5, 0.25, 0.25]])
def test_finite_list_without_tail_still_converges(weights):
    t = build_truncation(HierarchySpec.homogeneous(2, 6))
    seq = ExplicitCoupling(weights)
    assert check_main_hypothesis(seq, t, r_max=10).verdict == CONVERGES_NUMERIC
    assert check_molchanov_condition(seq, r_max=10).verdict == CONVERGES_NUMERIC
    bracket = fractional_moment_bounds(seq, t, 0.5, r_max=10)
    assert bracket.lower.converges is True and bracket.upper.converges is True


def test_fractional_moment_bounds_frozen_oracle():
    # brute-force oracle over 400 terms froze these brackets
    t = build_truncation(HierarchySpec.homogeneous(2, 3))
    bracket = fractional_moment_bounds(GeometricCoupling(4.0), t, 0.5)
    assert bracket.lower.converges is True
    assert bracket.upper.converges is True
    assert bracket.lower.value == pytest.approx(1.6407544820340814, abs=1e-12)
    assert bracket.upper.value == pytest.approx(4.181540550352055, abs=1e-12)
    assert bracket.lower.value <= bracket.upper.value


def test_fractional_moment_bounds_divergent_upper():
    # at rho = 2, s = 1/2 the upper series has constant terms sqrt(rho-1)
    t = build_truncation(HierarchySpec.homogeneous(2, 3))
    bracket = fractional_moment_bounds(GeometricCoupling(2.0), t, 0.5)
    assert bracket.upper.converges is False
    assert math.isinf(bracket.upper.value)
    assert bracket.upper.ratio == pytest.approx(1.0, abs=1e-15)
    assert bracket.lower.converges is True
    assert bracket.lower.value == pytest.approx(math.sqrt(2.0) + 1.0, abs=1e-9)


def test_fractional_moment_bounds_degenerate_at_s_near_one():
    t = build_truncation(HierarchySpec.homogeneous(2, 3))
    bracket = fractional_moment_bounds(GeometricCoupling(4.0), t, 1.0 - 1e-9)
    assert bracket.lower.value == pytest.approx(1.0, abs=1e-6)
    assert bracket.upper.value == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        fractional_moment_bounds(GeometricCoupling(4.0), t, 1.0)
    with pytest.raises(ValueError):
        fractional_moment_bounds(GeometricCoupling(4.0), t, 0.0)


PLANS = {
    "degree2": HierarchySpec.homogeneous(2, 6),
    "degree3": HierarchySpec.homogeneous(3, 4),
    "branching2323": HierarchySpec.explicit([2, 3, 2, 3]),
}
FAMILIES = {
    "geometric1.5": GeometricCoupling(1.5),
    "geometric4": GeometricCoupling(4.0),
    "poly2-0.3": PolyGeometricCoupling(2, 0.3),
    "poly3-0.2": PolyGeometricCoupling(3, 0.2),
    "explicit": ExplicitCoupling([0.5, 0.5]),
    "explicit-tail": ExplicitCoupling([0.5, 0.25], 0.25),
}


@pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS.keys())
@pytest.mark.parametrize("seq", FAMILIES.values(), ids=FAMILIES.keys())
def test_plan_and_truncation_give_equal_results(plan, seq):
    # repr compares NaN ratios (plans without a degree) as equal
    t = build_truncation(plan)
    for u in (PowerSequence(1.1), PowerSequence(1.5)):
        assert check_main_hypothesis(seq, plan, u) == check_main_hypothesis(seq, t, u)
    for s in (0.3, 0.5):
        assert repr(fractional_moment_bounds(seq, plan, s)) == repr(
            fractional_moment_bounds(seq, t, s)
        )
    for r in range(t.depth + 3):
        assert seq.weighted_tail(r, plan) == seq.weighted_tail(r, t)


@pytest.mark.parametrize(
    "seq,decay",
    [
        (GeometricCoupling(1.5), (1.5, 0.0)),
        (GeometricCoupling(4.0), (4.0, 0.0)),
        (PolyGeometricCoupling(2, 0.3), (2, -3.3)),
        (PolyGeometricCoupling(3, 0.2), (3, -3.2)),
        (ExplicitCoupling([0.5, 0.25], 0.25), None),
    ],
)
def test_decay_law_is_the_closed_form_of_p(seq, decay):
    if decay is None:
        assert seq.decay is None
        return
    assert seq.decay == pytest.approx(decay)
    a, q = seq.decay
    ratios = [seq.p(r) / (r**q * a ** (-r)) for r in range(1, 61)]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-13)


def test_weighted_tail_needs_a_decay_law():
    with pytest.raises(NotImplementedError):
        CouplingSequence().weighted_tail(0, HierarchySpec.homogeneous(2, 2))


@pytest.mark.parametrize("k", range(1, 300))
def test_main_hypothesis_boundary_diverges(k):
    # at degree = n and u = 1 + eps/2 the terms go like r^{2u-3-eps} = 1/r;
    # the decimal inputs round that exponent to either side of -1
    eps = float(f"{k / 100:.2f}")
    u = float(f"{1 + k / 200:.3f}")
    seq = PolyGeometricCoupling(2, eps)
    spec = HierarchySpec.homogeneous(2, 6)
    assert check_main_hypothesis(seq, spec, PowerSequence(u)).verdict == DIVERGES_ANALYTIC
    if u - 0.005 > 1.0:
        below = check_main_hypothesis(seq, spec, PowerSequence(u - 0.005))
        assert below.verdict == CONVERGES_ANALYTIC
