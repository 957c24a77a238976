"""Coupling weight sequences p_r, their partial sums, and summability checks.

Three families are supported: geometric p_r = (rho-1) rho^{-r}, a polynomially
damped geometric family p_r = C r^{-3-eps} n^{-r}, and explicit finite lists
with a declared tail mass.  The checkers evaluate the localization hypothesis
series and label their verdicts analytic only when a closed-form comparison
(a dominating geometric ratio) is available; convergence is undecidable from
finitely many terms, so everything else is a labeled heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hierarchy import HierarchySpec, Truncation, spec_of

EXPLICIT_MASS_TOL = 1e-12

CONVERGES_ANALYTIC = "converges (analytic)"
DIVERGES_ANALYTIC = "diverges (analytic)"
CONVERGES_NUMERIC = "converges (numeric heuristic)"
DIVERGES_NUMERIC = "diverges (numeric heuristic)"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class PowerSequence:
    """Test sequence u_r = r^exponent with exponent > 1, so sum 1/u_r < oo."""

    exponent: float = 1.1

    def __post_init__(self):
        if not self.exponent > 1:
            raise ValueError(
                f"exponent must exceed 1 for summable 1/u_r, got {self.exponent}"
            )

    def __call__(self, r: int) -> float:
        return float(r) ** self.exponent

    def describe(self) -> str:
        return f"r^{self.exponent:g}"


class CouplingSequence:
    """Positive weights p_r (r >= 1, p_0 = 0) with total mass 1."""

    family = "abstract"
    analytic = False

    def p(self, r: int) -> float:
        raise NotImplementedError

    def tail(self, r: int) -> float:
        """1 - lambda_r = sum_{s>r} p_s."""
        raise NotImplementedError

    def lam(self, r: int) -> float:
        """Partial sum lambda_r = sum_{s<=r} p_s."""
        if r < 0:
            raise ValueError(f"rank must be >= 0, got {r}")
        return 1.0 - self.tail(r)

    def log_tail(self, r: int) -> float:
        """log(1 - lambda_r); overridden where the tail underflows."""
        t = self.tail(r)
        return math.log(t) if t > 0.0 else -math.inf

    def weighted_tail(self, r: int, geometry: HierarchySpec | Truncation) -> float:
        """sum_{s>r} p_s / N_s, the uniform kernel left by compression."""
        raise NotImplementedError

    def _sum_weighted_tail(self, r, spec: HierarchySpec, ratio_bound: float) -> float:
        # terms p_s / N_s shrink at least by ratio_bound per level
        total = 0.0
        s = r + 1
        n_s = float(spec.size(s))
        while True:
            term = self.p(s) / n_s
            total += term
            if term * ratio_bound / (1.0 - ratio_bound) <= 1e-17 * total:
                return total
            s += 1
            n_s *= spec.factor(s)


class GeometricCoupling(CouplingSequence):
    """p_r = (rho - 1) rho^{-r}; lambda_r = 1 - rho^{-r} in closed form."""

    family = "geometric"
    analytic = True

    def __init__(self, rho: float):
        if not rho > 1:
            raise ValueError(f"rho must exceed 1, got {rho}")
        self.rho = float(rho)

    def p(self, r: int) -> float:
        if r < 0:
            raise ValueError(f"rank must be >= 0, got {r}")
        if r == 0:
            return 0.0
        return (self.rho - 1.0) * self.rho ** (-r)

    def tail(self, r: int) -> float:
        if r < 0:
            raise ValueError(f"rank must be >= 0, got {r}")
        return self.rho ** (-r)

    def log_tail(self, r: int) -> float:
        return -r * math.log(self.rho)

    def weighted_tail(self, r: int, geometry) -> float:
        spec = spec_of(geometry)
        return self._sum_weighted_tail(r, spec, 1.0 / (2.0 * self.rho))


class PolyGeometricCoupling(CouplingSequence):
    """p_r = C r^{-3-eps} n^{-r} with C normalizing the total mass to 1."""

    family = "polygeometric"
    analytic = True

    def __init__(self, n: int, epsilon: float):
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        if not epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.n = int(n)
        self.epsilon = float(epsilon)
        self.normalizer = 1.0 / self._raw_sum()

    def _raw_term(self, r: int) -> float:
        return r ** (-3.0 - self.epsilon) * float(self.n) ** (-r)

    def _raw_sum(self) -> float:
        # remainder after r is below t_r / (n - 1); push it under 1e-16 rel.
        total = 0.0
        r = 1
        while True:
            term = self._raw_term(r)
            total += term
            if term / (self.n - 1) <= 1e-16 * total:
                return total
            r += 1

    def p(self, r: int) -> float:
        if r < 0:
            raise ValueError(f"rank must be >= 0, got {r}")
        if r == 0:
            return 0.0
        return self.normalizer * self._raw_term(r)

    def tail(self, r: int) -> float:
        if r < 0:
            raise ValueError(f"rank must be >= 0, got {r}")
        total = 0.0
        s = r + 1
        while True:
            term = self.p(s)
            total += term
            if term == 0.0 or term <= (self.n - 1) * 1e-17 * total:
                return total
            s += 1

    def log_tail(self, r: int) -> float:
        t = self.tail(r)
        if t > 0.0:
            return math.log(t)
        # below float underflow: first tail term with its geometric completion
        q = ((r + 1) / (r + 2)) ** (3.0 + self.epsilon) / self.n
        return (
            math.log(self.normalizer)
            - (3.0 + self.epsilon) * math.log(r + 1)
            - (r + 1) * math.log(self.n)
            - math.log1p(-q)
        )

    def weighted_tail(self, r: int, geometry) -> float:
        spec = spec_of(geometry)
        return self._sum_weighted_tail(r, spec, 1.0 / (2.0 * self.n))


class ExplicitCoupling(CouplingSequence):
    """Weights p_1..p_L given directly, plus a declared tail mass beyond L."""

    family = "explicit"
    analytic = False

    def __init__(self, weights, tail_mass: float = 0.0):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("explicit coupling needs a non-empty weight list")
        if np.any(w <= 0.0):
            raise ValueError("all explicit weights must be positive")
        if tail_mass < 0.0:
            raise ValueError(f"tail mass must be >= 0, got {tail_mass}")
        total = float(w.sum()) + tail_mass
        if abs(total - 1.0) > EXPLICIT_MASS_TOL:
            raise ValueError(
                f"weights plus tail mass must total 1 within {EXPLICIT_MASS_TOL}, "
                f"got {total!r}"
            )
        self.weights = w
        self.tail_mass = float(tail_mass)
        # suffix[r] = sum_{s>r} p_s + tail mass, accumulated from the small end
        suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]]) + self.tail_mass
        self._suffix = suffix

    @property
    def length(self) -> int:
        return self.weights.size

    def p(self, r: int) -> float:
        if r < 0:
            raise ValueError(f"rank must be >= 0, got {r}")
        if r == 0 or r > self.length:
            return 0.0
        return float(self.weights[r - 1])

    def tail(self, r: int) -> float:
        if r < 0:
            raise ValueError(f"rank must be >= 0, got {r}")
        return float(self._suffix[min(r, self.length)])

    def weighted_tail(self, r: int, geometry) -> float:
        # the declared tail is carried at the first rank past the list
        spec = spec_of(geometry)
        total = 0.0
        for s in range(r + 1, self.length + 1):
            total += self.p(s) / spec.size(s)
        if self.tail_mass > 0.0:
            total += self.tail_mass / spec.size(max(r, self.length) + 1)
        return total


def make_coupling(family: str, **params) -> CouplingSequence:
    """Factory keyed by family name, as used by the CLI config."""
    if family == "geometric":
        return GeometricCoupling(params["rho"])
    if family == "polygeometric":
        return PolyGeometricCoupling(params["n"], params["epsilon"])
    if family == "explicit":
        return ExplicitCoupling(params["weights"], params.get("tail", 0.0))
    raise ValueError(f"unknown coupling family {family!r}")


@dataclass(frozen=True)
class HypothesisReport:
    """Summability evidence for one hypothesis series."""

    condition: str
    u: PowerSequence
    r_values: tuple[int, ...]
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    last_term: float
    verdict: str

    @property
    def converges(self) -> bool | None:
        if self.verdict in (CONVERGES_ANALYTIC, CONVERGES_NUMERIC):
            return True
        if self.verdict in (DIVERGES_ANALYTIC, DIVERGES_NUMERIC):
            return False
        return None


def _analytic_verdict(ratio: float, poly_exponent: float) -> str:
    """Verdict for terms ~ A * ratio^r * r^poly_exponent."""
    if ratio < 1.0:
        return CONVERGES_ANALYTIC
    if ratio > 1.0 or poly_exponent >= -1.0:
        return DIVERGES_ANALYTIC
    return CONVERGES_ANALYTIC


def _numeric_verdict(terms: np.ndarray, partial_sums: np.ndarray) -> str:
    last = terms[-1]
    mid = terms[len(terms) // 2]
    scale = max(1.0, abs(partial_sums[-1]))
    if not math.isfinite(partial_sums[-1]) or (mid > 0.0 and last >= 0.9 * mid):
        return DIVERGES_NUMERIC
    if last <= 1e-13 * scale:
        return CONVERGES_NUMERIC
    return INCONCLUSIVE


def _series_report(condition, u, terms, verdict) -> HypothesisReport:
    terms = np.asarray(terms, dtype=float)
    sums = np.cumsum(terms)
    if verdict is None:
        verdict = _numeric_verdict(terms, sums)
    return HypothesisReport(
        condition=condition,
        u=u,
        r_values=tuple(range(1, len(terms) + 1)),
        terms=tuple(terms),
        partial_sums=tuple(sums),
        last_term=float(terms[-1]),
        verdict=verdict,
    )


def check_main_hypothesis(
    seq: CouplingSequence,
    t: Truncation | HierarchySpec,
    u: PowerSequence = PowerSequence(1.1),
    r_max: int = 40,
) -> HypothesisReport:
    """Evaluate sum_r p_r N_{r-1} u_{r-1} u_r, the localization hypothesis."""
    if r_max < 2:
        raise ValueError(f"r_max must be >= 2, got {r_max}")
    spec = spec_of(t)
    terms = []
    n_prev = 1.0
    for r in range(1, r_max + 1):
        terms.append(seq.p(r) * n_prev * u(r - 1) * u(r))
        n_prev *= spec.factor(r)
    verdict = None
    if spec.degree is not None:
        if isinstance(seq, GeometricCoupling):
            verdict = _analytic_verdict(spec.degree / seq.rho, 2.0 * u.exponent)
        elif isinstance(seq, PolyGeometricCoupling):
            verdict = _analytic_verdict(
                spec.degree / seq.n, 2.0 * u.exponent - 3.0 - seq.epsilon
            )
    return _series_report("main", u, terms, verdict)


def check_molchanov_condition(
    seq: CouplingSequence,
    u: PowerSequence = PowerSequence(1.1),
    r_max: int = 40,
) -> HypothesisReport:
    """Evaluate sum_r p_r u_r, the Cauchy-disorder summability condition."""
    if r_max < 2:
        raise ValueError(f"r_max must be >= 2, got {r_max}")
    terms = [seq.p(r) * u(r) for r in range(1, r_max + 1)]
    verdict = None
    if isinstance(seq, GeometricCoupling):
        verdict = _analytic_verdict(1.0 / seq.rho, u.exponent)
    elif isinstance(seq, PolyGeometricCoupling):
        verdict = _analytic_verdict(
            1.0 / seq.n, u.exponent - 3.0 - seq.epsilon
        )
    return _series_report("molchanov", u, terms, verdict)


@dataclass(frozen=True)
class SeriesEstimate:
    """Partial sum with tail completion, or inf for a diverging series."""

    value: float
    ratio: float
    converges: bool | None


@dataclass(frozen=True)
class FractionalMomentBounds:
    """Bracket for the fractional-moment kernel sum at exponent s."""

    s: float
    lower: SeriesEstimate
    upper: SeriesEstimate


def _bracket_series(terms, ratio, poly_exponent) -> SeriesEstimate:
    terms = np.asarray(terms, dtype=float)
    sums = np.cumsum(terms)
    if not math.isnan(ratio):
        verdict = _analytic_verdict(ratio, poly_exponent)
        if verdict == CONVERGES_ANALYTIC:
            completion = terms[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else 0.0
            return SeriesEstimate(float(sums[-1] + completion), ratio, True)
        return SeriesEstimate(math.inf, ratio, False)
    verdict = _numeric_verdict(terms, sums)
    if verdict == DIVERGES_NUMERIC:
        return SeriesEstimate(math.inf, ratio, False)
    converges = True if verdict == CONVERGES_NUMERIC else None
    return SeriesEstimate(float(sums[-1]), ratio, converges)


def fractional_moment_bounds(
    seq: CouplingSequence,
    t: Truncation | HierarchySpec,
    s: float,
    r_max: int = 200,
) -> FractionalMomentBounds:
    """Bracket sup_x sum_y |<d_x, L d_y>|^s between two explicit series.

    The lower series is sum_r p_r N_r^{1-s}; the upper is sum_r p_r^s N_r^{1-s}.
    Both collapse to sum_r p_r = 1 as s -> 1.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    spec = spec_of(t)
    lower_terms, upper_terms = [], []
    n_r = 1.0
    for r in range(1, r_max + 1):
        n_r *= spec.factor(r)
        lower_terms.append(seq.p(r) * n_r ** (1.0 - s))
        upper_terms.append(seq.p(r) ** s * n_r ** (1.0 - s))
    low_ratio = up_ratio = math.nan
    low_q = up_q = 0.0
    if spec.degree is not None:
        n = spec.degree
        if isinstance(seq, GeometricCoupling):
            low_ratio = n ** (1.0 - s) / seq.rho
            up_ratio = n ** (1.0 - s) / seq.rho**s
        elif isinstance(seq, PolyGeometricCoupling):
            low_ratio = n ** (1.0 - s) / seq.n
            up_ratio = n ** (1.0 - s) / seq.n**s
            low_q = -3.0 - seq.epsilon
            up_q = -s * (3.0 + seq.epsilon)
    return FractionalMomentBounds(
        s=s,
        lower=_bracket_series(lower_terms, low_ratio, low_q),
        upper=_bracket_series(upper_terms, up_ratio, up_q),
    )
