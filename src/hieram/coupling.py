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

from .hierarchy import HierarchySpec, Truncation

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
    """Positive weights p_r (r >= 1, p_0 = 0) with total mass 1.

    ``decay`` is (a, q) when p_r = C r^q a^{-r} for every r >= 1 with q <= 0,
    the closed form the checkers compare against, and None otherwise.
    """

    decay: tuple[float, float] | None = None

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

    def log_p(self, r: int) -> float:
        """log p_r, -inf for a weight that is exactly 0; overridden with a
        closed form where p_r underflows."""
        p = self.p(r)
        return math.log(p) if p > 0.0 else -math.inf

    def log_tail(self, r: int) -> float:
        """log(1 - lambda_r); overridden where the tail underflows."""
        t = self.tail(r)
        return math.log(t) if t > 0.0 else -math.inf

    def weighted_tail(self, r: int, geometry: HierarchySpec | Truncation) -> float:
        """sum_{s>r} p_s / N_s, the uniform kernel left by compression."""
        if self.decay is None:
            raise NotImplementedError("weighted_tail needs a decay law")
        # terms p_s / N_s shrink at least by 1/(2a) per level, as q <= 0
        ratio_bound = 1.0 / (2.0 * self.decay[0])
        total = 0.0
        s = r + 1
        n_s = float(geometry.size(s))
        while True:
            term = self.p(s) / n_s
            total += term
            if term * ratio_bound / (1.0 - ratio_bound) <= 1e-17 * total:
                return total
            s += 1
            n_s *= geometry.factor(s)


class GeometricCoupling(CouplingSequence):
    """p_r = (rho - 1) rho^{-r}; lambda_r = 1 - rho^{-r} in closed form."""

    def __init__(self, rho: float):
        if not rho > 1:
            raise ValueError(f"rho must exceed 1, got {rho}")
        self.rho = float(rho)
        self.decay = (self.rho, 0.0)

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

    def log_p(self, r: int) -> float:
        return math.log(self.rho - 1.0) - r * math.log(self.rho)

    def log_tail(self, r: int) -> float:
        return -r * math.log(self.rho)


class PolyGeometricCoupling(CouplingSequence):
    """p_r = C r^{-3-eps} n^{-r} with C normalizing the total mass to 1."""

    def __init__(self, n: int, epsilon: float):
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        if not epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.n = int(n)
        self.epsilon = float(epsilon)
        self.decay = (self.n, -3.0 - self.epsilon)
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

    def log_p(self, r: int) -> float:
        decay = (3.0 + self.epsilon) * math.log(r) + r * math.log(self.n)
        return math.log(self.normalizer) - decay

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


class ExplicitCoupling(CouplingSequence):
    """Weights p_1..p_L given directly, plus a declared tail mass beyond L."""

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
        # the declared tail is carried at the first rank past the list; a
        # term whose exact N_s is past the float range reads 0
        total, n_s = 0.0, geometry.size(r)
        for s in range(r + 1, max(r, self.length) + 2):
            n_s *= geometry.factor(s)
            mass = self.p(s) if s <= self.length else self.tail_mass
            try:
                total += mass / n_s
            except OverflowError:
                break
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
    """Summability evidence for one series: terms, partial sums, verdict, the
    value (partial sum plus tail completion, inf if divergent) and the
    analytic ratio (NaN without a closed form)."""

    condition: str
    u: PowerSequence | None
    r_values: tuple[int, ...]
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    last_term: float
    verdict: str
    value: float
    ratio: float

    @property
    def converges(self) -> bool | None:
        if self.verdict in (CONVERGES_ANALYTIC, CONVERGES_NUMERIC):
            return True
        if self.verdict in (DIVERGES_ANALYTIC, DIVERGES_NUMERIC):
            return False
        return None


def _analytic_verdict(ratio: float, poly_exponent: float) -> str:
    """Verdict for terms ~ A * ratio^r * r^poly_exponent.

    An exponent within 1e-12 of -1 is taken as -1 (harmonic, divergent): it
    is how a decimal boundary such as 2u - 3 - eps = -1 rounds.
    """
    if ratio < 1.0:
        return CONVERGES_ANALYTIC
    if ratio > 1.0 or poly_exponent >= -1.0 - 1e-12:
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


def _series(condition, u, terms, seq, ratio, poly_exponent) -> HypothesisReport:
    """The report on terms r = 1..len(terms) of a series in seq's weights.
    Its verdict is analytic if the ratio is known, else INCONCLUSIVE if mass
    lies past the last term while its p_r = 0, else the numeric heuristic."""
    terms = np.asarray(terms, dtype=float)
    sums = np.cumsum(terms)
    r_max, completion = len(terms), 0.0
    if not math.isnan(ratio):
        verdict = _analytic_verdict(ratio, poly_exponent)
        if ratio < 1.0:  # the geometric tail past r_max
            completion = terms[-1] * ratio / (1.0 - ratio)
    elif seq.tail(r_max) > 0.0 and seq.p(r_max) == 0.0:
        verdict = INCONCLUSIVE
    else:
        verdict = _numeric_verdict(terms, sums)
    diverges = verdict in (DIVERGES_ANALYTIC, DIVERGES_NUMERIC)
    return HypothesisReport(
        condition=condition,
        u=u,
        r_values=tuple(range(1, r_max + 1)),
        terms=tuple(terms),
        partial_sums=tuple(sums),
        last_term=float(terms[-1]),
        verdict=verdict,
        value=math.inf if diverges else float(sums[-1] + completion),
        ratio=ratio,
    )


def _exp(log_term: float) -> float:
    """A series term from its logarithm; inf where it overflows."""
    try:
        return math.exp(log_term)
    except OverflowError:
        return math.inf


def main_hypothesis_terms(
    seq: CouplingSequence, t: Truncation | HierarchySpec, u: PowerSequence, r_max: int
) -> list[float]:
    """p_r N_{r-1} u_{r-1} u_r for r = 1..r_max.  A term whose float p_r
    underflows or whose float N_{r-1} is past the range is formed in logs,
    from log p_r and the exact N_{r-1}; a weight that is exactly 0 gives 0."""
    terms = []
    n_prev, exact = 1.0, 1
    for r in range(1, r_max + 1):
        p = seq.p(r)
        if p and not math.isinf(n_prev):
            terms.append(p * n_prev * u(r - 1) * u(r))
        elif (log_p := seq.log_p(r)) > -math.inf:
            terms.append(_exp(log_p + math.log(exact) + math.log(u(r - 1)) + math.log(u(r))))
        else:  # a weight that is exactly 0
            terms.append(0.0)
        n_prev *= t.factor(r)
        exact *= t.factor(r)
    return terms


def check_main_hypothesis(
    seq: CouplingSequence,
    t: Truncation | HierarchySpec,
    u: PowerSequence = PowerSequence(1.1),
    r_max: int = 40,
) -> HypothesisReport:
    """Evaluate sum_r p_r N_{r-1} u_{r-1} u_r, the localization hypothesis."""
    if r_max < 2:
        raise ValueError(f"r_max must be >= 2, got {r_max}")
    terms = main_hypothesis_terms(seq, t, u, r_max)
    a, q = seq.decay or (1.0, 0.0)
    ratio = t.degree / a if t.degree is not None and seq.decay else math.nan
    return _series("main", u, terms, seq, ratio, 2.0 * u.exponent + q)


def check_molchanov_condition(
    seq: CouplingSequence,
    u: PowerSequence = PowerSequence(1.1),
    r_max: int = 40,
) -> HypothesisReport:
    """Evaluate sum_r p_r u_r, the Cauchy-disorder summability condition."""
    if r_max < 2:
        raise ValueError(f"r_max must be >= 2, got {r_max}")
    terms = [seq.p(r) * u(r) for r in range(1, r_max + 1)]
    a, q = seq.decay or (1.0, 0.0)
    ratio = 1.0 / a if seq.decay else math.nan
    return _series("molchanov", u, terms, seq, ratio, u.exponent + q)


@dataclass(frozen=True)
class FractionalMomentBounds:
    """Bracket for the fractional-moment kernel sum at exponent s."""

    s: float
    lower: HypothesisReport
    upper: HypothesisReport


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
    lower_terms, upper_terms = [], []
    n_r, exact = 1.0, 1
    for r in range(1, r_max + 1):
        n_r *= t.factor(r)
        exact *= t.factor(r)
        p = seq.p(r)  # as in main_hypothesis_terms: logs past p_r's or N_r's range
        if p and not math.isinf(n_r):
            lower_terms.append(p * n_r ** (1.0 - s))
            upper_terms.append(p**s * n_r ** (1.0 - s))
        elif (log_p := seq.log_p(r)) > -math.inf:
            log_n = (1.0 - s) * math.log(exact)
            lower_terms.append(_exp(log_p + log_n))
            upper_terms.append(_exp(s * log_p + log_n))
        else:  # a weight that is exactly 0
            lower_terms.append(0.0)
            upper_terms.append(0.0)
    low_ratio, up_ratio, q = math.nan, math.nan, 0.0
    if t.degree is not None and seq.decay is not None:
        # p_r N_r^{1-s} and p_r^s N_r^{1-s} ~ r^q and r^{sq} times a ratio^r
        a, q = seq.decay
        low_ratio = t.degree ** (1.0 - s) / a
        up_ratio = t.degree ** (1.0 - s) / a**s
    return FractionalMomentBounds(
        s=s,
        lower=_series("fractional_moment_lower", None, lower_terms, seq, low_ratio, q),
        upper=_series("fractional_moment_upper", None, upper_terms, seq, up_ratio, s * q),
    )
