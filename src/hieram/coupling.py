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
        """u_r, inf where it passes the float range."""
        try:
            return float(r) ** self.exponent
        except OverflowError:
            return math.inf

    def log(self, r: int) -> float:
        """log u_r = exponent log r, -inf at r = 0."""
        return self.exponent * math.log(r) if r > 0 else -math.inf

    def describe(self) -> str:
        return f"r^{self.exponent:g}"


class CouplingSequence:
    """Positive weights p_r (r >= 1, p_0 = 0) with total mass 1.

    The public methods own the rank rule (r >= 0, p_0 = 0); a family gives
    _p and _tail for r >= 1, and _log_p / _log_tail where they underflow.

    ``decay`` is (a, q) when p_r = C r^q a^{-r} for every r >= 1 with q <= 0,
    the closed form the checkers compare against, and None otherwise.
    """

    decay: tuple[float, float] | None = None

    @staticmethod
    def _rank(r: int) -> int:
        if r < 0:
            raise ValueError(f"rank must be >= 0, got {r}")
        return r

    def p(self, r: int) -> float:
        return 0.0 if self._rank(r) == 0 else self._p(r)

    def tail(self, r: int) -> float:
        """1 - lambda_r = sum_{s>r} p_s."""
        return self._tail(self._rank(r))

    def lam(self, r: int) -> float:
        """Partial sum lambda_r = sum_{s<=r} p_s."""
        return 1.0 - self.tail(r)

    def log_p(self, r: int) -> float:
        """log p_r, -inf for a weight that is exactly 0."""
        return -math.inf if self._rank(r) == 0 else self._log_p(r)

    def log_tail(self, r: int) -> float:
        """log(1 - lambda_r)."""
        return self._log_tail(self._rank(r))

    def _log_p(self, r: int) -> float:
        p = self._p(r)
        return math.log(p) if p > 0.0 else -math.inf

    def _log_tail(self, r: int) -> float:
        t = self._tail(r)
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

    def _p(self, r: int) -> float:
        return (self.rho - 1.0) * self.rho ** (-r)

    def _tail(self, r: int) -> float:
        return self.rho ** (-r)

    def _log_p(self, r: int) -> float:
        return math.log(self.rho - 1.0) - r * math.log(self.rho)

    def _log_tail(self, r: int) -> float:
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

    def _p(self, r: int) -> float:
        return self.normalizer * self._raw_term(r)

    def _log_p(self, r: int) -> float:
        decay = (3.0 + self.epsilon) * math.log(r) + r * math.log(self.n)
        return math.log(self.normalizer) - decay

    def _tail(self, r: int) -> float:
        total = 0.0
        s = r + 1
        while True:
            term = self._p(s)
            total += term
            if term == 0.0 or term <= (self.n - 1) * 1e-17 * total:
                return total
            s += 1

    def _log_tail(self, r: int) -> float:
        t = self._tail(r)
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

    def __init__(self, weights: list[float], tail: float = 0.0):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("explicit coupling needs a non-empty weight list")
        if np.any(w <= 0.0):
            raise ValueError("all explicit weights must be positive")
        if tail < 0.0:
            raise ValueError(f"tail mass must be >= 0, got {tail}")
        total = float(w.sum()) + tail
        if abs(total - 1.0) > EXPLICIT_MASS_TOL:
            raise ValueError(
                f"weights plus tail mass must total 1 within {EXPLICIT_MASS_TOL}, "
                f"got {total!r}"
            )
        self.weights = w
        self.tail_mass = float(tail)
        # suffix[r] = sum_{s>r} p_s + tail mass, accumulated from the small end
        self._suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]]) + self.tail_mass

    @property
    def length(self) -> int:
        return self.weights.size

    def _p(self, r: int) -> float:
        return float(self.weights[r - 1]) if r <= self.length else 0.0

    def _tail(self, r: int) -> float:
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


FAMILIES = {  # by the name a config's coupling.family gives them
    "geometric": GeometricCoupling,
    "polygeometric": PolyGeometricCoupling,
    "explicit": ExplicitCoupling,
}


@dataclass(frozen=True)
class HypothesisReport:
    """Summability evidence for one series: terms, partial sums, verdict, the
    value (partial sum plus tail completion, inf if divergent) and the
    analytic ratio (NaN without a closed form)."""

    condition: str
    r_values: tuple[int, ...]
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
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


def _series(condition, terms, seq, ratio, poly_exponent) -> HypothesisReport:
    """The report on terms r = 1..len(terms) of a series in seq's weights.
    Its verdict is analytic if the ratio is known, else INCONCLUSIVE if mass
    lies past the last term while its p_r = 0, else the numeric heuristic."""
    terms = np.asarray(terms, dtype=float)
    with np.errstate(over="ignore"):  # a partial sum past the float range reads inf
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
        r_values=tuple(range(1, r_max + 1)),
        terms=tuple(terms),
        partial_sums=tuple(sums),
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


def _term(seq, r, n, exact, u=None, ranks=(), a=1.0, b=1.0) -> float:
    """The term p_r^a N^b u_k ... (k in ranks), n the caller's running float N.
    While p_r > 0 and n and each u_k are finite it is the float product in that
    order; else it is formed in logs, from log p_r, the exact N and log u_k
    (u.log(k) where u_k is inf): 0 for a weight of 0, inf past the float range."""
    p, factors = seq.p(r), [u(k) for k in ranks]
    if p > 0.0 and not math.isinf(n) and math.inf not in factors:
        return math.prod((p**a * n**b, *factors))
    log_term = a * seq.log_p(r) + b * math.log(exact)  # -inf for a weight of 0
    for k, f in zip(ranks, factors):
        log_term += math.log(f) if f < math.inf else u.log(k)
    return _exp(log_term)


def main_hypothesis_terms(
    seq: CouplingSequence, t: Truncation | HierarchySpec, u: PowerSequence, r_max: int
) -> list[float]:
    """p_r N_{r-1} u_{r-1} u_r for r = 1..r_max (see _term)."""
    terms = []
    n_prev, exact = 1.0, 1
    for r in range(1, r_max + 1):
        terms.append(_term(seq, r, n_prev, exact, u, (r - 1, r)))
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
    return _series("main", terms, seq, ratio, 2.0 * u.exponent + q)


def check_molchanov_condition(
    seq: CouplingSequence,
    u: PowerSequence = PowerSequence(1.1),
    r_max: int = 40,
) -> HypothesisReport:
    """Evaluate sum_r p_r u_r, the Cauchy-disorder summability condition."""
    if r_max < 2:
        raise ValueError(f"r_max must be >= 2, got {r_max}")
    terms = [_term(seq, r, 1.0, 1, u, (r,), b=0.0) for r in range(1, r_max + 1)]
    a, q = seq.decay or (1.0, 0.0)
    ratio = 1.0 / a if seq.decay else math.nan
    return _series("molchanov", terms, seq, ratio, u.exponent + q)


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
        lower_terms.append(_term(seq, r, n_r, exact, b=1.0 - s))
        upper_terms.append(_term(seq, r, n_r, exact, a=s, b=1.0 - s))
    low_ratio, up_ratio, q = math.nan, math.nan, 0.0
    if t.degree is not None and seq.decay is not None:
        # p_r N_r^{1-s} and p_r^s N_r^{1-s} ~ r^q and r^{sq} times a ratio^r
        a, q = seq.decay
        low_ratio = t.degree ** (1.0 - s) / a
        up_ratio = t.degree ** (1.0 - s) / a**s
    return FractionalMomentBounds(
        s=s,
        lower=_series("fractional_moment_lower", lower_terms, seq, low_ratio, q),
        upper=_series("fractional_moment_upper", upper_terms, seq, up_ratio, s * q),
    )
