"""Exact comparison of two independent count distributions.

Translates per-person relative risk into population-level statements: the
probability one arm produces more cases than the other, the ratio of
at-least-one-case probabilities ("effective" relative risk), counterfactual
all-low totals, and the bounds on how many cases removing an exposure could
possibly avert.  ``ScenarioAnalysis`` computes all of it, from fixed
per-person risks or from beta priors on them alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .distributions import (
    DEFAULT_EPS,
    BetaParams,
    CountDistribution,
    CredibleInterval,
    DomainError,
    _check_count,
    _check_eps,
    _check_law,
    _check_probability,
    beta_binomial_distribution,
    binomial_distribution,
    central_interval,
    convolve,
    mode,
)

__all__ = [
    "MAX_POPULATION",
    "ExposureScenario",
    "UncertainScenario",
    "ScenarioAnalysis",
    "BoundedProbability",
    "ComparisonSummary",
    "SplitComparison",
    "LivesSavedBounds",
    "prob_greater",
    "prob_equal",
    "prob_less",
    "summarize",
    "counterfactual_all_low",
    "split_vs_counterfactual",
    "lives_saved_bounds",
    "observed_comparison",
    "more_in_high",
    "times_as_many",
]

#: Populations are plain machine integers; this covers national scale.
MAX_POPULATION = 2**32 - 1

#: Comparison summaries promise their three probabilities sum to 1 +- 1e-8,
#: which requires the arm truncations to stay below that.
_SUMMARY_MAX_EPS = 1e-9


def _check_populations(scenario) -> None:
    """Both arm sizes of a frozen scenario: integers in 1..MAX_POPULATION."""
    for name in ("n_exposed", "n_unexposed"):
        v = _check_count(getattr(scenario, name), name, minimum=1)
        if v > MAX_POPULATION:
            raise DomainError(f"{name} exceeds the {MAX_POPULATION} cap")
        object.__setattr__(scenario, name, v)


@dataclass(frozen=True)
class ExposureScenario:
    """Two-arm population: sizes and per-person disease probabilities."""

    n_exposed: int
    n_unexposed: int
    p_exposed: float
    p_unexposed: float

    def __post_init__(self) -> None:
        _check_populations(self)
        for name in ("p_exposed", "p_unexposed"):
            object.__setattr__(self, name, _check_probability(getattr(self, name), name))

    @property
    def risks(self) -> tuple[float, float]:
        """Per-person risk of each arm (exposed, unexposed)."""
        return self.p_exposed, self.p_unexposed


@dataclass(frozen=True)
class UncertainScenario:
    """Two-arm scenario with beta uncertainty on each per-person probability."""

    n_exposed: int
    n_unexposed: int
    prior_exposed: BetaParams
    prior_unexposed: BetaParams

    def __post_init__(self) -> None:
        _check_populations(self)
        for name in ("prior_exposed", "prior_unexposed"):
            if not isinstance(getattr(self, name), BetaParams):
                raise DomainError(f"{name} must be a BetaParams instance")

    @property
    def risks(self) -> tuple[BetaParams, BetaParams]:
        """Beta prior on each arm's per-person risk (exposed, unexposed)."""
        return self.prior_exposed, self.prior_unexposed


@dataclass(frozen=True)
class BoundedProbability:
    """A probability together with an explicit truncation error bound."""

    value: float
    error_bound: float

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class ComparisonSummary:
    """Population-level comparison of the two arms of a scenario.

    ``per_person_rr`` and ``effective_rr`` are None when their ratios are
    0/0 — the distinction between "equal risks" and "no risk at all" is
    kept visible rather than defined away.
    """

    p_exposed_more: float
    p_equal: float
    p_unexposed_more: float
    per_person_rr: float | None
    effective_rr: float | None
    p_nobody_exposed: float
    p_nobody_unexposed: float
    error_bound: float

    def __post_init__(self) -> None:
        total = self.p_exposed_more + self.p_equal + self.p_unexposed_more
        if abs(total - 1.0) > 1e-8:
            raise DomainError(f"comparison triple sums to {total!r}, not 1")

    @property
    def effective_rr_defined(self) -> bool:
        return self.effective_rr is not None


# ---------------------------------------------------------------------------
# exceedance probabilities
# ---------------------------------------------------------------------------


def _below_lookup(d: CountDistribution, counts: np.ndarray) -> np.ndarray:
    """Stored P(D < k) for an integer array of counts."""
    cdf = d._cdf
    idx = counts - d.support_lo  # P(D < k) = cdf[k - lo - 1]
    out = np.zeros(len(counts), dtype=np.float64)
    inside = idx >= 1
    out[inside] = cdf[np.minimum(idx[inside], len(cdf)) - 1]
    return out


def _above_lookup(d: CountDistribution, counts: np.ndarray) -> np.ndarray:
    """Stored P(D > k), using a suffix sum so small tails keep precision."""
    suffix = np.cumsum(d.masses[::-1])[::-1]  # suffix[i] = P(D >= lo + i)
    idx = counts - d.support_lo + 1  # P(D > k) = suffix[k - lo + 1]
    out = np.zeros(len(counts), dtype=np.float64)
    below_window = idx < 0
    out[below_window] = suffix[0]
    inside = (idx >= 0) & (idx < len(suffix))
    out[inside] = suffix[idx[inside]]
    return out


def prob_greater(x: CountDistribution, y: CountDistribution) -> BoundedProbability:
    """P(X > Y) for independent X, Y, with its truncation error bound.

    The sum runs over the smaller support and uses prefix/suffix CDFs of
    the other distribution, so cost is linear in the two window sizes.
    ``np.sum`` adds the n products in numpy's pairwise order, fixed by n
    alone; each passes through at most k = ceil(log2 n) + 17 additions, so
    the value is within gamma_k = k*u / (1 - k*u), u = 2^-53, of their
    exact sum, relatively (Higham, *Accuracy and Stability*, section 4.2).
    """
    _check_law(x, "x")
    _check_law(y, "y")
    bound = x.truncated_mass + y.truncated_mass
    nx = x.support_hi - x.support_lo + 1
    ny = y.support_hi - y.support_lo + 1
    if nx <= ny:
        ks = np.arange(x.support_lo, x.support_hi + 1)
        value = float(np.sum(x.masses * _below_lookup(y, ks)))
    else:
        ks = np.arange(y.support_lo, y.support_hi + 1)
        value = float(np.sum(y.masses * _above_lookup(x, ks)))
    return BoundedProbability(value=value, error_bound=bound)


def prob_equal(x: CountDistribution, y: CountDistribution) -> BoundedProbability:
    _check_law(x, "x")
    _check_law(y, "y")
    bound = x.truncated_mass + y.truncated_mass
    lo = max(x.support_lo, y.support_lo)
    hi = min(x.support_hi, y.support_hi)
    if lo > hi:
        return BoundedProbability(value=0.0, error_bound=bound)
    xs = x.masses[lo - x.support_lo : hi - x.support_lo + 1]
    ys = y.masses[lo - y.support_lo : hi - y.support_lo + 1]
    return BoundedProbability(value=float(np.sum(xs * ys)), error_bound=bound)


def prob_less(x: CountDistribution, y: CountDistribution) -> BoundedProbability:
    return prob_greater(y, x)


# ---------------------------------------------------------------------------
# scenario-level analysis
# ---------------------------------------------------------------------------


def _ratio_or_none(num: float, den: float) -> float | None:
    if num == 0.0 and den == 0.0:
        return None
    if den == 0.0:
        return math.inf
    return num / den


@dataclass(frozen=True)
class SplitComparison:
    """Split-exposure total versus the all-low counterfactual total."""

    p_split_more: float
    p_equal: float
    p_all_low_more: float
    error_bound: float
    mode_split: int
    mode_all_low: int
    split: CountDistribution
    all_low: CountDistribution


@dataclass(frozen=True)
class LivesSavedBounds:
    """Cap on the cases avertable by eliminating the exposure.

    ``best_case`` spans the extreme ends of the two coverage intervals —
    the split total's upper end minus the all-low total's lower end — and
    ``tail_prob_best_case`` reports how unlikely that upper end even is.
    A negative ``most_likely`` means harm rather than saving and is
    reported as-is.
    """

    best_case: int
    most_likely: int
    tail_prob_best_case: float
    split_interval: CredibleInterval
    all_low_interval: CredibleInterval


class _Arm(NamedTuple):
    law: CountDistribution
    log_p0: float
    mean_risk: float


def _arm(n: int, risk: float | BetaParams, eps: float) -> _Arm:
    """Count law at ``eps``, log P(no case) and mean per-person risk of one arm.

    This is the only code that tells a fixed per-person risk from a beta
    prior on it.  A fixed risk's log P(0) is the closed form n*log1p(-p),
    exact however far the law's window sits from zero; a prior's is read
    off its predictive law.
    """
    if isinstance(risk, BetaParams):
        law = beta_binomial_distribution(n, risk, eps)
        return _Arm(law, law.log_pmf(0), risk.mean)
    log_p0 = n * math.log1p(-risk) if risk < 1.0 else -math.inf
    return _Arm(binomial_distribution(n, risk, eps), log_p0, risk)


class ScenarioAnalysis:
    """Every population-level result for one two-arm scenario at one ``eps``.

    Accepts an ``ExposureScenario`` or an ``UncertainScenario``.  Each count
    law is built at most once, when a result first needs it: the two arms
    at ``eps`` (the triple and figure 1/2 columns), the two arms at
    ``eps/4`` and their convolution (the split total), and the all-low
    counterfactual at ``eps``.  The triple and the split carry a
    sum-to-one promise, so they refuse ``eps`` above 1e-9; the arm laws
    alone accept any eps the constructors do.
    """

    def __init__(
        self, scenario: ExposureScenario | UncertainScenario, eps: float = DEFAULT_EPS
    ) -> None:
        if not isinstance(scenario, (ExposureScenario, UncertainScenario)):
            raise DomainError("scenario must be an ExposureScenario or UncertainScenario instance")
        self.scenario = scenario
        self.eps = _check_eps(eps)

    def _check_summary_eps(self) -> None:
        if self.eps > _SUMMARY_MAX_EPS:
            raise DomainError(
                f"summaries require eps <= {_SUMMARY_MAX_EPS} to meet their "
                f"sum-to-one contract, got {self.eps!r}"
            )

    @cached_property
    def _arms(self) -> tuple[_Arm, _Arm]:
        s = self.scenario
        risk_e, risk_u = s.risks
        return _arm(s.n_exposed, risk_e, self.eps), _arm(s.n_unexposed, risk_u, self.eps)

    @property
    def arm_e(self) -> CountDistribution:
        return self._arms[0].law

    @property
    def arm_u(self) -> CountDistribution:
        return self._arms[1].law

    @cached_property
    def all_low(self) -> CountDistribution:
        """Total-case law if the whole population had the unexposed risk."""
        s = self.scenario
        return _arm(s.n_exposed + s.n_unexposed, s.risks[1], self.eps).law

    @cached_property
    def split(self) -> CountDistribution:
        """Total-case law of the population split into the two arms."""
        self._check_summary_eps()
        s = self.scenario
        quarter = self.eps / 4.0
        risk_e, risk_u = s.risks
        arm_e = _arm(s.n_exposed, risk_e, quarter).law
        arm_u = _arm(s.n_unexposed, risk_u, quarter).law
        return convolve(arm_e, arm_u, quarter)

    @cached_property
    def summary(self) -> ComparisonSummary:
        self._check_summary_eps()
        e, u = self._arms
        greater = prob_greater(e.law, u.law)
        equal = prob_equal(e.law, u.law)
        less = prob_less(e.law, u.law)
        return ComparisonSummary(
            p_exposed_more=greater.value,
            p_equal=equal.value,
            p_unexposed_more=less.value,
            per_person_rr=_ratio_or_none(e.mean_risk, u.mean_risk),
            effective_rr=_ratio_or_none(-math.expm1(e.log_p0), -math.expm1(u.log_p0)),
            p_nobody_exposed=math.exp(e.log_p0),
            p_nobody_unexposed=math.exp(u.log_p0),
            error_bound=greater.error_bound,
        )

    @cached_property
    def split_comparison(self) -> SplitComparison:
        split, all_low = self.split, self.all_low
        greater = prob_greater(split, all_low)
        equal = prob_equal(split, all_low)
        less = prob_less(split, all_low)
        return SplitComparison(
            p_split_more=greater.value,
            p_equal=equal.value,
            p_all_low_more=less.value,
            error_bound=greater.error_bound,
            mode_split=mode(split),
            mode_all_low=mode(all_low),
            split=split,
            all_low=all_low,
        )

    def lives_saved(self, coverage: float) -> LivesSavedBounds:
        comp = self.split_comparison
        split_iv = central_interval(comp.split, coverage)
        low_iv = central_interval(comp.all_low, coverage)
        # P(split >= top) = P(split > top - 1)
        tail = float(_above_lookup(comp.split, np.array([split_iv.hi - 1]))[0])
        return LivesSavedBounds(
            best_case=split_iv.hi - low_iv.lo,
            most_likely=comp.mode_split - comp.mode_all_low,
            tail_prob_best_case=tail,
            split_interval=split_iv,
            all_low_interval=low_iv,
        )


def summarize(
    s: ExposureScenario | UncertainScenario, eps: float = DEFAULT_EPS
) -> ComparisonSummary:
    """Build both arm distributions and fill every summary field.

    ``eps`` is capped at 1e-9 here (tighter than the general constructor
    limit) so the triple's sum-to-one promise survives truncation.
    """
    return ScenarioAnalysis(s, eps).summary


def counterfactual_all_low(
    s: ExposureScenario | UncertainScenario, eps: float = DEFAULT_EPS
) -> CountDistribution:
    """Total-case distribution if the whole population had the unexposed risk."""
    return ScenarioAnalysis(s, eps).all_low


def split_vs_counterfactual(
    s: ExposureScenario | UncertainScenario, eps: float = DEFAULT_EPS
) -> SplitComparison:
    """Split-exposure total versus the all-low counterfactual total.

    For an ``UncertainScenario`` both totals are predictive: the all-low
    counterfactual applies the unexposed arm's uncertain per-person
    probability to the whole population.
    """
    return ScenarioAnalysis(s, eps).split_comparison


def lives_saved_bounds(
    s: ExposureScenario | UncertainScenario, coverage: float, eps: float = DEFAULT_EPS
) -> LivesSavedBounds:
    return ScenarioAnalysis(s, eps).lives_saved(coverage)


# ---------------------------------------------------------------------------
# observed data
# ---------------------------------------------------------------------------


def more_in_high(high_cases: int, low_cases: int) -> bool:
    return high_cases > low_cases


def times_as_many(factor: float) -> Callable[[int, int], bool]:
    """Predicate: the high count is at least ``factor`` times the low one."""

    def predicate(high_cases: int, low_cases: int) -> bool:
        return high_cases >= factor * low_cases

    return predicate


def observed_comparison(
    high_cases: int, low_cases: int, predicate: Callable[[int, int], bool]
) -> float:
    """Probability that an already-observed comparison holds: exactly 0 or 1.

    Once both counts are known there is nothing left to be uncertain about,
    so no probability model is consulted and no intermediate value is ever
    returned.
    """
    high_cases = _check_count(high_cases, "high_cases")
    low_cases = _check_count(low_cases, "low_cases")
    return 1.0 if predicate(high_cases, low_cases) else 0.0
