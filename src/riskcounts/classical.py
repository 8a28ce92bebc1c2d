"""Classical two-proportion procedures: significance test and risk ratio.

The test is the pooled-proportion score test with an optional (default-on)
continuity correction; p-values are two-sided.  The normal CDF is evaluated
through the complementary error function, which is accurate to ~1e-15
absolute — the third decimal of a p-value is stable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .distributions import DomainError, _check_count, _check_probability

__all__ = ["MAX_ARM_SIZE", "TwoByTwo", "TestResult", "two_proportion_test", "relative_risk_estimate"]


#: Largest arm size of a ``TwoByTwo``: every count up to 2^53 is exact as a
#: float, and the score test's variance stays far from underflow.
MAX_ARM_SIZE = 2**53


@dataclass(frozen=True)
class TwoByTwo:
    """Case counts and arm sizes of a two-arm study."""

    cases_a: int
    n_a: int
    cases_b: int
    n_b: int

    def __post_init__(self) -> None:
        for cases_name, n_name in (("cases_a", "n_a"), ("cases_b", "n_b")):
            cases = _check_count(getattr(self, cases_name), cases_name)
            n = _check_count(getattr(self, n_name), n_name, minimum=1)
            if n > MAX_ARM_SIZE:
                raise DomainError(f"{n_name} must be <= 2**53, got {n}")
            if cases > n:
                raise DomainError(f"{cases_name} {cases} exceeds {n_name} {n}")
            object.__setattr__(self, cases_name, cases)
            object.__setattr__(self, n_name, n)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    alpha: float
    reject: bool

    def __post_init__(self) -> None:
        if self.reject != (self.p_value < self.alpha):
            raise DomainError("reject flag must equal (p_value < alpha)")


def two_proportion_test(
    t: TwoByTwo, continuity_correction: bool = True, alpha: float = 0.05
) -> TestResult:
    """Two-sided pooled score test of equal proportions.

    With the correction on, |p_a - p_b| is reduced by (1/n_a + 1/n_b)/2
    (floored at zero) before standardising, which makes the discrete test
    conservative.  A pooled proportion of exactly 0 or 1 carries no
    evidence either way: statistic 0, p-value 1.
    """
    alpha = _check_probability(alpha, "alpha")
    z, p_value = _score_test(t.cases_a, t.n_a, t.cases_b, t.n_b, continuity_correction)
    return TestResult(statistic=z, p_value=p_value, alpha=alpha, reject=p_value < alpha)


@functools.lru_cache(maxsize=1 << 8)
def _score_test(
    cases_a: int, n_a: int, cases_b: int, n_b: int, continuity_correction: bool
) -> tuple[float, float]:
    """``(statistic, p_value)`` of ``two_proportion_test`` on counts the
    caller vouches for (0 <= cases <= n, n >= 1); replication studies call
    it directly, once per variant and replication.  A pure function of its
    arguments, so the scores of the most recent counts are kept: studies of
    small cohorts repeat the same counts many times."""
    pa = cases_a / n_a
    pb = cases_b / n_b
    pooled = (cases_a + cases_b) / (n_a + n_b)
    if pooled == 0.0 or pooled == 1.0:
        return 0.0, 1.0
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b))
    diff = pa - pb
    d = abs(diff)
    if continuity_correction:
        d = max(0.0, d - (1.0 / n_a + 1.0 / n_b) / 2.0)
    z = math.copysign(d / se, diff)
    return z, math.erfc(abs(z) / math.sqrt(2.0))


def relative_risk_estimate(t: TwoByTwo) -> float:
    """(cases_a/n_a) / (cases_b/n_b), via integer cross-products so that
    exactly representable ratios come out exact."""
    if t.cases_b == 0:
        raise DomainError("relative risk is undefined when the denominator arm has no cases")
    return (t.cases_a * t.n_b) / (t.cases_b * t.n_a)
