"""Parameter uncertainty via conjugate beta updating.

Replaces each arm's plug-in binomial with the closed-form posterior
predictive (beta-binomial) law, measures how much the high-coverage spread
grows, and calibrates a prior's concentration to hit a requested spread
ratio.  No sampling or quadrature is involved anywhere on the main path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .distributions import (
    DEFAULT_EPS,
    BetaParams,
    CountDistribution,
    DomainError,
    _beta_binomial_args,
    _binomial_args,
    _check_count,
    _check_eps,
    _check_probability,
    _check_real,
    _streamed_interval,
)
from .comparison import (
    ExposureScenario,
    ScenarioAnalysis,
    UncertainScenario,
    split_vs_counterfactual,
)

__all__ = [
    "CONCENTRATION_BOUNDS",
    "CalibrationError",
    "UncertainScenario",
    "SpreadReport",
    "posterior_update",
    "predictive_arms",
    "spread_report",
    "spread_reports",
    "calibrate_prior",
    "calibrated_scenario",
    "split_vs_counterfactual",
]

#: Concentration range searched by ``calibrate_prior``.
CONCENTRATION_BOUNDS = (10.0, 1e12)

#: Spread-ratio tolerance; interval widths are integer counts, so finer
#: targets would be meaningless.
_RATIO_TOL = 0.01


class CalibrationError(ValueError):
    """The requested spread ratio is unreachable within the concentration bounds."""


@dataclass(frozen=True)
class SpreadReport:
    """Predictive versus plug-in interval width at one coverage level.

    ``ratio`` is None (flagged) when the plug-in width is zero.
    """

    width_predictive: int
    width_plugin: int
    ratio: float | None


def posterior_update(prior: BetaParams, successes: int, trials: int) -> BetaParams:
    """Conjugate update: add observed successes/failures as pseudo-counts."""
    if not isinstance(prior, BetaParams):
        raise DomainError("prior must be a BetaParams instance")
    successes = _check_count(successes, "successes")
    trials = _check_count(trials, "trials")
    if successes > trials:
        raise DomainError(f"successes {successes} exceed trials {trials}")
    _check_real(trials, "trials")
    return BetaParams(prior.alpha + successes, prior.beta + trials - successes)


def predictive_arms(
    u: UncertainScenario, eps: float = DEFAULT_EPS
) -> tuple[CountDistribution, CountDistribution]:
    """Posterior predictive count law for each arm (exposed, unexposed)."""
    analysis = ScenarioAnalysis(u, eps)
    return analysis.arm_e, analysis.arm_u


def spread_report(
    n: int, prior: BetaParams, coverage: float = 0.9999, eps: float = DEFAULT_EPS
) -> SpreadReport:
    """Interval-width ratio of the predictive law over the plug-in binomial.

    The plug-in law is the binomial evaluated at the prior mean; both widths
    are measured at the same equal-tail coverage.  Neither law is stored:
    each interval streams from its window (``_streamed_interval``).
    """
    w_pred = _streamed_interval(_beta_binomial_args(n, prior, eps), coverage).width
    w_plug = _streamed_interval(_binomial_args(n, prior.mean, eps), coverage).width
    ratio = w_pred / w_plug if w_plug > 0 else None
    return SpreadReport(width_predictive=w_pred, width_plugin=w_plug, ratio=ratio)


def spread_reports(
    u: UncertainScenario, coverage: float = 0.9999, eps: float = DEFAULT_EPS
) -> tuple[SpreadReport, SpreadReport]:
    """Per-arm spread reports for a scenario (exposed, unexposed)."""
    if not isinstance(u, UncertainScenario):
        raise DomainError("scenario must be an UncertainScenario instance")
    return (
        spread_report(u.n_exposed, u.prior_exposed, coverage, eps),
        spread_report(u.n_unexposed, u.prior_unexposed, coverage, eps),
    )


def calibrate_prior(
    n: int,
    p_mean: float,
    target_ratio: float,
    coverage: float = 0.9999,
    eps: float = DEFAULT_EPS,
) -> BetaParams:
    """Find the beta prior with mean ``p_mean`` whose predictive spread is
    ``target_ratio`` times the plug-in spread.

    The prior mean is held fixed and the concentration alpha+beta is found
    by bisection in log-space on [10, 1e12], from its first midpoint
    sqrt(10 * 1e12), deterministically.  It returns the first midpoint whose
    ratio is within 0.01 of the target.  Each probed midpoint becomes an end
    of the bracket, so the bisection ends when its next midpoint is one it
    has probed, after at most 58.  The ratio need not fall as c rises from
    the lower bound: where P(no case) at c = 10 alone covers the upper
    quantile the predictive width there is 0, and the ratio first rises with
    c before it falls (la_rr2's exposed arm, 2,000,000 people at risk 2e-7:
    0.0 at c = 10, 369.4 at 1e3, 1.8 at 3e6).  So c = 10 is probed only
    then, unless it was a midpoint: it is returned if its ratio is within
    0.01, and otherwise raises "exceeds the maximum ... reachable at
    concentration 10.0" when the target is above its ratio, or the window
    cap's ``DomainError``.  A cap refusal met at a midpoint ends the search
    with that refusal.  Because the widths are integer counts the ratio
    moves in steps; if no step lands within 0.01 of the target, calibration
    fails explicitly rather than returning a silently-off prior.  A target
    of 1 is the no-uncertainty limit: it returns the concentration cap 1e12
    with a ``UserWarning``.
    """
    prior = _calibrate(n, p_mean, target_ratio, coverage, eps)[0]
    if target_ratio == 1.0:
        warnings.warn(
            "target_ratio 1 is the no-uncertainty limit; returning the "
            "concentration cap",
            UserWarning,
            stacklevel=2,
        )
    return prior


def _calibrate(
    n: int, p_mean: float, target_ratio: float, coverage: float, eps: float
) -> tuple[BetaParams, SpreadReport]:
    """``calibrate_prior``, without its warning at a target of 1, plus the
    spread report of the prior it returns, taken from the widths the search
    already measured.  The bisection stops at its first midpoint already
    probed: an end of the bracket."""
    n = _check_count(n, "n", minimum=1)
    p_mean = _check_probability(p_mean, "p_mean")
    if not (0.0 < p_mean < 1.0):
        raise DomainError("p_mean must be strictly inside (0, 1) to calibrate")
    target_ratio = _check_real(target_ratio, "target_ratio")
    if not (target_ratio >= 1.0 and math.isfinite(target_ratio)):
        raise DomainError(f"target_ratio must be >= 1, got {target_ratio!r}")
    eps = _check_eps(eps)

    lo_c, hi_c = CONCENTRATION_BOUNDS
    if target_ratio == 1.0:
        prior = BetaParams(hi_c * p_mean, hi_c * (1.0 - p_mean))
        return prior, spread_report(n, prior, coverage, eps)

    w_plug = _streamed_interval(_binomial_args(n, p_mean, eps), coverage).width
    if w_plug == 0:
        raise DomainError("plug-in interval width is zero; no ratio to target")

    probes: dict[float, tuple[BetaParams, SpreadReport]] = {}

    def probe(c: float) -> tuple[BetaParams, SpreadReport]:
        if c not in probes:
            prior = BetaParams(c * p_mean, c * (1.0 - p_mean))
            w = _streamed_interval(_beta_binomial_args(n, prior, eps), coverage).width
            probes[c] = prior, SpreadReport(w, w_plug, w / w_plug)
        return probes[c]

    lo, hi = lo_c, hi_c
    while (mid := math.sqrt(lo * hi)) not in probes:
        ratio = probe(mid)[1].ratio
        if abs(ratio - target_ratio) <= _RATIO_TOL:
            return probes[mid]
        if ratio > target_ratio:
            lo = mid
        else:
            hi = mid
    floor = probe(lo_c)[1].ratio
    if target_ratio > floor + _RATIO_TOL:
        raise CalibrationError(
            f"target ratio {target_ratio} exceeds the maximum {floor:.4g} "
            f"reachable at concentration {lo_c}"
        )
    if abs(floor - target_ratio) <= _RATIO_TOL:
        return probes[lo_c]
    best_c = min((lo_c, *probes), key=lambda c: abs(probes[c][1].ratio - target_ratio))
    raise CalibrationError(
        f"no concentration in [{lo_c:g}, {hi_c:g}] reaches spread ratio "
        f"{target_ratio} +- {_RATIO_TOL} (closest: {probes[best_c][1].ratio:.4g} at "
        f"concentration {best_c:.6g})"
    )


def calibrated_scenario(
    s: ExposureScenario,
    target_ratio: float,
    coverage: float = 0.9999,
    eps: float = DEFAULT_EPS,
) -> UncertainScenario:
    """Lift a certain-parameter scenario by calibrating each arm's prior
    independently to the same spread-ratio target.  A target of 1 returns
    the concentration cap without a warning."""
    if not isinstance(s, ExposureScenario):
        raise DomainError("scenario must be an ExposureScenario instance")
    return UncertainScenario(
        n_exposed=s.n_exposed,
        n_unexposed=s.n_unexposed,
        prior_exposed=_calibrate(s.n_exposed, s.p_exposed, target_ratio, coverage, eps)[0],
        prior_unexposed=_calibrate(s.n_unexposed, s.p_unexposed, target_ratio, coverage, eps)[0],
    )
