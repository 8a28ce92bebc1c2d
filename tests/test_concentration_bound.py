"""Beta priors past ``MAX_CONCENTRATION`` are refused by name and bound.

The beta-binomial anchor is a difference of log-gammas of size c ln c,
evaluated at ``_ANCHOR_DPS`` digits, so its absolute error grows with the
concentration c = alpha + beta.  Up to the bound the built laws match a
higher-precision anchor as closely as at the calibration cap; past it a
build is refused instead of failing the mass identity (``alpha = beta =
1e40`` at n = 1000 used to end in "mass identity violated").
"""

import json
import math

import mpmath
import pytest

from riskcounts.cli import main
from riskcounts.distributions import (
    MAX_CONCENTRATION,
    BetaParams,
    DomainError,
    beta_binomial_distribution,
    mode,
)
from riskcounts.predictive import CONCENTRATION_BOUNDS


def _reference_log_pmf(n, prior, k):
    digits = 40 + int(math.log10(prior.concentration)) + 30
    with mpmath.workdps(digits):
        a, b = mpmath.mpf(prior.alpha), mpmath.mpf(prior.beta)

        def log_beta(x, y):
            return mpmath.loggamma(x) + mpmath.loggamma(y) - mpmath.loggamma(x + y)

        return float(
            mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
            + log_beta(k + a, n - k + b) - log_beta(a, b)
        )


def test_the_bound_lies_above_the_calibration_cap():
    assert MAX_CONCENTRATION >= CONCENTRATION_BOUNDS[1] == 1e12


@pytest.mark.parametrize("c", [CONCENTRATION_BOUNDS[1], MAX_CONCENTRATION])
@pytest.mark.parametrize("n, mean", [(10, 0.5), (1000, 0.01), (2_000_000, 2e-7)])
def test_laws_up_to_the_bound_match_a_higher_precision_anchor(c, n, mean):
    prior = BetaParams(c * mean, c * (1.0 - mean))
    d = beta_binomial_distribution(n, prior)
    for k in {d.support_lo, mode(d), d.support_hi}:
        assert abs(d.log_pmf(k) - _reference_log_pmf(n, prior, k)) < 2e-13


@pytest.mark.parametrize("alpha, beta", [
    (math.nextafter(MAX_CONCENTRATION, math.inf), 1.0),
    (1e40, 1e40),
    (1e100, 1e100),
])
def test_priors_past_the_bound_are_refused_by_name(alpha, beta):
    prior = BetaParams(alpha, beta)
    expected = (
        f"prior {prior} is too concentrated: alpha + beta = {prior.concentration!r} "
        "exceeds the bound 1e+25"
    )
    with pytest.raises(DomainError) as exc:
        beta_binomial_distribution(1000, prior)
    assert str(exc.value) == expected


def test_summarize_refuses_an_over_concentrated_prior(tmp_path, capsys):
    scenario = tmp_path / "tight.json"
    scenario.write_text(json.dumps({"schema_version": 1, "uncertain_scenario": {
        "n_exposed": 1000, "n_unexposed": 1000,
        "prior_exposed": {"alpha": 1e40, "beta": 1e40},
        "prior_unexposed": {"alpha": 1.0, "beta": 1.0},
    }}), encoding="utf-8")
    assert main(["summarize", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: prior BetaParams(alpha=1e+40, beta=1e+40) is too concentrated: "
        "alpha + beta = 2e+40 exceeds the bound 1e+25\n"
    )
