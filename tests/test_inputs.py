"""Edge inputs: negative seeds, subnormal risks, and the masses a builder
hands to the distribution it constructs."""

import json
import math

import numpy as np
import pytest

from riskcounts.cli import main
from riskcounts.classical import TestResult as Result
from riskcounts.classical import TwoByTwo, two_proportion_test
from riskcounts.cohort import (
    CausalSpec,
    CovariateRule,
    ProxyRule,
    banana_swap,
    check_seed,
    false_cause_rate,
    generate,
    proxy_study,
    replication_study,
)
from riskcounts.comparison import (
    ComparisonSummary,
    ExposureScenario,
    UncertainScenario,
    prob_equal,
    prob_greater,
    summarize,
)
from riskcounts.distributions import (
    BetaParams,
    CountDistribution,
    DomainError,
    beta_binomial_distribution,
    binomial_distribution,
    binomial_log_pmf,
    central_interval,
    convolve,
    mode,
    quantile,
)
from riskcounts.predictive import (
    calibrate_prior,
    calibrated_scenario,
    posterior_update,
    predictive_arms,
    spread_report,
    spread_reports,
)
from riskcounts.scenarios import ScenarioError, bundled_text, parse_scenario

MASS_TOL = 1e-9


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------


def _null_spec(tmp_path, **controls):
    doc = json.loads(bundled_text("null_spec"))
    doc.update(controls)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _error_lines(stderr):
    return [line for line in stderr.splitlines() if "error:" in line]


def test_negative_seed_option_exits_2_with_error_line(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", _null_spec(tmp_path), "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _error_lines(captured.err) == [
        "riskcounts simulate: error: argument --seed: must be >= 0, got -1"
    ]
    assert "Traceback" not in captured.err


def test_non_integer_seed_option_is_still_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", _null_spec(tmp_path), "--seed", "1.5"])
    assert exc.value.code == 2
    assert _error_lines(capsys.readouterr().err) == [
        "riskcounts simulate: error: argument --seed: invalid int value: '1.5'"
    ]


def test_negative_seed_in_scenario_file_exits_2_with_error_line(tmp_path, capsys):
    code = main(["simulate", _null_spec(tmp_path, seed=-3), "--replications", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: field 'seed' in ")
    assert captured.err.endswith("must be >= 0, got -3\n")


def test_parse_scenario_refuses_negative_seed_and_keeps_zero():
    doc = json.loads(bundled_text("null_spec"))
    with pytest.raises(ScenarioError, match="'seed'.*>= 0"):
        parse_scenario({**doc, "seed": -1})
    assert parse_scenario({**doc, "seed": 0}).seed == 0


def test_zero_seed_option_runs(tmp_path, capsys):
    assert main(["simulate", _null_spec(tmp_path), "--seed", "0", "--replications", "3"]) == 0
    assert "# seed: 0\n" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# wrong-typed API arguments
# ---------------------------------------------------------------------------


def _spec(**fields):
    return CausalSpec(**{"n_per_group": 10, "true_cause": "none", "baseline_p": 0.1,
                         "effect_p": 0.1, **fields})


@pytest.mark.parametrize("call, message", [
    (lambda: _spec(covariate_rules=[{"name": "x"}]),
     "covariate_rules must be a tuple or list of CovariateRule"),
    (lambda: _spec(covariate_rules=None), "covariate_rules must be a tuple or list of CovariateRule"),
    (lambda: _spec(covariate_rules="x"), "covariate_rules must be a tuple or list of CovariateRule"),
    (lambda: _spec(covariate_rules=(CovariateRule("x", 0.0, 1.0), 3)),
     "covariate_rules must be a tuple or list of CovariateRule"),
    (lambda: _spec(proxy_rule=0.9), "proxy_rule must be a ProxyRule or None"),
    (lambda: posterior_update((1, 2), 1, 2), "prior must be a BetaParams instance"),
    (lambda: posterior_update(None, 1, 2), "prior must be a BetaParams instance"),
    (lambda: spread_report(10, (1, 2)), "prior must be a BetaParams instance"),
    (lambda: calibrated_scenario((1, 2), 2.0), "scenario must be an ExposureScenario instance"),
    (lambda: spread_reports((1, 2)), "scenario must be an UncertainScenario instance"),
    (lambda: predictive_arms((1, 2)),
     "scenario must be an ExposureScenario or UncertainScenario instance"),
    (lambda: generate((1, 2), 0), "spec must be a CausalSpec instance"),
    (lambda: replication_study((1, 2), 3), "spec must be a CausalSpec instance"),
    (lambda: proxy_study((1, 2), 3), "spec must be a CausalSpec instance"),
    (lambda: false_cause_rate((1, 2), 3), "spec must be a CausalSpec instance"),
    (lambda: banana_swap((1, 2), "x"), "cohort must be a Cohort instance"),
    (lambda: summarize((1, 2)), "scenario must be an ExposureScenario or UncertainScenario instance"),
    (lambda: prob_greater((1, 2), binomial_distribution(10, 0.3)),
     "x must be a CountDistribution instance"),
    (lambda: prob_greater(binomial_distribution(10, 0.3), (1, 2)),
     "y must be a CountDistribution instance"),
    (lambda: convolve((1, 2), binomial_distribution(10, 0.3)), "a must be a CountDistribution instance"),
    (lambda: convolve(binomial_distribution(10, 0.3), (1, 2)), "b must be a CountDistribution instance"),
    (lambda: prob_equal(binomial_distribution(10, 0.3), (1, 2)), "y must be a CountDistribution instance"),
    (lambda: central_interval((1, 2), 0.9), "d must be a CountDistribution instance"),
    (lambda: mode((1, 2)), "d must be a CountDistribution instance"),
    (lambda: UncertainScenario(10, 10, 0.5, BetaParams(1, 1)),
     "prior_exposed must be a BetaParams instance"),
    # a value that breaks its type's own invariant
    (lambda: CountDistribution("poisson", 0, 0, np.zeros(1), 0.0), "unknown distribution kind 'poisson'"),
    (lambda: CountDistribution("binomial", 2, 1, np.zeros(1), 0.0), "support_lo 2 exceeds support_hi 1"),
    (lambda: CountDistribution("binomial", 0, 1, np.zeros(1), 0.0),
     "log_mass length must equal the support size"),
    (lambda: binomial_log_pmf(5, 0.5, 6), "k must satisfy k <= n, got k=6, n=5"),
    (lambda: ComparisonSummary(0.5, 0.5, 0.5, None, None, 0.0, 0.0, 0.0),
     "comparison triple sums to 1.5, not 1"),
    (lambda: Result(1.0, 0.01, 0.05, False), "reject flag must equal (p_value < alpha)"),
    (lambda: replication_study(_spec(), 1).row("proxy_exposure"), "no variant named 'proxy_exposure'"),
    # a real argument must be a real number, not None, a string or a bool
    (lambda: ExposureScenario(1, 1, None, 0.5), "p_exposed must be a real number, got None"),
    (lambda: ExposureScenario(10, 10, True, False), "p_exposed must be a real number, got True"),
    (lambda: ExposureScenario(10, 10, 0.5, "0.5"), "p_unexposed must be a real number, got '0.5'"),
    (lambda: ExposureScenario(10, 10, 10**400, 0.5), "p_exposed is beyond the float range"),
    (lambda: _spec(baseline_p="abc"), "baseline_p must be a real number, got 'abc'"),
    (lambda: ProxyRule(False), "accuracy must be a real number, got False"),
    (lambda: two_proportion_test(TwoByTwo(1, 2, 1, 2), alpha=None),
     "alpha must be a real number, got None"),
    (lambda: BetaParams(None, 1), "alpha must be a real number, got None"),
    (lambda: BetaParams(1, "abc"), "beta must be a real number, got 'abc'"),
    (lambda: binomial_distribution(10, 0.5, eps=None), "eps must be a real number, got None"),
    (lambda: binomial_distribution(10, 0.5, eps=True), "eps must be a real number, got True"),
    (lambda: CountDistribution("binomial", 0, 0, np.zeros(1), None),
     "truncated_mass must be a real number, got None"),
    (lambda: quantile(binomial_distribution(10, 0.3), "0.5"), "q must be a real number, got '0.5'"),
    (lambda: central_interval(binomial_distribution(10, 0.3), None),
     "coverage must be a real number, got None"),
    (lambda: CovariateRule("x", None, 1.0), "covariate intercept must be a real number, got None"),
    (lambda: CovariateRule("x", 0.0, 1.0, True), "covariate noise_sd must be a real number, got True"),
    (lambda: calibrate_prior(10, 0.1, None), "target_ratio must be a real number, got None"),
    (lambda: calibrate_prior(10, 0.1, "2"), "target_ratio must be a real number, got '2'"),
    # a count beyond the float range, where it would enter float arithmetic
    # or a message (str refuses an integer past 4,300 digits)
    (lambda: binomial_distribution(10**400, 0.5), "n is beyond the float range"),
    (lambda: beta_binomial_distribution(10**400, BetaParams(1, 1)), "n is beyond the float range"),
    (lambda: calibrate_prior(10**400, 0.1, 2.0), "n is beyond the float range"),
    (lambda: posterior_update(BetaParams(1, 1), 10**400, 10**400), "trials is beyond the float range"),
    (lambda: binomial_log_pmf(10**400, 0.5, 1), "n is beyond the float range"),
    (lambda: binomial_distribution(-10**5000, 0.5), "n is beyond the float range"),
    (lambda: check_seed(-10**5000), "seed is beyond the float range"),
    (lambda: TwoByTwo(1, 10**5000, 1, 2), "n_a is beyond the float range"),
    (lambda: replication_study(_spec(), 10**5000), "replications is beyond the float range"),
    # a bad coverage is refused before a law that is not one
    (lambda: central_interval((1, 2), 2.0), "coverage must lie in (0, 1), got 2.0"),
])
def test_a_wrong_typed_argument_is_refused_with_a_domain_error(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


def test_covariate_rules_given_as_a_list_are_kept_as_a_tuple():
    rule = CovariateRule("x", 0.0, 1.0)
    assert _spec(covariate_rules=[rule]).covariate_rules == (rule,)


# ---------------------------------------------------------------------------
# subnormal risks
# ---------------------------------------------------------------------------


def _check_contract(d, eps):
    assert np.isfinite(d.log_mass).all()
    assert 0.0 < d.truncated_mass <= eps
    assert abs(math.fsum(d.masses) + d.truncated_mass - 1.0) <= MASS_TOL


@pytest.mark.parametrize("n, p", [(2, 5e-324), (3, 5e-324), (10, 5e-324), (10, 2.5e-323)])
@pytest.mark.parametrize("eps", [1e-12, 1e-6])
def test_binomial_with_subnormal_risk_ends_at_last_finite_cell(n, p, eps):
    d = binomial_distribution(n, p, eps)
    _check_contract(d, eps)
    assert d.support_lo == 0
    assert d.support_hi < n
    assert d.truncated_mass >= 2.0**-1072


def test_binomial_two_at_smallest_subnormal():
    # Count 1 holds 2 * 5e-324; the step to count 2 underflows to zero.
    d = binomial_distribution(2, 5e-324)
    assert (d.support_lo, d.support_hi) == (0, 1)
    assert d.log_mass[0] == 0.0
    assert d.truncated_mass == 2.0**-1072


def test_small_but_representable_risk_keeps_its_window():
    # No step underflows here, so nothing is dropped or added.
    d = binomial_distribution(1000, 1e-300)
    assert np.isfinite(d.log_mass).all()
    assert d.truncated_mass == 0.0


# ---------------------------------------------------------------------------
# masses handed over by the builders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: binomial_distribution(100_000, 0.01),
        lambda: beta_binomial_distribution(300, BetaParams(2.5, 97.5)),
        lambda: convolve(binomial_distribution(1000, 0.1), binomial_distribution(900, 0.2)),
        lambda: binomial_distribution(7, 0.0),
        lambda: binomial_distribution(2, 5e-324),
        lambda: beta_binomial_distribution(200_000, BetaParams(0.5, 9.5)),
    ],
)
def test_masses_equal_exp_of_log_mass_and_are_read_only(build):
    d = build()
    assert np.array_equal(d.masses, np.exp(d.log_mass))
    assert not d.masses.flags.writeable
    assert not d.log_mass.flags.writeable
    for arr in (d.log_mass, d.masses):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_a_handed_over_window_is_frozen_in_place():
    """A builder's arrays become the law's own, with no copy."""
    log_mass = np.log([0.25, 0.75])
    masses = np.exp(log_mass)
    d = CountDistribution("binomial", 0, 1, log_mass, 0.0, _exp_sum=(masses, 1.0))
    assert d.log_mass is log_mass and d.masses is masses
    assert not log_mass.flags.writeable and not masses.flags.writeable


@pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_a_non_finite_log_mass_is_refused(bad, at):
    log_mass = np.log([0.25, 0.5, 0.25])
    log_mass[at] = bad
    with pytest.raises(DomainError, match="every stored log_mass must be finite"):
        CountDistribution("binomial", 0, 2, log_mass, 0.0)


def test_a_callers_log_mass_is_copied():
    log_mass = np.log([0.25, 0.75])
    d = CountDistribution("binomial", 0, 1, log_mass, 0.0)
    log_mass[0] = 0.0
    assert log_mass.flags.writeable
    assert d.log_mass.tolist() == [math.log(0.25), math.log(0.75)]
    assert d.pmf(0) == 0.25


def test_handed_over_sum_is_still_checked():
    log_mass = np.log([0.25, 0.25])
    with pytest.raises(DomainError, match="mass identity"):
        CountDistribution("binomial", 0, 1, log_mass, 0.0, _exp_sum=(np.exp(log_mass), 0.5))
