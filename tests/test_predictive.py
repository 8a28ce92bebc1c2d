"""Risk-uncertainty layer: posterior updates, predictive laws, calibration."""

import math
import random
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from riskcounts import (
    BetaParams,
    CalibrationError,
    DomainError,
    ExposureScenario,
    UncertainScenario,
    beta_binomial_distribution,
    binomial_distribution,
    calibrate_prior,
    calibrated_scenario,
    posterior_update,
    predictive_arms,
    prob_greater,
    spread_report,
    spread_reports,
)
from pinned import scenario_path
from riskcounts import predictive
from riskcounts.cli import main
from riskcounts.predictive import split_vs_counterfactual as predictive_split

LA_RR106 = ExposureScenario(2_000_000, 2_000_000, 0.00020034, 0.000189)


# ---------------------------------------------------------------------------
# posterior arithmetic
# ---------------------------------------------------------------------------


def test_posterior_update_is_exact_addition():
    post = posterior_update(BetaParams(2.0, 5.0), successes=3, trials=10)
    assert (post.alpha, post.beta) == (5.0, 12.0)
    assert posterior_update(BetaParams(1.0, 1.0), 0, 0) == BetaParams(1.0, 1.0)


def test_posterior_update_validates_counts():
    with pytest.raises(DomainError):
        posterior_update(BetaParams(1.0, 1.0), successes=5, trials=3)
    with pytest.raises(DomainError):
        posterior_update(BetaParams(1.0, 1.0), successes=-1, trials=3)


def test_posterior_mean_moves_toward_data():
    prior = BetaParams(1.0, 9.0)  # mean 0.1
    post = posterior_update(prior, successes=80, trials=100)
    assert prior.mean < post.mean < 0.8


# ---------------------------------------------------------------------------
# predictive law against scipy and sampling
# ---------------------------------------------------------------------------


def test_predictive_matches_scipy_betabinom():
    n, a, b = 5_000, 12.5, 6_200.0
    d = beta_binomial_distribution(n, BetaParams(a, b), eps=1e-12)
    ref = scipy.stats.betabinom(n, a, b)
    ks = np.arange(d.support_lo, d.support_hi + 1)
    np.testing.assert_allclose(d.masses, ref.pmf(ks), rtol=5e-11)


def test_predictive_matches_two_stage_sampling():
    rng = np.random.default_rng(7_000_000)
    n, prior = 800, BetaParams(3.0, 1_500.0)
    draws = 1_000_000
    ps = rng.beta(prior.alpha, prior.beta, size=draws)
    ks = rng.binomial(n, ps)
    d = beta_binomial_distribution(n, prior, eps=1e-12)
    for k in (0, 1, 2, 4):
        mc = float(np.mean(ks == k))
        se = math.sqrt(mc * (1 - mc) / draws)
        assert abs(d.pmf(k) - mc) <= 4 * se


def test_predictive_arms_order_and_params():
    u = UncertainScenario(1_000, 2_000, BetaParams(2.0, 98.0), BetaParams(1.0, 99.0))
    arm_e, arm_u = predictive_arms(u)
    assert arm_e.mean() == pytest.approx(1_000 * 0.02, rel=1e-9)
    assert arm_u.mean() == pytest.approx(2_000 * 0.01, rel=1e-9)


# ---------------------------------------------------------------------------
# spread reports
# ---------------------------------------------------------------------------


def test_spread_widens_as_concentration_falls():
    n, p = 2_000_000, 0.000189
    ratios = []
    for c in (1e9, 1e7, 1e5):
        rep = spread_report(n, BetaParams(c * p, c * (1 - p)))
        ratios.append(rep.ratio)
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[0] >= 1.0 - 1e-12


def test_spread_ratio_none_when_plugin_width_zero():
    rep = spread_report(5, BetaParams(1e-8, 1e4))
    assert rep.width_plugin == 0
    assert rep.ratio is None


def test_spread_reports_cover_both_arms():
    u = UncertainScenario(
        2_000_000, 2_000_000, BetaParams(133.0, 665_511.0), BetaParams(126.0, 665_518.0)
    )
    rep_e, rep_u = spread_reports(u)
    assert rep_e.width_predictive > rep_e.width_plugin
    assert rep_u.width_predictive > rep_u.width_plugin


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def test_calibration_hits_target_and_is_deterministic():
    prior_a = calibrate_prior(2_000_000, 0.00020034, target_ratio=2.0)
    prior_b = calibrate_prior(2_000_000, 0.00020034, target_ratio=2.0)
    assert prior_a == prior_b
    rep = spread_report(2_000_000, prior_a)
    assert rep.ratio == pytest.approx(2.0, abs=0.01)
    assert prior_a.mean == pytest.approx(0.00020034, rel=1e-12)


def test_calibration_keeps_the_prior_mean_fixed():
    for target in (1.5, 2.0, 3.0):
        prior = calibrate_prior(500_000, 4e-4, target_ratio=target)
        assert prior.mean == pytest.approx(4e-4, rel=1e-12)


def test_calibrated_ratio_monotone_in_target():
    widths = []
    for target in (1.3, 2.0, 4.0):
        prior = calibrate_prior(2_000_000, 0.000189, target_ratio=target)
        widths.append(spread_report(2_000_000, prior).width_predictive)
    assert widths[0] < widths[1] < widths[2]


def test_target_one_warns_and_returns_concentration_cap():
    with pytest.warns(UserWarning):
        prior = calibrate_prior(10_000, 0.01, target_ratio=1.0)
    assert prior.concentration == pytest.approx(1e12, rel=1e-12)


#: Spread reports on la_rr2's exposed arm (2,000,000 people at risk 2e-7)
#: by concentration: (width_predictive, width_plugin).  The ratio is 0 at
#: calibration's lower bound c = 10 and rises before it falls, so a search
#: that assumed it falls from c = 10 refused targets it could reach (1.8 at
#: 3e6).
LA_RR2_SWEEP = {10.0: (0, 5), 1e3: (1847, 5), 1e5: (90, 5), 1e6: (17, 5), 3e6: (9, 5), 1e7: (6, 5)}


def test_the_spread_ratio_is_not_monotone_from_the_lower_concentration_bound():
    reports = {
        c: spread_report(2_000_000, BetaParams(c * 2e-7, c * (1 - 2e-7))) for c in LA_RR2_SWEEP
    }
    assert {c: (r.width_predictive, r.width_plugin) for c, r in reports.items()} == LA_RR2_SWEEP
    ratios = [reports[c].ratio for c in LA_RR2_SWEEP]
    assert ratios == pytest.approx([0.0, 369.4, 18.0, 3.4, 1.8, 1.2])
    # the search starts at its first midpoint, sqrt(10 * 1e12), where the ratio is 9/5
    prior = calibrate_prior(2_000_000, 2e-7, target_ratio=1.8)
    assert prior.concentration == pytest.approx(3_162_277.66016838, rel=1e-12)
    rep = spread_report(2_000_000, BetaParams(prior.alpha, prior.beta))
    assert (rep.width_predictive, rep.width_plugin, rep.ratio) == (9, 5, 9 / 5)


#: la_rr106's calibrated priors, (alpha, beta) as ``float.hex``, by target
#: ratio, for the exposed arm (risk 0.00020034) and the unexposed (0.000189).
LA_RR106_PRIORS = {
    1.5: (("0x1.3cf263c8e89dcp+8", "0x1.8229fc0adc9f7p+20"),
          ("0x1.2b01a696e51c1p+8", "0x1.822b1b16afbfbp+20")),
    2.0: (("0x1.0ab5d8d33b34fp+7", "0x1.44f4dcc4289a2p+19"),
          ("0x1.f73a20596ae18p+6", "0x1.44f5ce50b3028p+19")),
    3.0: (("0x1.91972b6fa6a16p+5", "0x1.e94af374ae67cp+17"),
          ("0x1.7f92d4fe7396cp+5", "0x1.ef6322cdea46bp+17")),
}


@pytest.mark.parametrize("target", sorted(LA_RR106_PRIORS))
def test_la_rr106_priors_are_pinned_bit_for_bit(target):
    got = tuple(
        (prior.alpha.hex(), prior.beta.hex())
        for prior in (
            calibrate_prior(LA_RR106.n_exposed, LA_RR106.p_exposed, target),
            calibrate_prior(LA_RR106.n_unexposed, LA_RR106.p_unexposed, target),
        )
    )
    assert got == LA_RR106_PRIORS[target]


#: ``calibrate <scenario> 1.5`` stderr on the bundled scenarios whose
#: concentration-10 probe refuses: no midpoint reaches 1.5, so the lower
#: bound's refusal stands, as the search's first probe raised it.
REFUSALS_AT_1_5 = {
    "la_rr2": "target ratio 1.5 exceeds the maximum 0 reachable at concentration 10.0",
    "ny_rr2": "target ratio 1.5 exceeds the maximum 0 reachable at concentration 10.0",
    "us_rr2": "support window of 22264918 points exceeds the 20000000-point cap; the eps "
              "contract cannot be met at desk scale for these parameters",
}


@pytest.mark.parametrize("name", sorted(REFUSALS_AT_1_5))
def test_an_unreached_target_keeps_the_lower_bounds_refusal(name, tmp_path, capsys):
    assert main(["calibrate", scenario_path(tmp_path, name), "1.5"]) == 2
    out, err = capsys.readouterr()
    assert out == "calibrating beta priors to spread ratio 1.5 at 99.99% coverage\n"
    assert err == f"error: {REFUSALS_AT_1_5[name]}\n"


ARM = re.compile(
    r"  alpha: (\S+)\n  beta:  (\S+)\n.*\n"
    r"  interval widths: predictive (\d+), plug-in (\d+), ratio (\S+)\n"
)


@pytest.mark.parametrize("target", ["2.0", "3.0"])
@pytest.mark.parametrize("name", sorted(REFUSALS_AT_1_5))
def test_a_root_above_the_lower_bound_is_found(name, target, tmp_path, capsys):
    """Each arm's printed ratio is within 0.01 of the target, and is the
    ratio an independent spread report gives at the printed prior."""
    assert main(["calibrate", scenario_path(tmp_path, name), target]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    arms = ARM.findall(out)
    ns = [int(n) for n in re.findall(r"arm \(n=(\d+),", out)]
    assert len(arms) == len(ns) == 2
    for n, (alpha, beta, w_pred, w_plug, ratio) in zip(ns, arms):
        assert abs(float(ratio) - float(target)) <= 0.01
        rep = spread_report(n, BetaParams(float(alpha), float(beta)))
        assert (rep.width_predictive, rep.width_plugin) == (int(w_pred), int(w_plug))
        assert f"{rep.ratio:#.6g}" == ratio


def recorded_priors(monkeypatch):
    """The prior of every predictive law the search builds, in build order."""
    built = []
    args = predictive._beta_binomial_args

    def recorded(n, prior, eps):
        built.append(prior)
        return args(n, prior, eps)

    monkeypatch.setattr(predictive, "_beta_binomial_args", recorded)
    return built


@pytest.mark.parametrize("n, p_mean, target, refusal", [
    (1_000, 0.05, 500.0, "target ratio 500.0 exceeds the maximum 10.94 reachable at concentration 10.0"),
    # la_rr2's exposed arm: the ratio is 0 at c = 10 and no midpoint reaches 1.5
    (2_000_000, 2e-7, 1.5, "target ratio 1.5 exceeds the maximum 0 reachable at concentration 10.0"),
])
def test_an_unreachable_target_probes_each_concentration_once_and_10_last(
    monkeypatch, n, p_mean, target, refusal
):
    built = recorded_priors(monkeypatch)
    with pytest.raises(CalibrationError) as got:
        calibrate_prior(n, p_mean, target_ratio=target)
    assert str(got.value) == refusal
    probed = [prior.concentration for prior in built]
    assert len(probed) == len(set(probed)) <= 59
    assert probed[-1] == 10.0


def capped_bisection(target_ratio, w_plug, width_at):
    """The search as it stood with a cap of 200 bisection rounds, the
    oracle for its stop rule: its outcome (a concentration, or a
    refusal's text) and the concentrations it measured, in order.
    ``width_at(c)`` is the predictive width at concentration ``c``."""
    lo_c, hi_c = predictive.CONCENTRATION_BOUNDS
    probes = {}

    def ratio_at(c):
        if c not in probes:
            probes[c] = width_at(c) / w_plug
        return probes[c]

    try:
        lo, hi = lo_c, hi_c
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            ratio = ratio_at(mid)
            if abs(ratio - target_ratio) <= 0.01:
                return mid, list(probes)
            if ratio > target_ratio:
                lo = mid
            else:
                hi = mid
        floor = ratio_at(lo_c)
        if target_ratio > floor + 0.01:
            return (
                f"target ratio {target_ratio} exceeds the maximum {floor:.4g} "
                f"reachable at concentration {lo_c}"
            ), list(probes)
        best_c = min((lo_c, *probes), key=lambda c: abs(probes[c] - target_ratio))
        if abs(probes[best_c] - target_ratio) <= 0.01:
            return best_c, list(probes)
        return (
            f"no concentration in [{lo_c:g}, {hi_c:g}] reaches spread ratio "
            f"{target_ratio} +- 0.01 (closest: {probes[best_c]:.4g} at "
            f"concentration {best_c:.6g})"
        ), list(probes)
    except DomainError as exc:
        return str(exc), list(probes)


def search_and_oracle(monkeypatch, n, p_mean, target, coverage, eps, width_at=None):
    """``_calibrate``'s outcome and probes next to ``capped_bisection``'s,
    each as (prior or refusal text, the priors probed in order).  With
    ``width_at`` the laws are not built: the plug-in width is 5 and the
    predictive width at concentration c is ``width_at(c)``."""
    def prior(c):
        return BetaParams(c * p_mean, c * (1.0 - p_mean))

    if width_at is None:
        def width_at(c):
            args = predictive._beta_binomial_args(n, prior(c), eps)
            return predictive._streamed_interval(args, coverage).width

        w_plug = predictive._streamed_interval(predictive._binomial_args(n, p_mean, eps), coverage).width
    else:
        w_plug = 5
        monkeypatch.setattr(predictive, "_binomial_args", lambda n, p, eps: None)
        monkeypatch.setattr(predictive, "_beta_binomial_args", lambda n, prior, eps: prior)
        monkeypatch.setattr(
            predictive, "_streamed_interval",
            lambda args, coverage: SimpleNamespace(
                width=w_plug if args is None else width_at(args.concentration)
            ),
        )
    outcome, probed = capped_bisection(target, w_plug, width_at)
    expected = (prior(outcome) if isinstance(outcome, float) else outcome, [prior(c) for c in probed])

    built = recorded_priors(monkeypatch)
    try:
        got = predictive._calibrate(n, p_mean, target, coverage, eps)[0]
    except (CalibrationError, DomainError) as exc:
        got = str(exc)
    return (got, built), expected


@pytest.mark.parametrize("target, width_at, probes", [
    (2.0, lambda c: 50, 59),  # always above: the bracket closes on 1e12, then c = 10
    (2.0, lambda c: 5, 58),  # always below: the bracket closes on 10, its last midpoint
    (2.0, lambda c: 10 if c < 10.5 else 50, 59),  # only c = 10 is within tolerance
    (3.0, lambda c: 5 if c < 1e4 else 50, 59),
    (3.0, lambda c: 50 if c < 1e4 else 5, 58),
])
def test_the_bisection_stops_where_the_capped_loop_stopped_probing(
    monkeypatch, target, width_at, probes
):
    got, expected = search_and_oracle(monkeypatch, 100, 0.25, target, 0.9, 1e-12, width_at)
    assert got == expected
    assert len(got[1]) == len(set(got[1])) == probes


def stepped_width(seed):
    """A predictive width at concentration c that moves in steps and need
    not be monotone: a pseudo-random step function of log10(c)."""
    steps = np.random.default_rng(seed).integers(0, 40, size=12)
    return lambda c: int(steps[min(int(math.log10(c)), 11)])


@pytest.mark.parametrize("seed", range(40))
def test_the_bisection_keeps_the_capped_outcome_on_stepped_widths(monkeypatch, seed):
    target = [1.5, 2.0, 3.0, 4.2, 7.0][seed % 5]
    got, expected = search_and_oracle(
        monkeypatch, 100, 0.25, target, 0.9, 1e-12, stepped_width(seed)
    )
    assert got == expected


def small_arm_cases(count, seed=20):
    """``count`` seeded (n, p_mean, target, coverage) cases of small arms."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n = rng.randrange(1, 3_000)
        p_mean = 10.0 ** rng.uniform(-3.0, -0.3)
        coverage = rng.choice([0.5, 0.9, 0.99, 0.9999])
        target = round(rng.uniform(1.0, 6.0), 3)
        if n * p_mean >= 1.0 and target > 1.0:
            cases.append((n, p_mean, target, coverage))
    return cases


@pytest.mark.parametrize("n, p_mean, target, coverage", small_arm_cases(24))
def test_the_bisection_keeps_the_capped_outcome_on_small_arms(monkeypatch, n, p_mean, target, coverage):
    got, expected = search_and_oracle(monkeypatch, n, p_mean, target, coverage, 1e-12)
    assert got == expected


@pytest.mark.parametrize("target, closest", [
    (2.369, "2.4 at concentration 10"),  # the lower bound wins the tie-break
    (1.148, "1.133 at concentration 159.634"),
])
def test_a_target_between_ratio_steps_names_the_closest_probe(target, closest):
    """Widths of a 50-person arm move the ratio in steps wider than the
    tolerance, so some targets are missed everywhere."""
    with pytest.raises(CalibrationError) as got:
        calibrate_prior(50, 0.1, target_ratio=target)
    assert str(got.value) == (
        f"no concentration in [10, 1e+12] reaches spread ratio {target} +- 0.01 (closest: {closest})"
    )


def test_unreachable_target_raises():
    with pytest.raises(CalibrationError):
        calibrate_prior(1_000, 0.05, target_ratio=500.0)


def test_calibration_rejects_bad_inputs():
    with pytest.raises(DomainError):
        calibrate_prior(1_000, 0.0, target_ratio=2.0)
    with pytest.raises(DomainError):
        calibrate_prior(1_000, 0.05, target_ratio=0.5)


@pytest.mark.parametrize("n, p_mean", [(1, 1e-9), (10, 1e-6)])
def test_a_zero_plug_in_width_leaves_no_ratio_to_target(n, p_mean):
    with pytest.raises(DomainError) as got:
        calibrate_prior(n, p_mean, 2.0)
    assert str(got.value) == "plug-in interval width is zero; no ratio to target"


def test_calibrated_scenario_carries_sizes_and_means():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no stray warnings on the happy path
        u = calibrated_scenario(LA_RR106, target_ratio=2.0)
    assert (u.n_exposed, u.n_unexposed) == (2_000_000, 2_000_000)
    assert u.prior_exposed.mean == pytest.approx(0.00020034, rel=1e-12)
    assert u.prior_unexposed.mean == pytest.approx(0.000189, rel=1e-12)


# ---------------------------------------------------------------------------
# uncertainty flattens comparisons (regression on the doubled-spread case)
# ---------------------------------------------------------------------------


def test_doubled_spread_softens_the_comparison():
    u = calibrated_scenario(LA_RR106, target_ratio=2.0)
    arm_e, arm_u = predictive_arms(u)
    p_more = prob_greater(arm_e, arm_u).value
    certain_e = binomial_distribution(LA_RR106.n_exposed, LA_RR106.p_exposed, 1e-12)
    certain_u = binomial_distribution(LA_RR106.n_unexposed, LA_RR106.p_unexposed, 1e-12)
    p_more_certain = prob_greater(certain_e, certain_u).value
    assert p_more < p_more_certain  # widening cuts the separation
    assert p_more == pytest.approx(0.654622, abs=5e-4)


def test_predictive_split_regression():
    u = calibrated_scenario(LA_RR106, target_ratio=2.0)
    comp = predictive_split(u)
    assert comp.p_split_more == pytest.approx(0.599417, abs=5e-4)
    assert comp.p_all_low_more == pytest.approx(0.396389, abs=5e-4)
    total = comp.p_split_more + comp.p_equal + comp.p_all_low_more
    assert abs(total - 1.0) <= 1e-8


def test_concentration_limit_recovers_certainty():
    # at concentration 1e10 every comparison output sits within 1e-3 of
    # the fixed-risk answer
    n, p_e, p_u = 2_000_000, 0.00020034, 0.000189
    c = 1e10
    bb_e = beta_binomial_distribution(n, BetaParams(c * p_e, c * (1 - p_e)), 1e-12)
    bb_u = beta_binomial_distribution(n, BetaParams(c * p_u, c * (1 - p_u)), 1e-12)
    bi_e = binomial_distribution(n, p_e, 1e-12)
    bi_u = binomial_distribution(n, p_u, 1e-12)
    assert abs(prob_greater(bb_e, bb_u).value - prob_greater(bi_e, bi_u).value) <= 1e-3
