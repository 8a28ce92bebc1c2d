"""Arm-versus-arm comparison against enumeration and sampling oracles."""

import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.stats

from oracles import beta_binomial_log_pmf, exact_binomial_pmf
from riskcounts import (
    BetaParams,
    ExposureScenario,
    UncertainScenario,
    binomial_distribution,
    counterfactual_all_low,
    lives_saved_bounds,
    more_in_high,
    observed_comparison,
    prob_equal,
    prob_greater,
    prob_less,
    split_vs_counterfactual,
    summarize,
    times_as_many,
)
from riskcounts.comparison import ScenarioAnalysis
from riskcounts.scenarios import load_scenario

LA = ExposureScenario(2_000_000, 2_000_000, 2e-7, 1e-7)
LA_RR106 = ExposureScenario(2_000_000, 2_000_000, 0.00020034, 0.000189)


# ---------------------------------------------------------------------------
# oracle: exact enumeration for small arms
# ---------------------------------------------------------------------------


def enumerate_triple(n_x, p_x, n_y, p_y):
    """P(X>Y), P(X=Y), P(X<Y) in exact rational arithmetic."""
    px, py = exact_binomial_pmf(n_x, p_x), exact_binomial_pmf(n_y, p_y)
    gt = sum(px[i] * py[j] for i in range(n_x + 1) for j in range(n_y + 1) if i > j)
    eq = sum(px[i] * py[j] for i in range(n_x + 1) for j in range(n_y + 1) if i == j)
    lt = sum(px[i] * py[j] for i in range(n_x + 1) for j in range(n_y + 1) if i < j)
    return gt, eq, lt


@pytest.mark.parametrize(
    "n_x,p_x,n_y,p_y",
    [
        (1, Fraction(1, 2), 1, Fraction(1, 2)),
        (5, Fraction(1, 10), 5, Fraction(1, 10)),
        (12, Fraction(2, 7), 9, Fraction(1, 3)),
        (25, Fraction(1, 100), 25, Fraction(3, 100)),
        (25, Fraction(99, 100), 17, Fraction(1, 2)),
        (20, Fraction(1, 2), 25, Fraction(1, 2)),
    ],
)
def test_comparison_matches_exhaustive_enumeration(n_x, p_x, n_y, p_y):
    x = binomial_distribution(n_x, float(p_x), eps=1e-13)
    y = binomial_distribution(n_y, float(p_y), eps=1e-13)
    gt, eq, lt = enumerate_triple(n_x, p_x, n_y, p_y)
    assert abs(prob_greater(x, y).value - float(gt)) <= 1e-12
    assert abs(prob_equal(x, y).value - float(eq)) <= 1e-12
    assert abs(prob_less(x, y).value - float(lt)) <= 1e-12


def test_all_small_arm_sizes_against_enumeration():
    # the full n <= 25 sweep at one fixed probability pair
    p_x, p_y = Fraction(3, 50), Fraction(1, 25)
    for n in range(1, 26):
        x = binomial_distribution(n, float(p_x), eps=1e-13)
        y = binomial_distribution(n, float(p_y), eps=1e-13)
        gt, eq, lt = enumerate_triple(n, p_x, n, p_y)
        assert abs(prob_greater(x, y).value - float(gt)) <= 1e-12
        assert abs(prob_equal(x, y).value - float(eq)) <= 1e-12
        assert abs(prob_less(x, y).value - float(lt)) <= 1e-12


def test_monte_carlo_oracle_on_population_scale():
    # 1e6 paired draws; analytic answer must sit within 3 standard errors.
    rng = np.random.default_rng(20260819)
    draws = 1_000_000
    xs = rng.binomial(LA_RR106.n_exposed, LA_RR106.p_exposed, size=draws)
    ys = rng.binomial(LA_RR106.n_unexposed, LA_RR106.p_unexposed, size=draws)
    mc = float(np.mean(xs > ys))
    se = math.sqrt(mc * (1 - mc) / draws)
    x = binomial_distribution(LA_RR106.n_exposed, LA_RR106.p_exposed, 1e-12)
    y = binomial_distribution(LA_RR106.n_unexposed, LA_RR106.p_unexposed, 1e-12)
    assert abs(prob_greater(x, y).value - mc) <= 3 * se


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def test_greater_and_less_are_exact_mirrors():
    x = binomial_distribution(1_000, 0.006, eps=1e-12)
    y = binomial_distribution(1_400, 0.004, eps=1e-12)
    assert prob_less(x, y).value == prob_greater(y, x).value
    assert prob_greater(x, y).value == prob_less(y, x).value
    assert float(prob_greater(x, y)) == prob_greater(x, y).value


def test_triple_sums_to_one():
    x = binomial_distribution(30_000, 1e-4, eps=1e-12)
    y = binomial_distribution(30_000, 2e-4, eps=1e-12)
    total = (
        prob_greater(x, y).value + prob_equal(x, y).value + prob_less(x, y).value
    )
    assert abs(total - 1.0) <= 1e-9


def test_error_bound_tracks_truncation():
    x = binomial_distribution(30_000, 1e-3, eps=1e-10)
    y = binomial_distribution(30_000, 2e-3, eps=1e-10)
    bound = prob_greater(x, y).error_bound
    assert bound <= x.truncated_mass + y.truncated_mass + 1e-300
    assert bound <= 2e-10


# ---------------------------------------------------------------------------
# scenario summaries
# ---------------------------------------------------------------------------


def test_la_summary_against_high_precision_oracle():
    summ = summarize(LA)
    with mp.workdps(50):
        nobody_e = float((1 - mp.mpf(2e-7)) ** 2_000_000)
        nobody_u = float((1 - mp.mpf(1e-7)) ** 2_000_000)
        eff = float(
            (1 - (1 - mp.mpf(2e-7)) ** 2_000_000)
            / (1 - (1 - mp.mpf(1e-7)) ** 2_000_000)
        )
    assert summ.p_nobody_exposed == pytest.approx(nobody_e, rel=1e-12)
    assert summ.p_nobody_unexposed == pytest.approx(nobody_u, rel=1e-12)
    assert summ.effective_rr == pytest.approx(eff, rel=1e-12)
    assert summ.per_person_rr == 2.0


@pytest.mark.xfail(strict=True, reason=(
    "known defect: a beta prior's P(no cases) is read off its law's window, "
    "which for la_rr106_c1e7 starts at 135, so it prints as exactly 0"))
def test_p_nobody_of_a_beta_prior_matches_its_oracles_off_the_window():
    """P(no cases) in each arm of ``la_rr106_c1e7``, 2.26e-159 exposed and
    2.16e-150 unexposed, within 1e-9 relative of the mpmath log-pmf.
    scipy's ``betabinom.pmf(0, ...)`` agrees with that oracle only to
    1.9e-8 relative here (its log-betas are doubles), so it is held to
    1e-7."""
    scenario = load_scenario(Path(__file__).parent / "golden" / "la_rr106_c1e7.json").payload
    summ = ScenarioAnalysis(scenario).summary
    for n, prior, got in (
        (scenario.n_exposed, scenario.prior_exposed, summ.p_nobody_exposed),
        (scenario.n_unexposed, scenario.prior_unexposed, summ.p_nobody_unexposed),
    ):
        want = math.exp(beta_binomial_log_pmf(n, prior, 0))
        assert 0.0 < want < 1e-149
        assert abs(scipy.stats.betabinom.pmf(0, n, prior.alpha, prior.beta) - want) <= 1e-7 * want
        assert abs(got - want) <= 1e-9 * want, (got, want)


def test_la_comparison_regression_values():
    # pinned values, cross-checked by the enumeration and Monte Carlo
    # oracles above; drift here means the numerics changed
    summ = summarize(LA)
    assert summ.p_exposed_more == pytest.approx(0.2801286, abs=2e-6)
    assert summ.p_equal == pytest.approx(0.5936015, abs=2e-6)
    assert summ.p_unexposed_more == pytest.approx(0.1262699, abs=2e-6)
    assert summ.error_bound <= 1e-9


def test_effective_rr_shrinks_with_population():
    ladder = []
    for n in (2_000_000, 4_000_000, 160_000_000):
        s = ExposureScenario(n, n, 2e-7, 1e-7)
        ladder.append(summarize(s).effective_rr)
    assert ladder[0] > ladder[1] > ladder[2] >= 1.0
    assert ladder[0] == pytest.approx(1.8187307, abs=1e-6)
    assert ladder[1] == pytest.approx(1.6703200, abs=1e-6)
    assert ladder[2] == pytest.approx(1.0, abs=0.01)


def test_effective_rr_none_only_when_both_arms_certain_zero():
    s = ExposureScenario(1_000, 1_000, 0.0, 0.0)
    summ = summarize(s)
    assert summ.effective_rr is None
    assert summ.per_person_rr is None
    assert not summ.effective_rr_defined
    assert summ.p_equal == pytest.approx(1.0, abs=1e-12)
    one_sided = summarize(ExposureScenario(1_000, 1_000, 1e-3, 0.0))
    assert one_sided.effective_rr == math.inf


def test_degenerate_equal_risks():
    s = ExposureScenario(500, 500, 0.0, 0.0)
    summ = summarize(s)
    assert (summ.p_exposed_more, summ.p_unexposed_more) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# split totals and the counterfactual
# ---------------------------------------------------------------------------


def test_counterfactual_is_one_binomial_over_everyone():
    s = ExposureScenario(1_200, 1_800, 0.01, 0.004)
    low = counterfactual_all_low(s)
    direct = binomial_distribution(3_000, 0.004, eps=1e-12)
    assert low.support_lo == direct.support_lo
    np.testing.assert_allclose(low.masses, direct.masses, rtol=1e-12)


def test_split_comparison_regression_on_rr106():
    comp = split_vs_counterfactual(LA_RR106)
    assert comp.mode_split == 778
    assert comp.mode_all_low == 756
    assert comp.p_split_more == pytest.approx(0.714387, abs=2e-5)
    assert comp.p_all_low_more == pytest.approx(0.276999, abs=2e-5)
    total = comp.p_split_more + comp.p_equal + comp.p_all_low_more
    assert abs(total - 1.0) <= 1e-8


def test_lives_saved_bounds_structure_and_regression():
    lives = lives_saved_bounds(LA_RR106, coverage=0.9999)
    assert lives.best_case == lives.split_interval.hi - lives.all_low_interval.lo
    assert lives.split_interval.achieved >= 0.9999
    assert lives.all_low_interval.achieved >= 0.9999
    # pinned: the honest 99.99% envelope of this scenario
    assert (lives.split_interval.lo, lives.split_interval.hi) == (673, 890)
    assert (lives.all_low_interval.lo, lives.all_low_interval.hi) == (651, 865)
    assert lives.best_case == 239
    assert lives.most_likely == 22
    assert lives.tail_prob_best_case == pytest.approx(5.04e-5, abs=1e-6)


@pytest.mark.parametrize("scenario", [
    LA_RR106,
    UncertainScenario(2_000_000, 2_000_000, BetaParams(200.34, 999_799.66), BetaParams(189.0, 999_811.0)),
], ids=["fixed", "uncertain"])
def test_best_case_tail_keeps_the_bits_of_its_own_suffix_sum(scenario):
    # the tail read through _above_lookup against the reversed cumsum it replaced
    analysis = ScenarioAnalysis(scenario)
    lives = analysis.lives_saved(0.9999)
    split = analysis.split_comparison.split
    suffix = np.cumsum(split.masses[::-1])[::-1]
    old = float(suffix[lives.split_interval.hi - split.support_lo])
    assert type(lives.tail_prob_best_case) is float
    assert lives.tail_prob_best_case.hex() == old.hex()
    assert 0 < old < 1e-3


def test_lives_saved_can_go_negative():
    flipped = ExposureScenario(2_000_000, 2_000_000, 0.000189, 0.00020034)
    lives = lives_saved_bounds(flipped, coverage=0.9999)
    assert lives.most_likely < 0


# ---------------------------------------------------------------------------
# observed (already-counted) comparisons
# ---------------------------------------------------------------------------


def test_observed_comparison_returns_only_zero_or_one():
    assert observed_comparison(866, 670, more_in_high) == 1.0
    assert observed_comparison(670, 866, more_in_high) == 0.0
    assert observed_comparison(15, 5, times_as_many(3.0)) == 1.0
    assert observed_comparison(14, 5, times_as_many(3.0)) == 0.0
    for high, low in [(0, 0), (3, 3), (10, 2)]:
        assert observed_comparison(high, low, more_in_high) in (0.0, 1.0)
