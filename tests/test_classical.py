"""Two-proportion test against an independent spelling of the score test."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_two_proportion_test
from riskcounts import (
    DomainError,
    TwoByTwo,
    relative_risk_estimate,
    two_proportion_test,
)


tables = st.tuples(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
).map(lambda t: TwoByTwo(min(t[2], t[0]), t[0], min(t[3], t[1]), t[1]))


# ---------------------------------------------------------------------------
# agreement with the reference
# ---------------------------------------------------------------------------


@given(t=tables, continuity=st.booleans())
@settings(max_examples=300, deadline=None)
def test_matches_reference_implementation(t, continuity):
    result = two_proportion_test(t, continuity_correction=continuity)
    want = oracle_two_proportion_test(t, continuity)
    assert result.statistic == pytest.approx(want.statistic, rel=1e-12, abs=1e-12)
    assert result.p_value == pytest.approx(want.p_value, rel=1e-12, abs=1e-15)


def test_published_count_pairs():
    r = two_proportion_test(TwoByTwo(15, 1000, 5, 1000))
    assert r.p_value == pytest.approx(0.0431, abs=5e-4)
    assert r.reject
    r2 = two_proportion_test(TwoByTwo(14, 1000, 5, 1000))
    assert r2.p_value == pytest.approx(0.0652, abs=5e-4)
    assert not r2.reject


def test_identical_proportions_never_reject():
    r = two_proportion_test(TwoByTwo(5, 1000, 5, 1000))
    assert r.statistic == 0.0
    assert r.p_value == 1.0
    assert not r.reject


def test_empty_outcome_table():
    r = two_proportion_test(TwoByTwo(0, 100, 0, 100))
    assert (r.statistic, r.p_value, r.reject) == (0.0, 1.0, False)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


@given(t=tables)
@settings(max_examples=200, deadline=None)
def test_swapping_arms_negates_statistic(t):
    fwd = two_proportion_test(t)
    rev = two_proportion_test(TwoByTwo(t.cases_b, t.n_b, t.cases_a, t.n_a))
    assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12, abs=1e-15)
    assert fwd.statistic == pytest.approx(-rev.statistic, rel=1e-12, abs=1e-12)


@given(t=tables)
@settings(max_examples=200, deadline=None)
def test_continuity_correction_is_conservative(t):
    with_cc = two_proportion_test(t, continuity_correction=True)
    without = two_proportion_test(t, continuity_correction=False)
    assert with_cc.p_value >= without.p_value - 1e-12


@given(t=tables, alpha=st.sampled_from([0.01, 0.05, 0.1]))
@settings(max_examples=200, deadline=None)
def test_reject_flag_matches_alpha_comparison(t, alpha):
    r = two_proportion_test(t, alpha=alpha)
    assert r.reject == (r.p_value < alpha)
    assert r.alpha == alpha


def test_p_value_stays_in_unit_interval():
    for table in [TwoByTwo(500, 500, 0, 500), TwoByTwo(1, 2, 0, 2)]:
        r = two_proportion_test(table)
        assert 0.0 <= r.p_value <= 1.0


# ---------------------------------------------------------------------------
# relative risk
# ---------------------------------------------------------------------------


def test_relative_risk_is_exact_on_exact_ratios():
    assert relative_risk_estimate(TwoByTwo(15, 1000, 5, 1000)) == 3.0
    assert relative_risk_estimate(TwoByTwo(7, 700, 2, 200)) == 1.0


def test_relative_risk_needs_denominator_cases():
    with pytest.raises(DomainError):
        relative_risk_estimate(TwoByTwo(3, 100, 0, 100))


def test_table_validation():
    with pytest.raises(DomainError):
        TwoByTwo(5, 4, 0, 10)  # more cases than people
    with pytest.raises(DomainError):
        TwoByTwo(1, 0, 0, 10)
    with pytest.raises(DomainError):
        two_proportion_test(TwoByTwo(1, 10, 1, 10), alpha=1.5)
    # alpha = 0 is a legal (if useless) size: nothing ever rejects
    assert not two_proportion_test(TwoByTwo(1, 10, 1, 10), alpha=0.0).reject
