"""Count-distribution construction against independent oracles.

The oracles here are deliberately dumb: exact rational arithmetic for small
cases, closed-form moment identities, mpmath reference values, and known
approximation bounds.  None of them share code with the construction under
test.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import beta_binomial_log_pmf, exact_binomial_pmf
from riskcounts import (
    DEFAULT_EPS,
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

MASS_TOL = 1e-9


# ---------------------------------------------------------------------------
# exact small cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,p", [(1, Fraction(1, 2)), (7, Fraction(1, 7)),
                                 (20, Fraction(3, 5)), (25, Fraction(9, 10))])
def test_binomial_matches_exact_rational_pmf(n, p):
    eps = 1e-12
    d = binomial_distribution(n, float(p), eps=eps)
    exact = exact_binomial_pmf(n, p)
    for k in range(d.support_lo, d.support_hi + 1):
        assert d.pmf(k) == pytest.approx(float(exact[k]), rel=1e-13)
    dropped = sum(exact[: d.support_lo]) + sum(exact[d.support_hi + 1 :])
    assert float(dropped) <= eps


@pytest.mark.parametrize("n,a,b", [(10, 2.0, 3.0), (15, 0.5, 0.5),
                                   (30, 1.0, 9.0), (12, 40.0, 200.0)])
def test_beta_binomial_matches_mpmath(n, a, b):
    d = beta_binomial_distribution(n, BetaParams(a, b), eps=1e-12)
    exact = [math.exp(beta_binomial_log_pmf(n, BetaParams(a, b), k)) for k in range(n + 1)]
    for k in range(d.support_lo, d.support_hi + 1):
        assert d.pmf(k) == pytest.approx(exact[k], rel=1e-12)
    dropped = sum(exact[: d.support_lo]) + sum(exact[d.support_hi + 1 :])
    assert dropped <= 1e-12


def test_binomial_log_pmf_reference_points():
    with mp.workdps(50):
        ref = float(2_000_000 * mp.log1p(mp.mpf(2e-7) * -1))
    assert binomial_log_pmf(2_000_000, 2e-7, 0) == pytest.approx(ref, rel=1e-14)
    assert binomial_log_pmf(10, 0.0, 0) == 0.0
    assert binomial_log_pmf(10, 0.0, 3) == -math.inf
    assert binomial_log_pmf(10, 1.0, 10) == 0.0
    assert binomial_log_pmf(4, 0.5, 2) == pytest.approx(math.log(0.375), rel=1e-15)


@pytest.mark.parametrize("n", [10**6, 10**8, 10**9, 2**32 - 1])
@pytest.mark.parametrize("p", [0.5, 0.011, 1e-7])
@pytest.mark.parametrize("sds", [0, 5])
def test_binomial_log_pmf_is_within_one_ulp_at_large_n(n, p, sds):
    # at the mode and 5 sd above it, where a double log-gamma difference
    # of terms ~1e10 would be off by 1e-10 to 1e-5
    k = int((n + 1) * p) + round(sds * math.sqrt(n * p * (1.0 - p)))
    got = binomial_log_pmf(n, p, k)
    with mp.workdps(50):
        lg = mp.loggamma
        want = lg(n + 1) - lg(k + 1) - lg(n - k + 1) + k * mp.log(p) + (n - k) * mp.log1p(-mp.mpf(p))
        assert abs(got - want) <= math.ulp(float(want))


# ---------------------------------------------------------------------------
# large-n anchoring
# ---------------------------------------------------------------------------


def test_huge_population_rare_event_zero_count():
    # n = 1e8, p = 5e-9: P(0) = (1 - 5e-9)^1e8, just under exp(-1/2)
    with mp.workdps(50):
        ref = float((1 - mp.mpf(5e-9)) ** 100_000_000)
    d = binomial_distribution(100_000_000, 5e-9, eps=1e-12)
    assert d.pmf(0) == pytest.approx(ref, rel=1e-12)


def test_huge_n_half_probability_window_mass():
    # Central-window mass at n = 1e8, p = 0.5 demands anchored ratios: a
    # naive lgamma evaluation drifts at the sixth decimal of the log.
    d = binomial_distribution(100_000_000, 0.5, eps=1e-9)
    total = math.fsum(d.masses) + d.truncated_mass
    assert abs(total - 1.0) <= MASS_TOL


# ---------------------------------------------------------------------------
# the mass contract
# ---------------------------------------------------------------------------


@given(
    n=st.integers(min_value=1, max_value=50_000),
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    eps=st.sampled_from([1e-12, 1e-9, 1e-6]),
)
@settings(max_examples=120, deadline=None)
def test_mass_contract_binomial(n, p, eps):
    d = binomial_distribution(n, p, eps)
    assert np.isfinite(d.log_mass).all()
    assert 0.0 <= d.truncated_mass <= eps
    total = math.fsum(d.masses) + d.truncated_mass
    assert abs(total - 1.0) <= MASS_TOL
    assert 0 <= d.support_lo <= d.support_hi <= n


@given(
    n=st.integers(min_value=1, max_value=2_000),
    a=st.floats(min_value=0.05, max_value=500.0),
    b=st.floats(min_value=0.05, max_value=500.0),
)
@settings(max_examples=80, deadline=None)
def test_mass_contract_beta_binomial(n, a, b):
    d = beta_binomial_distribution(n, BetaParams(a, b), eps=1e-10)
    assert np.isfinite(d.log_mass).all()
    total = math.fsum(d.masses) + d.truncated_mass
    assert abs(total - 1.0) <= MASS_TOL


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: a prior with alpha < 1 is taken as monotone past its upper "
    "edge, so the window 0..11 omits 1.13e-12, over eps/4"))
def test_a_beta_binomial_window_omits_at_most_its_side_budget():
    """BetaBinomial(1817, 2.37e-13, 1.2) at eps 1e-12: the mass past the
    window's upper edge, summed from the mpmath log-pmf (scipy's
    ``betabinom.sf`` reads false breaches at these levels), is within the
    eps/4 that widening grants each side.  It is 1.13e-12, while
    ``truncated_mass``, capped at eps, reads 1e-12."""
    prior, eps = BetaParams(2.37e-13, 1.2), 1e-12
    d = beta_binomial_distribution(1817, prior, eps)
    omitted = math.fsum(
        math.exp(beta_binomial_log_pmf(1817, prior, k)) for k in range(d.support_hi + 1, 1818)
    )
    assert d.support_lo == 0
    assert omitted <= eps / 4, (d.support_hi, omitted)


def test_mass_contract_is_enforced_at_construction():
    with pytest.raises(DomainError):
        CountDistribution(
            kind="binomial",
            support_lo=0,
            support_hi=1,
            log_mass=np.log([0.25, 0.25]),
            truncated_mass=0.0,
        )


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,p", [(100, 0.3), (5_000, 0.001), (2_000_000, 2e-4)])
def test_binomial_moments(n, p):
    d = binomial_distribution(n, p, eps=1e-12)
    assert d.mean() == pytest.approx(n * p, rel=1e-9)
    assert d.variance() == pytest.approx(n * p * (1 - p), rel=1e-6)


@pytest.mark.parametrize("n,c", [(200, 50.0), (1_000, 2_000.0)])
def test_beta_binomial_moments(n, c):
    # mean np, variance npq(1 + (n-1)/(c+1)) with q = 1-p
    p = 0.07
    d = beta_binomial_distribution(n, BetaParams(c * p, c * (1 - p)), eps=1e-12)
    assert d.mean() == pytest.approx(n * p, rel=1e-9)
    expected_var = n * p * (1 - p) * (1 + (n - 1) / (c + 1))
    assert d.variance() == pytest.approx(expected_var, rel=1e-8)


def test_beta_binomial_overdispersion():
    p, n, c = 0.02, 3_000, 400.0
    bb = beta_binomial_distribution(n, BetaParams(c * p, c * (1 - p)), eps=1e-12)
    bino = binomial_distribution(n, p, eps=1e-12)
    assert bb.variance() > bino.variance()


# ---------------------------------------------------------------------------
# regime agreement
# ---------------------------------------------------------------------------


def test_beta_binomial_tightens_to_binomial():
    n, p = 10_000, 0.003
    bino = binomial_distribution(n, p, eps=1e-12)
    for c, tol in [(1e6, 2e-2), (1e10, 1e-4)]:
        bb = beta_binomial_distribution(n, BetaParams(c * p, c * (1 - p)), eps=1e-12)
        diff = max(abs(bb.pmf(k) - bino.pmf(k)) for k in range(bino.support_lo, bino.support_hi + 1))
        assert diff <= tol


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def test_convolve_binomial_additivity():
    p = 0.004
    a = binomial_distribution(1_500, p, eps=1e-12)
    b = binomial_distribution(2_500, p, eps=1e-12)
    combined = convolve(a, b, eps=1e-12)
    direct = binomial_distribution(4_000, p, eps=1e-12)
    lo = max(combined.support_lo, direct.support_lo)
    hi = min(combined.support_hi, direct.support_hi)
    for k in range(lo, hi + 1):
        assert combined.pmf(k) == pytest.approx(direct.pmf(k), rel=1e-10, abs=1e-15)


def test_convolve_commutes():
    a = binomial_distribution(300, 0.01, eps=1e-10)
    b = beta_binomial_distribution(300, BetaParams(2.5, 97.5), eps=1e-10)
    ab = convolve(a, b, eps=1e-10)
    ba = convolve(b, a, eps=1e-10)
    assert ab.support_lo == ba.support_lo and ab.support_hi == ba.support_hi
    np.testing.assert_allclose(ab.masses, ba.masses, rtol=1e-13)


def test_convolve_tracks_truncation_budget():
    eps = 1e-10
    a = binomial_distribution(50_000, 0.002, eps=eps)
    b = binomial_distribution(50_000, 0.001, eps=eps)
    c = convolve(a, b, eps=eps)
    assert c.truncated_mass <= a.truncated_mass + b.truncated_mass + eps
    total = math.fsum(c.masses) + c.truncated_mass
    assert abs(total - 1.0) <= MASS_TOL


def test_convolve_point_masses():
    a = binomial_distribution(10, 0.0, eps=1e-12)
    b = binomial_distribution(4, 1.0, eps=1e-12)
    c = convolve(a, b, eps=1e-12)
    assert (c.support_lo, c.support_hi) == (4, 4)
    assert c.pmf(4) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# summaries: mode, quantile, interval
# ---------------------------------------------------------------------------


def test_mode_matches_argmax_and_breaks_ties_low():
    d = binomial_distribution(3, 0.5, eps=1e-12)  # pmf ties at 1 and 2
    assert mode(d) == 1
    d2 = binomial_distribution(2_000_000, 0.000189, eps=1e-12)
    assert mode(d2) == 378


def test_quantile_is_monotone_and_bounded():
    d = binomial_distribution(5_000, 0.01, eps=1e-12)
    qs = [quantile(d, q) for q in (0.001, 0.1, 0.5, 0.9, 0.999)]
    assert qs == sorted(qs)
    assert d.support_lo <= qs[0] and qs[-1] <= d.support_hi
    assert d.cdf(quantile(d, 0.5)) >= 0.5


def test_a_law_stores_nothing_outside_its_window():
    d = binomial_distribution(2_000_000, 0.000189, eps=1e-12)
    assert d.support_lo > 0
    assert d.pmf(d.support_lo - 1) == d.pmf(d.support_hi + 1) == d.cdf(d.support_lo - 1) == 0.0


def test_central_interval_covers_what_it_claims():
    d = binomial_distribution(2_000_000, 0.000189, eps=1e-12)
    for coverage in (0.5, 0.95, 0.9999):
        iv = central_interval(d, coverage)
        assert iv.achieved >= coverage
        direct = math.fsum(d.masses[iv.lo - d.support_lo : iv.hi - d.support_lo + 1])
        assert direct == pytest.approx(iv.achieved, abs=1e-12)


def test_central_interval_refuses_unreachable_coverage():
    # Convolution at eps = 1e-6 trims real tail mass, so coverage beyond
    # the stored total must be refused, not silently rounded down.
    a = binomial_distribution(50_000, 0.002, eps=1e-6)
    b = binomial_distribution(50_000, 0.001, eps=1e-6)
    c = convolve(a, b, eps=1e-6)
    assert c.stored_mass < 1 - 1e-8
    with pytest.raises(DomainError):
        central_interval(c, 1 - 1e-8)


# ---------------------------------------------------------------------------
# supports and edge shapes
# ---------------------------------------------------------------------------


def test_degenerate_probabilities_are_point_masses():
    z = binomial_distribution(1_000, 0.0, eps=1e-12)
    assert (z.support_lo, z.support_hi, z.truncated_mass) == (0, 0, 0.0)
    one = binomial_distribution(1_000, 1.0, eps=1e-12)
    assert (one.support_lo, one.support_hi) == (1_000, 1_000)


def test_u_shaped_beta_binomial_keeps_full_support():
    d = beta_binomial_distribution(60, BetaParams(0.4, 0.4), eps=1e-12)
    assert (d.support_lo, d.support_hi) == (0, 60)
    # symmetric parameters, symmetric pmf
    np.testing.assert_allclose(d.masses, d.masses[::-1], rtol=1e-12)


def test_support_cap_is_a_domain_error():
    with pytest.raises(DomainError):
        beta_binomial_distribution(30_000_000, BetaParams(0.5, 0.5), eps=1e-12)


def test_invalid_inputs_raise_domain_errors():
    with pytest.raises(DomainError):
        binomial_distribution(-1, 0.5)
    with pytest.raises(DomainError):
        binomial_distribution(10, 1.5)
    with pytest.raises(DomainError):
        binomial_distribution(10, 0.5, eps=1e-3)
    with pytest.raises(DomainError):
        beta_binomial_distribution(-1, BetaParams(1.0, 1.0))
    with pytest.raises(DomainError):
        BetaParams(0.0, 1.0)


# ---------------------------------------------------------------------------
# determinism / immutability
# ---------------------------------------------------------------------------


def test_construction_is_bitwise_deterministic():
    a = binomial_distribution(123_456, 3.3e-4, eps=1e-11)
    b = binomial_distribution(123_456, 3.3e-4, eps=1e-11)
    assert a.support_lo == b.support_lo
    assert np.array_equal(a.log_mass, b.log_mass)
    assert a.truncated_mass == b.truncated_mass


def test_stored_arrays_are_read_only():
    d = binomial_distribution(100, 0.2, eps=1e-12)
    with pytest.raises(ValueError):
        d.log_mass[0] = 0.0
    with pytest.raises(ValueError):
        d.masses[0] = 0.5


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

#: Each constructor's first anchor, evaluated in a fresh interpreter.
FIRST_BUILDS = {
    "binomial": "binomial_distribution(1000, 0.3)",
    "beta-binomial": "beta_binomial_distribution(5000, BetaParams(2.5, 7.0))",
}


@pytest.mark.parametrize("kind", sorted(FIRST_BUILDS))
def test_the_cli_imports_mpmath_only_when_an_anchor_is_evaluated(kind):
    build = FIRST_BUILDS[kind]
    code = (
        "import sys, riskcounts.cli\n"
        "print('mpmath' in sys.modules)\n"
        "from riskcounts import *\n"
        f"d = {build}\n"
        "print('mpmath' in sys.modules)\n"
        "print(d.support_lo, d.truncated_mass.hex(), d.log_mass.tobytes().hex())\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    d = eval(build)
    assert out == ["False", "True",
                   f"{d.support_lo} {d.truncated_mass.hex()} {d.log_mass.tobytes().hex()}"]
