"""The numeric kernel against its older forms, bit for bit.

* ``_exact_sum`` must equal ``math.fsum``: both are correctly rounded.
* ``convolve`` must equal ``oracle_convolve``, the ``np.convolve`` version
  it replaced, run on one OpenBLAS thread as ``convolve`` is, on every
  output cell.
* The window builder must equal ``oracle_build_windowed``, the builder that
  refilled the whole window at every widening round, copied here as it
  stood.  Each constructor's call is run through both with the same step
  ratio and anchor functions.  Its widening, which has no round limit,
  must settle or be refused within ``MAX_ROUNDS`` rounds.
* The streamed interval probe (``_streamed_interval``) must give the
  interval of the law it never stores, bit for bit, or the same error.
* ``prob_greater``, ``prob_equal``, ``mean`` and ``variance`` must lie
  within the rounding bound of numpy's pairwise sum of their products.
"""

import functools
import math
import tracemalloc
from fractions import Fraction

import mpmath  # noqa: F401  the anchors import it on first use; here it stays out of traced peaks
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riskcounts import _parallel, distributions
from riskcounts.comparison import _above_lookup, _below_lookup, prob_equal, prob_greater
from riskcounts.distributions import (
    BetaParams,
    CountDistribution,
    DomainError,
    _aligned,
    _exact_sum,
    _kept_cells,
    _streamed_interval,
    beta_binomial_distribution,
    binomial_distribution,
    central_interval,
    convolve,
)
from riskcounts.predictive import spread_report

BLOCK = distributions._SUM_BLOCK


# ---------------------------------------------------------------------------
# oracles: the kernel as it stood before
# ---------------------------------------------------------------------------


def oracle_fill_window(lo, hi, anchor_k, anchor_log, log_ratio):
    out = np.empty(hi - lo + 1, dtype=np.float64)
    idx = anchor_k - lo
    out[idx] = anchor_log
    if hi > anchor_k:
        steps = log_ratio(np.arange(anchor_k, hi, dtype=np.float64))
        out[idx + 1 :] = anchor_log + np.cumsum(steps)
    if anchor_k > lo:
        steps = log_ratio(np.arange(anchor_k - 1, lo - 1, -1, dtype=np.float64))
        out[idx - 1 :: -1] = anchor_log - np.cumsum(steps)
    return out


def oracle_build_windowed(
    kind, mean, sd, n_max, log_ratio, anchor_fn, anchor_at, eps,
    monotone_lo=True, monotone_hi=True,
):
    """The refill-per-round builder; returns the law and its round count."""
    top = n_max if n_max is not None else None
    spread = max(distributions._BRACKET_SIGMAS * sd, 8.0)
    lo = max(0, math.floor(mean - spread) - 2)
    hi = math.ceil(mean + spread) + 2
    if top is not None:
        hi = min(hi, top)
    if not monotone_lo:
        lo = 0
    if not monotone_hi:
        if top is None:
            raise DomainError("unbounded support requires monotone tail ratios")
        hi = top

    per_side = eps / 4.0
    step = max(64, math.ceil(4.0 * sd))
    rounds = 0
    for _ in range(128):
        rounds += 1
        if hi - lo + 1 > distributions._MAX_SUPPORT_POINTS:
            raise DomainError(
                f"support window of {hi - lo + 1} points exceeds the "
                f"{distributions._MAX_SUPPORT_POINTS}-point cap; the eps contract cannot be "
                "met at desk scale for these parameters"
            )
        anchor_k = min(max(anchor_at, lo), hi)
        log_mass = oracle_fill_window(lo, hi, anchor_k, anchor_fn(anchor_k), log_ratio)

        ok_lo = lo == 0
        if not ok_lo:
            down = -float(log_ratio(np.array([lo - 1.0]))[0])
            ok_lo = distributions._geometric_tail_bound(float(log_mass[0]), down) <= per_side
        ok_hi = top is not None and hi == top
        if not ok_hi:
            up = float(log_ratio(np.array([float(hi)]))[0])
            ok_hi = distributions._geometric_tail_bound(float(log_mass[-1]), up) <= per_side
        if ok_lo and ok_hi:
            break
        if not ok_lo:
            lo = max(0, lo - step)
        if not ok_hi:
            hi = hi + step if top is None else min(top, hi + step)
        step *= 2
    else:
        raise DomainError("support bracketing failed to satisfy the eps contract")

    dropped = 0.0
    if monotone_lo and monotone_hi and np.isneginf(log_mass[-1]):
        cut = int(np.argmax(np.isneginf(log_mass)))
        if cut > anchor_k - lo:
            log_mass = log_mass[:cut]
            hi = lo + cut - 1
            dropped = distributions._UNDERFLOW_TAIL

    masses = np.exp(log_mass)
    stored = math.fsum(masses)
    truncated = min(max(1.0 - stored, 0.0) + dropped, eps)
    law = CountDistribution(
        kind=kind, support_lo=lo, support_hi=hi, log_mass=log_mass,
        truncated_mass=truncated, _exp_sum=(masses, stored),
    )
    return law, rounds


def oracle_convolve(a, b, eps):
    with _parallel.one_blas_thread():
        full = np.convolve(a.masses, b.masses)
    lo = a.support_lo + b.support_lo
    budget = eps / 4.0
    csum = np.cumsum(full)
    start = int(np.searchsorted(csum, budget, side="right"))
    rsum = np.cumsum(full[::-1])
    stop = len(full) - int(np.searchsorted(rsum, budget, side="right"))
    peak = int(np.argmax(full))
    start = min(start, peak)
    stop = max(stop, peak + 1)
    kept = full[start:stop]
    nz = np.nonzero(kept)[0]
    kept = kept[nz[0] : nz[-1] + 1]
    lo = lo + start + int(nz[0])
    kept = np.maximum(kept, np.finfo(np.float64).tiny)
    stored = math.fsum(kept)
    cap = a.truncated_mass + b.truncated_mass + eps
    truncated = min(max(1.0 - stored, 0.0), cap)
    return CountDistribution(
        kind="convolution", support_lo=lo, support_hi=lo + len(kept) - 1,
        log_mass=np.log(kept), truncated_mass=truncated,
    )


def same_law(got, want):
    assert (got.kind, got.support_lo, got.support_hi) == (want.kind, want.support_lo, want.support_hi)
    assert got.log_mass.tobytes() == want.log_mass.tobytes()
    assert got.masses.tobytes() == want.masses.tobytes()
    assert got.truncated_mass.hex() == want.truncated_mass.hex()


# ---------------------------------------------------------------------------
# exact sum
# ---------------------------------------------------------------------------

finite_non_negative = st.floats(
    min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False, allow_subnormal=True
)


@given(hnp.arrays(np.float64, st.integers(1, 300), elements=finite_non_negative))
@settings(max_examples=300, deadline=None)
@example(np.zeros(1))
@example(np.array([5e-324]))
@example(np.array([5e-324] * 7 + [0.0, 2.2250738585072014e-308]))
@example(np.array([1.0, 1e-16, 1e-16]))
@example(np.array([1e300, 1.0, 1e-300]))
def test_exact_sum_equals_fsum(x):
    assert _exact_sum(x).hex() == math.fsum(x).hex()


@given(
    size=st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 3 * BLOCK]),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 700.0),
    zeros=st.floats(0.0, 1.0),
    subnormal=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_exact_sum_equals_fsum_across_blocks(size, seed, spread, zeros, subnormal):
    rng = np.random.default_rng(seed)
    x = np.exp(-spread * rng.random(size))
    x[rng.random(size) < zeros] = 0.0
    if subnormal:
        x[rng.random(size) < 0.3] = rng.integers(1, 2**20, size=size)[0] * 5e-324
    assert _exact_sum(x).hex() == math.fsum(x).hex()


def test_exact_sum_of_nothing_and_of_non_finite_values():
    assert _exact_sum(np.zeros(0)) == 0.0
    assert _exact_sum(np.array([1.0, math.inf])) == math.inf
    assert math.isnan(_exact_sum(np.array([1.0, math.nan])))


def test_exact_sum_matches_fsum_on_a_window():
    law = binomial_distribution(10**8, 0.3)
    assert _exact_sum(law.masses) == math.fsum(law.masses)


# ---------------------------------------------------------------------------
# aligned convolution
# ---------------------------------------------------------------------------


def law_of(masses, lo=0):
    masses = np.asarray(masses, dtype=np.float64)
    masses = masses / masses.sum()
    return CountDistribution(
        kind="binomial", support_lo=lo, support_hi=lo + len(masses) - 1,
        log_mass=np.log(masses), truncated_mass=0.0,
    )


def test_aligned_copy_is_aligned_contiguous_writeable_and_equal():
    for n in (1, 2, 7, 8, 9, 1000):
        src = np.arange(n, dtype=np.float64)[::-1]
        out = _aligned(src)
        assert out.ctypes.data % 64 == 0
        assert out.flags.c_contiguous and out.flags.writeable
        assert out.tobytes() == src.tobytes()


# Kernels up to 11 cells take numpy's small-kernel loop; longer ones the
# dot-product path.
SMALL = list(range(1, 14))


@pytest.mark.parametrize("short", SMALL)
@pytest.mark.parametrize("extra", [0, 1, 5, 40])
def test_convolve_equals_np_convolve_at_small_kernel_sizes(short, extra):
    rng = np.random.default_rng(short * 100 + extra)
    a = law_of(rng.random(short + extra) + 1e-3, lo=3)
    b = law_of(rng.random(short) + 1e-3, lo=11)
    for x, y in ((a, b), (b, a)):
        got = convolve(x, y, eps=1e-12)
        same_law(got, oracle_convolve(x, y, eps=1e-12))
        assert len(got.masses) == len(x.masses) + len(y.masses) - 1  # nothing trimmed


@given(
    n_a=st.integers(1, 3000),
    n_b=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    eps=st.sampled_from([1e-14, 1e-12, 1e-6]),
)
@settings(max_examples=120, deadline=None)
@example(n_a=1, n_b=1, seed=0, eps=1e-12)
@example(n_a=1000, n_b=1000, seed=1, eps=1e-12)
@example(n_a=12, n_b=2999, seed=2, eps=1e-12)
def test_convolve_equals_np_convolve(n_a, n_b, seed, eps):
    rng = np.random.default_rng(seed)
    a = law_of(np.exp(-30 * rng.random(n_a)), lo=int(rng.integers(0, 50)))
    b = law_of(np.exp(-30 * rng.random(n_b)), lo=int(rng.integers(0, 50)))
    same_law(convolve(a, b, eps=eps), oracle_convolve(a, b, eps=eps))
    same_law(convolve(b, a, eps=eps), oracle_convolve(b, a, eps=eps))


def test_convolve_equals_np_convolve_on_built_windows():
    a = binomial_distribution(4 * 10**7, 1.1e-3)
    b = binomial_distribution(4 * 10**7, 1e-3)
    same_law(convolve(a, b), oracle_convolve(a, b, eps=distributions.DEFAULT_EPS))
    same_law(convolve(a, a), oracle_convolve(a, a, eps=distributions.DEFAULT_EPS))


# ---------------------------------------------------------------------------
# certified trim: only the kept cells are computed
# ---------------------------------------------------------------------------

_sizes = st.integers(0, 200_000)
_point_masses = st.builds(binomial_distribution, _sizes, st.sampled_from([0.0, 1.0]))
_binomials = st.builds(binomial_distribution, _sizes, st.floats(1e-4, 1.0 - 1e-4))
# alpha, beta < 1: the window reaches both domain edges, where the pmf rises
_u_shaped = st.builds(
    beta_binomial_distribution,
    st.integers(1, 3000),
    st.builds(BetaParams, st.floats(0.05, 0.99), st.floats(0.05, 0.99)),
)
_base_laws = st.one_of(_binomials, _u_shaped, _point_masses)
_laws = st.one_of(_base_laws, st.builds(convolve, _base_laws, _base_laws))


@given(a=_laws, b=_laws, eps=st.floats(0.0, 1e-6, exclude_min=True))
@settings(max_examples=120, deadline=None)
@example(a=binomial_distribution(10**5, 0.3), b=binomial_distribution(10**5, 0.31), eps=1e-6)
@example(a=binomial_distribution(10**5, 0.3), b=binomial_distribution(900, 0.5), eps=5e-324)
@example(a=beta_binomial_distribution(500, BetaParams(0.1, 0.2)),
         b=binomial_distribution(0, 0.5), eps=1e-12)
def test_convolve_keeps_the_full_trim_bytes_on_built_laws(a, b, eps):
    same_law(convolve(a, b, eps), oracle_convolve(a, b, eps))
    same_law(convolve(b, a, eps), oracle_convolve(b, a, eps))


@given(a=_laws, b=_laws, eps=st.floats(0.0, 1e-6, exclude_min=True))
@settings(max_examples=120, deadline=None)
@example(a=binomial_distribution(10**5, 0.3), b=binomial_distribution(900, 0.5), eps=5e-324)
@example(a=beta_binomial_distribution(500, BetaParams(0.1, 0.2)),
         b=binomial_distribution(0, 0.5), eps=1e-12)
def test_kept_cells_end_in_positive_cells_on_built_laws(a, b, eps):
    # convolve keeps both end cells as they are: no zero cell to strip
    longer, shorter = (b, a) if len(b.masses) > len(a.masses) else (a, b)
    _, kept = _kept_cells(_aligned(longer.masses), _aligned(shorter.masses[::-1]), eps / 4.0)
    assert kept[0] > 0 and kept[-1] > 0


# ---------------------------------------------------------------------------
# sums of products: numpy's pairwise order, within its rounding bound
# ---------------------------------------------------------------------------


@functools.cache
def pairwise_roundings(n):
    """The most additions a term passes through in ``np.sum`` of ``n``
    float64 terms.  numpy sums fewer than 8 in a row, at most 128 on eight
    accumulators (each then combined pairwise and the rest added in a row),
    and splits more in two at a multiple of 8."""
    if n < 8:
        return max(n - 1, 0)
    if n <= 128:
        return n // 8 + 2 + n % 8
    half = n // 2 - n // 2 % 8
    return 1 + max(pairwise_roundings(half), pairwise_roundings(n - half))


def assert_within_pairwise_bound(value, terms):
    """|value - fsum(terms)| <= gamma_k * fsum(terms) for non-negative
    ``terms``, k their roundings plus two for fsum's own, which moves both
    the reference and the scale (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., sections 3.1 and 4.2)."""
    assert (terms >= 0).all()
    k = pairwise_roundings(len(terms)) + 2
    reference = math.fsum(terms)
    assert abs(Fraction(value) - Fraction(reference)) <= Fraction(k, 2**53 - k) * Fraction(reference)


def summed_products(a, b):
    """The rounded products that ``prob_greater(a, b)``, ``prob_equal(a,
    b)``, ``a.mean()`` and ``a.variance()`` each sum."""
    if len(a.masses) <= len(b.masses):
        greater = a.masses * _below_lookup(b, np.arange(a.support_lo, a.support_hi + 1))
    else:
        greater = b.masses * _above_lookup(a, np.arange(b.support_lo, b.support_hi + 1))
    lo = max(a.support_lo, b.support_lo)
    both = max(min(a.support_hi, b.support_hi) + 1 - lo, 0)
    equal = a.masses[lo - a.support_lo :][:both] * b.masses[lo - b.support_lo :][:both]
    ks = np.arange(a.support_lo, a.support_hi + 1, dtype=np.float64)
    return greater, equal, ks * a.masses, (ks - a.mean()) ** 2 * a.masses


@given(a=_laws, b=_laws)
@settings(max_examples=100, deadline=None)
@example(a=binomial_distribution(10**9, 0.011), b=binomial_distribution(10**9, 0.01))
def test_sums_of_products_lie_within_the_pairwise_bound_of_fsum(a, b):
    values = prob_greater(a, b).value, prob_equal(a, b).value, a.mean(), a.variance()
    for value, terms in zip(values, summed_products(a, b)):
        assert_within_pairwise_bound(value, terms)


@pytest.fixture
def correlated(monkeypatch):
    """The cell ranges ``convolve`` computes, one ``(start, stop, cells)``
    per call of ``_correlate``."""
    calls = []
    correlate = distributions._correlate

    def spy(x, y, start, stop):
        calls.append((start, stop, len(x) + len(y) - 1))
        return correlate(x, y, start, stop)

    monkeypatch.setattr(distributions, "_correlate", spy)
    return calls


def test_certified_trim_computes_only_the_kept_cells(correlated):
    a = binomial_distribution(10**7, 0.011)
    b = binomial_distribution(10**7, 0.01)
    same_law(convolve(a, b), oracle_convolve(a, b, eps=distributions.DEFAULT_EPS))
    [(start, stop, cells)] = correlated
    assert 0 < start and stop < cells
    assert stop - start < 0.9 * cells


@pytest.fixture
def cell_calls(monkeypatch):
    """The ranges ``_correlate`` hands to ``_cells``, one ``(start, stop)``
    per call; a range sliced from one full correlate records nothing."""
    calls = []
    cells = distributions._cells

    def spy(x, y, start, stop, out):
        calls.append((start, stop))
        return cells(x, y, start, stop, out)

    monkeypatch.setattr(distributions, "_cells", spy)
    return calls


@pytest.mark.parametrize("n, sliced", [(10**7, True), (10**8, False)])
def test_a_kept_range_dearer_than_the_full_correlate_is_sliced_from_it(cell_calls, n, sliced):
    # 1e7: 89.9M edge-charged MACs in the range against 59.9M in the full
    # correlate; 1e8: 558M against 598M
    a = binomial_distribution(n, 0.011)
    b = binomial_distribution(n, 0.01)
    same_law(convolve(a, b), oracle_convolve(a, b, eps=distributions.DEFAULT_EPS))
    assert bool(cell_calls) != sliced


@pytest.mark.parametrize("start, stop, sliced", [
    (0, 1999, True),  # every cell: the full-range fallback
    (900, 1100, True),  # 200 edge cells cost 1.6M, above the 1M of the full call
    (990, 1010, False),  # 20 cells, half of them edge cells
    (999, 1000, False),  # the one full-length cell
])
def test_in_process_ranges_choose_the_cheaper_path_with_the_same_bytes(
    cell_calls, start, stop, sliced
):
    rng = np.random.default_rng(start)
    x, y = (_aligned(np.exp(rng.uniform(-60.0, 0.0, 1000))) for _ in range(2))
    got = distributions._correlate(x, y, start, stop)
    assert got.tobytes() == np.correlate(x, y, "full")[start:stop].tobytes()
    assert cell_calls == ([] if sliced else [(start, stop)])


def test_an_uncertain_bound_falls_back_to_the_full_trim(monkeypatch, correlated):
    # cut-offs no estimate clears: every comparison falls between them
    monkeypatch.setattr(distributions, "_prefix_margin", lambda n1, n2, budget: (-1.0, 2.0))
    a = binomial_distribution(10**6, 0.011)
    b = binomial_distribution(10**6, 0.01)
    same_law(convolve(a, b), oracle_convolve(a, b, eps=distributions.DEFAULT_EPS))
    [(start, stop, cells)] = correlated
    assert (start, stop) == (0, cells)


def light(masses):
    """A law that stores only ``masses`` and carries the rest as truncated."""
    return CountDistribution(kind="binomial", support_lo=0, support_hi=len(masses) - 1,
                             log_mass=np.log(masses), truncated_mass=1.0 - math.fsum(masses))


@pytest.mark.parametrize("masses", [
    [1e-7] * 10,  # the tails end apart, but no kept cell exceeds eps/4
    [1e-8] * 3,  # the tails meet
])
def test_laws_below_the_budget_fall_back_to_the_full_trim(correlated, masses):
    a, b = light(masses), binomial_distribution(0, 0.5)
    same_law(convolve(a, b, 1e-6), oracle_convolve(a, b, 1e-6))
    assert correlated[-1][:2] == (0, correlated[-1][2])


@pytest.mark.parametrize("side", ["head", "tail"])
def test_a_budget_on_a_running_sum_falls_back_to_the_full_trim(correlated, side):
    # eps/4 equal to the running sum of some tail: the bisection must test
    # that prefix, whose estimate lies within the margin of the budget
    a = binomial_distribution(10**5, 0.3)
    b = binomial_distribution(2 * 10**5, 0.2)
    full = np.convolve(a.masses, b.masses)
    run = np.cumsum(full if side == "head" else full[::-1])
    budget = float(run[np.searchsorted(run, 2.5e-7) - 1])
    assert 0.0 < budget <= 2.5e-7
    same_law(convolve(a, b, 4.0 * budget), oracle_convolve(a, b, 4.0 * budget))
    assert correlated[-1][:2] == (0, correlated[-1][2])


# ---------------------------------------------------------------------------
# fill-once builder
# ---------------------------------------------------------------------------


@pytest.fixture
def both_builders(monkeypatch):
    """Run every window build through the new and the oracle builder alike;
    returns the oracle's round counts, one per build."""
    new = distributions._build_windowed
    rounds = []

    def checked(**kwargs):
        try:
            want, n = oracle_build_windowed(**kwargs)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                new(**kwargs)
            assert str(got.value) == str(exc)
            raise
        got = new(**kwargs)
        same_law(got, want)
        rounds.append(n)
        return got

    monkeypatch.setattr(distributions, "_build_windowed", checked)
    return rounds


@pytest.mark.parametrize(
    "n, alpha, beta",
    [
        (3 * 10**6, 1e-4, 40.0),
        (2 * 10**6, 0.05, 9.95),
        (10**5, 0.5, 9.5),
        (10**5, 9.5, 0.5),
        (958564, 2e-4, 99.8),
        (10**6, 0.5, 9.5),  # a below run of 50,000 cells, over four blocks
    ],
)
def test_builder_equals_oracle_over_many_widening_rounds(both_builders, n, alpha, beta):
    beta_binomial_distribution(n, BetaParams(alpha, beta))
    assert both_builders


def test_builder_widens_many_rounds_somewhere(both_builders):
    beta_binomial_distribution(3 * 10**6, BetaParams(1e-4, 40.0))
    assert both_builders[-1] >= 8


@pytest.mark.parametrize(
    "n, p, cut",
    [(2, 5e-324, True), (7, 5e-324, True), (10, 1e-320, False), (3, 2e-308, False),
     (10**9, 1e-8, False), (10**9, 0.5, False), (10**9, 0.011, False), (10**9, 0.01, False)],
)
def test_binomial_builder_equals_oracle_incl_subnormal_cut(both_builders, n, p, cut):
    law = binomial_distribution(n, p)
    assert (law.truncated_mass == distributions._UNDERFLOW_TAIL) == cut
    assert both_builders


def test_a_neginf_cell_below_the_anchor_is_refused_cut_or_not(both_builders):
    """``_window`` decides the underflow cut from the above run alone, so a
    window that also has a -inf cell below its anchor is cut where the
    oracle keeps it whole; both refuse it at the finiteness check, and so
    does the streamed probe."""
    def log_ratio(ks):
        return np.where(ks == 2.0, np.inf, np.where(ks == 8.0, -np.inf, -0.1))

    args = dict(mean=5.0, sd=1.0, n_max=20, log_ratio=log_ratio, anchor_fn=lambda k: -1.0,
                anchor_at=5, eps=1e-12)
    *_, dropped = distributions._window(**args)
    assert dropped == distributions._UNDERFLOW_TAIL
    for interval in (
        lambda: central_interval(distributions._build_windowed(kind="binomial", **args), 0.9),
        lambda: _streamed_interval(args, 0.9),
    ):
        with pytest.raises(DomainError, match="every stored log_mass must be finite"):
            interval()
    assert both_builders == []


def test_builder_cap_refusal_is_unchanged(both_builders):
    with pytest.raises(DomainError, match="exceeds the 20000000-point cap"):
        beta_binomial_distribution(10**8, BetaParams(0.5, 0.5))


#: The us_rr2 exposed arm at calibration's first concentration, c = 10.
US_RR2_C10 = (160_000_000, BetaParams(10 * 2e-7, 10 * (1 - 2e-7)))
US_RR2_REFUSAL = (
    "support window of 22264918 points exceeds the 20000000-point cap; the eps "
    "contract cannot be met at desk scale for these parameters"
)


def test_us_rr2_refusal_at_c10_is_unchanged(both_builders):
    with pytest.raises(DomainError) as got:
        beta_binomial_distribution(*US_RR2_C10)
    assert str(got.value) == US_RR2_REFUSAL


#: A cap small enough that windows near it build in milliseconds.
SMALL_CAP = 4_000


def law_or_refusal(build, cap, oracle=False):
    """``build()``'s law, or its refusal's message, under ``cap`` support
    points; built by ``oracle_build_windowed`` where ``oracle`` is set."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributions, "_MAX_SUPPORT_POINTS", cap)
        if oracle:
            mp.setattr(distributions, "_build_windowed", lambda **kw: oracle_build_windowed(**kw)[0])
        try:
            law = build()
        except DomainError as exc:
            return str(exc)
    return law.support_lo, law.support_hi, law.log_mass.tobytes(), law.truncated_mass.hex()


@st.composite
def builds_near_the_cap(draw, kinds=("binomial", "beta-binomial")):
    """A binomial or beta-binomial build whose count sd puts its
    eps window near ``SMALL_CAP`` cells, as a ``functools.partial`` of its
    constructor."""
    kind = draw(st.sampled_from(kinds))
    sd = draw(st.floats(SMALL_CAP / 80, SMALL_CAP / 8))
    eps = draw(st.sampled_from([5e-324, 1e-14, 1e-12, 1e-9, 1e-6]))
    p = draw(st.floats(1e-6, 0.5) | st.floats(0.5, 1.0 - 1e-6))
    pq = p * (1.0 - p)
    if kind == "binomial":
        n = max(1, round(sd * sd / pq))
        return functools.partial(binomial_distribution, n, p, eps)
    # n p q (c + n) / (c + 1) = sd^2, solved for n
    c = 10.0 ** draw(st.floats(-1.0, 7.0))
    n = (-pq * c + math.sqrt((pq * c) ** 2 + 4.0 * pq * sd * sd * (c + 1.0))) / (2.0 * pq)
    return functools.partial(
        beta_binomial_distribution, max(1, round(n)), BetaParams(p * c, (1.0 - p) * c), eps
    )


@given(builds_near_the_cap(), st.sampled_from([SMALL_CAP // 2, SMALL_CAP, 2 * SMALL_CAP]))
@settings(max_examples=150, deadline=None)
def test_walking_toward_the_cap_keeps_every_law_and_refusal(build, cap):
    assert law_or_refusal(build, cap) == law_or_refusal(build, cap, oracle=True)


ANCHOR_FACTORIES = ("_anchor",)


def sums_and_anchors(build, cap):
    """``law_or_refusal(build, cap)``, each ``_run`` call in order as
    ``(written, cells)``, and the cells the anchor function was evaluated
    at.  ``cells`` is the half-open range of the window's cells whose step
    logs the call sums: cell ``k`` for ``log_ratio(k)`` below the anchor,
    ``k + 1`` above it.  ``written`` tells a call that writes the law's
    array from one that only sums."""
    runs, anchors = [], []
    run = distributions._run

    def recorded(log_ratio, start, stop, step, carry=0.0, out=None):
        cells = (start + 1, stop + 1) if step > 0 else (stop + 1, start + 1)
        if cells[0] < cells[1]:
            runs.append((out is not None, cells))
        return run(log_ratio, start, stop, step, carry, out)

    def counted(factory):
        def counted_factory(*args):
            anchor_fn = factory(*args)

            def anchor(k):
                anchors.append(k)
                return anchor_fn(k)

            return anchor

        return counted_factory

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributions, "_run", recorded)
        for name in ANCHOR_FACTORIES:
            mp.setattr(distributions, name, counted(getattr(distributions, name)))
        result = law_or_refusal(build, cap)
    return result, runs, anchors


def tiles(ranges, lo, hi):
    """Whether the half-open ``ranges`` cover ``lo..hi`` once each."""
    ranges = sorted(ranges)
    return bool(ranges) and ranges[0][0] == lo and ranges[-1][1] == hi + 1 and all(
        b == c for (_, b), (c, _) in zip(ranges, ranges[1:])
    )


@given(builds_near_the_cap(), st.sampled_from([SMALL_CAP // 2, SMALL_CAP, 2 * SMALL_CAP]))
@settings(max_examples=100, deadline=None)
@example(functools.partial(binomial_distribution, 10**8, 0.5, 5e-324), distributions._MAX_SUPPORT_POINTS)
def test_the_written_runs_tile_the_window_once_after_the_last_round(build, cap):
    """The widening rounds sum each cell of the window once and write
    nothing; then the runs written into the law's array, below the anchor
    and above it, tile its support with the anchor's cell, each cell once.
    A refusal writes nothing.  The anchor function is evaluated once, at
    the anchor.  (Binomial(1e8, 1/2) at eps 5e-324 widens each side three
    rounds past its bracket, under the real cap.)"""
    result, runs, anchors = sums_and_anchors(build, cap)
    assert len(anchors) == 1
    written = [flag for flag, _ in runs]
    assert written == sorted(written), "a widening round ran after the fill"
    fill = [cells for flag, cells in runs if flag]
    if isinstance(result, str):
        assert fill == []
        return
    lo, hi = result[:2]
    assert tiles(fill + [(anchors[0], anchors[0] + 1)], lo, hi)
    assert tiles([cells for flag, cells in runs if not flag] + [(anchors[0], anchors[0] + 1)], lo, hi)
    if build.args == (10**8, 0.5, 5e-324):
        assert (lo, hi) == (49_799_998, 50_200_002)
        assert sorted(fill) == [(49_799_998, 50_000_000), (50_000_001, 50_200_003)]
        assert sum(not flag for flag, _ in runs) == 2 * (1 + 3)  # the bracket and three rounds a side


#: The most rounds ``_window`` widens before it settles or the cap refuses:
#: each unsettled round moves a failing edge out by a step of at least 64
#: that doubles, or onto its domain bound, where it passes.
MAX_ROUNDS = math.ceil(math.log2(distributions._MAX_SUPPORT_POINTS / 64)) + 1


class Settled(Exception):
    """Raised at the fill's first ``_run`` call: the widening is over."""


def widening_rounds(build):
    """The rounds ``build``'s window widens, and how the widening ended:
    ``None`` when the window settled, the refusal's text when it was
    refused.  Each round sums both sides, two ``_run`` calls without
    ``out``.  The fill is not run: its first call, the first with ``out``,
    stops the build."""
    calls = 0
    run = distributions._run

    def counted(log_ratio, start, stop, step, carry=0.0, out=None):
        nonlocal calls
        if out is not None:
            raise Settled
        calls += 1
        return run(log_ratio, start, stop, step, carry)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributions, "_run", counted)
        try:
            build()
        except Settled:
            return calls // 2, None
        except DomainError as exc:
            return calls // 2, str(exc)
    raise AssertionError("the build made no window")


_EPS = st.floats(math.log10(5e-324), -6.0).map(lambda e: max(10.0**e, 5e-324))


@st.composite
def wide_builds(draw):
    """A binomial (n up to 2^32 - 1) or beta-binomial (concentration 1e-3
    to 1e12) build at eps from 1e-6 down to 5e-324, as a
    ``functools.partial`` of its constructor."""
    kind = draw(st.sampled_from(["binomial", "beta-binomial"]))
    eps = draw(_EPS)
    p = 10.0 ** draw(st.floats(-12.0, -0.01))
    p = draw(st.sampled_from([p, 1.0 - p]))
    n = draw(st.integers(1, 2**32 - 1) | st.integers(1, 10**4))
    if kind == "binomial":
        return functools.partial(binomial_distribution, n, p, eps)
    c = 10.0 ** draw(st.floats(-3.0, 12.0))
    return functools.partial(beta_binomial_distribution, n, BetaParams(p * c, (1.0 - p) * c), eps)


@given(wide_builds())
@settings(max_examples=150, deadline=None)
@example(functools.partial(binomial_distribution, 2**32 - 1, 0.5, 5e-324))
@example(functools.partial(binomial_distribution, 2**32 - 1, 1e-9, 5e-324))
@example(functools.partial(beta_binomial_distribution, 10**6, BetaParams(5e-4, 5e-4), 5e-324))
@example(functools.partial(beta_binomial_distribution, 10**9, BetaParams(5e11, 5e11), 5e-324))
@example(functools.partial(beta_binomial_distribution, 2**32 - 1, BetaParams(1e9, 1e12), 5e-324))
def test_the_widening_settles_or_is_refused_within_its_round_bound(build):
    rounds, refusal = widening_rounds(build)
    assert rounds <= MAX_ROUNDS == 20
    assert refusal is None or refusal.startswith("support window of "), refusal


def test_an_edge_that_never_passes_is_refused_at_the_cap_within_the_bound():
    """The slowest widening: the lower edge sits at 0, where it passes, and
    the upper edge never passes and has its domain bound, 2^32 - 1, far past
    the cap.  From the bracket 0..10, round r moves it out by 64 * 2^(r - 1)
    until the cap refuses."""
    rounds, refusal = widening_rounds(lambda: distributions._window(
        mean=0.0, sd=0.0, n_max=2**32 - 1, log_ratio=np.zeros_like,
        anchor_fn=lambda k: 0.0, anchor_at=0, eps=1e-12,
    ))
    assert rounds == 19
    assert refusal.startswith(f"support window of {11 + 64 * (2**19 - 1)} points exceeds")


@pytest.mark.parametrize("step", [-1, 1])
@given(
    length=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1])
    | st.integers(1, 3 * BLOCK),
    split=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1]) | st.integers(0, 3 * BLOCK),
    carry=st.just(0.0) | st.floats(-1e3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_a_run_written_through_a_view_is_one_fresh_forward_sum(step, length, split, carry, seed):
    """``_run`` written through the reversed view of a window, as the fill
    writes the cells below the anchor (step -1), or through its forward
    view (step 1): the bytes of one fresh ``np.cumsum`` of the same steps,
    carry added to the first, read in the view's order.  Also where the run
    is split into two calls, the second continuing from the first's last
    value; runs that end at, start at and cross a ``_SUM_BLOCK`` edge all
    occur.  Cells outside the view are not touched."""
    rng = np.random.default_rng(seed)
    table = rng.uniform(-30.0, 5.0, length + 2)
    split = min(split, length)
    lo = 1  # k = 1 .. length

    def log_ratio(ks):
        return table[ks.astype(np.intp)]

    ks = np.arange(lo, lo + length)[::step]  # the run's k, in run order
    steps = table[ks]
    steps[0] += carry
    fresh = np.cumsum(steps)

    window = np.full(length + 2, np.nan)
    view = window[lo : lo + length][::step]  # cell lo + i for the step at k = lo + i
    start, stop = ks[0], ks[-1] + step
    mid = start + step * split
    last = distributions._run(log_ratio, start, mid, step, carry, out=view[:split])
    last = distributions._run(log_ratio, mid, stop, step, last, out=view[split:])
    assert view.tobytes() == fresh.tobytes()
    assert last == fresh[-1] == distributions._run(log_ratio, start, stop, step, carry)
    assert np.isnan(window[[0, -1]]).all()


def binomial_window(n, p, anchor, n_max=None, eps=1e-12, whole=True):
    """Binomial(n, p) step ratios and anchor through ``_build_windowed``,
    anchored at ``anchor``.  ``whole`` fills 0..n_max in one round, so the
    ``below`` run is ``anchor`` cells long and the ``above`` run ``n_max -
    anchor``; otherwise both sides widen round by round, the high one up to
    ``n_max`` at most."""
    q = 1.0 - p

    def log_ratio(ks):
        return np.log((n - ks) * p / ((ks + 1.0) * q))

    return distributions._build_windowed(
        kind="binomial", mean=n * p, sd=math.sqrt(n * p * q), n_max=n if n_max is None else n_max,
        log_ratio=log_ratio, anchor_fn=distributions._binomial_args(n, p, eps)["anchor_fn"],
        anchor_at=anchor, eps=eps, monotone_lo=not whole, monotone_hi=not whole,
    )


@pytest.mark.parametrize("below", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1])
@pytest.mark.parametrize("above", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])
def test_builder_equals_oracle_where_a_run_meets_a_block_edge(both_builders, below, above):
    n = below + above
    law = binomial_window(n, (below + 0.5) / (n + 1), below)
    assert (law.support_lo, law.support_hi) == (0, n)
    assert both_builders == [1]


@pytest.mark.parametrize("off", [-1, 0, 1])
def test_builder_equals_oracle_where_a_widened_run_meets_a_block_edge(both_builders, off):
    """The high side widens over several rounds and stops at ``n_max``, two
    blocks past the anchor give or take a cell."""
    anchor = 2 * 10**6
    # At eps 5e-324 a tail bound is met only where the edge mass underflows,
    # about 38 sd (38,600 cells) from the anchor: past n_max above, and
    # more than two blocks below.
    law = binomial_window(2 * anchor, 0.5, anchor, n_max=anchor + 2 * BLOCK + off, eps=5e-324, whole=False)
    assert law.support_hi == anchor + 2 * BLOCK + off
    assert law.support_lo < anchor - 2 * BLOCK
    assert both_builders[0] >= 3


@given(
    n=st.integers(1, 10**8),
    log_p=st.floats(-12.0, 0.0),
    kind=st.sampled_from(["binomial", "beta-binomial"]),
    log_c=st.floats(0.0, 7.0),
    eps=st.sampled_from([1e-14, 1e-12, 1e-9, 1e-6]),
)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_builder_equals_oracle(both_builders, n, log_p, kind, log_c, eps):
    p = min(10.0**log_p, 1.0 - 1e-9)
    try:
        if kind == "binomial":
            binomial_distribution(n, p, eps=eps)
        else:
            c = 10.0**log_c
            beta_binomial_distribution(min(n, 10**6), BetaParams(p * c, (1 - p) * c), eps=eps)
    except DomainError:
        pass


# ---------------------------------------------------------------------------
# streamed interval probe
# ---------------------------------------------------------------------------

#: Each probed constructor's argument helper.
ARGS = {
    binomial_distribution: distributions._binomial_args,
    beta_binomial_distribution: distributions._beta_binomial_args,
}

#: Each probed constructor's law kind.
KINDS = {binomial_distribution: "binomial", beta_binomial_distribution: "beta-binomial"}

#: Coverages central_interval takes, and the ones it refuses: 1 - 2^-53
#: leaves a tail whose upper quantile 1 - tail rounds to 1.
COVERAGES = [0.5, 0.9, 0.9999, 1.0 - 1e-8, 1.0 - 2.0**-53, 1e-300, 0.0, 1.0, math.nan, -0.5]


def interval_or_error(interval):
    """``interval()`` as its ``(lo, hi, coverage, achieved)`` bits, or its
    error's type and message."""
    try:
        iv = interval()
    except ValueError as exc:  # DomainError, and float()'s own
        return type(exc).__name__, str(exc)
    return iv.lo, iv.hi, iv.coverage.hex(), iv.achieved.hex()


def law_and_probe(constructor, params, coverage):
    """The interval of the constructor's law and that of the probe."""
    return (
        interval_or_error(lambda: central_interval(constructor(*params), coverage)),
        interval_or_error(lambda: _streamed_interval(ARGS[constructor](*params), coverage)),
    )


@st.composite
def probed_laws(draw):
    """A binomial or beta-binomial constructor and its arguments: point
    masses, subnormal risks and priors with alpha or beta below 1 (a side
    that is not monotone) included."""
    n = draw(st.integers(0, 200_000) | st.sampled_from([0, 1, 2, 7, 10]))
    eps = draw(st.sampled_from([1e-14, 1e-12, 1e-9, 1e-6]))
    if draw(st.booleans()):
        p = draw(st.sampled_from([0.0, 1.0, 5e-324, 1e-320, 2e-308, 0.5])
                 | st.floats(-12.0, 0.0).map(lambda x: min(10.0**x, 1.0)))
        return binomial_distribution, (n, p, eps)
    p = 10.0 ** draw(st.floats(-9.0, -1e-9))
    c = 10.0 ** draw(st.floats(-1.0, 7.0))
    return beta_binomial_distribution, (n, BetaParams(p * c, (1.0 - p) * c), eps)


@given(probed_laws(), st.sampled_from(COVERAGES) | st.floats(0.0, 1.0))
@settings(max_examples=250, deadline=None)
@example((binomial_distribution, (2, 5e-324, 1e-12)), 0.9999)  # the underflow cut
@example((binomial_distribution, (7, 5e-324, 1e-12)), 1.0 - 1e-8)
@example((binomial_distribution, (0, 0.3, 1e-12)), 0.9)  # point masses
@example((binomial_distribution, (10, 1.0, 1e-12)), 0.9)
@example((beta_binomial_distribution, (0, BetaParams(1.0, 2.0), 1e-12)), 0.5)
@example((beta_binomial_distribution, (1000, BetaParams(1.0, 31.0), 1e-6)), 1.0 - 1e-8)  # shortfall
@example((beta_binomial_distribution, (1000, BetaParams(0.3, 0.4), 1e-6)), 1.0 - 1e-8)
@example((beta_binomial_distribution, (2 * 10**5, BetaParams(2e-6, 10.0), 1e-12)), 0.9999)
@example((binomial_distribution, (-1, 0.3, 1e-12)), 0.9)  # argument errors
@example((binomial_distribution, (10, 1.5, 1e-12)), math.nan)
@example((beta_binomial_distribution, (10, BetaParams(1e20, 1e20), 1e-12)), 0.9)
@example((binomial_distribution, (10, 0.3, 0.0)), 0.9)
@example((beta_binomial_distribution, (1817, BetaParams(2.3713737056616554e-07, 1.7782791729015521),
                                       1e-06)), 0.5)  # a law refused at the mass identity
def test_the_streamed_interval_is_the_laws(law, coverage):
    """Bit for bit, or the same error after the same checks; and equal to
    the interval of the oracle builder's law, or to its refusal."""
    constructor, params = law
    want, got = law_and_probe(constructor, params, coverage)
    assert got == want
    try:
        args = ARGS[constructor](*params)
    except DomainError:
        return
    if isinstance(args, dict):
        oracle = functools.partial(oracle_build_windowed, kind=KINDS[constructor], **args)
        assert interval_or_error(lambda: central_interval(oracle()[0], coverage)) == want


def test_the_probed_cases_reach_every_outcome():
    """The cases above give intervals, clamps, the shortfall and each
    coverage error; each probe equals its law's interval."""
    cases = [
        (beta_binomial_distribution, (1000, BetaParams(1.0, 31.0), 1e-6), 1.0 - 1e-8, "falls short"),
        (binomial_distribution, (10**5, 0.3, 1e-12), 1.0 - 2.0**-53, "q must lie in (0, 1), got 1.0"),
        (binomial_distribution, (10**5, 0.3, 1e-12), math.nan, "coverage must lie in (0, 1), got nan"),
        (beta_binomial_distribution, (2 * 10**5, BetaParams(2e-6, 10.0), 1e-12), 0.9999, None),
    ]
    for constructor, params, coverage, error in cases:
        want, got = law_and_probe(constructor, params, coverage)
        assert got == want
        if error is None:
            assert got[0] == got[1] == 0  # all but 1e-4 of the mass at 0
        else:
            assert got[0] == "DomainError" and error in got[1]
    # a clamp: the stored mass falls short of 1 - tail, so the upper
    # quantile reaches past the window and clamps to its top
    params = (1000, BetaParams(1.0, 31.0), 1e-6)
    law = beta_binomial_distribution(*params)
    tail = 0.6 * (1.0 - law.cdf(law.support_hi))
    assert law.cdf(law.support_hi) < 1.0 - tail
    want, got = law_and_probe(beta_binomial_distribution, params, 1.0 - 2.0 * tail)
    assert got == want and got[1] == law.support_hi


def faulty_window(fault):
    """Binomial(1000, 0.3)'s window arguments with one fault: a NaN step
    log (so non-finite cells), an anchor 0.5 too high (so the mass identity
    fails), or none."""
    args = distributions._binomial_args(1000, 0.3, 1e-12)
    log_ratio, anchor_fn = args["log_ratio"], args["anchor_fn"]
    if fault == "nan":
        args["log_ratio"] = lambda ks: np.where(ks == 310.0, np.nan, log_ratio(ks))
    elif fault == "identity":
        args["anchor_fn"] = lambda k: anchor_fn(k) + 0.5
    return args


@pytest.mark.parametrize("coverage", COVERAGES)
@pytest.mark.parametrize("fault, truncated, error", [
    ("nan", None, "every stored log_mass must be finite"),
    ("nan", 1.5, "every stored log_mass must be finite"),
    ("none", 1.5, "truncated_mass must lie in [0, 1], got 1.5"),
    ("identity", 1.5, "truncated_mass must lie in [0, 1], got 1.5"),
    ("identity", None, "mass identity violated"),
    ("none", None, None),
])
def test_the_probe_raises_the_laws_errors_first(monkeypatch, coverage, fault, truncated, error):
    """The law's checks, in the law's order, before any coverage error:
    finiteness, the truncated-mass range (reached only with
    ``_truncated`` patched), then the mass identity."""
    if truncated is not None:
        monkeypatch.setattr(distributions, "_truncated", lambda stored, dropped, eps: truncated)
    args = faulty_window(fault)
    want = interval_or_error(
        lambda: central_interval(distributions._build_windowed(kind="binomial", **args), coverage)
    )
    got = interval_or_error(lambda: _streamed_interval(args, coverage))
    assert got == want
    if error is not None:
        assert got[0] == "DomainError" and error in got[1]


@given(builds_near_the_cap(kinds=("binomial", "beta-binomial")),
       st.sampled_from([SMALL_CAP // 2, SMALL_CAP, 2 * SMALL_CAP]), st.sampled_from(COVERAGES))
@settings(max_examples=100, deadline=None)
def test_the_streamed_interval_keeps_every_refusal_near_the_cap(build, cap, coverage):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributions, "_MAX_SUPPORT_POINTS", cap)
        want, got = law_and_probe(build.func, build.args, coverage)
    assert got == want


@pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_blocked_exp_and_carried_cumsum_equal_one_call(size, seed):
    """``np.exp`` block by block equals one call over the window, and a
    cdf summed block by block, each block continuing from the last value of
    the one before (``block[0] += carry``, then ``np.cumsum`` in place, as
    ``_run`` continues a run), equals one ``np.cumsum``, over block splits
    at random and at ``_SUM_BLOCK``; also where each block is the reversed
    view of a chunk stored last cell first, written in place."""
    rng = np.random.default_rng(seed)
    log_mass = rng.uniform(-760.0, 0.0, size)  # subnormal and zero masses included
    masses = np.exp(log_mass)
    cdf = np.cumsum(masses)
    for cuts in (rng.integers(0, size + 1, 6), np.arange(0, size, BLOCK)):
        bounds = sorted({0, size, *cuts.tolist()})
        for reversed_view in (False, True):
            exps, sums, carry = [], [], 0.0
            for a, b in zip(bounds, bounds[1:]):
                if reversed_view:
                    chunk = log_mass[a:b][::-1].copy()
                    block = np.exp(chunk[::-1], out=chunk[::-1])
                    assert np.shares_memory(block, chunk)
                else:
                    block = np.exp(log_mass[a:b])
                exps.append(block.copy())
                block[0] += carry
                sums.append(np.cumsum(block, out=block))
                carry = sums[-1][-1]
            assert np.concatenate(exps).tobytes() == masses.tobytes()
            assert np.concatenate(sums).tobytes() == cdf.tobytes()


def test_the_probe_reads_its_window_once_in_place(monkeypatch):
    """The probe's cdf is written over its window's one array of log
    masses: 8 bytes a cell in all.  Its interval then reads that cdf and
    nothing else: no further step log, no recomputed cell, and the law's
    interval bit for bit at every coverage."""
    params = (10**6, BetaParams(0.5, 9.5))  # alpha < 1: a window down to 0, over many blocks
    args = distributions._beta_binomial_args(*params, 1e-12)
    calls, seen = [], {}
    log_ratio, window, interval = args["log_ratio"], distributions._window, distributions._interval

    def counted(ks):
        calls.append(len(ks))
        return log_ratio(ks)

    def spied_window(**kwargs):
        seen["window"] = window(**kwargs)
        seen["read"] = len(calls)
        return seen["window"]

    def spied_interval(*iv_args):
        seen["interval"] = iv_args
        return interval(*iv_args)

    law = beta_binomial_distribution(*params)
    want = central_interval(law, 0.9999)
    args["log_ratio"] = counted
    monkeypatch.setattr(distributions, "_window", spied_window)
    monkeypatch.setattr(distributions, "_interval", spied_interval)
    assert _streamed_interval(args, 0.9999) == want
    lo, hi, log_mass, _ = seen["window"]
    cdf = seen["interval"][2]
    cells = hi - lo + 1
    assert lo == 0 and cells > 3 * BLOCK
    assert np.shares_memory(cdf, log_mass) and cdf.nbytes == log_mass.nbytes == 8 * cells
    assert cdf.tobytes() == law._cdf.tobytes()
    assert len(calls) == seen["read"]
    for coverage in COVERAGES:
        if not 0.0 < coverage < 1.0:
            continue  # refused before the cdf is read
        got, peak = traced_peak(lambda: interval_or_error(lambda: interval(lo, hi, cdf, coverage)))
        assert got == interval_or_error(lambda: central_interval(law, coverage))
        # under half a block: recomputing a block took two block-sized arrays
        assert peak < 4 * BLOCK, f"an interval peaked at {peak} bytes"


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def traced_peak(build):
    """``build()`` (or the ``DomainError`` it raises) and the peak traced
    allocation while it ran."""
    tracemalloc.start()
    try:
        try:
            result = build()
        except DomainError as exc:
            result = exc
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_a_window_build_holds_no_window_sized_temporaries():
    """A 4M-cell window (ny_rr2's exposed arm at c = 10) ends as two arrays,
    ``log_mass`` and ``masses``, and its widening rounds keep no step sums;
    its fill adds a block at a time.  A fill in one call
    made window-sized temporaries, and the law copied ``log_mass``: 3.00x."""
    law, peak = traced_peak(lambda: beta_binomial_distribution(4_000_000, BetaParams(10 * 2e-7, 10 * (1 - 2e-7))))
    assert len(law.log_mass) > 3_000_000
    bound = 2.25 * law.log_mass.nbytes + (1 << 20)
    assert peak <= bound, f"the build peaked at {peak} bytes, bound {bound:.0f}"


def test_a_refused_window_is_refused_without_its_temporaries():
    """The us_rr2 build at c = 10 finds its 22M-point window holding one
    chunk of step sums, and the refusal peaks at about 0.75 MiB.  Storing
    the 1.55M cells of the rounds before the one that would add 1.4M cells
    peaked at 12.8 MiB; filling every round up to the refusal (11.2M cells)
    peaked at 86.5 MB, and a fill in one call at 222 MB."""
    refusal, peak = traced_peak(lambda: beta_binomial_distribution(*US_RR2_C10))
    assert str(refusal) == US_RR2_REFUSAL
    assert peak < 13.5 * (1 << 20), f"the refused build peaked at {peak} bytes"


#: The ny_rr2 exposed arm at calibration's first concentration, c = 10: a
#: window over the whole domain, 4,000,001 cells.
NY_RR2_C10 = (4_000_000, BetaParams(10 * 2e-7, 10 * (1 - 2e-7)))


def test_a_streamed_interval_holds_only_its_running_sums():
    """The probe of ny_rr2's c = 10 window holds its one array, 8 B a cell,
    and block-sized temporaries.  The law and the cdf
    ``central_interval`` caches on it peaked at 91.6 MiB."""
    cells = 4_000_001
    bound = 8 * cells + (2 << 20)
    iv, peak = traced_peak(
        lambda: _streamed_interval(distributions._beta_binomial_args(*NY_RR2_C10, 1e-12), 0.9999)
    )
    law = beta_binomial_distribution(*NY_RR2_C10)
    assert law.support_hi - law.support_lo + 1 == cells
    assert iv == central_interval(law, 0.9999)
    assert peak < bound, f"the probe peaked at {peak} bytes, bound {bound}"
    report, peak = traced_peak(lambda: spread_report(*NY_RR2_C10))
    assert (report.width_predictive, report.width_plugin) == (0, 6)
    assert peak < bound, f"spread_report peaked at {peak} bytes, bound {bound}"
