"""The numeric kernel against its older forms, bit for bit.

* ``_exact_sum`` must equal ``math.fsum``: both are correctly rounded.
* ``convolve`` must equal ``oracle_convolve``, the ``np.convolve`` version
  it replaced, on every output cell.
* The window builder must equal ``oracle_build_windowed``, the builder that
  refilled the whole window at every widening round, copied here as it
  stood.  Each constructor's call is run through both with the same step
  ratio and anchor functions.
* The streamed interval probe (``_streamed_law``) must give the interval of
  the law it never stores, bit for bit, or the same error.
"""

import functools
import math
import tracemalloc

import mpmath  # noqa: F401  the anchors import it on first use; here it stays out of traced peaks
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riskcounts import distributions
from riskcounts.distributions import (
    BetaParams,
    CountDistribution,
    DomainError,
    _aligned,
    _exact_sum,
    _kept_cells,
    _streamed_law,
    beta_binomial_distribution,
    binomial_distribution,
    central_interval,
    convolve,
    poisson_distribution,
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


@given(
    hnp.arrays(np.float64, st.integers(0, 300),
               elements=finite_non_negative | st.sampled_from([0.0, 5e-324, math.inf, math.nan])),
    st.lists(st.integers(0, 300), max_size=8),
)
@settings(max_examples=300, deadline=None)
@example(np.array([1.0, math.inf, 2.0, math.nan, 3.0]), [1, 2, 3, 4])
@example(np.array([1.0, math.nan, math.inf]), [2])
@example(np.array([5e-324] * 5 + [1e300]), [0, 0, 3, 6])
def test_the_exact_sum_accumulator_equals_fsum_over_any_block_split(x, cuts):
    """Any split, empty blocks included; an infinity gives infinity and a
    NaN anywhere gives NaN, as ``math.fsum`` does."""
    bounds = sorted([0, len(x)] + [c % (len(x) + 1) for c in cuts])
    total = distributions._ExactSum()
    for a, b in zip(bounds, bounds[1:]):
        total.add(x[a:b])
    got, want = total.total(), math.fsum(x)
    assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))


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


@pytest.mark.parametrize("lam", [1e-3, 0.5, 3.0, 1e3, 1e6, 1e8])
def test_poisson_builder_equals_oracle(both_builders, lam):
    poisson_distribution(lam)
    poisson_distribution(lam, eps=1e-6)
    assert len(both_builders) == 2


@pytest.mark.parametrize(
    "n, p, cut",
    [(2, 5e-324, True), (7, 5e-324, True), (10, 1e-320, False), (3, 2e-308, False),
     (10**9, 1e-8, False), (10**9, 0.5, False), (10**9, 0.011, False), (10**9, 0.01, False)],
)
def test_binomial_builder_equals_oracle_incl_subnormal_cut(both_builders, n, p, cut):
    law = binomial_distribution(n, p)
    assert (law.truncated_mass == distributions._UNDERFLOW_TAIL) == cut
    assert both_builders


def test_poisson_builder_equals_oracle_at_the_subnormal_cut(both_builders):
    law = poisson_distribution(5e-324)
    assert law.support_hi == 1 and law.truncated_mass == distributions._UNDERFLOW_TAIL
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
    assert distributions._window(**args).dropped == distributions._UNDERFLOW_TAIL
    for interval in (
        lambda: central_interval(distributions._build_windowed(kind="binomial", **args), 0.9),
        lambda: central_interval(_streamed_law(args), 0.9),
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
#: A trigger no build reaches: the walk never runs.
NO_WALK = 1 << 62


def law_or_refusal(build, cap, walk_min_cells):
    """``build()``'s law, or its refusal's message, under ``cap`` support
    points, walking toward the cap before a round of ``walk_min_cells``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributions, "_MAX_SUPPORT_POINTS", cap)
        mp.setattr(distributions, "_WALK_MIN_CELLS", walk_min_cells)
        try:
            law = build()
        except DomainError as exc:
            return str(exc)
    return law.support_lo, law.support_hi, law.log_mass.tobytes(), law.truncated_mass.hex()


@st.composite
def builds_near_the_cap(draw, kinds=("binomial", "poisson", "beta-binomial")):
    """A binomial, Poisson or beta-binomial build whose count sd puts its
    eps window near ``SMALL_CAP`` cells, as a ``functools.partial`` of its
    constructor."""
    kind = draw(st.sampled_from(kinds))
    sd = draw(st.floats(SMALL_CAP / 80, SMALL_CAP / 8))
    eps = draw(st.sampled_from([5e-324, 1e-14, 1e-12, 1e-9, 1e-6]))
    p = draw(st.floats(1e-6, 0.5) | st.floats(0.5, 1.0 - 1e-6))
    pq = p * (1.0 - p)
    if kind == "poisson":
        return functools.partial(poisson_distribution, sd * sd, eps)
    if kind == "binomial":
        n = max(1, round(sd * sd / pq))
        return functools.partial(binomial_distribution, n, p, eps)
    # n p q (c + n) / (c + 1) = sd^2, solved for n
    c = 10.0 ** draw(st.floats(-1.0, 7.0))
    n = (-pq * c + math.sqrt((pq * c) ** 2 + 4.0 * pq * sd * sd * (c + 1.0))) / (2.0 * pq)
    return functools.partial(
        beta_binomial_distribution, max(1, round(n)), BetaParams(p * c, (1.0 - p) * c), eps
    )


@given(builds_near_the_cap(), st.sampled_from([1, 64, 1_000, 3_000]),
       st.sampled_from([SMALL_CAP // 2, SMALL_CAP, 2 * SMALL_CAP]))
@settings(max_examples=150, deadline=None)
def test_walking_toward_the_cap_keeps_every_law_and_refusal(build, walk_min_cells, cap):
    assert law_or_refusal(build, cap, walk_min_cells) == law_or_refusal(build, cap, NO_WALK)


@given(
    n=st.integers(1, 10**9),
    log_p=st.floats(-12.0, 0.0),
    kind=st.sampled_from(["binomial", "poisson", "beta-binomial"]),
    log_c=st.floats(0.0, 7.0),
    eps=st.sampled_from([5e-324, 1e-14, 1e-12, 1e-9, 1e-6]),
)
@settings(max_examples=80, deadline=None)
def test_filled_window_edges_lie_within_the_walks_slack(n, log_p, kind, log_c, eps):
    """Each edge of a built window, as filled, lies within ``_edge_slack``
    of its anchor value, which the walk toward the cap decides from."""
    p = min(10.0**log_p, 1.0 - 1e-9)
    try:
        if kind == "binomial":
            law = binomial_distribution(n, p, eps=eps)
            anchor_fn, anchor_k = distributions._binomial_anchor(n, p), min(int((n + 1) * p), n)
        elif kind == "poisson":
            law = poisson_distribution(n * p, eps=eps)
            anchor_fn, anchor_k = distributions._poisson_anchor(n * p), int(n * p)
        else:
            n, c = min(n, 10**6), 10.0**log_c
            a, b = p * c, (1.0 - p) * c
            law = beta_binomial_distribution(n, BetaParams(a, b), eps=eps)
            anchor_fn = distributions._beta_binomial_anchor(n, a, b)
            anchor_k = int(round(n * a / (a + b)))
    except DomainError:
        return
    if len(law.log_mass) == 1:
        return
    anchor_log = anchor_fn(anchor_k)
    assert law.log_mass[anchor_k - law.support_lo] == anchor_log
    for edge in (law.support_lo, law.support_hi):
        edge_log = anchor_fn(edge)
        slack = distributions._edge_slack(anchor_log, edge_log, abs(edge - anchor_k))
        assert abs(law.log_mass[edge - law.support_lo] - edge_log) <= slack


def test_an_edge_within_its_slack_of_the_tail_test_is_left_undecided():
    anchor_log, edge_log, steps, log_r = -9.0, -40.0, 10**6, -1e-3
    slack = distributions._edge_slack(anchor_log, edge_log, steps)
    bound = distributions._geometric_tail_bound(edge_log, log_r)
    decide = distributions._edge_decision
    assert decide(anchor_log, edge_log, steps, log_r, bound) is None
    assert decide(anchor_log, edge_log, steps, log_r, bound * math.exp(3 * slack)) is True
    assert decide(anchor_log, edge_log, steps, log_r, bound * math.exp(-3 * slack)) is False
    assert decide(anchor_log, edge_log, steps, 0.0, 1.0) is False
    assert decide(anchor_log, -math.inf, steps, log_r, bound) is None


def test_the_walk_refuses_us_rr2_before_filling_a_round_of_a_million_cells(monkeypatch):
    filled = []
    extend_run = distributions._extend_run

    def counted(run, log_ratio, start, stop, step):
        filled.append(abs(stop - start))
        extend_run(run, log_ratio, start, stop, step)

    monkeypatch.setattr(distributions, "_extend_run", counted)
    with pytest.raises(DomainError) as got:
        beta_binomial_distribution(*US_RR2_C10)
    assert str(got.value) == US_RR2_REFUSAL
    assert max(filled) < distributions._WALK_MIN_CELLS, filled


ANCHOR_FACTORIES = ("_binomial_anchor", "_poisson_anchor", "_beta_binomial_anchor")


def fills_and_anchors(build, cap, walk_min_cells):
    """``law_or_refusal(build, cap, walk_min_cells)``, the ``log_ratio``
    index ranges handed to ``_extend_run`` as half-open ``(a, b)`` pairs,
    and the cells the anchor function was evaluated at."""
    ranges, anchors = [], []
    extend_run = distributions._extend_run

    def recorded(run, log_ratio, start, stop, step):
        ranges.append((start, stop) if step > 0 else (stop + 1, start + 1))
        extend_run(run, log_ratio, start, stop, step)

    def counted(factory):
        def counted_factory(*args):
            anchor_fn = factory(*args)

            def anchor(k):
                anchors.append(k)
                return anchor_fn(k)

            return anchor

        return counted_factory

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributions, "_extend_run", recorded)
        for name in ANCHOR_FACTORIES:
            mp.setattr(distributions, name, counted(getattr(distributions, name)))
        result = law_or_refusal(build, cap, walk_min_cells)
    return result, ranges, anchors


@given(builds_near_the_cap(), st.sampled_from([1, 64, 1_000, 3_000]),
       st.sampled_from([SMALL_CAP // 2, SMALL_CAP, 2 * SMALL_CAP]))
@settings(max_examples=100, deadline=None)
def test_the_loop_fills_each_cell_once_and_evaluates_one_anchor_below_the_walk(
    build, walk_min_cells, cap
):
    """Walking or not, the step logs filled are those of the window the loop
    reaches, each once: the ``log_ratio`` index ranges, below the anchor and
    above it, sum to their span, which is the law's support.  Where no round
    reaches the default ``_WALK_MIN_CELLS``, the anchor is evaluated once."""
    result, ranges, _ = fills_and_anchors(build, cap, walk_min_cells)
    if ranges:
        lo, hi = min(a for a, _ in ranges), max(b for _, b in ranges)
        assert sum(b - a for a, b in ranges) == hi - lo
        if not isinstance(result, str):
            assert result[:2] == (lo, hi)
    _, _, anchors = fills_and_anchors(build, cap, distributions._WALK_MIN_CELLS)
    assert len(anchors) == 1


def recorded_decisions(monkeypatch):
    """The list that gets each ``_edge_decision`` result from now on."""
    decisions = []
    decide = distributions._edge_decision

    def recorded(*args):
        decisions.append(decide(*args))
        return decisions[-1]

    monkeypatch.setattr(distributions, "_edge_decision", recorded)
    return decisions


def test_a_walk_that_fails_six_edges_then_passes_two_keeps_the_law(monkeypatch):
    """Binomial(1e8, 1/2) at eps 5e-324 widens each side three rounds past
    its bracket.  Walked from the first round, each of those six edges fails
    and both final edges pass; the loop then fills that window once."""
    decisions = recorded_decisions(monkeypatch)
    build = functools.partial(binomial_distribution, 10**8, 0.5, eps=5e-324)
    cap = distributions._MAX_SUPPORT_POINTS
    unwalked = law_or_refusal(build, cap, NO_WALK)
    assert decisions == []
    assert law_or_refusal(build, cap, 1) == unwalked
    assert decisions == [False] * 6 + [True] * 2
    assert unwalked[:2] == (49_799_998, 50_200_002)


def test_no_walk_runs_where_a_cell_index_is_not_an_exact_double(monkeypatch):
    decisions = recorded_decisions(monkeypatch)
    monkeypatch.setattr(distributions, "_WALK_MIN_CELLS", 1)
    law = binomial_distribution(2**60, 1e-15)
    assert decisions == []
    assert (law.support_lo, law.support_hi) == (743, 1563)


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
        log_ratio=log_ratio, anchor_fn=distributions._binomial_anchor(n, p), anchor_at=anchor,
        eps=eps, monotone_lo=not whole, monotone_hi=not whole,
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
    kind=st.sampled_from(["binomial", "poisson", "beta-binomial"]),
    log_c=st.floats(0.0, 7.0),
    eps=st.sampled_from([1e-14, 1e-12, 1e-9, 1e-6]),
)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_builder_equals_oracle(both_builders, n, log_p, kind, log_c, eps):
    p = min(10.0**log_p, 1.0 - 1e-9)
    try:
        if kind == "binomial":
            binomial_distribution(n, p, eps=eps)
        elif kind == "poisson":
            poisson_distribution(n * p, eps=eps)
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
        interval_or_error(lambda: central_interval(_streamed_law(ARGS[constructor](*params)), coverage)),
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
def test_the_streamed_interval_is_the_laws(law, coverage):
    """Bit for bit, or the same error after the same checks; and equal to
    the interval of the oracle builder's law."""
    constructor, params = law
    want, got = law_and_probe(constructor, params, coverage)
    assert got == want
    try:
        args = ARGS[constructor](*params)
    except DomainError:
        return
    if isinstance(args, dict):
        oracle, _ = oracle_build_windowed(kind=constructor(*params).kind, **args)
        assert interval_or_error(lambda: central_interval(oracle, coverage)) == want


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
    got = interval_or_error(lambda: central_interval(_streamed_law(args), coverage))
    assert got == want
    if error is not None:
        assert got[0] == "DomainError" and error in got[1]


@given(builds_near_the_cap(kinds=("binomial", "beta-binomial")), st.sampled_from([1, 64, 1_000, 3_000]),
       st.sampled_from([SMALL_CAP // 2, SMALL_CAP, 2 * SMALL_CAP]), st.sampled_from(COVERAGES))
@settings(max_examples=100, deadline=None)
def test_the_streamed_interval_keeps_every_refusal_near_the_cap(build, walk_min_cells, cap, coverage):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributions, "_MAX_SUPPORT_POINTS", cap)
        mp.setattr(distributions, "_WALK_MIN_CELLS", walk_min_cells)
        want, got = law_and_probe(build.func, build.args, coverage)
    assert got == want


@pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_blocked_exp_and_carried_cumsum_equal_one_call(size, seed):
    """``np.exp`` block by block equals one call over the window, and a
    cdf summed block by block, each block continuing from the last value of
    the one before (``block[0] += carry``, then ``np.cumsum`` in place, as
    ``_StreamedCdf`` runs them), equals one ``np.cumsum``, over block splits
    at random and at ``_SUM_BLOCK``; also where each block is the reversed
    view of a chunk stored last cell first, written in place, as a ``below``
    chunk is."""
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


def test_the_probe_reads_its_window_once_in_place():
    """Each block of the probe's cdf is written over a run chunk of its
    window, the anchor's one cell aside: 8 bytes a cell in all.  Intervals
    then read those blocks and nothing else: no further step log, no
    recomputed block, and the law's interval bit for bit."""
    params = (10**6, BetaParams(0.5, 9.5))  # alpha < 1: a below run down to 0
    args = distributions._beta_binomial_args(*params, 1e-12)
    calls = []
    log_ratio = args["log_ratio"]

    def counted(ks):
        calls.append(len(ks))
        return log_ratio(ks)

    args["log_ratio"] = counted
    w = distributions._window(**args)
    chunks = w.below + w.above
    probe = distributions._StreamedCdf(w, args["eps"])
    blocks = probe._blocks
    assert len(w.below) >= 3 and w.above and len(blocks) == len(chunks) + 1
    own = [block for block in blocks if not any(np.shares_memory(block, c) for c in chunks)]
    assert len(own) == 1 and len(own[0]) == 1
    cells = probe.support_hi - probe.support_lo + 1
    assert sum(block.nbytes for block in blocks) == 8 * cells
    read = len(calls)
    law = beta_binomial_distribution(*params)
    for coverage in COVERAGES:
        got, peak = traced_peak(lambda: interval_or_error(lambda: central_interval(probe, coverage)))
        assert got == interval_or_error(lambda: central_interval(law, coverage))
        # under half a block: recomputing a block took two block-sized arrays
        assert peak < 4 * BLOCK, f"an interval peaked at {peak} bytes"
    assert len(calls) == read


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
    ``log_mass`` and ``masses``, and its runs of step sums are freed before
    ``masses`` is made; its fill adds a block at a time.  A fill in one call
    made window-sized temporaries, and the law copied ``log_mass``: 3.00x."""
    law, peak = traced_peak(lambda: beta_binomial_distribution(4_000_000, BetaParams(10 * 2e-7, 10 * (1 - 2e-7))))
    assert len(law.log_mass) > 3_000_000
    bound = 2.25 * law.log_mass.nbytes + (1 << 20)
    assert peak <= bound, f"the build peaked at {peak} bytes, bound {bound:.0f}"


def test_a_refused_window_is_refused_without_its_temporaries():
    """The us_rr2 build at c = 10 is refused before the round that would
    fill 1.4M cells: the walk toward the cap finds the 22M-point window
    first, so only the 1.55M cells of the rounds before it (12.4 MB of
    step sums) are filled.  Filling every round up to the refusal (11.2M
    cells) peaked at 86.5 MB; a fill in one call at 222 MB."""
    refusal, peak = traced_peak(lambda: beta_binomial_distribution(*US_RR2_C10))
    assert str(refusal) == US_RR2_REFUSAL
    assert peak < 16 << 20, f"the refused build peaked at {peak} bytes"


#: The ny_rr2 exposed arm at calibration's first concentration, c = 10: a
#: window over the whole domain, 4,000,001 cells.
NY_RR2_C10 = (4_000_000, BetaParams(10 * 2e-7, 10 * (1 - 2e-7)))


def test_a_streamed_interval_holds_only_its_running_sums():
    """The probe of ny_rr2's c = 10 window holds its runs of step sums, 8 B
    a cell, and block-sized temporaries.  The law and the cdf
    ``central_interval`` caches on it peaked at 91.6 MiB."""
    cells = 4_000_001
    bound = 8 * cells + (2 << 20)

    def probe():
        law = _streamed_law(distributions._beta_binomial_args(*NY_RR2_C10, 1e-12))
        return law, central_interval(law, 0.9999)

    (law, iv), peak = traced_peak(probe)
    assert law.support_hi - law.support_lo + 1 == cells
    assert iv == central_interval(beta_binomial_distribution(*NY_RR2_C10), 0.9999)
    assert peak < bound, f"the probe peaked at {peak} bytes, bound {bound}"
    report, peak = traced_peak(lambda: spread_report(*NY_RR2_C10))
    assert (report.width_predictive, report.width_plugin) == (0, 6)
    assert peak < bound, f"spread_report peaked at {peak} bytes, bound {bound}"
