"""The numeric kernel against its older forms, bit for bit.

* ``_exact_sum`` must equal ``math.fsum``: both are correctly rounded.
* ``convolve`` must equal ``oracle_convolve``, the ``np.convolve`` version
  it replaced, on every output cell.
* The window builder must equal ``oracle_build_windowed``, the builder that
  refilled the whole window at every widening round, copied here as it
  stood.  Each constructor's call is run through both with the same step
  ratio and anchor functions.
"""

import math

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
    beta_binomial_distribution,
    binomial_distribution,
    convolve,
    poisson_distribution,
)

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
     (10**9, 1e-8, False), (10**9, 0.5, False)],
)
def test_binomial_builder_equals_oracle_incl_subnormal_cut(both_builders, n, p, cut):
    law = binomial_distribution(n, p)
    assert (law.truncated_mass == distributions._UNDERFLOW_TAIL) == cut
    assert both_builders


def test_poisson_builder_equals_oracle_at_the_subnormal_cut(both_builders):
    law = poisson_distribution(5e-324)
    assert law.support_hi == 1 and law.truncated_mass == distributions._UNDERFLOW_TAIL
    assert both_builders


def test_builder_cap_refusal_is_unchanged(both_builders):
    with pytest.raises(DomainError, match="exceeds the 20000000-point cap"):
        beta_binomial_distribution(10**8, BetaParams(0.5, 0.5))


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
