"""The blockwise cohort draw and the count-based replication tallies, checked
against the per-individual engine they replaced (``oracles.oracle_*``).

The new engine must reproduce its arrays byte for byte and its reports
field for field, including the errors it raised.
"""

import tracemalloc

import numpy as np
import numpy.random  # numpy imports it lazily; importing it here keeps that out of traced peaks
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import force_workers
from oracles import oracle_covariate_mask, oracle_generate, oracle_replication_rows
from oracles import oracle_test_mask, oracle_two_proportion_test
from riskcounts import cohort
from riskcounts.classical import MAX_ARM_SIZE, TwoByTwo, _score_test, two_proportion_test
from riskcounts.cohort import (
    _BLOCK,
    _KEY_BLOCK,
    _NOISE_BLOCK,
    MAX_COHORT_SIZE,
    MAX_REPLICATIONS,
    TRUE_CAUSES,
    CausalSpec,
    CovariateRule,
    ProxyRule,
    _buffers,
    _draw,
    _replicate_range,
    _replication_keys,
    _variant_score,
    banana_swap,
    default_variants,
    generate,
    replication_study,
)
from riskcounts.distributions import DomainError

# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def _same_array(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.writeable == want.flags.writeable


def assert_same_cohort(spec, seed):
    got = generate(spec, seed)
    want = oracle_generate(spec, seed)
    for name in ("group", "true_exposure", "proxy_exposure", "outcome", "latent"):
        _same_array(getattr(got, name), want[name])
    assert list(got.covariates) == list(want["covariates"])
    for name, values in want["covariates"].items():
        _same_array(got.covariates[name], values)


def _rows_or_error(run):
    try:
        return run()
    except DomainError as exc:
        return ("DomainError", str(exc))


def assert_same_report(spec, replications, alpha, seed, continuity):
    def new():
        report = replication_study(
            spec, replications, alpha=alpha, seed=seed, continuity_correction=continuity
        )
        return report.rows

    def old():
        return oracle_replication_rows(spec, replications, alpha, seed, continuity)

    assert _rows_or_error(new) == _rows_or_error(old)


def _same_float(a, b):
    return float(a).hex() == float(b).hex()


# ---------------------------------------------------------------------------
# the score-test core
# ---------------------------------------------------------------------------


@st.composite
def tables(draw):
    n_a = draw(st.integers(1, 10**7))
    n_b = draw(st.integers(1, 10**7))
    cases_a = draw(st.sampled_from([0, n_a]) | st.integers(0, n_a))
    cases_b = draw(st.sampled_from([0, n_b]) | st.integers(0, n_b))
    return TwoByTwo(cases_a, n_a, cases_b, n_b)


@given(tables(), st.booleans(), st.sampled_from([0.0, 1.0, 0.05]) | st.floats(0.0, 1.0))
def test_score_core_and_public_test_match_the_oracle(t, continuity, alpha):
    want = oracle_two_proportion_test(t, continuity, alpha)
    z, p = _score_test(t.cases_a, t.n_a, t.cases_b, t.n_b, continuity)
    assert _same_float(z, want.statistic) and _same_float(p, want.p_value)
    got = two_proportion_test(t, continuity, alpha)
    assert _same_float(got.statistic, want.statistic)
    assert _same_float(got.p_value, want.p_value)
    assert got.reject == want.reject and got.alpha == want.alpha


@st.composite
def score_counts(draw):
    n_a = draw(st.sampled_from([1, MAX_ARM_SIZE]) | st.integers(1, MAX_ARM_SIZE))
    n_b = draw(st.sampled_from([1, MAX_ARM_SIZE]) | st.integers(1, MAX_ARM_SIZE))
    cases_a = draw(st.sampled_from([0, n_a]) | st.integers(0, n_a))
    cases_b = draw(st.sampled_from([0, n_b]) | st.integers(0, n_b))
    return cases_a, n_a, cases_b, n_b


@settings(max_examples=300)
@given(score_counts(), st.booleans())
def test_the_score_cache_returns_the_uncached_scores(counts, continuity):
    uncached = _score_test.__wrapped__(*counts, continuity)
    # the first call may fill the entry, the second reads it; numpy's
    # integers share entries with Python's equal ones
    for args in (counts, counts, tuple(np.int64(c) for c in counts)):
        got = _score_test(*args, continuity)
        assert [type(v) for v in got] == [float, float]
        assert [v.hex() for v in got] == [v.hex() for v in uncached]
    assert _score_test.cache_info().currsize <= _score_test.cache_info().maxsize <= 1 << 12


# ---------------------------------------------------------------------------
# cohorts and reports, swept
# ---------------------------------------------------------------------------

#: Group sizes at and around the block and half-block, up to three blocks.
EDGE_SIZES = (1, 2, _BLOCK // 2 - 1, _BLOCK // 2, _BLOCK // 2 + 1,
              _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK)
PROBABILITIES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def specs(draw):
    n = draw(st.sampled_from(EDGE_SIZES) | st.integers(1, 64) | st.integers(1, 3 * _BLOCK))
    rules = []
    for i in range(draw(st.integers(0, 2))):
        rules.append(CovariateRule(
            f"c{i}",
            intercept=draw(st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0)),
            slope=draw(st.sampled_from([0.0, 1e-17, -1e-17]) | st.floats(-3.0, 3.0)),
            noise_sd=draw(st.sampled_from([0.0]) | st.floats(0.0, 3.0)),
        ))
    accuracy = draw(st.none() | PROBABILITIES)
    return CausalSpec(
        n_per_group=n,
        true_cause=draw(st.sampled_from(TRUE_CAUSES)),
        baseline_p=draw(PROBABILITIES),
        effect_p=draw(PROBABILITIES),
        covariate_rules=tuple(rules),
        proxy_rule=None if accuracy is None else ProxyRule(accuracy),
        latent_group_correlation=draw(PROBABILITIES),
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    specs(),
    st.integers(0, 2**63),
    st.integers(1, 2),
    st.sampled_from([0.0, 1.0, 0.05]) | st.floats(0.0, 1.0),
    st.booleans(),
)
def test_cohorts_and_reports_match_the_oracle(spec, seed, replications, alpha, continuity):
    assert_same_cohort(spec, seed)
    assert_same_report(spec, replications, alpha, seed, continuity)


@pytest.mark.parametrize("true_cause", TRUE_CAUSES)
@pytest.mark.parametrize("n", EDGE_SIZES)
def test_cohorts_match_the_oracle_at_block_edges(true_cause, n):
    spec = CausalSpec(
        n_per_group=n, true_cause=true_cause, baseline_p=0.3, effect_p=0.6,
        covariate_rules=(CovariateRule("x", 1.0, -2.0, 0.5), CovariateRule("y", -0.0, 1.0)),
        proxy_rule=ProxyRule(0.8), latent_group_correlation=0.4,
    )
    assert_same_cohort(spec, (5, n))


def test_one_sided_proxy_splits_count_as_no_evidence():
    # one individual per group and a coin-flip proxy: a quarter of the
    # replications read both individuals alike
    spec = CausalSpec(1, "exposure-label", 0.2, 0.9, proxy_rule=ProxyRule(0.5))
    one_sided = sum(
        not oracle_generate(spec, (3, i))["proxy_exposure"].any()
        or oracle_generate(spec, (3, i))["proxy_exposure"].all()
        for i in range(40)
    )
    assert one_sided > 0
    assert_same_report(spec, 40, 0.05, 3, True)


@pytest.mark.parametrize("slope", [1e-17, -1e-17, 0.0])
def test_one_sided_covariate_split_raises_the_oracle_error(slope):
    # 1.0 + 1e-17 rounds to 1.0, so the threshold leaves every value on one side
    spec = CausalSpec(
        50, "none", 0.1, 0.1, covariate_rules=(CovariateRule("flat", 1.0, slope),)
    )
    with pytest.raises(DomainError) as got:
        replication_study(spec, 2, seed=1)
    with pytest.raises(DomainError) as want:
        oracle_replication_rows(spec, 2, 0.05, 1, True)
    assert str(got.value) == str(want.value)
    with pytest.raises(DomainError) as swapped:
        banana_swap(generate(spec, 1), "flat")
    assert str(swapped.value) == str(want.value)


EXTREMES = st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                            -1.7976931348623157e308])


@given(
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]) | EXTREMES,
    st.floats(allow_nan=False, allow_infinity=False).filter(bool) | EXTREMES,
)
def test_group_0_never_lies_beyond_a_noiseless_threshold(intercept, slope):
    # fl(intercept + slope / 2) never rounds past the intercept, group 0's
    # level, so a noiseless covariate tests group 1's side or none
    rule = CovariateRule("x", intercept, slope)
    assert not cohort._side(rule, np.array(cohort._levels(rule)))[0]


@pytest.mark.parametrize("continuity", [True, False])
@pytest.mark.parametrize("noise_sd", [0.0, 0.7])
def test_banana_swap_matches_the_oracle(noise_sd, continuity):
    spec = CausalSpec(
        3_000, "exposure-label", 0.02, 0.05,
        covariate_rules=(CovariateRule("banana", 1.0, -1.0, noise_sd),),
    )
    got = banana_swap(generate(spec, 8), "banana", continuity, alpha=0.1)
    cohort = oracle_generate(spec, 8)
    want = (
        oracle_test_mask(cohort["outcome"], cohort["true_exposure"], continuity, 0.1),
        oracle_test_mask(
            cohort["outcome"], oracle_covariate_mask(spec, cohort, "banana"), continuity, 0.1
        ),
    )
    assert got == want


# ---------------------------------------------------------------------------
# a replication range against one generate call per replication
# ---------------------------------------------------------------------------


def _per_cohort_rows(spec, seed, variants, continuity, start, stop):
    """The rows the loop of one ``generate`` per replication writes before
    its first error, and that error's text (None if it runs clean)."""
    rows = []
    try:
        for i in range(start, stop):
            cohort = generate(spec, (seed, i))
            rows.append([_variant_score(cohort, v, continuity)[1] for v in variants])
    except DomainError as exc:
        return rows, str(exc)
    return rows, None


def assert_range_matches_the_per_cohort_loop(spec, seed, variants, continuity, start, stop):
    """``_replicate_range`` writes the loop's rows bit for bit, raises its
    error, and leaves the failing row and every row after it unwritten."""
    want, want_error = _per_cohort_rows(spec, seed, variants, continuity, start, stop)
    got = np.full((stop - start, len(variants)), np.nan)
    try:
        _replicate_range(spec, seed, variants, continuity, start, stop, got)
        got_error = None
    except DomainError as exc:
        got_error = str(exc)
    assert got_error == want_error
    written = len(want)
    want = np.array(want, dtype=float).reshape(written, len(variants))
    assert got[:written].tobytes() == want.tobytes()
    assert np.isnan(got[written:]).all()
    return written


#: Groups whose cohort of 2 n is below, at and above one block.
BLOCK_SIZES = (_BLOCK // 2 - 1, _BLOCK // 2, _BLOCK // 2 + 1)
RANGE_VARIANTS = ("true_exposure", "proxy_exposure", "covariate_up", "covariate_down",
                  "covariate_missing", "no_such_variant")


@st.composite
def range_specs(draw):
    rules = []
    for name, sign in (("up", 1.0), ("down", -1.0)):
        if draw(st.booleans()):
            rules.append(CovariateRule(
                name,
                intercept=draw(st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0)),
                slope=sign * draw(st.sampled_from([0.0, 1e-17]) | st.floats(0.1, 3.0)),
                noise_sd=draw(st.sampled_from([0.0, 0.5, 4.0]) | st.floats(0.0, 3.0)),
            ))
    accuracy = draw(st.none() | PROBABILITIES)
    return CausalSpec(
        n_per_group=draw(st.sampled_from(BLOCK_SIZES) | st.integers(1, 40)),
        true_cause=draw(st.sampled_from(TRUE_CAUSES)),
        baseline_p=draw(PROBABILITIES),
        effect_p=draw(PROBABILITIES),
        covariate_rules=tuple(rules),
        proxy_rule=None if accuracy is None else ProxyRule(accuracy),
        latent_group_correlation=draw(PROBABILITIES),
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    range_specs(),
    st.sampled_from([0, 2**32, 2**64 + 3]) | st.integers(0, 2**70),
    st.lists(st.sampled_from(RANGE_VARIANTS), min_size=1, max_size=4) | st.none(),
    st.booleans(),
    st.integers(0, 6),
    st.integers(0, 3),
)
def test_a_range_writes_the_rows_of_one_generate_per_replication(
    spec, seed, variants, continuity, start, count
):
    variants = default_variants(spec) if variants is None else tuple(variants)
    assert_range_matches_the_per_cohort_loop(
        spec, seed, variants, continuity, start, start + count
    )


@pytest.mark.parametrize("proxy", [None, ProxyRule(0.7)])
@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("true_cause", TRUE_CAUSES)
def test_a_range_matches_the_per_cohort_loop_at_block_edges(true_cause, n, proxy):
    # noiseless and noisy covariates of either slope sign; a two-word seed;
    # an effect small enough that no p-value underflows to 0 at these sizes
    spec = CausalSpec(
        n, true_cause, 0.3, 0.31,
        covariate_rules=(CovariateRule("a", 1.0, 2.0), CovariateRule("b", 0.0, -1.0),
                         CovariateRule("c", -0.0, 1.5, 0.8), CovariateRule("d", 2.0, -0.5, 1.2)),
        proxy_rule=proxy, latent_group_correlation=0.4,
    )
    for seed in (0, 2**32 + 9):
        assert assert_range_matches_the_per_cohort_loop(
            spec, seed, default_variants(spec), True, 3, 5
        ) == 2


#: Cohorts whose group boundary falls inside a block of uniforms (2n just
#: above one block) and inside a block of noise, or inside a later block.
STRADDLE_SIZES = (_BLOCK // 2 + 1, _BLOCK // 2 + 3 * _NOISE_BLOCK // 4, _BLOCK + 7)
SPLIT_VARIANTS = ("true_exposure", "proxy_exposure", "covariate_up", "covariate_down",
                  "covariate_flat")


@st.composite
def split_specs(draw):
    # always a proxy or a noisy covariate; "flat" is noisy with no slope
    rules = [CovariateRule("flat", draw(st.floats(-2.0, 2.0)), 0.0, 1.0)]
    for name, sign in (("up", 1.0), ("down", -1.0)):
        if draw(st.booleans()):
            rules.append(CovariateRule(
                name,
                intercept=draw(st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0)),
                slope=sign * draw(st.sampled_from([1e-17]) | st.floats(0.1, 3.0)),
                noise_sd=draw(st.sampled_from([0.5, 4.0]) | st.floats(1e-3, 3.0)),
            ))
    accuracy = draw(st.none() | PROBABILITIES) if len(rules) > 1 else draw(PROBABILITIES)
    return CausalSpec(
        n_per_group=draw(st.sampled_from(STRADDLE_SIZES) | st.integers(1, 40)),
        true_cause=draw(st.sampled_from(TRUE_CAUSES)),
        baseline_p=draw(PROBABILITIES),
        effect_p=draw(PROBABILITIES),
        covariate_rules=tuple(rules),
        proxy_rule=None if accuracy is None else ProxyRule(accuracy),
        latent_group_correlation=draw(PROBABILITIES),
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    split_specs(),
    st.sampled_from([2**32, 2**63 + 1]) | st.integers(2**32, 2**80),
    st.lists(st.sampled_from(SPLIT_VARIANTS), min_size=1, max_size=4),
    st.booleans(),
    st.integers(0, 4),
    st.integers(1, 3),
)
def test_a_range_reduces_its_splits_to_the_counts_of_one_generate_per_replication(
    spec, seed, variants, continuity, start, count
):
    # variant lists that read no split (the outcomes are then never kept),
    # that list a noisy covariate twice, or that score a noisy covariate
    # with no slope, one that is one-sided, or a proxy with an empty side
    assert_range_matches_the_per_cohort_loop(
        spec, seed, tuple(variants), continuity, start, start + count
    )


@pytest.mark.parametrize("n", STRADDLE_SIZES)
def test_a_range_reads_splits_that_straddle_the_group_boundary(n):
    # an effect small enough that no p-value underflows to 0 at these sizes
    spec = CausalSpec(
        n, "exposure-label", 0.3, 0.303,
        covariate_rules=(CovariateRule("up", 0.0, 0.5, 0.8), CovariateRule("down", 1.0, -2.0, 3.0)),
        proxy_rule=ProxyRule(0.9),
    )
    for variants in (("covariate_up", "proxy_exposure", "covariate_up", "covariate_down"),
                     ("true_exposure",), ("covariate_down", "true_exposure")):
        assert assert_range_matches_the_per_cohort_loop(
            spec, 2**32 + 5, variants, True, 0, 2
        ) == 2


@pytest.mark.parametrize("size", [2_000, 200_000, 10**6])
@pytest.mark.parametrize("block", [512, _NOISE_BLOCK, 1 << 16])
def test_normal_noise_drawn_in_blocks_is_one_call(size, block):
    """``_draw`` takes a covariate's noise in blocks: each block gives the
    values of one call and leaves the stream where one call leaves it."""
    whole = np.random.Generator(np.random.Philox(np.random.SeedSequence((9, size))))
    blocks = np.random.Generator(np.random.Philox(np.random.SeedSequence((9, size))))
    want = whole.normal(0.0, 1.7, size=size)
    got = np.concatenate([blocks.normal(0.0, 1.7, size=min(block, size - start))
                          for start in range(0, size, block)])
    assert got.tobytes() == want.tobytes()
    assert str(blocks.bit_generator.state) == str(whole.bit_generator.state)
    assert blocks.random(3).tobytes() == whole.random(3).tobytes()


@pytest.mark.parametrize("variants, stop", [
    (("true_exposure", "covariate_flat"), 1),
    (("true_exposure", "proxy_exposure"), 1),
    (("true_exposure", "no_such_variant"), 1),
    (("covariate_wide", "true_exposure"), 40),
])
def test_a_range_raises_the_per_cohort_loop_error_at_its_replication(variants, stop):
    # a flat rule is one-sided at once; with one individual per group a
    # wide noisy rule puts both on one side in some replications only (at
    # seed 22, first in the eighth replication from 2)
    spec = CausalSpec(
        1, "none", 0.5, 0.5,
        covariate_rules=(CovariateRule("flat", 1.0, 1e-17), CovariateRule("wide", 0.0, 1.0, 3.0)),
    )
    written = assert_range_matches_the_per_cohort_loop(spec, 22, variants, True, 2, 2 + stop)
    assert written < stop
    if stop > 1:
        assert written > 0


#: For each size of tile a range draws its cohorts in, a group size that
#: makes it and a range of replications: tiles of ``_KEY_BLOCK`` (the most a
#: tile holds; 2n <= 16), of 3,640 (which do not divide a key block), of
#: three, of two, and of one (2n just above half a block).  Each range
#: starts past a multiple of its tile and ends in a partial tile; the two
#: longest cross the edge of their first key block.
TILE_RANGES = {
    _KEY_BLOCK: (8, 5, 5 + _KEY_BLOCK + 3),
    3_640: (9, 5, 5 + _KEY_BLOCK + 3),
    3: (_BLOCK // 6, 1, 8),
    2: (_BLOCK // 4, 1, 4),
    1: (_BLOCK // 4 + 1, 7, 9),
}


@pytest.mark.parametrize("tile", TILE_RANGES)
def test_a_range_of_tiles_matches_the_per_cohort_loop(tile):
    # every phase, with every kind of split scored
    n, start, stop = TILE_RANGES[tile]
    assert min(_KEY_BLOCK, _BLOCK // (2 * n)) == tile
    spec = CausalSpec(
        n, "latent-factor", 0.3, 0.31,
        covariate_rules=(CovariateRule("up", 0.0, 1.0, 0.5), CovariateRule("flat", 1.0, -2.0)),
        proxy_rule=ProxyRule(0.8), latent_group_correlation=0.6,
    )
    variants = ("true_exposure", "proxy_exposure", "covariate_up", "covariate_flat")
    assert assert_range_matches_the_per_cohort_loop(
        spec, 2**40 + 3, variants, True, start, stop
    ) == stop - start


_PHASES = ("mix", "coins", "outcome", "noise", "proxy")


@pytest.mark.parametrize("n, rows, buffer_rows, expected", [
    # a tile of three, and a partial tile: two rows drawn into three-row
    # buffers; each phase is reduced whole, over the rows drawn
    (10, 3, 3, [(phase, 0, (3, 20)) for phase in _PHASES]),
    (10, 2, 3, [(phase, 0, (2, 20)) for phase in _PHASES]),
    # one stream: each block as it is drawn, the coins in one call
    (40_000, 1, 1, [
        ("mix", 0, (1, 65_536)), ("mix", 65_536, (1, 14_464)),
        ("coins", 0, (1, 80_000)),
        ("outcome", 0, (1, 65_536)), ("outcome", 65_536, (1, 14_464)),
        *[("noise", start, (1, 16_384)) for start in (0, 16_384, 32_768, 49_152)],
        ("noise", 65_536, (1, 14_464)),
        ("proxy", 0, (1, 65_536)), ("proxy", 65_536, (1, 14_464)),
    ]),
])
def test_the_draw_reduces_each_block_once_its_last_row_has_drawn_it(n, rows, buffer_rows, expected):
    spec = CausalSpec(
        n, "latent-factor", 0.1, 0.3, covariate_rules=(CovariateRule("x", 0.0, 1.0, 0.5),),
        proxy_rule=ProxyRule(0.8), latent_group_correlation=0.6,
    )
    calls = []
    streams = (np.random.Generator(np.random.Philox(i)) for i in range(rows))
    _draw(spec, streams, rows, _buffers(spec, buffer_rows),
          lambda phase, rule, start, raw: calls.append((phase, start, raw.shape)))
    assert calls == expected


@pytest.mark.parametrize("key_block, start, stop", [(5, 3, 20), (4, 0, 4), (7, 6, 8)])
def test_tiles_split_at_key_blocks(monkeypatch, key_block, start, stop):
    # a tile holds at most one key block, so small key blocks make small
    # tiles, full and partial
    monkeypatch.setattr(cohort, "_KEY_BLOCK", key_block)
    spec = CausalSpec(5, "exposure-label", 0.4, 0.6, proxy_rule=ProxyRule(0.75),
                      covariate_rules=(CovariateRule("x", 0.0, 1.0, 0.3),))
    for continuity in (True, False):
        assert assert_range_matches_the_per_cohort_loop(
            spec, 17, ("covariate_x", "proxy_exposure", "true_exposure"), continuity, start, stop
        ) == stop - start


@pytest.mark.parametrize("key_block", [_KEY_BLOCK, 3])
def test_a_split_that_empties_inside_a_tile_stops_the_range_at_its_row(monkeypatch, key_block):
    # with one individual per group a wide noisy rule puts both on one side
    # in some replications only; at seed 22 the first from 2 is the eighth,
    # inside a tile of the whole range, or the second row of the third
    # tile of three
    monkeypatch.setattr(cohort, "_KEY_BLOCK", key_block)
    spec = CausalSpec(1, "none", 0.5, 0.5, covariate_rules=(CovariateRule("wide", 0.0, 1.0, 3.0),))
    for variants in (("covariate_wide",), ("true_exposure", "covariate_wide")):
        assert assert_range_matches_the_per_cohort_loop(spec, 22, variants, True, 2, 300) == 7


# ---------------------------------------------------------------------------
# replication keys against numpy's own SeedSequence
# ---------------------------------------------------------------------------


def seedsequence_keys(seed, start, stop):
    return np.array(
        [np.random.SeedSequence((seed, i)).generate_state(2, np.uint64) for i in range(start, stop)],
        dtype=np.uint64,
    ).reshape(stop - start, 2)


@st.composite
def seeds_of_one_to_seven_words(draw):
    words = draw(st.integers(1, 7))
    return draw(st.integers(0 if words == 1 else 2 ** (32 * words - 32), 2 ** (32 * words) - 1))


@st.composite
def key_ranges(draw):
    """Ranges in [0, MAX_REPLICATIONS]: from 0, from anywhere (a worker's
    range), and across a multiple of ``_KEY_BLOCK``."""
    edge = draw(st.integers(1, MAX_REPLICATIONS // _KEY_BLOCK)) * _KEY_BLOCK
    start = draw(st.just(0) | st.integers(0, MAX_REPLICATIONS) | st.integers(edge - 30, edge - 1))
    return start, min(start + draw(st.integers(0, 60)), MAX_REPLICATIONS)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**64 - 1, 2**224 - 1])
       | seeds_of_one_to_seven_words(), key_ranges())
def test_replication_keys_are_the_keys_of_numpy_seedsequence(seed, bounds):
    got = _replication_keys(seed, *bounds)
    want = seedsequence_keys(seed, *bounds)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_replication_keys_reach_the_top_of_a_word():
    # a 190-digit seed is 20 words, as the CLI takes it
    for seed in (0, 2**32, 10**189 + 7):
        bounds = (2**32 - 5, 2**32)
        assert _replication_keys(seed, *bounds).tobytes() == seedsequence_keys(seed, *bounds).tobytes()
    with pytest.raises(AssertionError):
        _replication_keys(0, 2**32 - 1, 2**32 + 1)


@pytest.mark.parametrize("key_block, start, stop", [
    (_KEY_BLOCK, 123_457, 123_457 + _KEY_BLOCK + 2),
    (3, 2, 11),
    (1, 999_995, MAX_REPLICATIONS),
])
def test_a_range_keys_its_replications_across_key_blocks(monkeypatch, key_block, start, stop):
    # without the continuity correction, p-values at 10 per group vary
    # from one replication to the next
    monkeypatch.setattr(cohort, "_KEY_BLOCK", key_block)
    spec = CausalSpec(10, "latent-factor", 0.3, 0.7, proxy_rule=ProxyRule(0.8),
                      latent_group_correlation=0.5)
    assert assert_range_matches_the_per_cohort_loop(
        spec, 2**40 + 7, default_variants(spec), False, start, stop
    ) == stop - start


def test_a_study_builds_no_seedsequence_in_its_ranges(monkeypatch):
    spec = CausalSpec(
        20, "latent-factor", 0.2, 0.4,
        covariate_rules=(CovariateRule("x", 0.0, 1.0, 0.7),),
        proxy_rule=ProxyRule(0.8), latent_group_correlation=0.6,
    )
    want = oracle_replication_rows(spec, 300, 0.05, 2**64 + 9, True)
    built = []
    seedsequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(args)
        return seedsequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    generate(spec, (2**64 + 9, 0))
    assert built == [((2**64 + 9, 0),)]  # the counter sees cohort's calls
    force_workers(monkeypatch, 1)
    built.clear()
    in_ranges = []
    replicate_range = cohort._replicate_range

    def counted_range(*args):
        before = len(built)
        replicate_range(*args)
        in_ranges.append(len(built) - before)

    monkeypatch.setattr(cohort, "_replicate_range", counted_range)
    assert replication_study(spec, 300, seed=2**64 + 9).rows == want
    assert in_ranges == [0]


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def test_generate_at_max_cohort_size_holds_no_per_individual_floats():
    """At MAX_COHORT_SIZE the cohort is three 10 MB one-byte arrays (group,
    true_exposure, outcome).  The draw may add one block of doubles (512 KiB)
    and its block-sized booleans, not the two 80 MB float64 arrays (a risk per
    individual and a uniform per individual) of a single-call draw."""
    spec = CausalSpec(MAX_COHORT_SIZE // 2, "exposure-label", 0.01, 0.012)
    bound = 3 * MAX_COHORT_SIZE + (1 << 20)
    tracemalloc.start()
    try:
        cohort = generate(spec, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cohort.outcome.nbytes == MAX_COHORT_SIZE
    assert peak < bound, f"generate peaked at {peak} bytes, bound {bound}"


#: One range at MAX_COHORT_SIZE per kind of spec, with the variants it
#: scores and the bound on its traced peak.  A range keeps the outcomes (10 MB
#: of one-byte flags) only when a proxy or noisy covariate is scored, and the
#: latent array (10 MB) while the one-call coins (10 MB) are combined into
#: it; a block of uniforms is 512 KiB.
_CAP = MAX_COHORT_SIZE // 2
RANGE_PEAKS = {
    "exposure-label": (
        CausalSpec(_CAP, "exposure-label", 0.01, 0.012,
                   covariate_rules=(CovariateRule("x", 1.0, 1.0),)),
        None, 1 << 20),
    "proxy": (
        CausalSpec(_CAP, "exposure-label", 0.01, 0.012, proxy_rule=ProxyRule(0.8)),
        None, MAX_COHORT_SIZE + (1 << 20)),
    "proxy, label only": (
        CausalSpec(_CAP, "exposure-label", 0.01, 0.012, proxy_rule=ProxyRule(0.8)),
        ("true_exposure",), 1 << 20),
    "one noisy covariate": (
        CausalSpec(_CAP, "exposure-label", 0.01, 0.012,
                   covariate_rules=(CovariateRule("x", 0.0, 1.0, 0.5),)),
        None, MAX_COHORT_SIZE + (1 << 20)),
    "latent factor": (
        CausalSpec(_CAP, "latent-factor", 0.01, 0.012, latent_group_correlation=0.5),
        None, 2 * MAX_COHORT_SIZE + (1 << 20)),
}


@pytest.mark.parametrize("kind", RANGE_PEAKS)
def test_a_range_at_max_cohort_size_reuses_its_arrays(kind):
    """A range at MAX_COHORT_SIZE reduces each block to counts as it is
    drawn: it holds no per-individual float64 array (80 MB), no proxy flags
    and no covariate values, and outcomes only when a split reads them.
    Its second replication draws into the first one's arrays, so it adds at
    most one block."""
    spec, variants, bound = RANGE_PEAKS[kind]
    variants = default_variants(spec) if variants is None else variants
    peaks = []
    for replications in (1, 2):
        rows = np.empty((replications, len(variants)))
        tracemalloc.start()
        try:
            _replicate_range(spec, 7, variants, True, 0, replications, rows)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < bound, f"ranges peaked at {peaks} bytes, bound {bound}"
    assert peaks[1] <= peaks[0] + _BLOCK * 8, f"two replications peaked at {peaks}"


def test_a_long_range_derives_its_keys_a_block_at_a_time():
    """One pass over 20,000 replications' keys peaks near 1.9 MB (about 96
    bytes a key at a two-word seed); a range derives ``_KEY_BLOCK`` of them
    at a time, so it stays under 1 MiB besides the caller's rows.  (Traced,
    a replication takes about 100 us, so a longer range only slows the
    test.)"""
    spec = CausalSpec(1, "none", 0.5, 0.5)
    rows = np.empty((20_000, 1))
    tracemalloc.start()
    try:
        _replicate_range(spec, 2**40 + 7, ("true_exposure",), False, 0, len(rows), rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"the range peaked at {peak} bytes"
    for i in (0, _KEY_BLOCK - 1, _KEY_BLOCK, len(rows) - 1):
        want = _variant_score(generate(spec, (2**40 + 7, i)), "true_exposure", False)[1]
        assert rows[i, 0].hex() == want.hex()
