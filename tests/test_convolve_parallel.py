"""Convolutions across processes give the bytes of one ``np.correlate`` call.

``convolve`` computes the cells of its full correlate that the trim keeps,
a contiguous range of them, and from ``_PARALLEL_MIN_MACS`` edge-charged
multiply-adds up ``_parallel.split`` cuts that range into contiguous ranges
and computes all but the first in forked workers: edge cells one dot product
each, full-length cells through one ``"valid"`` correlate.  These tests
force the worker count and a zero threshold and compare cell bytes with the
single call, over kernels short enough for numpy's small-kernel branch,
equal lengths, both operand orders, random lengths and random cell ranges.
``_cells`` takes the edge cells in phases of their sliding offset mod 8,
each on one reused aligned copy of the sliding operand: the bytes hold for
ranges from every start and of every short length, on operands at every
offset from a cache line, and one copy of an operand is live at a time.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CONVOLVE_THRESHOLD, force_workers
from riskcounts import _parallel, distributions
from riskcounts.distributions import (
    CountDistribution,
    _aligned,
    _correlate,
    _cost_before,
    binomial_distribution,
    convolve,
)


def _force(monkeypatch, workers):
    """Run every convolution on ``workers`` processes (fewer if it has fewer
    cells) and record the ranges each forked split used."""
    return force_workers(monkeypatch, workers, threshold=CONVOLVE_THRESHOLD)


def _operands(seed, n1, n2):
    """Aligned positive operands, with a spread of magnitudes and some zeros."""
    rng = np.random.default_rng(seed)
    x, y = (np.exp(rng.uniform(-60.0, 0.0, n)) * (rng.random(n) > 0.05) for n in (n1, n2))
    return _aligned(x), _aligned(y)


def _offset_operands(seed, n1, n2, shift_x, shift_y):
    """``_operands`` as views ``shift_x`` and ``shift_y`` elements into
    64-byte-aligned arrays, so each starts at its own offset from a cache line."""
    x, y = _operands(seed, n1 + shift_x, n2 + shift_y)
    return x[shift_x:], y[shift_y:]


lengths = st.one_of(
    st.tuples(st.integers(1, 400), st.just(1)),  # a one-cell kernel
    st.tuples(st.integers(11, 400), st.integers(2, 11)),  # the small-kernel branch
    st.integers(1, 300).map(lambda n: (n, n)),  # equal lengths
    st.tuples(st.integers(1, 400), st.integers(1, 400)).map(lambda t: (max(t), min(t))),
)


def _cell_range(cells, span):
    """Cells ``start`` to ``stop - 1``, at per-mille positions ``span``."""
    a, b = sorted(span)
    start = min(cells * a // 1000, cells - 1)
    return start, max(start + 1, cells * b // 1000)


FULL = (0, 1000)


@settings(max_examples=60, deadline=None)
@given(shape=lengths, workers=st.integers(1, 4), seed=st.integers(0, 2**32),
       span=st.one_of(st.just(FULL), st.tuples(st.integers(0, 1000), st.integers(0, 1000))),
       shifts=st.one_of(st.just((0, 0)), st.tuples(st.integers(0, 7), st.integers(0, 7))))
@example(shape=(12, 12), workers=4, seed=0, span=FULL, shifts=(0, 0))
@example(shape=(2, 2), workers=3, seed=1, span=FULL, shifts=(0, 0))  # a range of one costly edge cell
@example(shape=(1, 1), workers=2, seed=2, span=FULL, shifts=(0, 0))
@example(shape=(400, 30), workers=2, seed=3, span=(10, 990), shifts=(0, 0))  # both edges, cut
@example(shape=(400, 30), workers=3, seed=4, span=(500, 510), shifts=(0, 0))  # full-length cells only
@example(shape=(400, 300), workers=1, seed=5, span=(1, 999), shifts=(3, 6))  # operands off a cache line
@example(shape=(300, 300), workers=2, seed=6, span=(990, 1000), shifts=(1, 1))  # no full-length cells
@example(shape=(9, 9), workers=1, seed=7, span=(0, 999), shifts=(0, 5))  # fewer edge cells than phases
def test_split_cells_are_the_bytes_of_one_call(shape, workers, seed, span, shifts):
    x, y = _offset_operands(seed, *shape, *shifts)
    expected = np.correlate(x, y, "full")
    start, stop = _cell_range(len(expected), span)
    with pytest.MonkeyPatch.context() as mp:
        forked = _force(mp, workers)
        got = _correlate(x, y, start, stop)
    assert got.tobytes() == expected[start:stop].tobytes()
    assert len(forked) == (min(workers, stop - start) > 1)


def _law(lo, log_mass):
    log_mass = np.asarray(log_mass)
    masses = np.exp(log_mass)
    return CountDistribution("binomial", lo, lo + len(masses) - 1, log_mass,
                             max(0.0, 1.0 - masses.sum()))


@settings(max_examples=30, deadline=None)
@given(n1=st.integers(1, 200), n2=st.integers(1, 200), workers=st.integers(2, 4),
       seed=st.integers(0, 2**32))
def test_convolve_in_either_operand_order_keeps_its_bytes(n1, n2, workers, seed):
    rng = np.random.default_rng(seed)
    a = _law(int(rng.integers(0, 50)), np.log(rng.dirichlet(np.ones(n1)) * 0.999999) if n1 > 1 else [0.0])
    b = _law(int(rng.integers(0, 50)), np.log(rng.dirichlet(np.ones(n2)) * 0.999999) if n2 > 1 else [0.0])
    expected = [convolve(a, b), convolve(b, a)]
    with pytest.MonkeyPatch.context() as mp:
        forked = _force(mp, workers)
        got = [convolve(a, b), convolve(b, a)]
    for g, e in zip(got, expected):
        assert (g.support_lo, g.truncated_mass) == (e.support_lo, e.truncated_mass)
        assert g.log_mass.tobytes() == e.log_mass.tobytes()
    assert len(forked) == 2 * (n1 + n2 > 2)


def _cell_ranges(monkeypatch, n1, n2, start, stop, workers):
    """The ranges, relative to ``start``, that ``_correlate`` splits cells
    ``start`` to ``stop - 1`` into on ``workers`` CPUs, none computed."""
    forked = []
    _force(monkeypatch, workers)
    monkeypatch.setattr(_parallel, "run",
                        lambda fill, ranges, shape: forked.append(ranges) or np.zeros(shape))
    _correlate(np.zeros(n1), np.zeros(n2), start, stop)
    [ranges] = forked
    return ranges


def test_ranges_cover_the_cells_at_about_equal_cost(monkeypatch):
    for n1, n2, workers in [(1000, 1000, 2), (80_000, 75_000, 2), (5000, 3, 4), (10, 1, 3), (2, 2, 3)]:
        ranges = _cell_ranges(monkeypatch, n1, n2, 0, n1 + n2 - 1, workers)
        assert ranges[0][0] == 0 and ranges[-1][1] == n1 + n2 - 1
        assert all(a < b == c for (a, b), (c, _) in zip(ranges, ranges[1:] + [(ranges[-1][1], 0)]))
    # each bound is the last cell within its share: equal operands split
    # just before the middle cell, and with a short kernel each edge cell
    # costs about as much as a quarter of the cells
    assert _cell_ranges(monkeypatch, 1000, 1000, 0, 1999, 2) == [(0, 999), (999, 1999)]
    assert _cell_ranges(monkeypatch, 5000, 3, 0, 5002, 4) == [
        (0, 1), (1, 2501), (2501, 5000), (5000, 5002)]


def _cost(n1, n2, start, stop):
    """A range's cost as ``_cost_before`` counts it, cell by cell."""
    edge = n2 - 1
    return sum(min(k + 1, n2, n1 + n2 - 1 - k)
               + (k < edge or k >= n1) * distributions._EDGE_CELL_MACS for k in range(start, stop))


@pytest.mark.parametrize("n1, n2, start, stop, workers", [
    (6000, 5000, 2000, 9000, 2),  # a kept range: both edges cut
    (6000, 5000, 4500, 6500, 3),  # full-length cells and both edges
    (5000, 3, 1, 4000, 4),
    (3000, 2000, 0, 1200, 2),  # the left edge alone
    (3000, 2000, 4000, 4999, 3),  # the right edge alone
])
def test_sub_range_splits_balance_cost_and_keep_the_bytes(n1, n2, start, stop, workers):
    x, y = _operands(n1 + n2, n1, n2)
    expected = np.empty(stop - start)
    distributions._cells(x, y, start, stop, expected)
    with pytest.MonkeyPatch.context() as mp:
        forked = _force(mp, workers)
        got = _correlate(x, y, start, stop)
    assert got.tobytes() == expected.tobytes()
    [ranges] = forked
    ranges = [(a + start, b + start) for a, b in ranges]
    assert len(ranges) == workers and ranges[0][0] == start and ranges[-1][1] == stop
    assert all(a < b == c for (a, b), (c, _) in zip(ranges, ranges[1:] + [(stop, 0)]))
    share = _cost(n1, n2, start, stop) / workers
    widest = max(_cost(n1, n2, k, k + 1) for k in range(start, stop))
    assert all(abs(_cost(n1, n2, a, b) - share) <= widest for a, b in ranges)
    # the caller's range: at most a share, or one cell dearer than a share
    assert _cost(n1, n2, *ranges[0]) <= share or ranges[0][1] - ranges[0][0] == 1


def test_small_convolutions_run_in_process(monkeypatch):
    forked = _force(monkeypatch, 2)
    # the cost of every cell of a 1000 x 1000 correlate: 1e6 MACs, and
    # _EDGE_CELL_MACS for each of its 1,998 edge cells
    full = _cost_before(1000, 1000, 1999)
    assert full == 10**6 + 1998 * distributions._EDGE_CELL_MACS
    monkeypatch.setattr(distributions, "_PARALLEL_MIN_MACS", full)
    x, y = _operands(0, 1000, 999)
    _correlate(x, y, 0, 1998)  # 999,000 MACs and 1,996 edge cells
    assert forked == []
    x, y = _operands(0, 1000, 1000)
    _correlate(x, y, 1, 1999)  # the range's cost counts, not the operands'
    assert forked == []
    assert _correlate(x, y, 0, 1999).tobytes() == np.correlate(x, y, "full").tobytes()
    assert forked == [[(0, 999), (999, 1999)]]


@pytest.mark.parametrize("shifts", [(0, 0), (1, 0), (0, 3), (5, 7), (7, 1)])
def test_edge_cells_in_phases_are_the_bytes_of_one_call(shifts):
    # every start, so every residue mod 8 on both edges, with ranges of 1 to
    # 9 cells and to the last cell, which cross from the left edge into the
    # full-length cells and from those into the right edge
    x, y = _offset_operands(sum(shifts), 70, 33, *shifts)
    expected = np.correlate(x, y, "full")
    # the bits do not depend on where the operands sit
    assert expected.tobytes() == np.correlate(_aligned(x), _aligned(y), "full").tobytes()
    cells = len(expected)
    for start in range(cells):
        for stop in {*range(start + 1, min(start + 10, cells + 1)), cells}:
            got = np.empty(stop - start)
            distributions._cells(x, y, start, stop, got)
            assert got.tobytes() == expected[start:stop].tobytes(), (start, stop)


def test_edge_cells_hold_one_copy_of_an_operand_at_a_time(monkeypatch):
    # the 1e8-per-arm ladder rung's operands, as ``convolve`` passes them
    a = binomial_distribution(10**8, 0.011)
    b = binomial_distribution(10**8, 0.01)
    x, y = _aligned(a.masses), _aligned(b.masses[::-1])
    n1, n2 = len(x), len(y)
    assert n1 > n2 > 20_000
    # the numpy data allocated since tracing started, read at every 97th dot
    # product (a snapshot takes milliseconds), while the phase copies are live
    calls, held = [], []
    vdot = np.vdot

    def traced_vdot(u, v):
        if len(calls) % 97 == 0:
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
            held.append(sum(trace.size for trace in snapshot.traces))
        calls.append(1)
        return vdot(u, v)

    monkeypatch.setattr(np, "vdot", traced_vdot)
    for start, stop in [(n2 - 1 - 4_000, n2 - 1), (n1, n1 + 4_000)]:
        out = np.empty(stop - start)
        calls.clear()
        held.clear()
        tracemalloc.start()
        try:
            distributions._cells(x, y, start, stop, out)
        finally:
            tracemalloc.stop()
        assert len(calls) == stop - start
        assert 0 < max(held) <= y.nbytes + 16 * 8


def _dying_cells(x, y, start, stop, out):
    if os.getpid() != PARENT:
        os._exit(1)
    CELLS(x, y, start, stop, out)


PARENT = os.getpid()
CELLS = distributions._cells


def test_a_lost_worker_range_is_recomputed(monkeypatch):
    forked = _force(monkeypatch, 3)
    monkeypatch.setattr(distributions, "_cells", _dying_cells)
    a = binomial_distribution(10_000, 0.3)
    b = binomial_distribution(12_000, 0.25)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributions, "_PARALLEL_MIN_MACS", 10**18)
        expected = convolve(a, b)
    got = convolve(a, b)
    assert got.log_mass.tobytes() == expected.log_mass.tobytes()
    assert len(forked) == 1 and len(forked[0]) == 3
