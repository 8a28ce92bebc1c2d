"""``_parallel.split`` decides the worker count and the ranges.

Replication studies and convolutions both hand their rows to ``split``
with a cost per row.  These tests give it random nondecreasing cost tables
and forced CPU counts, record the ranges it hands to ``_parallel.run``,
and check that the array is that of one in-process ``fill``, that the
ranges tile the rows, and that each costs about an equal share; and that
work below the threshold or on one CPU never leaves the caller.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import force_workers
from riskcounts import _parallel

linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="workers run only on Linux")


def _fill(start, stop, rows):
    """Rows that depend only on their index, and columns on theirs."""
    flat = rows.reshape(stop - start, -1)  # a view: the rows are contiguous
    flat[...] = np.sin(np.arange(start, stop))[:, None] + np.arange(flat.shape[1])


def _expected(shape):
    out = np.empty(shape)
    _fill(0, shape[0], out)
    return out


def _before(costs):
    """``cost_before`` over a table of per-row costs."""
    prefix = [0, *np.cumsum(costs, dtype=np.int64).tolist()]
    return prefix.__getitem__


@linux_only
@settings(max_examples=150, deadline=None)
@given(costs=st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
       columns=st.sampled_from([(), (1,), (3,)]),
       cpus=st.integers(1, 5))
def test_split_tiles_the_rows_at_about_equal_cost(costs, columns, cpus):
    units = len(costs)
    shape = (units, *columns)
    before = _before(costs)
    with pytest.MonkeyPatch.context() as mp:
        forked = force_workers(mp, cpus)
        got = _parallel.split(_fill, shape, before, 0)
    assert got.shape == shape
    assert got.tobytes() == _expected(shape).tobytes()
    count = min(cpus, units)
    if count == 1:
        assert forked == []
        return
    [ranges] = forked
    assert len(ranges) == count
    assert ranges[0][0] == 0 and ranges[-1][1] == units
    assert all(a < b for a, b in ranges)
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    share = before(units) / count
    widest = max(costs)

    def cost(a, b):
        return before(b) - before(a)

    start, stop = ranges[0]
    assert cost(start, stop) <= share or stop - start == 1
    assert all(abs(cost(a, b) - share) <= widest for a, b in ranges)


@linux_only
@settings(max_examples=60, deadline=None)
@given(units=st.integers(1, 200), per_row=st.integers(1, 10**9), cpus=st.integers(2, 5))
def test_linear_cost_gives_sizes_within_one_the_first_smallest(units, per_row, cpus):
    with pytest.MonkeyPatch.context() as mp:
        forked = force_workers(mp, cpus)
        got = _parallel.split(_fill, (units,), lambda m: m * per_row, units * per_row)
    assert got.tobytes() == _expected((units,)).tobytes()
    if units == 1:
        assert forked == []
        return
    [ranges] = forked
    sizes = [b - a for a, b in ranges]
    assert len(sizes) == min(cpus, units)
    assert sizes[0] == min(sizes) and max(sizes) - min(sizes) <= 1


def test_work_below_the_threshold_stays_in_process(monkeypatch):
    forked = force_workers(monkeypatch, 4)
    got = _parallel.split(_fill, (40, 2), lambda m: 10 * m, 401)
    assert got.tobytes() == _expected((40, 2)).tobytes()
    assert forked == []


def test_one_usable_cpu_stays_in_process(monkeypatch):
    forked = force_workers(monkeypatch, 1)
    got = _parallel.split(_fill, (40,), lambda m: m, 0)
    assert got.tobytes() == _expected((40,)).tobytes()
    assert forked == []


@linux_only
def test_the_threshold_is_the_whole_cost(monkeypatch):
    forked = force_workers(monkeypatch, 2)
    _parallel.split(_fill, (40,), lambda m: 10 * m, 400)
    assert forked == [[(0, 20), (20, 40)]]
