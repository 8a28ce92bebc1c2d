"""Convolutions across processes give the bytes of one ``np.correlate`` call.

From ``_PARALLEL_MIN_MACS`` multiply-adds up, ``convolve`` splits the cells
of its full correlate into contiguous ranges and computes all but the first
in forked workers: edge cells one dot product each, full-length cells through
one ``"valid"`` correlate.  These tests force the worker count and a zero
threshold and compare cell bytes with the single call, over kernels short
enough for numpy's small-kernel branch, equal lengths, both operand orders
and random lengths.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskcounts import _parallel, distributions
from riskcounts.distributions import (
    CountDistribution,
    _aligned,
    _cell_ranges,
    _correlate,
    binomial_distribution,
    convolve,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _force(monkeypatch, workers):
    """Run every convolution on ``workers`` processes (fewer if it has fewer
    cells) and record the ranges each forked split used."""
    forked = []
    run = _parallel.run
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: workers)
    monkeypatch.setattr(_parallel, "blas_threads", lambda: 1)
    monkeypatch.setattr(distributions, "_PARALLEL_MIN_MACS", 0)
    monkeypatch.setattr(_parallel, "run",
                        lambda fill, ranges, shape: forked.append(ranges) or run(fill, ranges, shape))
    return forked


def _operands(seed, n1, n2):
    """Aligned positive operands, with a spread of magnitudes and some zeros."""
    rng = np.random.default_rng(seed)
    x, y = (np.exp(rng.uniform(-60.0, 0.0, n)) * (rng.random(n) > 0.05) for n in (n1, n2))
    return _aligned(x), _aligned(y)


lengths = st.one_of(
    st.tuples(st.integers(1, 400), st.just(1)),  # a one-cell kernel
    st.tuples(st.integers(11, 400), st.integers(2, 11)),  # the small-kernel branch
    st.integers(1, 300).map(lambda n: (n, n)),  # equal lengths
    st.tuples(st.integers(1, 400), st.integers(1, 400)).map(lambda t: (max(t), min(t))),
)


@settings(max_examples=60, deadline=None)
@given(shape=lengths, workers=st.integers(1, 4), seed=st.integers(0, 2**32))
@example(shape=(12, 12), workers=4, seed=0)
@example(shape=(2, 2), workers=3, seed=1)  # a range of one costly edge cell
@example(shape=(1, 1), workers=2, seed=2)
def test_split_cells_are_the_bytes_of_one_call(shape, workers, seed):
    x, y = _operands(seed, *shape)
    expected = np.correlate(x, y, "full")
    with pytest.MonkeyPatch.context() as mp:
        forked = _force(mp, workers)
        got = _correlate(x, y)
    assert got.tobytes() == expected.tobytes()
    assert len(forked) == (min(workers, len(expected)) > 1)


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


def test_ranges_cover_the_cells_at_about_equal_cost():
    for n1, n2, workers in [(1000, 1000, 2), (80_000, 75_000, 2), (5000, 3, 4), (10, 1, 3), (2, 2, 3)]:
        ranges = _cell_ranges(n1, n2, workers)
        assert ranges[0][0] == 0 and ranges[-1][1] == n1 + n2 - 1
        assert all(a < b == c for (a, b), (c, _) in zip(ranges, ranges[1:] + [(ranges[-1][1], 0)]))
    # equal operands split at the middle cell; with a short kernel each
    # edge cell costs about as much as a quarter of the cells
    assert _cell_ranges(1000, 1000, 2) == [(0, 1000), (1000, 1999)]
    assert _cell_ranges(5000, 3, 4) == [(0, 2), (2, 2501), (2501, 5001), (5001, 5002)]


def test_small_convolutions_run_in_process(monkeypatch):
    forked = _force(monkeypatch, 2)
    monkeypatch.setattr(distributions, "_PARALLEL_MIN_MACS", 10**6)
    x, y = _operands(0, 1000, 999)
    _correlate(x, y)  # 999,000 MACs
    assert forked == []
    x, y = _operands(0, 1000, 1000)
    assert _correlate(x, y).tobytes() == np.correlate(x, y, "full").tobytes()
    assert forked == [[(0, 1000), (1000, 1999)]]


@pytest.mark.parametrize("cpus, threads, split", [
    (2, 1, True), (2, 2, False), (4, 2, True), (3, 2, False), (8, None, False),
])
def test_each_worker_gets_a_whole_blas_thread_team(monkeypatch, cpus, threads, split):
    forked = _force(monkeypatch, cpus)
    monkeypatch.setattr(_parallel, "blas_threads", lambda: threads)
    x, y = _operands(0, 50, 40)
    assert _correlate(x, y).tobytes() == np.correlate(x, y, "full").tobytes()
    assert len(forked) == split


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


#: Prints the SHA-256 of a convolution whose dot products are long enough
#: for OpenBLAS to thread, computed in-process, then split over two workers.
THREADED = """\
import hashlib
import numpy as np
from riskcounts import _parallel, distributions as d
rng = np.random.default_rng(5)
x, y = d._aligned(rng.random(10_600)), d._aligned(rng.random(10_300))
d._PARALLEL_MIN_MACS = 10**30
print(hashlib.sha256(d._correlate(x, y)).hexdigest())
d._PARALLEL_MIN_MACS = 0
_parallel.usable_cpus = lambda: 2
_parallel.blas_threads = lambda: 1  # split even though each BLAS runs two threads
print(hashlib.sha256(d._correlate(x, y)).hexdigest())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers run only on Linux")
def test_threaded_blas_gives_the_same_bytes_split_or_whole():
    # OpenBLAS splits a dot product longer than 10,000 over its threads,
    # which rounds differently; a worker must run under the same setting
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2"}
    out = subprocess.run([sys.executable, "-c", THREADED], env=env, capture_output=True,
                         text=True, check=True, timeout=300).stdout.split()
    assert len(out) == 2 and out[0] == out[1]

