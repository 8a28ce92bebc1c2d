"""No byte depends on the OpenBLAS thread count.  Convolutions, the
package's only BLAS work, run inside ``_parallel.one_blas_thread``, which
forked workers inherit and which gives the caller's thread count back; every
other sum of products is computed without BLAS."""

import ast
import contextlib
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import CONVOLVE_THRESHOLD, force_workers
from pinned import ARTIFACTS, TESTS, pins, scenario_path
from riskcounts import _parallel, distributions
from riskcounts.distributions import _aligned, _correlate, binomial_distribution, convolve

pinning = pytest.mark.skipif(_parallel._openblas() is None, reason="numpy's OpenBLAS not found")


def _python(threads, *args) -> str:
    """The stdout of ``python *args`` under ``threads`` OpenBLAS threads."""
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src"),
           "OPENBLAS_NUM_THREADS": str(threads)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, timeout=600).stdout


REPLAY = """import hashlib, sys; from riskcounts.figures import replay_file
print(hashlib.sha256(replay_file(sys.argv[1]).encode("utf-8")).hexdigest())"""


def test_a_figure_written_under_two_threads_is_its_pin_and_replays_under_one(tmp_path):
    key = "figure-la_rr106_c1e3-4"
    a, out = ARTIFACTS[key], tmp_path / "figure.csv"
    _python(2, "-m", "riskcounts", a.argv[0], scenario_path(tmp_path, a.scenario),
            *a.argv[1:], "--out", str(out))
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == pins()["pins"][key]["sha256"]
    assert _python(1, "-c", REPLAY, str(out)).split() == [digest]


#: Values on a 1e8-per-arm pair, as hex.  Their last bits differed between one
#: and two threads while BLAS computed them; no BLAS computes them now.
VALUES = """\
from riskcounts.comparison import prob_equal, prob_greater
from riskcounts.distributions import binomial_distribution as law
e, u = law(10**8, 0.010002), law(10**8, 0.01)
for v in prob_greater(e, u).value, prob_equal(e, u).value, e.mean(), u.mean(), e.variance():
    print(v.hex())"""


@pytest.fixture(scope="module")
def values_by_threads():
    return [_python(threads, "-c", VALUES).split() for threads in (1, 2)]


@pytest.mark.parametrize("i", range(5), ids=["greater", "equal", "mean", "mean_u", "variance"])
def test_values_on_1e8_arms_agree_bit_for_bit_under_one_and_two_threads(values_by_threads, i):
    one, two = values_by_threads
    assert len(one) == len(two) == 5 and one[i] == two[i]


@pytest.fixture
def two_threads():
    """Two OpenBLAS threads for the test, which gets their getter."""
    get, put = _parallel._openblas()
    before = get()
    put(2)
    yield get
    put(before)


@pinning
@pytest.mark.parametrize("fails", [False, True])
def test_the_callers_thread_count_comes_back(two_threads, fails):
    seen = []
    with pytest.raises(ValueError) if fails else contextlib.nullcontext():
        with _parallel.one_blas_thread() as pinned:
            seen.append(two_threads())
            if fails:
                raise ValueError
    assert pinned and seen == [1] and two_threads() == 2


@pinning
def test_every_call_gives_the_callers_thread_count_back(two_threads):
    convolve(binomial_distribution(3_000, 0.3), binomial_distribution(2_000, 0.4))
    assert two_threads() == 2


def _thread_count_cells(x, y, start, stop, out):
    out[...] = _parallel._openblas()[0]()


@pinning
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers run only on Linux")
def test_forked_convolution_workers_run_one_blas_thread(monkeypatch, two_threads):
    forked = force_workers(monkeypatch, 2, threshold=CONVOLVE_THRESHOLD)
    monkeypatch.setattr(distributions, "_cells", _thread_count_cells)
    x = _aligned(np.ones(1000))
    assert _correlate(x, x, 10, 30).tolist() == [1.0] * 20
    assert forked == [[(0, 10), (10, 20)]] and two_threads() == 2


def test_without_openblas_a_convolution_stays_in_one_process(monkeypatch):
    monkeypatch.setattr(_parallel, "_openblas", lambda: None)
    forked = force_workers(monkeypatch, 4, threshold=CONVOLVE_THRESHOLD)
    with _parallel.one_blas_thread() as pinned:
        assert not pinned
    x, y = _aligned(np.arange(1.0, 501.0)), _aligned(np.arange(1.0, 401.0))
    assert _correlate(x, y, 0, 899).tobytes() == np.correlate(x, y, "full").tobytes()
    assert forked == []


#: numpy's routines that may run in BLAS, as attributes (``np.dot``,
#: ``a.dot``, ``np.linalg``) or as names imported from numpy, and the only
#: functions that may use them or ``@``: the convolution's cells.
BLAS = {"dot", "vdot", "inner", "matmul", "tensordot", "correlate", "convolve", "linalg"}
BLAS_OWNERS = ("distributions._correlate", "distributions._cells")


def _is_blas(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy") and bool(
            BLAS & {*module.split("."), *(a.name for a in node.names)})
    return (isinstance(node, ast.Attribute) and node.attr in BLAS
            or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))


def _uses(node, scope, used):
    """``(scope, line)`` of each node under ``node`` that ``used`` accepts,
    ``scope`` the dotted path of the functions and classes around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _uses(child, f"{scope}.{child.name}", used)
            continue
        if used(child):
            yield scope, child.lineno
        yield from _uses(child, scope, used)


def _package_uses(used):
    for path in sorted((TESTS.parent / "src" / "riskcounts").glob("*.py")):
        yield from _uses(ast.parse(path.read_text(encoding="utf-8")), path.stem, used)


def test_the_guard_sees_each_kind_of_blas_use():
    source = """
from numpy.linalg import norm
from numpy import vdot, sum
from .distributions import convolve
def f(a):
    g = np.dot
    return a @ a, a.dot(a), np.linalg.norm(a), np.sum(a * a), convolve(a, a)
class C:
    def m(self, a):
        a @= a
"""
    assert sorted(_uses(ast.parse(source), "m", _is_blas)) == [
        ("m", 2), ("m", 3), ("m.C.m", 10), ("m.f", 6), ("m.f", 7), ("m.f", 7), ("m.f", 7)]


def test_only_the_convolution_uses_blas():
    owners = tuple(f"{owner}." for owner in BLAS_OWNERS)
    outside = [f"{scope}:{line}" for scope, line in _package_uses(_is_blas)
               if not f"{scope}.".startswith(owners)]
    assert outside == []


def test_the_one_thread_pin_has_one_caller():
    callers = [scope for scope, _ in _package_uses(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "one_blas_thread")]
    assert callers == ["distributions._correlate"]
