"""Shared test helpers: forcing the worker split, and the host facts that
the worker count depends on."""

import os

# Idle OpenBLAS threads sleep after spinning 2^4 cycles, not the default
# 2^28 (about 0.1 s).  Spinning threads starve the forced two-worker splits
# where BLAS and worker threads share two CPUs.  Set before numpy loads, and
# inherited by every subprocess a test starts.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from riskcounts import _parallel

# the support module's checks report their operands as a test's own do
pytest.register_assert_rewrite("pinned")

#: The cost thresholds below which work stays in the calling process.
CONVOLVE_THRESHOLD = "riskcounts.distributions._PARALLEL_MIN_MACS"
STUDY_THRESHOLD = "riskcounts.cohort._PARALLEL_MIN_INDIVIDUALS"


def pytest_report_header(config):
    pin = "available" if _parallel._openblas() else "unavailable"
    return f"riskcounts: usable CPUs {_parallel.usable_cpus()}, one-BLAS-thread pin {pin}"


def force_workers(monkeypatch, cpus=None, *, threshold=None, compute=True):
    """Force ``cpus`` usable CPUs and a zero cost ``threshold`` (the
    caller's, as a dotted name), each where given, and return the list that
    gets the ranges of each split ``_parallel.run`` is handed.  Without
    ``compute`` no range is computed and every row of the split's array
    reads 0."""
    if cpus is not None:
        monkeypatch.setattr(_parallel, "usable_cpus", lambda: cpus)
    if threshold is not None:
        monkeypatch.setattr(threshold, 0)
    forked = []
    run = _parallel.run

    def recording(fill, ranges, shape):
        forked.append(ranges)
        return run(fill, ranges, shape) if compute else np.zeros(shape)

    monkeypatch.setattr(_parallel, "run", recording)
    return forked
