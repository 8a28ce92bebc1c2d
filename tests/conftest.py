"""Shared test helpers: forcing the worker split, and the host facts that
the worker count and the pinned bytes depend on."""

import ctypes
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


def _simd_dispatch() -> str:
    """The SIMD targets numpy dispatches to on this host, as
    ``perfbench/run.py``'s platform id names them."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return "+".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))


def _openblas_core() -> str:
    """The core type numpy's OpenBLAS runs its kernels for, or
    ``unavailable`` where no loaded library names one."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return "unavailable"
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unavailable"


def pytest_report_header(config):
    pin = "available" if _parallel._openblas() else "unavailable"
    return [
        f"riskcounts: usable CPUs {_parallel.usable_cpus()}, one-BLAS-thread pin {pin}",
        f"riskcounts: numpy SIMD dispatch {_simd_dispatch()}, OpenBLAS core {_openblas_core()}",
    ]


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
