"""Forked workers for work that splits into contiguous index ranges.

``split`` is the package's one decision on processes: replication studies
and large convolutions each make one call, and it alone decides whether the
work leaves the calling process and which rows each process computes.  Work
runs in-process below the caller's cost threshold (about 25 ms of
replications, ``cohort._PARALLEL_MIN_INDIVIDUALS``; 1e9 multiply-adds of kept
cells with each edge cell charged its Python call,
``distributions._PARALLEL_MIN_MACS``), on one usable CPU (the affinity set,
which ``taskset`` limits), where workers could not be made to die with the
caller (no ``fork``, or not Linux), and in a daemonic ``multiprocessing``
process, which may not have children.

Otherwise each worker computes one contiguous range of about equal cost
(``run``).  The caller forks one child per range but the first, then
computes the first itself.  A child sees the work and its operands by fork
inheritance and writes its rows into the output array, which lives in a
shared anonymous mapping, so nothing is pickled or concatenated.  A child
that dies, or whose work raises, exits nonzero and the caller recomputes
its range; lost ranges are recomputed in index order, so an error raised is
that of the lowest failing range, as one serial pass would raise it.

Workers die with their caller.  Each sets ``PR_SET_PDEATHSIG`` to
``SIGKILL`` and then checks that its parent is still the caller, so a
killed caller leaves no worker behind holding its pipes open.

``one_blas_thread`` runs a block on one OpenBLAS thread, which workers
forked in it inherit.
"""

from __future__ import annotations

import contextlib
import functools
import math
import mmap
import os
import signal
import sys

import numpy as np

#: ``prctl`` option that sets the signal a process gets when its parent dies.
_PR_SET_PDEATHSIG = 1


def usable_cpus() -> int:
    """The CPUs this process may run on (``taskset`` limits them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return os.cpu_count() or 1


def split(fill, shape: tuple[int, ...], cost_before, min_cost: float) -> np.ndarray:
    """A float64 array of ``shape`` whose rows ``fill(start, stop, rows)``
    has written into the view ``rows``, over contiguous ranges covering all
    ``shape[0]`` rows: one in-process call, or one range per worker.

    ``cost_before(m)`` is the integer cost of rows ``0`` to ``m - 1``.  Each
    bound is the last row whose cost before it fits within its share, found
    by bisection, so no range is empty and the caller's, which it starts
    after forking the others, costs at most an equal share unless it is one
    row.
    """
    units = shape[0]
    total = cost_before(units)
    count = min(usable_cpus(), units) if total >= min_cost else 0
    if count < 2 or not _can_fork():
        out = np.empty(shape)
        fill(0, units, out)
        return out
    bounds = [0]
    for k in range(1, count):
        # at least one row for each range so far and for each one to come
        lo, hi = bounds[-1] + 1, units - count + k
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if cost_before(mid) * count <= k * total:
                lo = mid
            else:
                hi = mid - 1
        bounds.append(lo)
    bounds.append(units)
    return run(fill, list(zip(bounds, bounds[1:])), shape)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, and yield whether
    it could be pinned.  The setting is process-wide while the block runs;
    the caller's thread count comes back on exit, also after an exception."""
    get, put = _openblas() or (lambda: 1, None)
    before = get()
    if before != 1:
        put(1)
    try:
        yield put is not None
    finally:
        if before != 1:
            put(before)


@functools.cache
def _openblas():
    """numpy's OpenBLAS ``(get, set)`` of its thread count, or None where
    they cannot be found (another BLAS, or outside Linux).  The ``64_``
    names of numpy's ILP64 build are tried before those of scipy's LP64
    OpenBLAS, which may be loaded beside it."""
    if not sys.platform.startswith("linux"):
        return None
    import ctypes

    with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for suffix in ("64_", ""):
        for path in paths:
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for prefix in ("scipy_openblas", "openblas"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


def _can_fork() -> bool:
    if not hasattr(os, "fork") or _prctl() is None:
        return False
    process = sys.modules.get("multiprocessing.process")
    return process is None or not process.current_process().daemon


@functools.cache
def _prctl():
    """libc's ``prctl``, or None where it cannot be called."""
    if not sys.platform.startswith("linux"):
        return None
    import ctypes

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return None
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl


def run(fill, ranges: list[tuple[int, int]], shape: tuple[int, ...]) -> np.ndarray:
    """``split``'s array over contiguous ``ranges`` covering all rows: the
    caller computes ``ranges[0]``, forked workers the rest.  An error in the
    caller's own range propagates at once, after the workers are killed: no
    range comes before it."""
    size = math.prod(shape)
    try:
        out = np.frombuffer(mmap.mmap(-1, max(size * 8, 1)), count=size).reshape(shape)
    except OSError:  # no memory to map: in-process
        out = np.empty(shape)
        fill(0, shape[0], out)
        return out
    caller = os.getpid()
    children: dict[int, tuple[int, int]] = {}
    lost = []
    try:
        for bounds in ranges[1:]:
            try:
                pid = os.fork()
            except OSError:  # no process could be made; the caller computes the range
                lost.append(bounds)
                continue
            if pid == 0:
                _fill_in_child(fill, bounds, out, caller)
            children[pid] = bounds
        start, stop = ranges[0]
        fill(start, stop, out[start:stop])
        for pid in list(children):
            _, status = os.waitpid(pid, 0)
            bounds = children.pop(pid)
            if os.waitstatus_to_exitcode(status) != 0:
                lost.append(bounds)
    finally:
        for pid in children:  # only when the caller's range or a wait raised
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for start, stop in sorted(lost):
        fill(start, stop, out[start:stop])
    return out


def _fill_in_child(fill, bounds: tuple[int, int], out: np.ndarray, caller: int) -> None:
    """Compute one range in a forked worker and exit: 0 once its rows are
    written, 1 on any error or where the worker could outlive the caller."""
    code = 1
    try:
        if _prctl()(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) == 0 and os.getppid() == caller:
            start, stop = bounds
            fill(start, stop, out[start:stop])
            code = 0
    finally:
        os._exit(code)
