"""Forked workers for work that splits into contiguous index ranges.

This is the one process path of the package: replication studies and large
convolutions both go through ``run``.  The caller computes the first range
itself and one forked child per further range computes the others.  A child
sees the work and its operands by fork inheritance and writes its rows into
the output array, which lives in a shared anonymous mapping, so nothing is
pickled or concatenated.  A child that dies, or whose work raises, exits
nonzero and the caller recomputes its range; lost ranges are recomputed in
index order, so an error raised is that of the lowest failing range, as one
serial pass would raise it.

Workers die with their caller.  Each sets ``PR_SET_PDEATHSIG`` to ``SIGKILL``
and then checks that its parent is still the caller, so a killed caller
leaves no worker behind holding its pipes open.  Where that setting is not
available (outside Linux), where ``fork`` does not exist, and in a daemonic
``multiprocessing`` process, which may not have children, ``workers``
returns 1 and the work runs in-process.
"""

from __future__ import annotations

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


def workers(cpus: int, units: int) -> int:
    """How many processes share ``units`` of work on ``cpus`` CPUs: one
    where workers could outlive the caller or may not be started."""
    count = min(cpus, units)
    return count if count > 1 and _can_fork() else 1


def blas_threads() -> int | None:
    """The threads numpy's OpenBLAS splits a long dot product over, or None
    where that cannot be read (another BLAS, or outside Linux)."""
    get = _blas_thread_getter()
    return None if get is None else max(get(), 1)


@functools.cache
def _blas_thread_getter():
    if not sys.platform.startswith("linux"):
        return None
    import ctypes

    with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    return get
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
    """A float64 array of ``shape`` whose rows ``start:stop``, for each of
    the contiguous ``ranges``, ``fill(start, stop, rows)`` has written into
    the view ``rows``.

    The caller computes ``ranges[0]``, forked workers the rest.  An error in
    the caller's own range propagates at once, after the workers are killed:
    no range comes before it.
    """
    size = math.prod(shape)
    try:
        out = np.frombuffer(mmap.mmap(-1, max(size * 8, 1)), count=size)
    except OSError:  # no memory to map: one range, in-process
        start, stop = ranges[0][0], ranges[-1][1]
        out = np.empty(shape)
        fill(start, stop, out[start:stop])
        return out
    out = out.reshape(shape)
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
