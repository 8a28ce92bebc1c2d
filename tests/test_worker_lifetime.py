"""Forked workers die with their caller.

A CLI run killed while a replication study or a convolution is spread over
workers must leave no process behind: a worker that outlived it would keep
the run's stdout pipe open, and whoever reads that pipe would wait for it.
The kill tests start the CLI with stdout piped and the worker count forced
to two, learn each worker's pid from a wrapped ``os.fork``, SIGKILL the CLI
while its worker is computing, and then require stdout to reach end of file
within a few seconds and every worker to be gone.  An error in the caller's
own range must likewise end its workers at once, and where workers cannot
be tied to the caller's life the work runs in-process.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from riskcounts import _parallel
from riskcounts.cohort import MAX_REPLICATIONS
from riskcounts.comparison import MAX_POPULATION
from riskcounts.distributions import DomainError
from riskcounts.scenarios import bundled_text

SRC = Path(__file__).resolve().parent.parent / "src"

#: Forces two workers and writes each worker's pid to stderr, then runs the
#: CLI on the remaining arguments.
DRIVER = """\
import os, sys
from riskcounts import _parallel, cohort
from riskcounts.cli import main
_parallel.usable_cpus = cohort._usable_cpus = lambda: 2
fork = os.fork
def reporting_fork():
    pid = fork()
    if pid:
        print(pid, file=sys.stderr, flush=True)
    return pid
os.fork = reporting_fork
sys.exit(main(sys.argv[1:]))
"""

#: Seconds the killed CLI's stdout may take to reach end of file.
EOF_WITHIN = 5.0


def _gone(pid):
    """True once ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except FileNotFoundError:
        return True


def _kill_mid_work(argv):
    proc = subprocess.Popen(
        [sys.executable, "-c", DRIVER, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    workers = []
    try:
        line = proc.stderr.readline()
        assert line.strip().isdigit(), line + proc.stderr.read()
        workers.append(int(line))
        time.sleep(0.3)  # the worker is now inside its range
        assert proc.poll() is None, "the run ended before it could be killed"
        proc.kill()
        start = time.monotonic()
        proc.communicate(timeout=EOF_WITHIN)  # raises if a worker holds stdout open
        assert time.monotonic() - start < EOF_WITHIN
        deadline = time.monotonic() + EOF_WITHIN
        while not all(map(_gone, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_gone, workers)), f"workers {workers} outlived the killed run"
    finally:
        for pid in workers:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers run only on Linux")
def test_killing_simulate_mid_study_leaves_no_worker(tmp_path):
    spec = tmp_path / "null_spec.json"
    spec.write_text(bundled_text("null_spec"), encoding="utf-8")
    _kill_mid_work(["simulate", str(spec), "--replications", str(MAX_REPLICATIONS)])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers run only on Linux")
def test_killing_summarize_mid_convolution_leaves_no_worker(tmp_path):
    scenario = tmp_path / "limit.json"
    scenario.write_text(json.dumps({"schema_version": 1, "exposure_scenario": {
        "n_exposed": MAX_POPULATION, "n_unexposed": MAX_POPULATION,
        "p_exposed": 0.5, "p_unexposed": 0.4,
    }}), encoding="utf-8")
    _kill_mid_work(["summarize", str(scenario)])


def test_work_runs_in_process_where_workers_could_outlive_the_caller(monkeypatch):
    assert _parallel.workers(4, 10) == (4 if sys.platform.startswith("linux") else 1)
    monkeypatch.setattr(_parallel, "_prctl", lambda: None)
    assert _parallel.workers(4, 10) == 1


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers run only on Linux")
def test_an_error_in_the_callers_range_kills_the_workers(monkeypatch):
    caller, forked = os.getpid(), []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def fill(start, stop, rows):
        if os.getpid() == caller:
            raise DomainError("the caller's range failed")
        time.sleep(60)

    monkeypatch.setattr(os, "fork", recording_fork)
    start = time.monotonic()
    with pytest.raises(DomainError, match="the caller's range failed"):
        _parallel.run(fill, [(0, 1), (1, 2), (2, 3)], (3,))
    assert time.monotonic() - start < EOF_WITHIN
    assert len(forked) == 2 and all(map(_gone, forked))
