"""Replication studies across processes give the in-process report.

``replication_study`` hands its replications to ``_parallel.split``, which
cuts them into contiguous ranges, runs the first in the caller and the
others in forked workers, and the study reduces the p-values in index order
in the caller.  These tests force the worker count (by patching
``_parallel.usable_cpus`` and the study's size threshold), record the ranges
by wrapping ``_parallel.run``, and check that the report, the error raised,
and the outcome after a lost worker are those of one process.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STUDY_THRESHOLD, force_workers
from riskcounts import _parallel, cohort
from riskcounts.cli import main
from riskcounts.cohort import (
    MAX_REPLICATIONS,
    TRUE_CAUSES,
    CausalSpec,
    CovariateRule,
    ProxyRule,
    replication_study,
)
from riskcounts.distributions import DomainError
from riskcounts.scenarios import BUNDLED_SCENARIOS, load_bundled

_PARENT = os.getpid()
_REPLICATE_RANGE = cohort._replicate_range


def _force(monkeypatch, workers):
    """Run every study on ``workers`` processes (fewer if it has fewer
    replications) and record the ranges of each, one list per study."""
    return force_workers(monkeypatch, workers, threshold=STUDY_THRESHOLD)


def _no_draws(spec, seed, variants, cc, start, stop, rows):
    rows.fill(0.5)


def _outcome(spec, replications, **kw):
    try:
        return replication_study(spec, replications, **kw)
    except DomainError as exc:
        return f"DomainError: {exc}"


def _in_process(spec, replications, **kw):
    with pytest.MonkeyPatch.context() as mp:
        _force(mp, 1)
        return _outcome(spec, replications, **kw)


rules = st.lists(
    st.builds(
        CovariateRule,
        name=st.sampled_from(["a", "b", "c"]),
        intercept=st.floats(-2, 2),
        slope=st.sampled_from([-1.5, 0.0, 0.5, 2.0]),
        noise_sd=st.sampled_from([0.0, 0.3, 2.0]),
    ),
    max_size=2,
    unique_by=lambda r: r.name,
)
specs = st.builds(
    CausalSpec,
    n_per_group=st.integers(1, 60),
    true_cause=st.sampled_from(TRUE_CAUSES),
    baseline_p=st.floats(0, 1),
    effect_p=st.floats(0, 1),
    covariate_rules=rules,
    proxy_rule=st.none() | st.builds(ProxyRule, accuracy=st.floats(0, 1)),
    latent_group_correlation=st.floats(0, 1),
)


@settings(max_examples=40, deadline=None)
@given(
    spec=specs,
    replications=st.integers(1, 9),
    workers=st.integers(1, 4),
    seed=st.integers(0, 2**32),
    continuity=st.booleans(),
)
def test_any_worker_count_gives_the_in_process_report(
    spec, replications, workers, seed, continuity
):
    kw = dict(seed=seed, alpha=0.1, continuity_correction=continuity)
    expected = _in_process(spec, replications, **kw)
    with pytest.MonkeyPatch.context() as mp:
        _force(mp, workers)
        assert _outcome(spec, replications, **kw) == expected


def test_the_parallel_path_forks(monkeypatch):
    spec = load_bundled("proxy_spec").payload
    expected = _in_process(spec, 7)
    forked = _force(monkeypatch, 3)
    assert replication_study(spec, 7) == expected
    assert forked == [[(0, 2), (2, 4), (4, 7)]]


def test_a_repeated_variant_is_tallied_once_per_row():
    spec = load_bundled("null_spec").payload
    (single,) = replication_study(spec, 20, variants=("true_exposure",)).rows
    twice = replication_study(spec, 20, variants=("true_exposure", "true_exposure")).rows
    assert twice == (single, single)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers run only on Linux")
def test_small_studies_run_in_process(monkeypatch):
    monkeypatch.setattr(cohort, "_replicate_range", _no_draws)
    forked = force_workers(monkeypatch, 4, compute=False)
    # 6,000 individual-equivalents a replication at 1,000 per group
    spec = CausalSpec(1_000, "none", 0.1, 0.1)
    at_threshold = cohort._PARALLEL_MIN_INDIVIDUALS // (2_000 + cohort._REPLICATION_SETUP)
    replication_study(spec, at_threshold - 1)
    assert forked == []
    replication_study(spec, at_threshold)
    assert len(forked) == 1 and len(forked[0]) == 4
    # three replications as large as the threshold: one worker each
    big = CausalSpec(cohort._PARALLEL_MIN_INDIVIDUALS // 6 - cohort._REPLICATION_SETUP // 2,
                     "none", 0.1, 0.1)
    replication_study(big, 3)
    assert forked[1:] == [[(0, 1), (1, 2), (2, 3)]]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers run only on Linux")
def test_ranges_cover_the_replications_in_order(monkeypatch):
    monkeypatch.setattr(cohort, "_replicate_range", _no_draws)
    forked = force_workers(monkeypatch, threshold=STUDY_THRESHOLD, compute=False)
    spec = load_bundled("null_spec").payload
    for replications in range(1, 30):
        for workers in range(1, min(replications, 6) + 1):
            monkeypatch.setattr(_parallel, "usable_cpus", lambda: workers)
            forked.clear()
            replication_study(spec, replications)
            if workers == 1:
                assert forked == []
                continue
            [ranges] = forked
            assert len(ranges) == workers
            assert ranges[0][0] == 0 and ranges[-1][1] == replications
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            sizes = [stop - start for start, stop in ranges]
            assert sizes[0] == min(sizes) and max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# errors: the lowest failing replication wins
# ---------------------------------------------------------------------------


#: n = 1 per group with a noisy covariate: some replications put both
#: individuals on one side of the threshold.
ONE_SIDED = CausalSpec(
    1, "none", 0.5, 0.5,
    covariate_rules=(CovariateRule("a", 0.0, 1.0, 3.0), CovariateRule("b", 0.0, 1.0, 3.0)),
)
ONE_SIDED_VARIANTS = ("covariate_a", "covariate_b")


def _first_failure(seed, start, stop):
    """The text of the error replications start..stop-1 raise, or None."""
    rows = np.empty((stop - start, len(ONE_SIDED_VARIANTS)))
    try:
        _REPLICATE_RANGE(ONE_SIDED, seed, ONE_SIDED_VARIANTS, True, start, stop, rows)
    except DomainError as exc:
        return str(exc)
    return None


def test_one_sided_covariate_error_matches_the_serial_loop(monkeypatch):
    # a seed where the first range of three runs clean, the second fails on
    # one covariate and the third on the other: only the second's may surface
    replications = 9
    ranges = [(0, 3), (3, 6), (6, 9)]
    for seed in range(500):
        first, second, third = (_first_failure(seed, *r) for r in ranges)
        if first is None and second and third and second != third:
            break
    else:
        pytest.fail("no seed puts different errors in the second and third range")
    kw = dict(seed=seed, variants=ONE_SIDED_VARIANTS)
    serial = _in_process(ONE_SIDED, replications, **kw)
    assert serial == f"DomainError: {second}"
    forked = _force(monkeypatch, 3)
    assert _outcome(ONE_SIDED, replications, **kw) == serial
    assert forked == [ranges]


def _failing_after_zero(spec, seed, variants, cc, start, stop, rows):
    if start > 0:
        raise DomainError(f"range from {start}")
    _REPLICATE_RANGE(spec, seed, variants, cc, start, stop, rows)


def test_the_lowest_failing_worker_range_is_raised(monkeypatch):
    _force(monkeypatch, 4)
    monkeypatch.setattr(cohort, "_replicate_range", _failing_after_zero)
    with pytest.raises(DomainError, match=r"^range from 2$"):
        replication_study(load_bundled("null_spec").payload, 8)


def test_an_error_in_the_callers_range_is_raised(monkeypatch):
    _force(monkeypatch, 3)
    with pytest.raises(DomainError, match="^unknown analysis variant 'no_such_variant'$"):
        replication_study(load_bundled("null_spec").payload, 6, variants=("no_such_variant",))


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    (2.5, "seed must be an integer, got 2.5"),
    (True, "seed must be an integer, got True"),
])
def test_a_bad_seed_is_refused_before_any_worker_forks(monkeypatch, seed, message):
    forks = []

    def fork():
        forks.append(1)
        raise OSError("no process in this test")  # the caller computes the range

    _force(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(DomainError) as exc:
        replication_study(load_bundled("null_spec").payload, 10_000, seed=seed)
    assert str(exc.value) == message
    assert forks == []


# ---------------------------------------------------------------------------
# lost workers, daemonic callers
# ---------------------------------------------------------------------------


def _dying_range(*args):
    if os.getpid() != _PARENT:
        os._exit(1)
    _REPLICATE_RANGE(*args)


def test_a_dead_worker_gives_the_in_process_report(monkeypatch):
    spec = load_bundled("banana_spec").payload
    expected = _in_process(spec, 7, seed=3)
    _force(monkeypatch, 3)
    monkeypatch.setattr(cohort, "_replicate_range", _dying_range)
    assert replication_study(spec, 7, seed=3) == expected


def test_a_dead_worker_does_not_end_the_cli_in_a_traceback(monkeypatch, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"schema_version": 1, "causal_spec": {
        "n_per_group": 50, "true_cause": "none", "baseline_p": 0.1, "effect_p": 0.1,
    }}), encoding="utf-8")
    argv = ["simulate", str(spec), "--replications", "6"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    _force(monkeypatch, 3)
    monkeypatch.setattr(cohort, "_replicate_range", _dying_range)
    assert main(argv) == 0
    assert capsys.readouterr() == expected


def test_work_given_as_a_lambda_runs_on_forked_workers(monkeypatch):
    # workers inherit the work by fork; nothing is pickled
    spec = load_bundled("null_spec").payload
    expected = _in_process(spec, 5)
    forked = _force(monkeypatch, 3)
    monkeypatch.setattr(cohort, "_replicate_range", lambda *a: _REPLICATE_RANGE(*a))
    assert replication_study(spec, 5) == expected
    assert forked == [[(0, 1), (1, 3), (3, 5)]]


def _study_in_daemon(conn):
    ranges = []

    def recording(*args):
        ranges.append(args[-3:-1])
        _REPLICATE_RANGE(*args)

    cohort._replicate_range = recording
    report = replication_study(load_bundled("proxy_spec").payload, 5, seed=11)
    conn.send((report, ranges))
    conn.close()


def test_a_daemonic_caller_runs_the_study(monkeypatch):
    spec = load_bundled("proxy_spec").payload
    expected = _in_process(spec, 5, seed=11)
    _force(monkeypatch, 3)  # inherited by the forked daemon
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    daemon = context.Process(target=_study_in_daemon, args=(send,), daemon=True)
    daemon.start()
    send.close()
    assert receive.poll(60)
    assert receive.recv() == (expected, [(0, 5)])  # one range: no workers were started
    daemon.join(60)
    assert daemon.exitcode == 0


def test_importing_the_cli_loads_no_process_machinery():
    code = (
        "import sys, riskcounts.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# the replications cap
# ---------------------------------------------------------------------------


def test_replications_past_the_cap_are_refused_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a cohort was drawn")

    monkeypatch.setattr(cohort, "generate", no_draws)
    monkeypatch.setattr(cohort, "_replicate_range", no_draws)
    spec = load_bundled("null_spec").payload
    for study in (cohort.replication_study, cohort.false_cause_rate):
        with pytest.raises(DomainError, match=f"replications must be <= {MAX_REPLICATIONS}, "
                                              f"got {MAX_REPLICATIONS + 1}"):
            study(spec, MAX_REPLICATIONS + 1)
    with pytest.raises(DomainError, match="replications must be <="):
        cohort.proxy_study(load_bundled("proxy_spec").payload, 10**10)


def test_replications_at_the_cap_are_accepted(monkeypatch):
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 1)
    monkeypatch.setattr(cohort, "_replicate_range", _no_draws)
    report = replication_study(load_bundled("null_spec").payload, MAX_REPLICATIONS)
    assert report.replications == MAX_REPLICATIONS
    assert report.rows[0].mean_p_value == 0.5


@settings(max_examples=60, deadline=None)
@given(p=st.lists(st.lists(st.floats(0, 1) | st.sampled_from([0.1, 5e-324, 1.0]),
                           min_size=3, max_size=3), min_size=1, max_size=300))
def test_the_reduction_is_a_loop_of_python_adds(p):
    # the serial reduction: each p-value compared with alpha and added with
    # += in replication order
    rejects, sums = [0] * 3, [0.0] * 3
    for row in p:
        for j, value in enumerate(row):
            rejects[j] += value < 0.1
            sums[j] += value

    def given_rows(spec, seed, variants, cc, start, stop, rows):
        rows[...] = p[start:stop]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_parallel, "usable_cpus", lambda: 1)
        mp.setattr(cohort, "_replicate_range", given_rows)
        report = replication_study(load_bundled("null_spec").payload, len(p), alpha=0.1,
                                   variants=("true_exposure",) * 3)
    got = [(r.rejection_rate, r.mean_p_value) for r in report.rows]
    assert got == [(rejects[j] / len(p), sums[j] / len(p)) for j in range(3)]
    assert all(type(value) is float for row in got for value in row)


def _simulate_stderr(tmp_path, capsys, doc, *extra):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["simulate", str(spec), *extra])
    return rc, capsys.readouterr()


@pytest.mark.parametrize("where", ["flag", "file"])
def test_cli_refuses_replications_past_the_cap(where, tmp_path, capsys):
    doc = {"schema_version": 1, "causal_spec": {
        "n_per_group": 10, "true_cause": "none", "baseline_p": 0.1, "effect_p": 0.1,
    }}
    extra = ()
    if where == "file":
        doc["replications"] = 10**10
    else:
        extra = ("--replications", str(MAX_REPLICATIONS + 1))
    rc, captured = _simulate_stderr(tmp_path, capsys, doc, *extra)
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: replications must be <= 1000000, got ")
    assert captured.err.count("\n") == 1


def test_bundled_scenarios_stay_inside_the_cap():
    for name in BUNDLED_SCENARIOS:
        replications = load_bundled(name).replications
        assert replications is None or replications <= MAX_REPLICATIONS


def test_benchmark_studies_stay_inside_the_cap(tmp_path):
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    for seed in range(4):
        for generate in workloads.GENERATORS.values():
            for op in generate(seed, tmp_path).ops:
                assert op.replications <= MAX_REPLICATIONS
