"""riskcounts benchmark: three workloads through ``riskcounts.cli.main``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload exact-ladder --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each workload runs in its own process, in-process through the CLI entry point
with stdout captured, for ``--seconds`` seconds of whole passes.  ``--trace
0`` reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics.  Every op's output is
checked: against the digest recorded for the seed (``digests.json``),
against the first pass of the run, and for CSVs by replaying them.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

``failed`` counts ops whose outcome was not the recorded one: an exception
escaping ``main``, or a nonzero exit or breached limit where none was
recorded.  The known defects kept in the workloads are checked against their
recorded outcome and counted in ``failed_ratio`` (see workloads.py).

``--record`` runs one untraced pass and stores its digests for the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per process: numpy's BLAS would otherwise run np.convolve's dot
# products on every core, and timings would depend on whatever else runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = BENCH_DIR / "digests.json"

#: Interpreter launches for setup_s: this many after each pass, up to the
#: cap, so that the samples spread over the run; the median is reported.
SETUP_PER_PASS = 3
SETUP_SAMPLES = 15
#: Fewest passes per run, so that each op's time is a median of three.
MIN_PASSES = 3
#: Wall-clock limit on the limit op, in seconds.
LIMIT_S = 5.0
#: The whole run is abandoned (exit 3, no result line) past this many seconds.
RUN_DEADLINE_S = 170


WORKLOADS = ("exact-ladder", "uncertain-calibrate", "cohort-sim")


class RunTimeout(BaseException):
    """Raised by the deadline alarm; not an ``Exception``, so ops cannot swallow it."""


def _import_program():
    if not (SRC / "riskcounts" / "__init__.py").is_file():
        sys.exit(f"error: no riskcounts source at {SRC.relative_to(ROOT)}/riskcounts")
    sys.path.insert(0, str(SRC))
    import riskcounts.cli

    if Path(riskcounts.cli.__file__).resolve().parent != SRC / "riskcounts":
        sys.exit("error: riskcounts was imported from outside this checkout")
    return riskcounts.cli


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def _digest(rc, stdout: str, stderr: str, csv_text: str | None) -> str:
    errors = "".join(line for line in stderr.splitlines(True) if line.startswith("error:"))
    h = hashlib.sha256(f"{rc}\0{stdout}\0{errors}\0".encode())
    if csv_text is not None:
        h.update(csv_text.encode())
    return h.hexdigest()[:16]


def run_pass(cli, ops, tracer=None) -> list[dict]:
    """Run every op once, in order; return one result per op."""
    results = []
    csvs: dict[str, str] = {}
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        out, err = io.StringIO(), io.StringIO()
        rc, exc, csv_text = None, None, None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if op.kind == "replay":
                    text = cli.replay_text(csvs[op.replays])
                    rc = 0
                else:
                    rc = cli.main(op.argv)
            except SystemExit as e:  # argparse rejects its input this way
                rc, exc = e.code if isinstance(e.code, int) else 1, "SystemExit"
            except Exception as e:  # recorded and counted; the pass goes on
                exc = type(e).__name__
        dt = time.perf_counter() - t0
        replay_ok = True
        if op.kind == "replay" and exc is None:
            replay_ok = text == csvs[op.replays]
            csv_text = text
        elif op.csv is not None and rc == 0:
            csv_text = Path(op.csv).read_text(encoding="utf-8")
            csvs[op.id] = csv_text
        results.append({
            "op": op, "dt": dt, "rc": rc, "exc": exc, "replay_ok": replay_ok,
            "digest": _digest(rc, out.getvalue(), err.getvalue(), csv_text),
        })
    return results


def run_limit(argv: list[str]) -> dict:
    """The limit op, as a CLI user runs it, killed at ``LIMIT_S``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "riskcounts", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        proc.communicate(timeout=LIMIT_S)
        breached = False
    except subprocess.TimeoutExpired:
        breached = True
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    return {"dt": min(time.perf_counter() - t0, LIMIT_S), "rc": proc.returncode,
            "breached": breached}


def measure_setup() -> float:
    """Seconds from launching a fresh interpreter until its ``import
    riskcounts.cli`` returns, read off the machine-wide monotonic clock."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import riskcounts.cli, time; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return float(proc.stdout) - t0


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def platform_id() -> str:
    """What the output bytes depend on: the SIMD paths numpy dispatches to,
    the libm behind ``math``, and the library versions."""
    import mpmath
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    simd = "+".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    libc = "-".join(platform.libc_ver())
    return (f"{platform.machine()} {libc} python-{platform.python_version()} "
            f"numpy-{np.__version__} mpmath-{mpmath.__version__} simd-{simd}")


def load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {"platform": platform_id(), "workloads": {}}


def expected_digests(book: dict, workload: str, seed: int) -> dict:
    """op id -> recorded digest for this seed; empty on another platform."""
    if book["platform"] != platform_id():
        return {}
    entry = book["workloads"].get(workload, {})
    expected = dict(entry.get("common", {}))
    per_seed = entry.get("seeds", {}).get(str(seed))
    if per_seed is not None:
        expected.update(zip(entry["seeded_ops"], per_seed.split()))
    return expected


class Checker:
    """Classifies each op result as ok, known failure, unexpected failure or wrong."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.first: dict[str, str] = {}
        self.attempted = self.failures = self.unexpected = self.wrong = 0
        self.known: set[str] = set()
        self.checked = set()
        self.notes: list[str] = []

    def check(self, r: dict, reference: bool = True) -> None:
        op = r["op"]
        self.attempted += 1
        if r["exc"] is not None or r["rc"] != 0:
            self.failures += 1
        if r["exc"] is not None and r["exc"] != "SystemExit":
            self.unexpected += 1
            self.notes.append(f"{op.id}: {r['exc']} escaped main")
            return
        if r["rc"] != 0 and r["rc"] != op.expect:
            self.unexpected += 1
            self.notes.append(f"{op.id}: exit {r['rc']}, recorded {op.expect}")
            return
        if op.expect != 0 and r["rc"] == 0:
            self.notes.append(f"{op.id}: known failure now succeeds ({op.known})")
            return  # a fixed defect is not a wrong output; re-record the digests
        if op.expect != 0:
            self.known.add(op.id)
        wrong = []
        if not r["replay_ok"]:
            wrong.append("replay differs from the file")
        recorded = self.expected.get(op.id)
        if recorded is not None:
            self.checked.add(op.id)
            if r["digest"] != recorded:
                wrong.append("output differs from the recorded digest")
        first = self.first.setdefault(op.id, r["digest"]) if reference else self.first.get(op.id)
        if first is not None and r["digest"] != first:
            wrong.append("output differs from the run's first pass")
        if wrong:
            self.wrong += 1
            self.notes.append(f"{op.id}: " + "; ".join(wrong))

    def check_limit(self, limit: dict) -> None:
        self.attempted += 1
        if limit["breached"]:
            self.failures += 1
            self.known.add("limit")
        elif limit["rc"] != 0:
            self.failures += 1
            self.unexpected += 1
            self.notes.append(f"limit: exit {limit['rc']}")
        else:
            self.notes.append("limit: known failure now succeeds (finished within the limit)")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


#: Metrics where the bad tail is the low one.
HIGHER_IS_BETTER = ("reps_per_s", "individuals_per_s")


def timing(samples: list[float], value: float | None = None, higher: bool = False) -> dict:
    """``value`` (default: the median of the samples), plus the most extreme
    percentile on the bad side with at least ten samples beyond it."""
    n = len(samples)
    out = {"value": statistics.median(samples) if value is None else value, "n": n}
    if n >= 11:
        pct = math.ceil(1000 / n) if higher else int(100 * (1 - 10 / n))
        out["pct"] = pct
        out["pct_value"] = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return out


def op_metrics(ops, times: list[float]) -> dict:
    """End-to-end values from one time per op, for the subcommands present."""
    m: dict[str, float] = {"pass_s": sum(times)}
    for kind in ("summarize", "figure", "replay", "calibrate", "simulate"):
        of_kind = [t for op, t in zip(ops, times) if op.kind == kind]
        if of_kind:
            m[f"{kind}_s"] = sum(of_kind)
    small = [(op, t) for op, t in zip(ops, times)
             if op.kind == "simulate" and op.id != "max_cohort.simulate"]
    if small:
        m["reps_per_s"] = sum(op.replications for op, _ in small) / sum(t for _, t in small)
    for op, t in zip(ops, times):
        if op.id == "max_cohort.simulate":
            m["individuals_per_s"] = op.individuals / t
    return m


def collect(ops, passes: list[list[float]]) -> dict:
    """Each metric from the per-op medians over the passes.

    Taking the median per op before summing drops a slow spell that hits
    one op in one pass, which a median of whole-pass sums over a few long
    passes cannot.  The per-pass values give the percentile.
    """
    medians = [statistics.median(column) for column in zip(*passes)]
    robust = op_metrics(ops, medians)
    per_pass = [op_metrics(ops, times) for times in passes]
    return {name: timing([p[name] for p in per_pass], value, name in HIGHER_IS_BETTER)
            for name, value in robust.items()}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_end_to_end(catalogue: list[dict], values: dict) -> None:
    for entry in catalogue:
        v = values.get(entry["name"])
        if v is None:
            text = "n/a (no such op in this workload)"
        elif isinstance(v, dict):
            text = f"median {_fmt(v['value'])}"
            if "pct" in v:
                text += f", p{v['pct']} {_fmt(v['pct_value'])}"
            text += f" (n={v['n']})"
        else:
            text = _fmt(v)
        print(f"  {entry['name']:<18} {entry['unit']:<6} {text}")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_workload(cli, args, benchmark: dict, catalogue: dict) -> int:
    import workloads

    seed = args.seed
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        wl = workloads.GENERATORS[args.workload](seed, workdir)
        book = load_digests()
        if args.record:
            return record(cli, args, wl, book)
        checker = Checker(expected_digests(book, args.workload, seed))
        print(f"{args.workload} seed={seed} trace={args.trace}: {len(wl.ops)} ops per pass")
        if args.trace:
            metrics = traced_run(cli, args, wl, checker, catalogue)
            declared = benchmark["per_layer"]
        else:
            metrics = untraced_run(cli, args, wl, checker, catalogue)
            declared = benchmark["end_to_end"]
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"  digests checked for {len(checker.checked)} of {len(wl.ops)} ops"
          + ("" if checker.expected else " (none recorded for this seed and platform)"))
    if checker.known:
        print(f"  known failures (expected): {', '.join(sorted(checker.known))}")
    for note in checker.notes[:20]:
        print(f"  note: {note}")
    counts_ok = metrics.pop("_counts_ok", True)
    correct = checker.wrong == 0 and checker.unexpected == 0 and counts_ok
    print("  all metrics: " + json.dumps(metrics))
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.unexpected,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


def untraced_run(cli, args, wl, checker, catalogue) -> dict:
    setup: list[float] = []
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        results = run_pass(cli, wl.ops)
        for r in results:
            checker.check(r)
        passes.append([r["dt"] for r in results])
        if len(setup) < SETUP_SAMPLES:
            setup += [measure_setup() for _ in range(SETUP_PER_PASS)]
    values = {"setup_s": timing(setup), **collect(wl.ops, passes)}
    if wl.limit_argv:
        limit = run_limit(wl.limit_argv)
        checker.check_limit(limit)
        values["limit_s"] = limit["dt"]
    values["failed_ratio"] = checker.failures / checker.attempted
    values["wrong_outputs"] = checker.wrong
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print_end_to_end(catalogue["end_to_end"], values)
    print("  pass sums: " + " ".join(f"{sum(times):.4f}" for times in passes))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"  process: user {usage.ru_utime:.2f} s, system {usage.ru_stime:.2f} s, "
          f"minor faults {usage.ru_minflt}")
    return {k: (v["value"] if isinstance(v, dict) else v) for k, v in values.items()}


def traced_run(cli, args, wl, checker, catalogue) -> dict:
    """Untraced and traced passes in turn: U, T, T, U, then T/U until time is up.

    The first untraced pass warms caches and gives the reference outputs; it
    is left out of the overhead ratio.
    """
    import tracing

    kinds = {op.id: op.kind for op in wl.ops}
    plain, traced, layers = [], [], []
    tracer = None
    t0 = time.perf_counter()
    while len(plain) < 2 or len(traced) < 2 or time.perf_counter() - t0 < args.seconds:
        if not plain or len(traced) > len(plain):
            results = run_pass(cli, wl.ops)
            for r in results:
                checker.check(r)
            plain.append(sum(r["dt"] for r in results))
            continue
        tracer = tracing.Tracer()
        tracer.install()
        try:
            results = run_pass(cli, wl.ops, tracer)
        finally:
            tracer.uninstall()
        for r in results:
            checker.check(r, reference=False)  # traced bytes must equal untraced ones
        traced.append(sum(r["dt"] for r in results))
        layers.append(tracing.layer_metrics(tracer.spans, kinds))

    counts_ok = True
    values = {}
    for entry in catalogue["per_layer"]:
        name = entry["name"]
        if name == "trace.overhead":
            values[name] = statistics.median(traced) / statistics.median(plain[1:])
        elif entry["unit"] == "s":
            values[name] = statistics.median(layer[name] for layer in layers)
        else:
            values[name] = layers[-1][name]
            if any(layer[name] != values[name] for layer in layers):
                counts_ok = False
                checker.notes.append(f"{name} differs between traced passes")
    extra = {k: v for k, v in layers[-1].items() if k not in values}
    values.update(extra)
    print(f"  {len(plain)} untraced and {len(traced)} traced passes")
    for entry in catalogue["per_layer"]:
        print(f"  {entry['name']:<46} {entry['unit']:<6} {_fmt(values[entry['name']]):<12} "
              f"-> {entry['moves']}")
    for name, value in extra.items():
        print(f"  {name:<46} {'ratio':<6} {_fmt(value)}")
    for op_id, macs in tracing.op_counts(tracer.spans, "distributions.convolve", "macs").items():
        print(f"  distributions.convolve.macs[{op_id}] = {macs}")
    spans_file = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_jsonl(spans_file)
    print(f"  spans of the last traced pass: {spans_file.relative_to(ROOT)}")
    values["_counts_ok"] = counts_ok
    return values


def record(cli, args, wl, book) -> int:
    """Store this seed's digests; seed-independent ops go to ``common``."""
    if book["platform"] != platform_id():
        sys.exit("error: digests.json was recorded on another platform; move it away first")
    results = run_pass(cli, wl.ops)
    bad = [r["op"].id for r in results
           if r["exc"] or r["rc"] != r["op"].expect or not r["replay_ok"]]
    if bad:
        sys.exit(f"error: not recording, unexpected outcomes: {', '.join(bad)}")
    entry = book["workloads"].setdefault(args.workload, {})
    entry["common"] = {r["op"].id: r["digest"] for r in results if not r["op"].seeded}
    seeded = [r["op"].id for r in results if r["op"].seeded]
    if entry.get("seeded_ops", seeded) != seeded:
        entry["seeds"] = {}
    entry["seeded_ops"] = seeded
    entry.setdefault("seeds", {})[str(args.seed)] = " ".join(
        r["digest"] for r in results if r["op"].seeded
    )
    entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(book, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(results)} digests for {args.workload} seed {args.seed}")
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = subprocess.run(cmd, cwd=ROOT).returncode or status
    return status


def _on_deadline(signum, frame):
    raise RunTimeout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests instead of measuring")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    catalogue = json.loads((BENCH_DIR / "metrics.json").read_text(encoding="utf-8"))
    cli = _import_program()
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(RUN_DEADLINE_S)
    try:
        return run_workload(cli, args, benchmark, catalogue)
    except RunTimeout:
        print(f"error: run exceeded {RUN_DEADLINE_S} s", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
