"""Record and compare sets of benchmark runs.  Run from the checkout root.

    # ten untraced runs per workload, seeds 1..10, summarised per metric
    python3 perfbench/baseline.py record --seeds 1-10 --out perfbench/baseline/set-a.json
    # one traced run per workload: the full per-layer table
    python3 perfbench/baseline.py layers --seed 0 --out perfbench/baseline/layers.json
    # spread of each set and the drift between sets, against BENCHMARK.json's bounds
    python3 perfbench/baseline.py compare perfbench/baseline/set-a.json perfbench/baseline/set-b.json

Runs go one at a time, each workload in its own process, as the benchmark
command runs them.  Spread is (q3 - q1) / median over a set's runs, with
quartiles from ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result line and every metric it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    every = next(line for line in lines if line.startswith("  all metrics: "))
    return json.loads(lines[-1]), json.loads(every.partition(": ")[2])


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def record(args) -> None:
    bench = _bench()
    seeds = _seeds(args.seeds)
    out = {"seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in bench["workloads"]:
        runs = []
        for seed in seeds:
            result, every = _run(w["name"], seed, bench["run_seconds"], 0)
            if not result["correct"] or result["failed"]:
                sys.exit(f"error: {w['name']} seed {seed}: {result}")
            runs.append(every)
            print(f"{w['name']} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        out["workloads"][w["name"]] = {
            "metrics": {name: summarise([r[name] for r in runs]) for name in runs[0]},
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def layers(args) -> None:
    bench = _bench()
    out = {"seed": args.seed, "seconds": bench["run_seconds"], "workloads": {}}
    for w in bench["workloads"]:
        result, every = _run(w["name"], args.seed, bench["run_seconds"], 1)
        if not result["correct"] or result["failed"]:
            sys.exit(f"error: {w['name']} traced: {result}")
        out["workloads"][w["name"]] = every
        print(f"{w['name']}: {len(every)} per-layer metrics", flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def compare(args) -> None:
    bench = _bench()
    sets = [json.loads(Path(p).read_text(encoding="utf-8")) for p in args.sets]
    ok = True
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            stats = [s["workloads"][w["name"]]["metrics"][m["name"]] for s in sets]
            spreads = " ".join(f"{s['spread']:.4f}" for s in stats)
            drift = [(b["median"] - a["median"]) / a["median"] for a, b in zip(stats, stats[1:])]
            if m["better"] == "higher":
                drift = [-d for d in drift]
            gated = [s["spread"] for s in stats] if m["name"] != "setup_s" else []
            over = any(x > m["bound"] for x in gated + drift)
            loose = any(x > m["bound"] / 3 for x in gated)
            ok = ok and not over
            flag = "  <-- over the bound" if over else "  (spread over a third)" if loose else ""
            print(f"{w['name']:<20} {m['name']:<12} bound {m['bound']:<5} medians "
                  + " ".join(f"{s['median']:.6g}" for s in stats)
                  + f"  spreads {spreads}  worse-by "
                  + " ".join(f"{d:+.4f}" for d in drift) + flag)
    print("every spread and drift within its bound" if ok else "some metrics are over their bound")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("record")
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 1-10")
    p.add_argument("--out", required=True)
    p = sub.add_parser("layers")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("sets", nargs="+")
    args = parser.parse_args()
    {"record": record, "layers": layers, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
