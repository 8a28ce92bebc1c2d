"""The benchmark's three workloads, generated from a seed.

Each generator writes its scenario files into the run's work directory and
returns the ops of one pass.  Costs are kept nearly seed-independent (risk
and concentration jitter sit in narrow bands), so that run-to-run spread
measures the program rather than the inputs.  Known defects stay in on
purpose, with their recorded outcome as the expected result:

* exact-ladder's limit op (2^32-1 per arm) does not finish in any sane time,
  because ``convolve`` is direct O(w^2);
* uncertain-calibrate's calibrations of la_rr2 and ny_rr2 exit 2 ("maximum 0
  reachable") and us_rr2 exits 2 at the 20M-point window cap.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from riskcounts.scenarios import bundled_text

BUNDLED_FIXED = ("la_rr2", "la_rr106", "ny_rr2", "us_rr2")
LADDER = (10**7, 10**8, 4 * 10**8, 10**9)
MAX_POPULATION = 2**32 - 1
CONCENTRATIONS = (1e3, 1e4, 1e5, 1e6, 1e7)
CALIBRATION_TARGETS = (1.5, 2.0, 3.0)
MAX_COHORT_PER_GROUP = 5_000_000  # 2 * n_per_group == MAX_COHORT_SIZE
BIG_RUNG_REPS = 3

# la_rr106's per-person risks, the centre of the uncertain scenarios
_LA_RR106 = (2_000_000, 0.00020034, 0.000189)


@dataclass
class Op:
    """One CLI invocation (or one replay of a CSV written earlier in the pass).

    ``expect`` is the exit code recorded at the benchmark's baseline: 2 for
    the known refusals, listed in ``known``.  ``seeded`` ops take inputs from
    the seed, so their digests are recorded per seed.
    """

    id: str
    kind: str
    argv: list[str] = field(default_factory=list)
    csv: str | None = None
    replays: str | None = None
    expect: int = 0
    known: str | None = None
    seeded: bool = True
    replications: int = 0
    individuals: int = 0


@dataclass
class Workload:
    ops: list[Op]
    limit_argv: list[str] | None = None


def _write(workdir: Path, name: str, doc_or_text) -> str:
    text = doc_or_text if isinstance(doc_or_text, str) else json.dumps(doc_or_text, indent=1)
    (workdir / f"{name}.json").write_text(text, encoding="utf-8")
    return f"{name}.json"


def _figure(op_id: str, scenario: str, fig: int, seeded: bool, extra=()) -> list[Op]:
    csv = f"{op_id}.csv"
    return [
        Op(op_id, "figure", ["figure", scenario, "--id", str(fig), *extra, "--out", csv],
           csv=csv, seeded=seeded),
        Op(f"{op_id}.replay", "replay", replays=op_id, seeded=seeded),
    ]


def _jitter(rng: random.Random, value: float, band: float) -> float:
    return value * (1.0 + rng.uniform(-band, band))


def exact_ladder(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"exact-ladder/{seed}")
    ops: list[Op] = []
    for name in BUNDLED_FIXED:
        path = _write(workdir, name, bundled_text(name))
        ops.append(Op(f"{name}.summarize", "summarize", ["summarize", path], seeded=False))
        ops += _figure(f"{name}.figure1", path, 1, seeded=False)
        ops += _figure(f"{name}.figure3", path, 3, seeded=False)
    for n in LADDER:
        rung = f"ladder{n:.0e}".replace("+", "")
        path = _write(workdir, rung, {"schema_version": 1, "exposure_scenario": {
            "n_exposed": n, "n_unexposed": n,
            "p_exposed": _jitter(rng, 0.011, 0.005),
            "p_unexposed": _jitter(rng, 0.01, 0.005),
        }})
        ops.append(Op(f"{rung}.summarize", "summarize", ["summarize", path]))
        ops += _figure(f"{rung}.figure3", path, 3, seeded=True)
    limit = _write(workdir, "limit", {"schema_version": 1, "exposure_scenario": {
        "n_exposed": MAX_POPULATION, "n_unexposed": MAX_POPULATION,
        "p_exposed": 0.5, "p_unexposed": 0.4,
    }})
    return Workload(ops, limit_argv=["summarize", limit])


def uncertain_calibrate(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"uncertain-calibrate/{seed}")
    target = repr(rng.choice(CALIBRATION_TARGETS))
    ops: list[Op] = []
    paths = {name: _write(workdir, name, bundled_text(name)) for name in BUNDLED_FIXED}
    for name, path in paths.items():
        op = Op(f"{name}.calibrate", "calibrate", ["calibrate", path, target])
        if name in ("la_rr2", "ny_rr2"):
            op.expect, op.known = 2, "calibration bisects on a non-monotone ratio"
        elif name == "us_rr2":
            op.expect, op.known = 2, "window exceeds the 20M-point cap"
        ops.append(op)
    for fig in (2, 4):
        ops += _figure(f"la_rr106.figure{fig}", paths["la_rr106"], fig, seeded=True,
                       extra=("--calibrate-ratio", target))
    n, p_e, p_u = _LA_RR106
    for c0 in CONCENTRATIONS:
        c = _jitter(rng, c0, 0.01)
        name = f"uncertain_c{c0:.0e}".replace("+", "")
        path = _write(workdir, name, {"schema_version": 1, "uncertain_scenario": {
            "n_exposed": n, "n_unexposed": n,
            "prior_exposed": {"alpha": c * p_e, "beta": c * (1.0 - p_e)},
            "prior_unexposed": {"alpha": c * p_u, "beta": c * (1.0 - p_u)},
        }})
        ops.append(Op(f"{name}.summarize", "summarize", ["summarize", path]))
        ops += _figure(f"{name}.figure4", path, 4, seeded=True)
    return Workload(ops)


def cohort_sim(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"cohort-sim/{seed}")
    sim_seed = str(rng.randrange(2**31))
    ops: list[Op] = []

    def simulate(name, doc_or_text, reps, per_group, extra=()):
        path = _write(workdir, name, doc_or_text)
        ops.append(Op(f"{name}.simulate", "simulate",
                      ["simulate", path, "--seed", sim_seed, *extra, "--out", f"{name}.csv"],
                      csv=f"{name}.csv", replications=reps,
                      individuals=reps * 2 * per_group))

    simulate("null_spec", bundled_text("null_spec"), 10_000, 1000)
    simulate("banana_spec", bundled_text("banana_spec"), 2000, 1000)
    simulate("proxy_spec", bundled_text("proxy_spec"), 2000, 1000)
    simulate("latent_spec", {
        "schema_version": 1,
        "causal_spec": {
            "n_per_group": 1000, "true_cause": "latent-factor",
            "baseline_p": _jitter(rng, 0.01, 0.05), "effect_p": _jitter(rng, 0.03, 0.05),
            "latent_group_correlation": _jitter(rng, 0.8, 0.05),
            "covariate_rules": [{"name": "marker", "intercept": 0.0, "slope": 1.0,
                                 "noise_sd": _jitter(rng, 0.5, 0.05)}],
        },
        "replications": 2000,
    }, 2000, 1000)
    simulate("max_cohort", {"schema_version": 1, "causal_spec": {
        "n_per_group": MAX_COHORT_PER_GROUP, "true_cause": "exposure-label",
        "baseline_p": _jitter(rng, 0.01, 0.05), "effect_p": _jitter(rng, 0.012, 0.05),
    }}, BIG_RUNG_REPS, MAX_COHORT_PER_GROUP, extra=("--replications", str(BIG_RUNG_REPS)))
    ops.append(Op("banana_spec.simulate.replay", "replay", replays="banana_spec.simulate"))
    for i in range(4):
        n_a, n_b = rng.randint(500, 5000), rng.randint(500, 5000)
        argv = ["pvalue", str(rng.randint(1, n_a // 20)), str(n_a),
                str(rng.randint(1, n_b // 20)), str(n_b)]
        if i % 2:
            argv.append("--no-continuity")
        ops.append(Op(f"pvalue{i}", "pvalue", argv))
    return Workload(ops)


GENERATORS = {
    "exact-ladder": exact_ladder,
    "uncertain-calibrate": uncertain_calibrate,
    "cohort-sim": cohort_sim,
}
