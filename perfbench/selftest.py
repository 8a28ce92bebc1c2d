"""The benchmark's own tests.  Run from the checkout root:

    python3 -m pytest -q perfbench/selftest.py

They use a fast subset of each workload's ops, so they take seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

cli = run._import_program()

import riskcounts  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from riskcounts import cohort, comparison, distributions, figures, predictive  # noqa: E402

_FAST = {
    "exact-ladder": lambda op: not op.id.startswith("ladder"),
    "uncertain-calibrate": lambda op: op.id.startswith(("la_rr106.calibrate", "uncertain_c1e07",
                                                        "uncertain_c1e06", "us_rr2")),
    "cohort-sim": lambda op: op.id.startswith(("banana_spec", "pvalue")),
}


def _fast_ops(name, workdir):
    wl = workloads.GENERATORS[name](7, workdir)
    return [op for op in wl.ops if _FAST[name](op)]


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _traced_pass(ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = run.run_pass(cli, ops, tracer)
    finally:
        tracer.uninstall()
    return results, tracing.layer_metrics(tracer.spans, {op.id: op.kind for op in ops})


def test_every_binding_is_rebound_and_restored():
    originals = {
        "binomial": distributions.binomial_distribution,
        "fixed_split": comparison.split_vs_counterfactual,
        "predictive_split": predictive.split_vs_counterfactual,
        "main": cli.main,
        "post_init": distributions.CountDistribution.__dict__["__post_init__"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = distributions.binomial_distribution
        assert wrapped is not originals["binomial"]
        assert riskcounts.binomial_distribution is wrapped
        assert comparison.binomial_distribution is wrapped
        assert riskcounts.split_vs_counterfactual is comparison.split_vs_counterfactual
        for module in (cli, figures):
            assert module._fixed_split is comparison.split_vs_counterfactual
            assert module._fixed_split is not originals["fixed_split"]
            assert module._predictive_split is predictive.split_vs_counterfactual
            assert module._predictive_split is not originals["predictive_split"]
        assert sys.modules["riskcounts.__main__"].main is cli.main is not originals["main"]
        assert distributions.CountDistribution.__dict__["__post_init__"] is not originals["post_init"]
        for layer, names in tracing.TARGETS.items():
            module = sys.modules[f"riskcounts.{layer}"]
            for name in names:
                assert getattr(module, name).__wrapped__ is not None, f"{layer}.{name}"
    finally:
        tracer.uninstall()
    assert distributions.binomial_distribution is originals["binomial"]
    assert cli._fixed_split is originals["fixed_split"]
    assert figures._predictive_split is originals["predictive_split"]
    assert cli.main is originals["main"]
    assert distributions.CountDistribution.__dict__["__post_init__"] is originals["post_init"]


def test_a_binding_that_cannot_be_rebound_is_an_error(monkeypatch):
    monkeypatch.setattr(cohort, "_stray", (cohort.generate,), raising=False)
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TracingError, match="_stray"):
        tracer.install()
    assert cohort.generate.__module__ == "riskcounts.cohort"
    assert not hasattr(cohort.generate, "__wrapped__")  # install was rolled back


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_pass_outputs_equal_untraced_and_counts_repeat(name, in_tmp):
    ops = _fast_ops(name, in_tmp)
    plain = run.run_pass(cli, ops)
    first, layers_a = _traced_pass(ops)
    second, layers_b = _traced_pass(ops)
    for r in plain:
        assert r["exc"] is None and r["rc"] == r["op"].expect and r["replay_ok"], r["op"].id
    assert [r["digest"] for r in first] == [r["digest"] for r in plain]
    assert [r["digest"] for r in second] == [r["digest"] for r in plain]
    counts = [k for k in layers_a if not k.endswith("self_s")]
    assert counts and {k: layers_a[k] for k in counts} == {k: layers_b[k] for k in counts}


def test_known_waste_shows(in_tmp):
    ops = [op for op in _fast_ops("exact-ladder", in_tmp) if op.kind == "summarize"]
    _, layers = _traced_pass(ops)
    assert layers["distributions.law_reuse[summarize]"] == pytest.approx(0.3)
    assert layers["distributions.binomial_distribution.calls"] == 10 * len(ops)


def test_declared_metrics_are_catalogued_and_produced(in_tmp):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    catalogue = json.loads((run.BENCH_DIR / "metrics.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        units = {m["name"]: m["unit"] for m in catalogue[kind]}
        for m in bench[kind]:
            assert units[m["name"]] == m["unit"], m["name"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(workloads.GENERATORS)
    _, layers = _traced_pass(_fast_ops("cohort-sim", in_tmp))
    produced = set(layers) | {"trace.overhead"}
    assert {m["name"] for m in bench["per_layer"]} <= produced
    assert {m["name"] for m in catalogue["per_layer"]} <= produced
