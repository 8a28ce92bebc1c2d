"""One analysis path for fixed and beta-uncertain scenarios.

Golden reports pin ``summarize`` stdout byte for byte; build counts pin that
each command builds every distinct law once; the effective relative risk of
near-certain-zero arms is checked against a high-precision reference.

Every convolution here is split over two processes (``forced_split``), so
the golden reports also show that the bytes do not depend on the worker
count.
"""

import collections
import json
import sys
from pathlib import Path

import mpmath
import pytest

from riskcounts import BetaParams, UncertainScenario, _parallel, distributions, summarize
from riskcounts.cli import main
from riskcounts.scenarios import bundled_text

GOLDEN = Path(__file__).resolve().parent / "golden"

_BUILDERS = ("binomial_distribution", "beta_binomial_distribution", "convolve")


@pytest.fixture(autouse=True)
def forced_split(monkeypatch, request):
    """Split every convolution over two processes and record its ranges;
    each golden ``summarize`` must have been split."""
    forked = []
    run = _parallel.run
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(_parallel, "blas_threads", lambda: 1)
    monkeypatch.setattr(distributions, "_PARALLEL_MIN_MACS", 0)
    monkeypatch.setattr(_parallel, "run",
                        lambda fill, ranges, shape: forked.append(ranges) or run(fill, ranges, shape))
    yield forked
    if request.node.originalname == "test_summarize_stdout_matches_golden":
        assert forked and all(len(ranges) == 2 for ranges in forked)


def _scenario_path(tmp_path, name):
    """A bundled scenario, or one stored beside the golden reports."""
    stored = GOLDEN / f"{name}.json"
    if stored.exists():
        return str(stored)
    path = tmp_path / f"{name}.json"
    path.write_text(bundled_text(name), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "name",
    ["la_rr106", "la_rr2", "ny_rr2", "us_rr2", "la_rr106_c1e3", "la_rr106_c1e7"],
)
def test_summarize_stdout_matches_golden(name, tmp_path, capsys):
    code = main(["summarize", _scenario_path(tmp_path, name)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.summarize.txt").read_text(encoding="utf-8")


@pytest.fixture
def builds(monkeypatch):
    """Count every call to a distribution builder, through any binding."""
    counts = collections.Counter()
    for name in _BUILDERS:
        original = getattr(distributions, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "riskcounts" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def _uncertain_path(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "uncertain_scenario": {
            "n_exposed": 1000, "n_unexposed": 1500,
            "prior_exposed": {"alpha": 40.0, "beta": 3960.0},
            "prior_unexposed": {"alpha": 16.0, "beta": 3984.0},
        },
    }), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv, expected", [
    (["summarize", "la_rr106"], {"binomial_distribution": 5, "convolve": 1}),
    (["summarize", "uncertain"], {"beta_binomial_distribution": 5, "convolve": 1}),
    (["figure", "la_rr106", "--id", "1"], {"binomial_distribution": 2}),
    (["figure", "la_rr106", "--id", "3"], {"binomial_distribution": 3, "convolve": 1}),
    (["calibrate", "la_rr106", "2.0"],
     {"beta_binomial_distribution": 22, "binomial_distribution": 2}),
])
def test_each_command_builds_each_law_once(argv, expected, builds, tmp_path, capsys):
    scenario = _uncertain_path(tmp_path) if argv[1] == "uncertain" else _scenario_path(
        tmp_path, argv[1]
    )
    argv = [argv[0], scenario, *argv[2:]]
    if argv[0] == "figure":
        argv += ["--out", str(tmp_path / "fig.csv")]
    assert main(argv) == 0
    capsys.readouterr()
    assert dict(builds) == expected


def _effective_rr_reference(n, prior_e, prior_u):
    """(1 - P0_e) / (1 - P0_u) for beta-binomial arms, at 50 digits."""
    with mpmath.workdps(50):
        def at_least_one(prior):
            a, b = mpmath.mpf(prior.alpha), mpmath.mpf(prior.beta)
            log_p0 = (mpmath.loggamma(b + n) + mpmath.loggamma(a + b)
                      - mpmath.loggamma(b) - mpmath.loggamma(a + b + n))
            return -mpmath.expm1(log_p0)

        return float(at_least_one(prior_e) / at_least_one(prior_u))


def test_uncertain_effective_rr_matches_high_precision_reference(tmp_path, capsys):
    # Prior means 2e-17 and 1e-17 at concentration 1e3: P(no case) is within
    # ~1e-14 of 1, where 1 - pmf(0) keeps about two significant digits.
    c = 1e3
    prior_e = BetaParams(c * 2e-17, c * (1.0 - 2e-17))
    prior_u = BetaParams(c * 1e-17, c * (1.0 - 1e-17))
    u = UncertainScenario(1000, 1000, prior_e, prior_u)
    reference = _effective_rr_reference(1000, prior_e, prior_u)
    assert summarize(u).effective_rr == pytest.approx(reference, rel=1e-12)

    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"schema_version": 1, "uncertain_scenario": {
        "n_exposed": 1000, "n_unexposed": 1000,
        "prior_exposed": {"alpha": prior_e.alpha, "beta": prior_e.beta},
        "prior_unexposed": {"alpha": prior_u.alpha, "beta": prior_u.beta},
    }}), encoding="utf-8")
    assert main(["summarize", str(path)]) == 0
    assert f"effective relative risk: {reference:#.6g}" in capsys.readouterr().out
