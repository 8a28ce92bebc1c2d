"""One analysis path for fixed and beta-uncertain scenarios.

Build counts pin that each command builds every distinct law once, and that
calibration streams one window per probe (``_streamed_interval``) and builds
none.  Cell counts pin the step logs ``_run`` sums: ``widened`` while the
windows widen, ``filled`` while they are filled.  Each settled cell's step
log is computed once in each today, so the two are equal.  Work counts pin
the cells and multiply-adds each convolution asks ``_correlate`` for, which
no change to how the cells are computed may move.  Replication counts pin
the replications and individuals each bundled study draws and the score
tests it asks for and computes.  The effective relative risk of
near-certain-zero arms is checked against a high-precision reference.
``summarize`` stdout is pinned in ``test_pinned.py``.
"""

import collections
import json
import math
import sys

import pytest

from oracles import beta_binomial_log_pmf
from pinned import SMALL_UNCERTAIN, scenario_path
from riskcounts import BetaParams, ExposureScenario, UncertainScenario, distributions, summarize
from riskcounts import _parallel, cohort
from riskcounts.classical import _score_test
from riskcounts.cli import main
from riskcounts.comparison import ScenarioAnalysis
from riskcounts.cohort import CausalSpec
from riskcounts.scenarios import BUNDLED_SCENARIOS, load_bundled

_BUILDERS = ("binomial_distribution", "beta_binomial_distribution", "convolve", "_streamed_interval")


@pytest.fixture
def builds(monkeypatch):
    """Count every call to a distribution builder, through any binding; the
    cells each ``_run`` call sums, as ``filled`` where it writes a window's
    log masses and ``widened`` where it does not; and the ``cells`` and
    multiply-adds (``macs``) each convolution asks ``_correlate`` for."""
    counts = collections.Counter()
    run = distributions._run

    def counted_run(log_ratio, start, stop, step, carry=0.0, out=None):
        counts["widened" if out is None else "filled"] += len(range(start, stop, step))
        return run(log_ratio, start, stop, step, carry, out)

    monkeypatch.setattr(distributions, "_run", counted_run)
    correlate = distributions._correlate

    def counted_correlate(x, y, start, stop):
        n1, n2 = len(x), len(y)
        counts["cells"] += stop - start
        counts["macs"] += sum(min(k + 1, n2, n1 + n2 - 1 - k) for k in range(start, stop))
        return correlate(x, y, start, stop)

    monkeypatch.setattr(distributions, "_correlate", counted_correlate)
    for name in _BUILDERS:
        original = getattr(distributions, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "riskcounts" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


#: Each bundled command's counts: every command on each fixed-risk bundled
#: scenario, those an uncertain scenario takes on the small one, and
#: ``pvalue``, which builds nothing.
COMMAND_COUNTS = [
    (["summarize", "la_rr106"],
     {"binomial_distribution": 5, "convolve": 1, "widened": 2_578, "filled": 2_578,
      "cells": 414, "macs": 155_541}),
    (["summarize", "uncertain"],
     {"beta_binomial_distribution": 5, "convolve": 1, "widened": 257, "filled": 257,
      "cells": 65, "macs": 1_869}),
    (["figure", "la_rr106", "--id", "1"], {"binomial_distribution": 2, "widened": 957, "filled": 957}),
    (["figure", "la_rr106", "--id", "3"],
     {"binomial_distribution": 3, "convolve": 1, "widened": 1_621, "filled": 1_621,
      "cells": 414, "macs": 155_541}),
    (["calibrate", "la_rr106", "2.0"], {"_streamed_interval": 22, "widened": 47_110, "filled": 47_110}),
    (["summarize", "la_rr2"],
     {"binomial_distribution": 5, "convolve": 1, "widened": 55, "filled": 55, "cells": 14, "macs": 99}),
    (["summarize", "ny_rr2"],
     {"binomial_distribution": 5, "convolve": 1, "widened": 64, "filled": 64, "cells": 17, "macs": 135}),
    (["summarize", "us_rr2"],
     {"binomial_distribution": 5, "convolve": 1, "widened": 438, "filled": 438,
      "cells": 102, "macs": 5_043}),
    (["figure", "us_rr2", "--id", "3"],
     {"binomial_distribution": 3, "convolve": 1, "widened": 270, "filled": 270,
      "cells": 102, "macs": 5_043}),
    (["figure", "la_rr106", "--id", "2", "--calibrate-ratio", "2.0"],
     {"_streamed_interval": 22, "beta_binomial_distribution": 2, "widened": 48_841, "filled": 48_841}),
    (["figure", "la_rr106", "--id", "4", "--calibrate-ratio", "2.0"],
     {"_streamed_interval": 22, "beta_binomial_distribution": 3, "convolve": 1, "widened": 50_473,
      "filled": 50_473, "cells": 832, "macs": 546_954}),
    (["calibrate", "la_rr2", "2.0"], {"_streamed_interval": 10, "widened": 9_372, "filled": 9_372}),
    (["calibrate", "ny_rr2", "2.0"], {"_streamed_interval": 14, "widened": 834, "filled": 834}),
    (["calibrate", "us_rr2", "2.0"], {"_streamed_interval": 20, "widened": 7_373, "filled": 7_373}),
    (["figure", "la_rr2", "--id", "1"], {"binomial_distribution": 2, "widened": 22, "filled": 22}),
    (["figure", "ny_rr2", "--id", "1"], {"binomial_distribution": 2, "widened": 25, "filled": 25}),
    (["figure", "us_rr2", "--id", "1"], {"binomial_distribution": 2, "widened": 168, "filled": 168}),
    (["figure", "la_rr2", "--id", "3"],
     {"binomial_distribution": 3, "convolve": 1, "widened": 33, "filled": 33, "cells": 14, "macs": 99}),
    (["figure", "ny_rr2", "--id", "3"],
     {"binomial_distribution": 3, "convolve": 1, "widened": 39, "filled": 39, "cells": 17, "macs": 135}),
    (["figure", "la_rr2", "--id", "2", "--calibrate-ratio", "2.0"],
     {"_streamed_interval": 10, "beta_binomial_distribution": 2, "widened": 9_524, "filled": 9_524}),
    (["figure", "ny_rr2", "--id", "2", "--calibrate-ratio", "2.0"],
     {"_streamed_interval": 14, "beta_binomial_distribution": 2, "widened": 993, "filled": 993}),
    (["figure", "us_rr2", "--id", "2", "--calibrate-ratio", "2.0"],
     {"_streamed_interval": 20, "beta_binomial_distribution": 2, "widened": 7_778, "filled": 7_778}),
    (["figure", "la_rr2", "--id", "4", "--calibrate-ratio", "2.0"],
     {"_streamed_interval": 10, "beta_binomial_distribution": 3, "convolve": 1, "widened": 9_602,
      "filled": 9_602, "cells": 35, "macs": 630}),
    (["figure", "ny_rr2", "--id", "4", "--calibrate-ratio", "2.0"],
     {"_streamed_interval": 14, "beta_binomial_distribution": 3, "convolve": 1, "widened": 1_078,
      "filled": 1_078, "cells": 41, "macs": 861}),
    (["figure", "us_rr2", "--id", "4", "--calibrate-ratio", "2.0"],
     {"_streamed_interval": 20, "beta_binomial_distribution": 3, "convolve": 1, "widened": 8_049,
      "filled": 8_049, "cells": 212, "macs": 21_912}),
    (["figure", "uncertain", "--id", "2"], {"beta_binomial_distribution": 2, "widened": 98, "filled": 98}),
    (["figure", "uncertain", "--id", "4"],
     {"beta_binomial_distribution": 3, "convolve": 1, "widened": 159, "filled": 159,
      "cells": 65, "macs": 1_869}),
    (["pvalue", "15", "1000", "5", "1000"], {}),
]


@pytest.mark.parametrize("argv, expected", COMMAND_COUNTS)
def test_each_command_builds_each_law_once(argv, expected, builds, tmp_path, capsys):
    if argv[0] != "pvalue":
        scenario = scenario_path(tmp_path, SMALL_UNCERTAIN if argv[1] == "uncertain" else argv[1])
        argv = [argv[0], scenario, *argv[2:]]
    if argv[0] == "figure":
        argv += ["--out", str(tmp_path / "fig.csv")]
    assert main(argv) == 0
    capsys.readouterr()
    assert dict(builds) == expected


def test_the_split_of_a_1e8_rung_asks_for_its_kept_cells_alone(builds):
    # the cells the trim keeps of the 1e8-per-arm ladder rung's two laws,
    # and the multiply-adds of their dot products
    ScenarioAnalysis(ExposureScenario(10**8, 10**8, 0.011, 0.01)).split
    assert (builds["cells"], builds["macs"]) == (21_368, 408_223_159)


#: ``simulate``'s counts on each bundled spec.
SIMULATE_COUNTS = [
    ("null_spec", (10_000, 20_000_000, 10_000, 427)),
    ("banana_spec", (2_000, 4_000_000, 4_000, 224)),
    ("proxy_spec", (2_000, 4_000_000, 4_000, 2_580)),
]

#: The commands each kind of scenario takes, as (command, options).
_FIXED_COMMANDS = [("summarize",), ("figure", "--id", "1"), ("figure", "--id", "3"),
                   ("figure", "--id", "2", "--calibrate-ratio", "2.0"),
                   ("figure", "--id", "4", "--calibrate-ratio", "2.0"), ("calibrate", "2.0")]
_UNCERTAIN_COMMANDS = [("summarize",), ("figure", "--id", "2"), ("figure", "--id", "4")]


def test_the_count_tables_hold_one_row_per_bundled_command():
    kinds = {name: type(load_bundled(name).payload) for name in BUNDLED_SCENARIOS}
    assert set(kinds.values()) == {ExposureScenario, CausalSpec}
    wanted = [[command, name, *options] for name in BUNDLED_SCENARIOS
              if kinds[name] is ExposureScenario for command, *options in _FIXED_COMMANDS]
    wanted += [[command, "uncertain", *options] for command, *options in _UNCERTAIN_COMMANDS]
    wanted.append(["pvalue", "15", "1000", "5", "1000"])
    assert sorted(argv for argv, _ in COMMAND_COUNTS) == sorted(wanted)
    assert sorted(name for name, _ in SIMULATE_COUNTS) == sorted(
        name for name in BUNDLED_SCENARIOS if kinds[name] is CausalSpec
    )


@pytest.mark.parametrize("name, expected", SIMULATE_COUNTS)
def test_simulate_draws_and_scores_each_replication_once(name, expected, monkeypatch):
    """A bundled spec's study, in-process: the replications and individuals
    drawn, and the score tests asked for and computed (cache misses).  The
    banana covariate tests the label's side, so its scores are cache hits."""
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 1)
    counts = collections.Counter()
    draw = cohort._draw

    def counted(streams, n2):
        for rng in streams:
            counts["replications"] += 1
            counts["individuals"] += n2
            yield rng

    def counted_draw(spec, streams, rows, dests, reduce):
        draw(spec, counted(streams, 2 * spec.n_per_group), rows, dests, reduce)

    monkeypatch.setattr(cohort, "_draw", counted_draw)
    sf = load_bundled(name)
    _score_test.cache_clear()
    cohort.replication_study(sf.payload, sf.replications, alpha=sf.alpha, seed=sf.seed)
    info = _score_test.cache_info()
    assert (counts["replications"], counts["individuals"], info.hits + info.misses,
            info.misses) == expected


def _effective_rr_reference(n, prior_e, prior_u):
    """(1 - P0_e) / (1 - P0_u) for beta-binomial arms."""
    log_p0 = [beta_binomial_log_pmf(n, prior, 0) for prior in (prior_e, prior_u)]
    return math.expm1(log_p0[0]) / math.expm1(log_p0[1])


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
