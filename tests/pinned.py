"""Every pinned test artifact, defined once, and the fixtures several test
modules share.

An artifact is the bytes of one command-line run: a figure, a replication
report or ``summarize`` stdout.  ``ARTIFACTS`` gives each its command, its
scenario and the worker split forced on it (so the pins show the bytes do
not depend on the worker count), and ``produce`` makes it; ``golden/pins.json``
holds the digests and names the golden files.
"""

import contextlib
import copy
import functools
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from conftest import CONVOLVE_THRESHOLD, STUDY_THRESHOLD, force_workers
from riskcounts.cli import main
from riskcounts.cohort import MAX_COHORT_SIZE, TRUE_CAUSES
from riskcounts.comparison import ExposureScenario, UncertainScenario
from riskcounts.distributions import BetaParams
from riskcounts.figures import build_figure, render_figure_csv, replay_text
from riskcounts.scenarios import bundled_text, scenario_document

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
PINS = GOLDEN / "pins.json"

SMALL = ExposureScenario(1_000, 1_500, 0.01, 0.004)
SMALL_UNCERTAIN = UncertainScenario(
    1_000, 1_500, BetaParams(40.0, 3_960.0), BetaParams(16.0, 3_984.0)
)

#: A covariate name that needs RFC-4180 quoting: comma, quotes, newline.
QUOTED_NAME = 'a,"b"\nc'


@functools.cache
def pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def scenario_text(scenario) -> str:
    """A bundled scenario, one stored beside the golden files, or a document
    or payload as JSON."""
    if not isinstance(scenario, str):
        return json.dumps(scenario if isinstance(scenario, dict) else scenario_document(scenario))
    stored = pins()["scenarios"].get(scenario)
    return (GOLDEN / stored).read_text(encoding="utf-8") if stored else bundled_text(scenario)


def scenario_path(tmp_path, scenario) -> str:
    """``scenario_text`` in a file of ``tmp_path`` named after it."""
    text = scenario_text(scenario)
    name = scenario if isinstance(scenario, str) else hashlib.sha256(text.encode()).hexdigest()[:8]
    path = Path(tmp_path) / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def set_line(text, key, value):
    """``text`` with its one ``# key:`` header line set to ``value``."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.startswith(f"# {key}:")]
    assert len(hits) == 1
    lines[hits[0]] = f"# {key}: {value}\n"
    return "".join(lines)


#: Stands for a deleted key in ``mutated``.
DELETE = object()


def all_paths(documents):
    """(index, path) of every dict key and list index in each document."""
    def paths(node, prefix):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield prefix + (key,)
            if isinstance(child, (dict, list)):
                yield from paths(child, prefix + (key,))
    return [(i, path) for i, doc in enumerate(documents) for path in paths(doc, ())]


def mutated(doc, path, value):
    """A copy of ``doc`` with the item at ``path`` set to ``value`` or deleted."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def figure_text():
    return render_figure_csv(build_figure(1, SMALL))


@pytest.fixture(scope="module")
def report_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("report") / "null_spec.csv"
    argv = ["simulate", scenario_path(out.parent, "null_spec"), "--replications", "5"]
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@dataclass(frozen=True)
class Artifact:
    argv: tuple  # the command and its options; the scenario file goes second
    scenario: object  # a bundled or stored scenario's name, or a document
    workers: int = 0  # processes each split is forced onto; 0 leaves it alone


def _spec(**causal):
    return {"schema_version": 1, "causal_spec": causal}


def _block_spec(n_per_group, true_cause):
    """A cohort of 2n = 65,534, 65,536 or 200,006 around ``cohort._BLOCK``
    (2^16) draws, n inside a block; a proxy rule, a noisy covariate with a
    negative slope and a noiseless one."""
    return _spec(
        n_per_group=n_per_group, true_cause=true_cause, baseline_p=0.02, effect_p=0.035,
        latent_group_correlation=0.6, proxy_rule={"accuracy": 0.85},
        covariate_rules=[{"name": "marker", "intercept": 1.0, "slope": -2.0, "noise_sd": 1.5},
                         {"name": "badge", "intercept": 0.0, "slope": 1.0, "noise_sd": 0.0}])


def _simulate(replications, *options):
    return ("simulate", "--replications", str(replications), "--seed", "7", *options)


ARTIFACTS = {
    **{f"figure-{name}-{fid}": Artifact(("figure", "--id", str(fid)), name, 2)
       for name in ("la_rr106", "la_rr2", "ny_rr2", "us_rr2") for fid in (1, 3)},
    "figure-la_rr106_c1e3-4": Artifact(("figure", "--id", "4"), "la_rr106_c1e3", 2),
    **{f"summarize-{name}": Artifact(("summarize",), name, 2)
       for name in ("la_rr106", "la_rr2", "ny_rr2", "us_rr2", "la_rr106_c1e3", "la_rr106_c1e7")},
    **{f"simulate-{n}-{cause}{suffix}": Artifact(_simulate(3, *options), _block_spec(n, cause), 3)
       for n in (32_767, 32_768, 100_003) for cause in TRUE_CAUSES
       for suffix, options in (("", ()), ("-no-continuity", ("--no-continuity",)))},
    "simulate-max-cohort": Artifact(_simulate(2), _spec(
        n_per_group=MAX_COHORT_SIZE // 2, true_cause="exposure-label",
        baseline_p=0.01, effect_p=0.012), 3),
    **{f"simulate-{name}": Artifact(_simulate(50), name)
       for name in ("null_spec", "banana_spec", "proxy_spec")},
    "simulate-quoted": Artifact(_simulate(50), _spec(
        n_per_group=200, true_cause="latent-factor", baseline_p=0.05, effect_p=0.15,
        latent_group_correlation=0.5, covariate_rules=[
            {"name": QUOTED_NAME, "intercept": 0.5, "slope": 1.0, "noise_sd": 0.25}])),
}


def produce(key, workdir) -> bytes:
    """Artifact ``key``'s bytes, made in ``workdir``.  Asserts a clean exit,
    that a report replays to itself, that a figure's line count was printed
    and that each split was forced as the artifact says."""
    a = ARTIFACTS[key]
    command, out = a.argv[0], Path(workdir) / "artifact"
    argv = [command, scenario_path(workdir, a.scenario), *a.argv[1:]]
    if command != "summarize":
        argv += ["--out", str(out)]
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()) as printed:
        simulate = command == "simulate"
        threshold = STUDY_THRESHOLD if simulate else CONVOLVE_THRESHOLD
        forked = a.workers and force_workers(mp, a.workers, threshold=threshold)
        assert main(argv) == 0
        if command == "summarize":
            out.write_text(printed.getvalue(), encoding="utf-8")
        elif simulate:
            text = out.read_text(encoding="utf-8")
            assert replay_text(text) == text
    data = out.read_bytes()
    if command == "figure":
        assert f"({len(data.decode('utf-8').splitlines())} lines)" in printed.getvalue()
    if a.workers and simulate:  # the run and its replay
        replications = int(a.argv[a.argv.index("--replications") + 1])
        assert forked == [[(i, i + 1) for i in range(replications)]] * 2
    elif a.workers:  # a figure of the fixed or uncertain arms alone convolves nothing
        assert bool(forked) == (a.argv[-1] not in ("1", "2"))
        assert all(len(ranges) == a.workers for ranges in forked)
    return data
