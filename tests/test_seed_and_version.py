"""The seed rule lives in ``cohort``; replay refuses another release's file.

``cohort.check_seed`` is the one seed rule: ``generate`` and
``replication_study`` raise ``DomainError`` naming the seed, and the
command line, scenario files and replay keep their error lines.  A header
whose ``tool_version`` is not this build's is refused as a foreign layout
is.
"""

import json

import numpy as np
import pytest

from pinned import figure_text, report_text, set_line  # noqa: F401  shared fixtures
from riskcounts import __version__
from riskcounts.cli import main
from riskcounts.cohort import check_seed, generate, replication_study
from riskcounts.distributions import DomainError
from riskcounts.figures import replay_text
from riskcounts.scenarios import ScenarioError, bundled_text, load_bundled

SPEC = load_bundled("null_spec").payload


@pytest.mark.parametrize("seed", [0, 1, 2**64, np.int64(7)])
def test_check_seed_accepts_non_negative_integers(seed):
    assert check_seed(seed) == int(seed)
    assert type(check_seed(seed)) is int


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    (True, "seed must be an integer, got True"),
    (1.5, "seed must be an integer, got 1.5"),
    ("3", "seed must be an integer, got '3'"),
])
def test_check_seed_refuses_with_a_domain_error_naming_the_seed(seed, message):
    with pytest.raises(DomainError) as exc:
        check_seed(seed)
    assert str(exc.value) == message


def test_check_seed_without_a_name_gives_the_bare_rule():
    with pytest.raises(DomainError) as exc:
        check_seed(-4, "")
    assert str(exc.value) == "must be >= 0, got -4"


def test_replication_study_refuses_a_negative_seed():
    with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
        replication_study(SPEC, 2, seed=-1)


@pytest.mark.parametrize("seed", [-1, (-1, 0), (3, -2)])
def test_generate_refuses_a_negative_seed(seed):
    with pytest.raises(DomainError, match="^seed must be >= 0, got -[12]$"):
        generate(SPEC, seed)


def test_valid_seeds_draw_as_before():
    a = replication_study(SPEC, 3, seed=5)
    b = replication_study(SPEC, 3, seed=np.int64(5))
    assert a == b
    assert generate(SPEC, (5, 0)).outcome.tobytes() == generate(SPEC, (5, 0)).outcome.tobytes()


def test_cli_and_scenario_seed_lines_are_unchanged(tmp_path, capsys):
    spec = tmp_path / "null.json"
    spec.write_text(bundled_text("null_spec"), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(spec), "--replications", "2", "--seed", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "riskcounts simulate: error: argument --seed: must be >= 0, got -1"
    )
    doc = json.loads(bundled_text("null_spec"))
    doc["seed"] = -3
    spec.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", str(spec), "--replications", "2"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: field 'seed' in {spec} must be >= 0, got -3\n"


def test_replay_seed_line_is_unchanged(report_text):
    with pytest.raises(ScenarioError) as exc:
        replay_text(set_line(report_text, "seed", "-1"))
    assert str(exc.value) == "metadata line 'seed' is malformed: must be >= 0, got -1"


@pytest.mark.parametrize("fixture", ["figure_text", "report_text"])
def test_replay_refuses_another_tool_version(fixture, request):
    text = request.getfixturevalue(fixture)
    with pytest.raises(ScenarioError) as exc:
        replay_text(set_line(text, "tool_version", "0.0.9"))
    assert str(exc.value) == (
        f"metadata line 'tool_version' names '0.0.9'; this build is "
        f"{__version__!r} and replays only its own files"
    )


@pytest.mark.parametrize("fixture", ["figure_text", "report_text"])
def test_replay_names_a_missing_tool_version_line(fixture, request):
    text = request.getfixturevalue(fixture)
    text = "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("# tool_version:")
    )
    with pytest.raises(ScenarioError, match="missing the 'tool_version' line"):
        replay_text(text)


@pytest.mark.parametrize("fixture", ["figure_text", "report_text"])
def test_this_builds_files_still_replay_byte_exactly(fixture, request):
    text = request.getfixturevalue(fixture)
    assert f"# tool_version: {__version__}\n" in text
    assert replay_text(text) == text
