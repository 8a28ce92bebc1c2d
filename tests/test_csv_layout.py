"""One owner for the self-describing CSV: replication report quoting,
replay refusals, figure kind refusals and the scenario echo.

The stderr lines were taken from the command-line module as it stood while
it still wrote replication headers and refused figure kinds itself;
``oracle_payload_document`` is the hand-written scenario echo of that time.
"""

import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pinned import QUOTED_NAME, SMALL_UNCERTAIN, produce, scenario_path, set_line
from pinned import figure_text, report_text  # noqa: F401  shared fixtures
from riskcounts import cli, figures
from riskcounts.cli import main
from riskcounts.cohort import MAX_REPLICATIONS, CausalSpec, CovariateRule, ProxyRule
from riskcounts.comparison import ExposureScenario, UncertainScenario
from riskcounts.distributions import BetaParams, DomainError
from riskcounts.figures import build_figure, read_metadata, render_figure_csv, replay_text
from riskcounts.scenarios import (
    BUNDLED_SCENARIOS,
    ScenarioError,
    bundled_text,
    load_bundled,
    payload_document,
)

# ---------------------------------------------------------------------------
# replication reports
# ---------------------------------------------------------------------------


def test_replication_body_quotes_covariate_names(tmp_path):
    text = produce("simulate-quoted", tmp_path).decode("utf-8")
    assert '\n"covariate_a,""b""\nc",' in text
    body = [row for row in csv.reader(io.StringIO(text)) if not row[0].startswith("#")]
    assert [row[0] for row in body] == [
        "variant", "true_exposure", f"covariate_{QUOTED_NAME}",
    ]


def test_cli_names_are_the_figures_functions():
    assert cli.replay_text is figures.replay_text
    assert cli.replay_file is figures.replay_file
    assert cli.render_replication_csv is figures.render_replication_csv


# ---------------------------------------------------------------------------
# replay refuses what it cannot reproduce
# ---------------------------------------------------------------------------


def _drop(text, key):
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith(f"# {key}:")
    )


@pytest.mark.parametrize("key", ["figure_id", "eps", "riskcounts_csv"])
def test_replay_names_a_missing_figure_line(key, figure_text):
    with pytest.raises(ScenarioError, match=f"missing the '{key}' line"):
        replay_text(_drop(figure_text, key))


@pytest.mark.parametrize(
    "key", ["replications", "alpha", "seed", "continuity_correction", "riskcounts_csv"]
)
def test_replay_names_a_missing_report_line(key, report_text):
    with pytest.raises(ScenarioError, match=f"missing the '{key}' line"):
        replay_text(_drop(report_text, key))


@pytest.mark.parametrize("key,value", [
    ("eps", "abc"),
    ("figure_id", "one"),
    ("scenario", "{not json"),
])
def test_replay_names_a_malformed_figure_line(key, value, figure_text):
    with pytest.raises(ScenarioError, match=f"line '{key}' is malformed"):
        replay_text(set_line(figure_text, key, value))


@pytest.mark.parametrize("key,value", [
    ("replications", "1.5"),
    ("alpha", "abc"),
    ("seed", "x"),
    ("seed", "-1"),
    ("continuity_correction", "yes"),
])
def test_replay_names_a_malformed_report_line(key, value, report_text):
    with pytest.raises(ScenarioError, match=f"line '{key}' is malformed"):
        replay_text(set_line(report_text, key, value))


@pytest.mark.parametrize("fixture", ["figure_text", "report_text"])
def test_replay_refuses_an_unknown_layout(fixture, request):
    text = request.getfixturevalue(fixture)
    with pytest.raises(ScenarioError, match="'riskcounts_csv' names layout '2'"):
        replay_text(set_line(text, "riskcounts_csv", "2"))


def test_replay_refuses_out_of_domain_values(figure_text, report_text):
    for text in (
        set_line(figure_text, "figure_id", "7"),
        set_line(figure_text, "eps", "-1.0"),
        set_line(report_text, "alpha", "2.0"),
        set_line(report_text, "replications", "0"),
    ):
        with pytest.raises(ScenarioError, match="metadata does not replay"):
            replay_text(text)


@pytest.mark.parametrize("fixture", ["figure_text", "report_text"])
def test_replay_refuses_a_scenario_line_nested_too_deeply(fixture, request):
    text = set_line(request.getfixturevalue(fixture), "scenario", "[" * 100_000)
    with pytest.raises(ScenarioError, match="line 'scenario' is malformed: JSON nests too deeply"):
        replay_text(text)


def test_replay_file_refuses_a_file_that_is_not_utf8(report_text, tmp_path):
    path = tmp_path / "report.csv"
    path.write_bytes(report_text.encode("utf-8") + b"\xff\xfe")
    with pytest.raises(ScenarioError, match=f"cannot read CSV file {path}: 'utf-8' codec"):
        figures.replay_file(path)
    path.write_text(report_text, encoding="utf-8")
    assert figures.replay_file(path) == report_text


def test_replay_refuses_replications_past_the_cap(report_text):
    text = set_line(report_text, "replications", str(MAX_REPLICATIONS + 1))
    with pytest.raises(ScenarioError, match=f"does not replay: replications must be <= {MAX_REPLICATIONS}"):
        replay_text(text)


def test_replay_refuses_a_scenario_of_the_wrong_kind(figure_text, report_text):
    causal = report_text.split("# scenario: ")[1].split("\n")[0]
    with pytest.raises(ScenarioError, match="causal_spec"):
        replay_text(set_line(figure_text, "scenario", causal))
    fixed = figure_text.split("# scenario: ")[1].split("\n")[0]
    with pytest.raises(ScenarioError, match="must carry a causal_spec"):
        replay_text(set_line(report_text, "scenario", fixed))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_header_edits = st.lists(
    st.tuples(
        st.sampled_from(["delete", "duplicate", "move", "swap"]),
        st.integers(0, 63),
        st.integers(0, 63),
        _json_values,
    ),
    min_size=1,
    max_size=4,
)


def _edit_header(text, edits):
    """``text`` with its ``#`` header lines deleted, duplicated, moved or
    given a JSON value of any type, edit by edit; the body is kept."""
    lines = text.splitlines(keepends=True)
    n_head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    head = lines[:n_head]
    for op, i, j, value in edits:
        if not head:
            break
        i %= len(head)
        if op == "delete":
            del head[i]
        elif op == "duplicate":
            head.insert(j % (len(head) + 1), head[i])
        elif op == "move":
            line = head.pop(i)
            head.insert(j % (len(head) + 1), line)
        else:
            key = head[i].partition(":")[0]
            head[i] = f"{key}: {json.dumps(value)}\n"
    return "".join(head + lines[n_head:])


@pytest.mark.parametrize("fixture", ["figure_text", "report_text"])
@given(edits=_header_edits)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_an_edited_header_replays_or_is_refused(fixture, request, edits):
    text = _edit_header(request.getfixturevalue(fixture), edits)
    try:
        out = replay_text(text)
    except (ScenarioError, DomainError):
        return
    assert isinstance(out, str)


# ---------------------------------------------------------------------------
# figure kind refusals: one check, in build_figure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("figure_id", [1, 2, 3, 4])
def test_figure_refuses_a_causal_spec(figure_id, tmp_path, capsys):
    out = tmp_path / "f.csv"
    argv = ["figure", scenario_path(tmp_path, "null_spec"),
            "--id", str(figure_id), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: figures need a risk scenario, not a causal_spec\n"
    assert not out.exists()


@pytest.mark.parametrize("figure_id", [1, 3])
def test_fixed_figure_refuses_an_uncertain_scenario(figure_id, tmp_path, capsys):
    out = tmp_path / "f.csv"
    argv = ["figure", scenario_path(tmp_path, SMALL_UNCERTAIN), "--id", str(figure_id)]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: figure {figure_id} shows fixed-risk counts; this file holds an "
        "uncertain_scenario (use figure 2 or 4)\n"
    )
    assert not out.exists()


def test_build_figure_refuses_what_the_cli_refused():
    spec = load_bundled("null_spec").payload
    with pytest.raises(DomainError, match="not a causal_spec"):
        build_figure(3, spec)
    with pytest.raises(DomainError, match="use figure 2 or 4"):
        build_figure(3, SMALL_UNCERTAIN)


def test_calibrated_figure_header_names_the_fit():
    table = figures.calibrated_figure(2, ExposureScenario(2_000, 2_000, 0.01, 0.004), 2.0, 0.99)
    meta = dict(table.metadata)
    assert list(meta)[6:9] == ["calibrated_from", "calibrate_ratio", "calibrate_coverage"]
    assert json.loads(meta["calibrated_from"])["exposure_scenario"]["p_exposed"] == 0.01
    assert (meta["calibrate_ratio"], meta["calibrate_coverage"]) == ("2.0", "0.99")
    text = render_figure_csv(table)
    assert read_metadata(text) == meta
    assert replay_text(text) == text


# ---------------------------------------------------------------------------
# the scenario echo
# ---------------------------------------------------------------------------


def oracle_payload_document(payload):
    if isinstance(payload, ExposureScenario):
        return "exposure_scenario", {
            "n_exposed": payload.n_exposed,
            "n_unexposed": payload.n_unexposed,
            "p_exposed": payload.p_exposed,
            "p_unexposed": payload.p_unexposed,
        }
    if isinstance(payload, UncertainScenario):
        return "uncertain_scenario", {
            "n_exposed": payload.n_exposed,
            "n_unexposed": payload.n_unexposed,
            "prior_exposed": {
                "alpha": payload.prior_exposed.alpha,
                "beta": payload.prior_exposed.beta,
            },
            "prior_unexposed": {
                "alpha": payload.prior_unexposed.alpha,
                "beta": payload.prior_unexposed.beta,
            },
        }
    body = {
        "n_per_group": payload.n_per_group,
        "true_cause": payload.true_cause,
        "baseline_p": payload.baseline_p,
        "effect_p": payload.effect_p,
        "latent_group_correlation": payload.latent_group_correlation,
    }
    if payload.covariate_rules:
        body["covariate_rules"] = [
            {"name": r.name, "intercept": r.intercept, "slope": r.slope,
             "noise_sd": r.noise_sd}
            for r in payload.covariate_rules
        ]
    if payload.proxy_rule is not None:
        body["proxy_rule"] = {"accuracy": payload.proxy_rule.accuracy}
    return "causal_spec", body


def _echo(pair):
    kind, body = pair
    return json.dumps({kind: body}, separators=(",", ":"), sort_keys=True)


@pytest.mark.parametrize("payload", [
    *(load_bundled(name).payload for name in BUNDLED_SCENARIOS),
    SMALL_UNCERTAIN,
    UncertainScenario(7, 9, BetaParams(0.5, 0.25), BetaParams(1e-3, 1e9)),
    CausalSpec(
        n_per_group=50, true_cause="latent-factor", baseline_p=0.01,
        effect_p=0.03, latent_group_correlation=0.25,
        covariate_rules=(CovariateRule("snack", 1.5, -2.0, 0.75),
                         CovariateRule(QUOTED_NAME, 0.0, 1.0)),
        proxy_rule=ProxyRule(accuracy=0.8),
    ),
    CausalSpec(n_per_group=9, true_cause="none", baseline_p=0.5, effect_p=0.5,
               proxy_rule=ProxyRule(accuracy=1.0)),
])
def test_payload_document_echo_matches_the_hand_written_one(payload):
    assert _echo(payload_document(payload)) == _echo(oracle_payload_document(payload))


def test_scenario_file_kind_follows_its_payload():
    for name in BUNDLED_SCENARIOS:
        sf = load_bundled(name)
        assert sf.kind == payload_document(sf.payload)[0]
        assert sf.kind in json.loads(bundled_text(name))


def test_payload_document_refuses_other_types():
    with pytest.raises(ScenarioError, match="cannot serialize payload of type dict"):
        payload_document({"n_exposed": 1})
