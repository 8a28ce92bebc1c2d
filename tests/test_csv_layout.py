"""One owner for the self-describing CSV: replication bytes, replay refusals,
figure kind refusals and the scenario echo.

The digests and the stderr lines were taken from the command-line module as
it stood while it still wrote replication headers and refused figure kinds
itself; ``oracle_payload_document`` is the hand-written scenario echo of
that time.
"""

import csv
import hashlib
import io
import json

import pytest

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

SMALL = ExposureScenario(1_000, 1_500, 0.01, 0.004)
SMALL_UNCERTAIN = UncertainScenario(
    1_000, 1_500, BetaParams(40.0, 3_960.0), BetaParams(16.0, 3_984.0)
)

#: A covariate name that needs RFC-4180 quoting: comma, quotes, newline.
QUOTED_NAME = 'a,"b"\nc'
QUOTED_SPEC = {"schema_version": 1, "causal_spec": {
    "n_per_group": 200, "true_cause": "latent-factor",
    "baseline_p": 0.05, "effect_p": 0.15, "latent_group_correlation": 0.5,
    "covariate_rules": [
        {"name": QUOTED_NAME, "intercept": 0.5, "slope": 1.0, "noise_sd": 0.25},
    ],
}}

#: SHA-256 of ``simulate SPEC --replications 50 --seed 7 --out FILE``.
REPLICATION_SHA256 = {
    "null_spec": "3ab8fe5fadbf9cf13f2e45949f38189cb343d26c898c2316733bf7b44c581d0a",
    "banana_spec": "8a9bcc0a623784549c5c0d16151516354ae9740791c39a4c0a3a4448f6486565",
    "proxy_spec": "1f16934e78dbf1794a647b148d65a2cb0226a6de15da79ec85c420ee713daba0",
    "quoted": "5ee344d5dc0b08198ca0e4eb4eaa4a530e11fc2544b4f378ecdd9708cf83ef4b",
}


def _scenario_path(tmp_path, name):
    path = tmp_path / f"{name}.json"
    text = json.dumps(QUOTED_SPEC) if name == "quoted" else bundled_text(name)
    path.write_text(text, encoding="utf-8")
    return path


def _simulate(tmp_path, name, capsys):
    out = tmp_path / f"{name}.csv"
    argv = ["simulate", str(_scenario_path(tmp_path, name)),
            "--replications", "50", "--seed", "7", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    return out.read_bytes()


# ---------------------------------------------------------------------------
# replication-report bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REPLICATION_SHA256))
def test_replication_bytes_match_golden_digest(name, tmp_path, capsys):
    data = _simulate(tmp_path, name, capsys)
    assert hashlib.sha256(data).hexdigest() == REPLICATION_SHA256[name]
    text = data.decode("utf-8")
    assert replay_text(text) == text


def test_replication_body_quotes_covariate_names(tmp_path, capsys):
    text = _simulate(tmp_path, "quoted", capsys).decode("utf-8")
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


@pytest.fixture(scope="module")
def figure_text():
    return render_figure_csv(build_figure(1, SMALL))


@pytest.fixture(scope="module")
def report_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "null_spec.json"
    path.write_text(bundled_text("null_spec"), encoding="utf-8")
    out = path.with_suffix(".csv")
    assert main(["simulate", str(path), "--replications", "5", "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _drop(text, key):
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith(f"# {key}:")
    )


def _set(text, key, value):
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.startswith(f"# {key}:")]
    assert len(hits) == 1
    lines[hits[0]] = f"# {key}: {value}\n"
    return "".join(lines)


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
        replay_text(_set(figure_text, key, value))


@pytest.mark.parametrize("key,value", [
    ("replications", "1.5"),
    ("alpha", "abc"),
    ("seed", "x"),
    ("seed", "-1"),
    ("continuity_correction", "yes"),
])
def test_replay_names_a_malformed_report_line(key, value, report_text):
    with pytest.raises(ScenarioError, match=f"line '{key}' is malformed"):
        replay_text(_set(report_text, key, value))


@pytest.mark.parametrize("fixture", ["figure_text", "report_text"])
def test_replay_refuses_an_unknown_layout(fixture, request):
    text = request.getfixturevalue(fixture)
    with pytest.raises(ScenarioError, match="'riskcounts_csv' names layout '2'"):
        replay_text(_set(text, "riskcounts_csv", "2"))


def test_replay_refuses_out_of_domain_values(figure_text, report_text):
    for text in (
        _set(figure_text, "figure_id", "7"),
        _set(figure_text, "eps", "-1.0"),
        _set(report_text, "alpha", "2.0"),
        _set(report_text, "replications", "0"),
    ):
        with pytest.raises(ScenarioError, match="metadata does not replay"):
            replay_text(text)


@pytest.mark.parametrize("fixture", ["figure_text", "report_text"])
def test_replay_refuses_a_scenario_line_nested_too_deeply(fixture, request):
    text = _set(request.getfixturevalue(fixture), "scenario", "[" * 100_000)
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
    text = _set(report_text, "replications", str(MAX_REPLICATIONS + 1))
    with pytest.raises(ScenarioError, match=f"does not replay: replications must be <= {MAX_REPLICATIONS}"):
        replay_text(text)


def test_replay_refuses_a_scenario_of_the_wrong_kind(figure_text, report_text):
    causal = report_text.split("# scenario: ")[1].split("\n")[0]
    with pytest.raises(ScenarioError, match="causal_spec"):
        replay_text(_set(figure_text, "scenario", causal))
    fixed = figure_text.split("# scenario: ")[1].split("\n")[0]
    with pytest.raises(ScenarioError, match="must carry a causal_spec"):
        replay_text(_set(report_text, "scenario", fixed))


# ---------------------------------------------------------------------------
# figure kind refusals: one check, in build_figure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("figure_id", [1, 2, 3, 4])
def test_figure_refuses_a_causal_spec(figure_id, tmp_path, capsys):
    out = tmp_path / "f.csv"
    argv = ["figure", str(_scenario_path(tmp_path, "null_spec")),
            "--id", str(figure_id), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: figures need a risk scenario, not a causal_spec\n"
    assert not out.exists()


@pytest.mark.parametrize("figure_id", [1, 3])
def test_fixed_figure_refuses_an_uncertain_scenario(figure_id, tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"schema_version": 1, "uncertain_scenario": {
        "n_exposed": 1000, "n_unexposed": 1500,
        "prior_exposed": {"alpha": 40.0, "beta": 3960.0},
        "prior_unexposed": {"alpha": 16.0, "beta": 3984.0},
    }}), encoding="utf-8")
    out = tmp_path / "f.csv"
    assert main(["figure", str(path), "--id", str(figure_id), "--out", str(out)]) == 2
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
