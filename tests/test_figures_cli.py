"""Figure tables, CSV layout, atomic writes, and the command-line surface."""

import csv
import io
import json
import os
import re
import warnings

import pytest

from pinned import SMALL, SMALL_UNCERTAIN, scenario_path
from riskcounts import DomainError, build_figure, render_figure_csv, write_text_atomic
from riskcounts.cli import main, replay_file, replay_text
from riskcounts.figures import read_metadata


def parse_csv(text):
    meta = read_metadata(text)
    rows = [r for r in csv.reader(io.StringIO(text)) if not r[0].startswith("#")]
    return meta, rows[0], rows[1:]


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------


def test_figure_ids_pick_their_columns():
    assert build_figure(1, SMALL).column_names == ("mass_exposed", "mass_unexposed")
    assert build_figure(3, SMALL).column_names == ("mass_total_split", "mass_all_low")
    assert build_figure(2, SMALL_UNCERTAIN).column_names == (
        "mass_exposed", "mass_unexposed",
    )
    assert build_figure(4, SMALL_UNCERTAIN).column_names == (
        "mass_total_split", "mass_all_low",
    )


def test_figure_payload_mismatch_raises():
    with pytest.raises(DomainError):
        build_figure(2, SMALL)
    with pytest.raises(DomainError):
        build_figure(1, SMALL_UNCERTAIN)
    with pytest.raises(DomainError):
        build_figure(5, SMALL)


def test_csv_body_is_rfc4180_with_union_support():
    table = build_figure(1, SMALL)
    meta, header, body = parse_csv(render_figure_csv(table))
    assert header == ["count", "mass_exposed", "mass_unexposed"]
    counts = [int(r[0]) for r in body]
    assert counts == list(range(counts[0], counts[-1] + 1))

    supports = {}
    for name in ("mass_exposed", "mass_unexposed"):
        lo, hi = json.loads(meta[f"support_{name}"])
        supports[name] = (lo, hi)
    assert counts[0] == min(s[0] for s in supports.values())
    assert counts[-1] == max(s[1] for s in supports.values())

    for row in body:
        count = int(row[0])
        for cell, name in zip(row[1:], header[1:]):
            lo, hi = supports[name]
            if lo <= count <= hi:
                assert float(cell) >= 0.0
            else:
                assert cell == ""


def test_column_sums_stay_at_or_below_one():
    for fig, payload in [(1, SMALL), (3, SMALL), (2, SMALL_UNCERTAIN)]:
        table = build_figure(fig, payload)
        _, header, body = parse_csv(render_figure_csv(table))
        for col in range(1, len(header)):
            total = sum(float(r[col]) for r in body if r[col])
            assert total <= 1.0 + 1e-9
            assert total >= 0.99


def test_metadata_declares_truncation_per_column():
    table = build_figure(3, SMALL)
    meta = dict(table.metadata)
    assert float(meta["truncated_mass_total_split"]) <= 1e-12 * 2
    assert meta["figure_id"] == "3"
    assert meta["kind"] == "figure"


def test_mass_cells_round_trip_through_repr():
    table = build_figure(1, SMALL)
    _, header, body = parse_csv(render_figure_csv(table))
    dist = table.columns[0]
    for row in body:
        if row[1]:
            k = int(row[0])
            assert float(row[1]) == dist.pmf(k)


# ---------------------------------------------------------------------------
# replay: the metadata block is a complete recipe
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("figure_id,payload", [(1, SMALL), (3, SMALL),
                                               (2, SMALL_UNCERTAIN), (4, SMALL_UNCERTAIN)])
def test_figure_replay_is_byte_identical(figure_id, payload):
    text = render_figure_csv(build_figure(figure_id, payload))
    assert replay_text(text) == text


def test_replay_rejects_missing_metadata():
    with pytest.raises(Exception, match="scenario"):
        replay_text("# kind: figure\ncount\n")


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------


def test_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.csv"
    write_text_atomic(target, "a,b\n1,2\n")
    assert target.read_text(encoding="utf-8") == "a,b\n1,2\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_failed_write_leaves_no_partial_target(tmp_path, monkeypatch):
    target = tmp_path / "out.csv"

    def boom(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        write_text_atomic(target, "data\n")
    monkeypatch.undo()
    assert not target.exists()
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------


def test_summarize_la_rr2_prints_the_headline_numbers(tmp_path, capsys):
    code = main(["summarize", scenario_path(tmp_path, "la_rr2")])
    out = capsys.readouterr().out
    assert code == 0
    for token in ("0.67", "0.82", "1.8", "0.28", "0.59", "0.13"):
        assert token in out


def test_summarize_la_rr106_prints_modes_and_comparison(tmp_path, capsys):
    code = main(["summarize", scenario_path(tmp_path, "la_rr106")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.78" in out
    assert "mode 400" in out
    assert "mode 378" in out


def test_summarize_degenerate_risks_put_all_mass_on_equal(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "exposure_scenario": {
            "n_exposed": 1000, "n_unexposed": 1000,
            "p_exposed": 0.0, "p_unexposed": 0.0,
        },
    }), encoding="utf-8")
    code = main(["summarize", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "P(arms count exactly equal):  1.00000" in out


def test_summarize_rejects_causal_specs(tmp_path, capsys):
    code = main(["summarize", scenario_path(tmp_path, "null_spec")])
    err = capsys.readouterr().err
    assert code == 2
    assert "causal_spec" in err


def test_malformed_file_names_the_field_and_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "exposure_scenario": {
            "n_exposed": -5, "n_unexposed": 1000,
            "p_exposed": 0.1, "p_unexposed": 0.1,
        },
    }), encoding="utf-8")
    code = main(["summarize", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "n_exposed" in err


def test_missing_file_exits_2(capsys):
    code = main(["summarize", "/no/such/file.json"])
    assert code == 2
    assert "file.json" in capsys.readouterr().err


def test_pvalue_command_prints_result_and_caution(capsys):
    code = main(["pvalue", "15", "1000", "5", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.043" in out
    assert "3.00000" in out
    assert "caution" in out
    assert "cause" in out


def test_pvalue_without_cases_in_arm_b_prints_no_relative_risk(capsys):
    # relative_risk_estimate refuses a zero-case denominator arm; the
    # command reports the test without that line
    assert main(["pvalue", "5", "100", "0", "100"]) == 0
    out = capsys.readouterr().out
    assert "p-value:" in out and "caution" in out
    assert "relative-risk estimate" not in out


def test_pvalue_no_continuity_flag(capsys):
    main(["pvalue", "15", "1000", "5", "1000", "--no-continuity"])
    out_nc = capsys.readouterr().out
    main(["pvalue", "15", "1000", "5", "1000"])
    out_cc = capsys.readouterr().out
    p_nc = float(re.search(r"p-value:\s+([0-9.e-]+)", out_nc).group(1))
    p_cc = float(re.search(r"p-value:\s+([0-9.e-]+)", out_cc).group(1))
    assert p_nc < p_cc


def test_figure_command_writes_deterministic_files(tmp_path, capsys):
    scenario = scenario_path(tmp_path, "la_rr106")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["figure", scenario, "--id", "1", "--out", str(out_a)]) == 0
    assert main(["figure", scenario, "--id", "1", "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert replay_file(out_a) == out_a.read_text(encoding="utf-8")


def test_figure_argmax_rows_match_the_reported_modes(tmp_path, capsys):
    scenario = scenario_path(tmp_path, "la_rr106")
    out = tmp_path / "fig1.csv"
    main(["figure", scenario, "--id", "1", "--out", str(out)])
    capsys.readouterr()
    _, header, body = parse_csv(out.read_text(encoding="utf-8"))
    argmax = {}
    for col in (1, 2):
        best = max((r for r in body if r[col]), key=lambda r: float(r[col]))
        argmax[header[col]] = int(best[0])
    assert argmax["mass_exposed"] == 400
    assert argmax["mass_unexposed"] == 378


def test_figure_two_requires_priors_or_calibration(tmp_path, capsys):
    scenario = scenario_path(tmp_path, "la_rr106")
    code = main(["figure", scenario, "--id", "2", "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "--calibrate-ratio" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("scenario, figure_id", [("la_rr2", "1"), ("la_rr106_c1e3", "2")],
                         ids=["fixed-risk-figure-1", "uncertain-figure-2"])
def test_calibrate_ratio_is_refused_where_it_does_not_apply(tmp_path, capsys, scenario, figure_id):
    out = tmp_path / "x.csv"
    code = main(["figure", scenario_path(tmp_path, scenario), "--id", figure_id,
                 "--calibrate-ratio", "3", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr() == ("", "error: --calibrate-ratio applies only to figures 2 "
                                       "and 4 of an exposure_scenario file\n")
    assert not out.exists()


def test_figure_two_with_calibration_replays(tmp_path, capsys):
    scenario = scenario_path(tmp_path, "la_rr106")
    out = tmp_path / "fig2.csv"
    code = main([
        "figure", scenario, "--id", "2", "--out", str(out),
        "--calibrate-ratio", "2.0",
    ])
    capsys.readouterr()
    assert code == 0
    text = out.read_text(encoding="utf-8")
    meta = read_metadata(text)
    assert meta["calibrate_ratio"] == "2.0"
    assert "uncertain_scenario" in meta["scenario"]
    assert replay_text(text) == text


def test_simulate_writes_report_and_replays(tmp_path, capsys):
    scenario = scenario_path(tmp_path, "proxy_spec")
    out = tmp_path / "sim.csv"
    code = main([
        "simulate", scenario, "--replications", "25", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    text = out.read_text(encoding="utf-8")
    meta, header, body = parse_csv(text)
    assert header == ["variant", "rejection_rate", "mean_p"]
    assert [r[0] for r in body] == ["true_exposure", "proxy_exposure"]
    assert meta["replications"] == "25"
    assert replay_text(text) == text


def test_simulate_stdout_matches_file_output(tmp_path, capsys):
    scenario = scenario_path(tmp_path, "null_spec")
    code = main(["simulate", scenario, "--replications", "10"])
    streamed = capsys.readouterr().out
    out = tmp_path / "sim.csv"
    main(["simulate", scenario, "--replications", "10", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert streamed == out.read_text(encoding="utf-8")


def test_simulate_rejects_zero_replications(tmp_path, capsys):
    scenario = scenario_path(tmp_path, "null_spec")
    code = main(["simulate", scenario, "--replications", "0"])
    assert code == 2
    assert "replications" in capsys.readouterr().err


def test_simulate_seed_changes_output(tmp_path, capsys):
    scenario = scenario_path(tmp_path, "banana_spec")
    main(["simulate", scenario, "--replications", "20", "--seed", "1"])
    first = capsys.readouterr().out
    main(["simulate", scenario, "--replications", "20", "--seed", "2"])
    second = capsys.readouterr().out
    assert first != second


def test_calibrate_command_prints_exact_parameters(tmp_path, capsys):
    code = main(["calibrate", scenario_path(tmp_path, "la_rr106"), "2.0"])
    out = capsys.readouterr().out
    assert code == 0
    alphas = re.findall(r"alpha: ([0-9.]+)", out)
    assert len(alphas) == 2
    # repr precision: parsing back must reproduce the float exactly
    assert repr(float(alphas[0])) == alphas[0]
    assert "ratio 2.0" in out


def test_calibrate_rejects_uncertain_scenarios(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "uncertain_scenario": {
            "n_exposed": 100, "n_unexposed": 100,
            "prior_exposed": {"alpha": 1.0, "beta": 9.0},
            "prior_unexposed": {"alpha": 1.0, "beta": 9.0},
        },
    }), encoding="utf-8")
    code = main(["calibrate", str(path), "2.0"])
    assert code == 2
    assert "exposure_scenario" in capsys.readouterr().err


def test_summarize_uncertain_scenario(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "uncertain_scenario": {
            "n_exposed": 1000, "n_unexposed": 1500,
            "prior_exposed": {"alpha": 40.0, "beta": 3960.0},
            "prior_unexposed": {"alpha": 16.0, "beta": 3984.0},
        },
    }), encoding="utf-8")
    code = main(["summarize", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "beta-uncertain" in out
    assert "P(exposed arm counts more)" in out


def test_eps_control_in_file_is_used_and_flag_overrides(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "exposure_scenario": {
            "n_exposed": 1000, "n_unexposed": 1000,
            "p_exposed": 0.01, "p_unexposed": 0.005,
        },
        "eps": 2e-6,  # too loose for a summary: file control must be honored
    }
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["summarize", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "eps" in err
    # explicit flag overrides the file control and succeeds
    code = main(["summarize", str(path), "--eps", "1e-12"])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("command", ["summarize", "figure"])
def test_loose_eps_is_refused_for_uncertain_summaries_as_for_fixed(
    command, tmp_path, capsys
):
    out = tmp_path / "fig.csv"
    errors = []
    for payload, figure_id in ((SMALL, "3"), (SMALL_UNCERTAIN, "4")):
        argv = [command, scenario_path(tmp_path, payload), "--eps", "1e-6"]
        if command == "figure":
            argv += ["--id", figure_id, "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[1].startswith("error: summaries require eps <= 1e-09")
    assert not out.exists()


def test_arm_figures_keep_accepting_loose_eps(tmp_path, capsys):
    assert main(["figure", scenario_path(tmp_path, SMALL_UNCERTAIN), "--id", "2", "--eps", "1e-6",
                 "--out", str(tmp_path / "f2.csv")]) == 0
    assert main(["figure", scenario_path(tmp_path, "la_rr106"), "--id", "1",
                 "--eps", "1e-6", "--out", str(tmp_path / "f1.csv")]) == 0


def test_pyproject_version_is_the_package_version():
    # the version is declared once, in the package, and read from there
    config = pytest.importorskip("setuptools.config.pyprojecttoml")
    import riskcounts

    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with warnings.catch_warnings():  # "[tool.setuptools] ... is still *beta*"
        warnings.simplefilter("ignore")
        project = config.read_configuration(pyproject)["project"]
    assert project["dynamic"] == ["version"]
    version = project["version"]
    assert version == riskcounts.__version__
    csv_text = render_figure_csv(build_figure(1, SMALL))
    assert read_metadata(csv_text)["tool_version"] == version
