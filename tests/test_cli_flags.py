"""Command-line flags and ``pvalue`` arguments that are malformed or extreme
end every subcommand in exit 0, or in exit 2 with one ``error:`` line and no
traceback; and every output control a subcommand declares resolves to its
flag, else the scenario file's control, else the built-in default.

The property draws each flag of each subcommand from valid values and from
NaN, both infinities, negatives, zero, huge numbers, non-numbers and the empty
string.  Scenario files are small (arms of at most 1e4 people), and valid
replication counts stop at 20, so every accepted run stays short; counts
past ``MAX_REPLICATIONS`` are refused by their own test.
"""

import argparse
import contextlib
import inspect
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcounts import cli, scenarios
from riskcounts.classical import two_proportion_test
from riskcounts.cli import main
from riskcounts.cohort import replication_study
from riskcounts.predictive import calibrate_prior, calibrated_scenario, spread_report, spread_reports

EXPOSURE = {"schema_version": 1, "exposure_scenario": {
    "n_exposed": 10_000, "n_unexposed": 8_000, "p_exposed": 0.01, "p_unexposed": 0.005,
}}
UNCERTAIN = {"schema_version": 1, "uncertain_scenario": {
    "n_exposed": 500, "n_unexposed": 400,
    "prior_exposed": {"alpha": 2.0, "beta": 200.0}, "prior_unexposed": {"alpha": 0.5, "beta": 150.0},
}}
CAUSAL = {"schema_version": 1, "causal_spec": {
    "n_per_group": 30, "true_cause": "none", "baseline_p": 0.1, "effect_p": 0.1,
    "proxy_rule": {"accuracy": 0.8},
    "covariate_rules": [{"name": "snack", "intercept": 0.0, "slope": 1.0, "noise_sd": 0.5}],
}}
DOCUMENTS = {"exposure": EXPOSURE, "uncertain": UNCERTAIN, "causal": CAUSAL}

#: Text that is not a valid number of the flag's kind, or is an extreme one.
BAD = ["nan", "NaN", "inf", "-inf", "-1", "-0.0", "0", "1e400", "-1e400", "1e308", "1e-320",
       "abc", "", " ", "0x10", "1_0", "--", "1.5", str(10**30), str(-(10**30))]
floats = st.sampled_from(BAD) | st.floats().map(repr) | st.floats(0, 1).map(repr)
ints = st.sampled_from(BAD) | st.integers(-(10**40), 10**40).map(str) | st.integers(-3, 20).map(str)
counts = st.sampled_from(BAD) | st.integers(-5, 10**6).map(str) | st.integers(-(10**400), 10**400).map(str)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["summarize", "figure", "pvalue", "simulate", "calibrate"]))
    if command == "pvalue":
        argv = [command, *draw(st.lists(counts, min_size=4, max_size=4))]
        argv += draw(_flag("--alpha", floats)) + draw(st.sampled_from([[], ["--no-continuity"]]))
        return None, argv
    doc = draw(st.sampled_from(sorted(DOCUMENTS)))
    argv = [command, "SCENARIO"]
    if command in ("summarize", "figure", "calibrate"):
        argv += draw(_flag("--coverage", floats)) + draw(_flag("--eps", floats))
    if command == "figure":
        argv += draw(_flag("--id", ints | st.sampled_from(["1", "2", "3", "4"])))
        argv += draw(st.sampled_from([["--out", "OUT"], []]))
        argv += draw(_flag("--calibrate-ratio", floats | st.sampled_from(["1.5", "2", "3"])))
    if command == "calibrate":
        argv.append(draw(floats | st.sampled_from(["1.5", "2", "3"])))
    if command == "simulate":
        argv += draw(_flag("--seed", ints)) + draw(_flag("--alpha", floats))
        argv += draw(_flag("--replications", st.sampled_from(BAD) | st.integers(-3, 20).map(str)))
        argv += draw(st.sampled_from([[], ["--out", "OUT"], ["--no-continuity"]]))
    return doc, argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(argv):
    code, out, err = _run(argv)
    assert "Traceback" not in err, err
    if code == 0:
        assert err == "", (argv, err)
        return
    assert code == 2, (argv, code, err)
    lines = err.splitlines()
    assert [i for i, line in enumerate(lines) if "error: " in line] == [len(lines) - 1], (argv, err)
    if not lines[0].startswith("usage:"):  # refused by the program, not by argparse
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)


@given(command_lines())
@settings(max_examples=150, deadline=None)
def test_any_flag_values_end_in_exit_0_or_2(tmp_path_factory, command_line):
    doc, argv = command_line
    folder = tmp_path_factory.mktemp("flags")
    if doc is not None:
        scenario = folder / "scenario.json"
        scenario.write_text(json.dumps(DOCUMENTS[doc]), encoding="utf-8")
        argv = [str(scenario) if a == "SCENARIO" else a for a in argv]
    argv = [str(folder / "out.csv") if a == "OUT" else a for a in argv]
    _assert_clean_exit(argv)


# ---------------------------------------------------------------------------
# inputs that used to end in a traceback, and one refusal with one owner
# ---------------------------------------------------------------------------


def test_a_double_dash_option_value_is_refused_by_argparse(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(EXPOSURE), encoding="utf-8")
    code, out, err = _run(["summarize", str(scenario), "--eps=--"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "riskcounts: error: argument --eps: expected one argument"


@pytest.mark.parametrize("argv, message", [
    (["pvalue", "1", str(2**53 + 1), "1", "10"], f"n_a must be <= 2**53, got {2**53 + 1}"),
    (["pvalue", "0", "10", "0", str(10**400)], f"n_b must be <= 2**53, got {10**400}"),
])
def test_pvalue_refuses_arms_past_exact_float_counts(argv, message):
    assert _run(argv) == (2, "", f"error: {message}\n")
    assert _run(["pvalue", "1", str(2**53), "1", "10"])[0] == 0


@pytest.mark.parametrize("where, value", [("flag", 0), ("flag", -3), ("file", 0)])
def test_simulate_refuses_fewer_than_one_replication_in_the_studys_words(where, value, tmp_path):
    doc = dict(CAUSAL)
    extra = ["--replications", str(value)] if where == "flag" else []
    if where == "file":
        doc["replications"] = value
    scenario = tmp_path / "spec.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert _run(["simulate", str(scenario), *extra]) == (
        2, "", f"error: replications must be >= 1, got {value}\n"
    )


# ---------------------------------------------------------------------------
# control precedence: command line > scenario-file control > built-in default
# ---------------------------------------------------------------------------


def _percent(value):
    return f"{value * 100:g}%"


#: (command, control) -> (flag value, file value, built-in default), the
#: pattern whose every match prints the resolved value, and how it prints.
#: summarize and calibrate print no eps: their flag and file values are
#: refused, and the refusal names the value.  pvalue reads no file.
PRECEDENCE = {
    ("summarize", "coverage"): ((0.95, 0.99, 0.9999), r"mode \d+, (\S+) interval", _percent),
    ("summarize", "eps"): ((1e-7, 1e-8, 1e-12), r"eps <= 1e-09 .*, got (\S+)", repr),
    ("figure", "coverage"): ((0.95, 0.99, 0.9999), r"# calibrate_coverage: (\S+)", repr),
    ("figure", "eps"): ((1e-13, 1e-11, 1e-12), r"# eps: (\S+)", repr),
    ("calibrate", "coverage"): ((0.95, 0.99, 0.9999), r"at (\S+) coverage", _percent),
    ("calibrate", "eps"): ((3e-6, 2e-6, 1e-12), r"eps must lie in .*, got (\S+)", repr),
    ("simulate", "seed"): ((5, 3, 0), r"# seed: (\S+)", repr),
    ("simulate", "alpha"): ((0.1, 0.01, 0.05), r"# alpha: (\S+)", repr),
    ("simulate", "replications"): ((7, 4, 1000), r"# replications: (\S+)", repr),
    ("pvalue", "alpha"): ((0.1, None, 0.05), r"at alpha=(\S+):", repr),
}

#: Each command's input: the scenario document, or pvalue's counts, and the
#: arguments after it.
INPUTS = {
    "summarize": (EXPOSURE, []),
    "figure": (EXPOSURE, ["--id", "2", "--calibrate-ratio", "2", "--out", "OUT"]),
    "calibrate": (EXPOSURE, ["2"]),
    "simulate": (CAUSAL, []),
    "pvalue": (None, ["10", "100", "20", "100"]),
}


def _output(folder, command, control, flag=None, in_file=None):
    """Exit code, stdout, stderr and any figure written, for one run with
    the control given as a flag and in the scenario file (None: not given)."""
    doc, rest = INPUTS[command]
    out = folder / "out.csv"
    out.unlink(missing_ok=True)
    argv = [command, *[str(out) if a == "OUT" else a for a in rest]]
    if doc is not None:
        scenario = folder / "scenario.json"
        scenario.write_text(json.dumps({**doc, control: in_file} if in_file is not None else doc),
                            encoding="utf-8")
        argv.insert(1, str(scenario))
    if flag is not None:
        argv += [f"--{control}", repr(flag)]
    code, stdout, stderr = _run(argv)
    return code, stdout, stderr, out.read_text(encoding="utf-8") if out.exists() else ""


def test_the_cli_declares_exactly_the_scenario_file_controls():
    assert cli._CONTROLS.keys() == scenarios._CONTROLS.keys()
    [commands] = [a for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    declared = {(command, action.dest)
                for command, parser in commands.choices.items()
                for action in parser._actions if action.dest in cli._CONTROLS}
    assert declared == set(PRECEDENCE)


#: The library functions that take each control, with a default, as a
#: keyword of the control's name.
LIBRARY_DEFAULTS = {
    "coverage": (spread_report, spread_reports, calibrate_prior, calibrated_scenario),
    "eps": (spread_report, spread_reports, calibrate_prior, calibrated_scenario),
    "alpha": (replication_study, two_proportion_test),
    "seed": (replication_study,),
}


@pytest.mark.parametrize("control", sorted(LIBRARY_DEFAULTS))
def test_a_controls_cli_default_is_the_librarys(control):
    default = cli._CONTROLS[control][2]
    for function in LIBRARY_DEFAULTS[control]:
        got = inspect.signature(function).parameters[control].default
        assert (got, type(got)) == (default, type(default)), f"{function.__name__}({control}=...)"


#: Runs whose resolved value the output does not print: the default eps is
#: accepted, so nothing names it.
UNPRINTED = {("summarize", "eps", "default"), ("calibrate", "eps", "default")}


@pytest.mark.parametrize("command, control, case", [
    (command, control, case)
    for command, control in sorted(PRECEDENCE)
    for case in ("flag beats file", "file beats default", "default")
    if command != "pvalue" or case != "file beats default"
])
def test_a_control_resolves_to_its_flag_else_the_file_else_the_default(
    command, control, case, tmp_path
):
    (flag, in_file, default), pattern, shown = PRECEDENCE[command, control]
    want = {"flag beats file": flag, "file beats default": in_file, "default": default}[case]
    got = _output(tmp_path, command, control,
                  flag=flag if case == "flag beats file" else None,
                  in_file=in_file if case != "default" else None)
    # the run the resolved value gives as a flag, with nothing in the file
    assert got == _output(tmp_path, command, control, flag=want)
    readings = set(re.findall(pattern, "".join(got[1:])))
    if (command, control, case) in UNPRINTED:
        assert got[0] == 0 and readings == set()
    else:
        assert readings == {shown(want)}, got
