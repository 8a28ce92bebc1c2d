"""Command-line flags and ``pvalue`` arguments that are malformed or extreme
end every subcommand in exit 0, or in exit 2 with one ``error:`` line and no
traceback.

The property draws each flag of each subcommand from valid values and from
NaN, both infinities, negatives, zero, huge numbers, non-numbers and the empty
string.  Scenario files are small (arms of at most 1e4 people), and valid
replication counts stop at 20, so every accepted run stays short; counts
past ``MAX_REPLICATIONS`` are refused by their own test.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcounts.cli import main

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
