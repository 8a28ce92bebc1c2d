"""Scenario files that are malformed or extreme end every command that reads
one in exit 0, or in exit 2 with one ``error:`` line and no traceback.

The property mutates small documents: every field is replaced by null, a
bool, an int, a float, a string, a list or an object, or deleted.  Arms hold
at most 1e4 people and integers stop at 1e4, so any file the commands accept
stays cheap to run; a file may ask for any number of replications, and
``simulate`` runs them all.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinned import DELETE, all_paths, mutated
from riskcounts.cli import main
from riskcounts.comparison import MAX_POPULATION, ExposureScenario, UncertainScenario, summarize
from riskcounts.distributions import BetaParams, DomainError, beta_binomial_distribution

EXPOSURE = {
    "schema_version": 1,
    "exposure_scenario": {
        "n_exposed": 1000, "n_unexposed": 800, "p_exposed": 0.01, "p_unexposed": 0.005,
    },
    "coverage": 0.99,
    "eps": 1e-10,
}

UNCERTAIN = {
    "schema_version": 1,
    "uncertain_scenario": {
        "n_exposed": 500,
        "n_unexposed": 400,
        "prior_exposed": {"alpha": 2.0, "beta": 200.0},
        "prior_unexposed": {"alpha": 1.0, "beta": 150.0},
    },
    "coverage": 0.99,
}

CAUSAL = {
    "schema_version": 1,
    "causal_spec": {
        "n_per_group": 50,
        "true_cause": "latent-factor",
        "baseline_p": 0.05,
        "effect_p": 0.1,
        "covariate_rules": [{"name": "snack", "intercept": 1.0, "slope": 1.0, "noise_sd": 0.5}],
        "proxy_rule": {"accuracy": 0.8},
        "latent_group_correlation": 0.5,
    },
    "replications": 2,
    "seed": 3,
    "alpha": 0.05,
}

DOCUMENTS = (EXPOSURE, UNCERTAIN, CAUSAL)


def _commands(path, out):
    return (
        ["summarize", path],
        ["figure", path, "--id", "1", "--out", out],
        ["simulate", path],
        ["calibrate", path, "2.0"],
    )


def _run(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(argv):
    """Exit 0 with nothing on stderr, or exit 2 with one ``error:`` line;
    returns that line (None on success)."""
    code, out, err = _run(argv)
    if code == 0:
        assert err == "", err
        return None
    assert code == 2, (argv, code, err)
    assert out == "" or argv[0] == "calibrate", out  # calibrate prints a title first
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err.rstrip("\n")


ALL_PATHS = all_paths(DOCUMENTS)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10_000) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["name", "alpha", "beta", "accuracy", "intercept", "slope"]),
        inner,
        max_size=3,
    ),
    max_leaves=4,
)
_replacements = st.one_of(
    st.just(DELETE),
    st.none(),
    st.booleans(),
    st.integers(-2, 10_000),
    st.floats(),
    st.text(max_size=6) | st.sampled_from(["none", "exposure-label"]),
    st.lists(_json_values, max_size=2),
    st.dictionaries(st.text(max_size=3), _json_values, max_size=2)
    | st.sampled_from([{"alpha": 1.0, "beta": 1e300}, {"accuracy": 0.5}]),
)


@given(target=st.sampled_from(ALL_PATHS), value=_replacements)
@settings(max_examples=60, deadline=None)
def test_mutated_scenario_files_end_in_exit_0_or_2(tmp_path_factory, target, value):
    i, path = target
    folder = tmp_path_factory.mktemp("mutated")
    scenario = folder / "scenario.json"
    scenario.write_text(json.dumps(mutated(DOCUMENTS[i], path, value)), encoding="utf-8")
    for argv in _commands(str(scenario), str(folder / "out.csv")):
        _assert_clean_exit(argv)


# ---------------------------------------------------------------------------
# inputs that used to end in a traceback, or were read silently
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rules", [5, None, {}, "", True, 2.5])
def test_covariate_rules_that_are_not_a_list(tmp_path, rules):
    doc = copy.deepcopy(CAUSAL)
    doc["causal_spec"]["covariate_rules"] = rules
    scenario = tmp_path / "spec.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert _assert_clean_exit(["simulate", str(scenario)]) == (
        "error: field 'covariate_rules' in causal_spec must be a list"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b"[" * 200_000, "nests JSON too deeply to parse"),
        (b'{"schema_version": ' + b"7" * 5000 + b"}", "is not valid JSON: Exceeds the limit"),
    ],
    ids=["not-utf8", "deep-nesting", "integer-past-digit-limit"],
)
def test_unreadable_files_name_their_path(tmp_path, text, message):
    scenario = tmp_path / "bad.json"
    scenario.write_bytes(text)
    for argv in _commands(str(scenario), str(tmp_path / "out.csv")):
        line = _assert_clean_exit(argv)
        assert str(scenario) in line
        assert message in line


@pytest.mark.parametrize("doc, command", [(EXPOSURE, "figure"), (CAUSAL, "simulate")])
@pytest.mark.parametrize("target", ["missing/out.csv", "."], ids=["no-directory", "a-directory"])
def test_a_failed_write_names_its_target_the_same_on_every_run(tmp_path, doc, command, target):
    # the temporary file has a random name; the message names the target
    scenario = tmp_path / "in.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = str(tmp_path / target)
    argv = [command, str(scenario), "--out", out] + (["--id", "1"] if command == "figure" else [])
    lines = {_assert_clean_exit(argv) for _ in range(2)}
    assert len(lines) == 1
    (line,) = lines
    assert line.endswith(f": {out!r}") and ".tmp" not in line
    # the temporary file is removed, also when made beside a directory target
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]
    assert not list(tmp_path.parent.glob("*.tmp"))


def test_an_integer_beyond_the_float_range_is_refused(tmp_path):
    doc = copy.deepcopy(EXPOSURE)
    doc["exposure_scenario"]["p_exposed"] = 10**400
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert _assert_clean_exit(["summarize", str(scenario)]) == (
        "error: field 'p_exposed' in exposure_scenario is out of range"
    )


def test_a_prior_whose_moments_overflow_is_refused(tmp_path):
    doc = copy.deepcopy(UNCERTAIN)
    doc["uncertain_scenario"]["prior_exposed"] = {"alpha": 1e300, "beta": 1e300}
    scenario = tmp_path / "wide.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    expected = (
        "error: the count moments of prior BetaParams(alpha=1e+300, beta=1e+300) "
        "overflow a float"
    )
    assert _assert_clean_exit(["summarize", str(scenario)]) == expected
    assert _assert_clean_exit(["figure", str(scenario), "--id", "2", "--out",
                               str(tmp_path / "f.csv")]) == expected


@pytest.mark.parametrize("alpha, beta", [(1e300, 1e300), (1e300, 1.0), (1e100, 1e100)])
def test_beta_binomial_refuses_overflowing_moments(alpha, beta):
    prior = BetaParams(alpha, beta)
    with pytest.raises(DomainError, match="moments of prior BetaParams"):
        beta_binomial_distribution(4_000_000_000, prior)
    s = UncertainScenario(4_000_000_000, 10, prior, BetaParams(1.0, 1.0))
    with pytest.raises(DomainError, match="overflow"):
        summarize(s)


@pytest.mark.parametrize("n", [0, -1, MAX_POPULATION + 1, 2.5, True])
def test_both_scenario_kinds_refuse_a_population_alike(n):
    messages = []
    for build in (
        lambda: ExposureScenario(n, 10, 0.1, 0.1),
        lambda: UncertainScenario(n, 10, BetaParams(1.0, 1.0), BetaParams(1.0, 1.0)),
    ):
        with pytest.raises(DomainError) as exc:
            build()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "n_exposed" in messages[0]


@pytest.mark.parametrize(
    "doc, command, extra",
    [(EXPOSURE, "summarize", []), (UNCERTAIN, "summarize", []), (CAUSAL, "simulate", []),
     (EXPOSURE, "calibrate", ["2.0"])],
)
def test_the_unmutated_documents_run(tmp_path, doc, command, extra):
    scenario = tmp_path / "ok.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert _run([command, str(scenario), *extra])[0] == 0
