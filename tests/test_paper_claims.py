"""README's table of the paper's claims, checked against the commands it
names: each quoted number must be the one its command prints, and every
sentence of the abstract in PAPER.md must have its row."""

import json
import re
from pathlib import Path

import pytest

import riskcounts
from riskcounts.cli import main

ROOT = Path(__file__).resolve().parents[1]

#: README as one line, its line breaks and runs of spaces folded to one space.
README = " ".join((ROOT / "README.md").read_text("utf-8").split())

SCENARIOS = Path(riskcounts.__file__).resolve().parent / "data" / "scenarios"


def run(capsys, command, scenario, *rest):
    """README's spelling of ``riskcounts command scenario rest``, and what
    the command prints."""
    assert main([command, str(SCENARIOS / scenario), *rest]) == 0
    spelled = " ".join(["riskcounts", command, f"src/riskcounts/data/scenarios/{scenario}", *rest])
    return spelled, capsys.readouterr().out


def value(out, label):
    """The first word after ``label:`` at the start of a line of ``out``."""
    return re.search(rf"^\s*{re.escape(label)}:\s+(\S+)", out, re.M).group(1)


def report(out):
    """A replication report's scenario and its (rejection rate, mean p)
    per variant."""
    scenario = json.loads(value(out, "# scenario"))
    rows = out.split("variant,rejection_rate,mean_p\n")[1].splitlines()
    return scenario, {v: (rate, p) for v, rate, p in (row.split(",") for row in rows)}


def relative_risk(capsys):
    command, out = run(capsys, "summarize", "la_rr2.json")
    return command, [
        f"P(no cases in exposed arm) {value(out, 'P(no cases in exposed arm)')}",
        f"per-person relative risk {value(out, 'per-person relative risk')}, "
        f"effective relative risk {value(out, 'effective relative risk')}; "
        f"P(exposed arm counts more) {value(out, 'P(exposed arm counts more)')}, "
        f"P(arms count exactly equal) {value(out, 'P(arms count exactly equal)')}",
    ]


def predictive_width(capsys):
    command, out = run(capsys, "calibrate", "la_rr106.json", "2.0")
    coverage = re.search(r" at (\S+) coverage", out).group(1)
    predictive, plugin = re.search(r"interval widths: predictive (\d+), plug-in (\d+)", out).groups()
    return command, [
        f"exposed arm: a {coverage} predictive interval width of {predictive} "
        f"against the plug-in's {plugin}"
    ]


def banana(capsys):
    command, out = run(capsys, "simulate", "banana_spec.json")
    _, rows = report(out)
    (rate, p), (banana_rate, banana_p) = rows["true_exposure"], rows["covariate_banana_servings"]
    return command, [
        f"rejects at {rate} grouped by the true exposure and {banana_rate} grouped by banana "
        f"servings, with mean p {p} and {banana_p}"
    ]


def proxy(capsys):
    command, out = run(capsys, "simulate", "proxy_spec.json")
    scenario, rows = report(out)
    accuracy = scenario["causal_spec"]["proxy_rule"]["accuracy"]
    return command, [
        f"grouped by the true exposure the test rejects at {rows['true_exposure'][0]}, "
        f"grouped by its {accuracy:.0%}-accurate proxy at {rows['proxy_exposure'][0]}"
    ]


@pytest.mark.parametrize("claim", [relative_risk, predictive_width, banana, proxy],
                         ids=lambda claim: claim.__name__)
def test_readme_quotes_what_the_command_prints(claim, capsys):
    command, quotes = claim(capsys)
    assert f"`{command}`" in README
    for quote in quotes:
        assert quote in README


def test_every_sentence_of_the_abstract_has_a_row():
    abstract = (ROOT / "PAPER.md").read_text("utf-8").split("\n\n")[2]
    sentences = re.split(r"(?<=\.) ", " ".join(abstract.split()))
    assert len(sentences) == 7
    for sentence in sentences:
        assert f'| "{sentence}" |' in README
