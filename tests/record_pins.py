"""Re-record every pinned test artifact once each passes its oracle:

    python tests/record_pins.py

Makes each artifact of ``pinned.ARTIFACTS`` through ``pinned.produce`` and
checks it against ``oracles``: each figure cell within ``MASS_IDENTITY_TOL``
(1e-9) of scipy's pmf (a split column: ``np.convolve`` of the arms' pmfs);
each ``summarize`` mode the argmax of those pmfs and each ``P(...)`` within
half a unit in its last printed digit; each replication report bit for bit
the per-individual engine's.  Prints each artifact's old and new digest and
its largest error in units of its tolerance, then writes ``golden/pins.json``
and the golden files it names only if all passed.
"""

import csv
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # this checkout's package
from oracles import oracle_replication_rows, scipy_laws  # noqa: E402
from pinned import ARTIFACTS, GOLDEN, PINS, pins, produce, scenario_text  # noqa: E402
from riskcounts.distributions import MASS_IDENTITY_TOL  # noqa: E402
from riskcounts.scenarios import parse_scenario  # noqa: E402

#: A summarize line's probability label or arm name, and the number after it.
_LINE = re.compile(r"^ *(P\(.*?\)|exposed|unexposed|split total|all-low): +(?:mode )?([-+.e\d]+)",
                   re.M)


class Result(NamedTuple):
    key: str
    old: str | None  # None for a new artifact
    new: str
    error: float  # in units of the tolerance
    data: bytes


def figure_error(text, laws):
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    counts = np.array([int(row[0]) for row in rows[1:]])
    worst = 0.0
    for j, name in enumerate(rows[0][1:], 1):
        k = counts[[row[j] != "" for row in rows[1:]]]
        got = np.array([float(row[j]) for row in rows[1:] if row[j]])
        pmf = laws[name]
        want = np.where(k < len(pmf), pmf[np.minimum(k, len(pmf) - 1)], 0.0)
        worst = max(worst, float(np.max(np.abs(got - want))) / MASS_IDENTITY_TOL)
    return worst


def _compare(x, y):
    """P(X > Y), P(X = Y) and P(X < Y) for independent pmfs on 0, 1, ..."""
    n = max(len(x), len(y))
    x, y = np.pad(x, (0, n - len(x))), np.pad(y, (0, n - len(y)))
    return float(x[1:] @ np.cumsum(y)[:-1]), float(x @ y), float(y[1:] @ np.cumsum(x)[:-1])


def summarize_error(text, laws):
    e, u, split, low = laws.values()
    want = {"P(no cases in exposed arm)": e[0], "P(no cases in unexposed arm)": u[0],
            "exposed": np.argmax(e), "unexposed": np.argmax(u),
            "split total": np.argmax(split), "all-low": np.argmax(low)}
    want.update(zip(("P(exposed arm counts more)", "P(arms count exactly equal)",
                     "P(unexposed arm counts more)"), _compare(e, u)))
    want.update(zip(("P(split total larger)", "P(exactly equal totals)",
                     "P(all-low total larger)"), _compare(split, low)))
    if "cases avertable" in text:  # only fixed-risk scenarios print the lives saved
        top = int(re.search(r"split total: .*\[\d+, (\d+)\]", text)[1])
        want["P(split total >= its interval top)"] = float(split[top:].sum())
    found = dict(_LINE.findall(text))
    if found.keys() != want.keys():
        return math.inf
    worst = 0.0
    for label, printed in found.items():
        value = Decimal(printed)
        if label.startswith("P("):
            half_unit = float(Decimal(1).scaleb(value.as_tuple().exponent)) / 2
            worst = max(worst, abs(float(value) - want[label]) / half_unit)
        elif int(value) != want[label]:
            return math.inf
    return worst


def replication_error(text):
    meta = dict(line[2:].split(": ", 1) for line in text.splitlines() if line.startswith("# "))
    rows = oracle_replication_rows(
        parse_scenario(json.loads(meta["scenario"])).payload, int(meta["replications"]),
        float(meta["alpha"]), int(meta["seed"]), meta["continuity_correction"] == "true")
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    want = [["variant", "rejection_rate", "mean_p"]] + [
        [r.variant, repr(r.rejection_rate), repr(r.mean_p_value)] for r in rows]
    return 0.0 if list(csv.reader(io.StringIO(body))) == want else math.inf


def artifact_error(key, data) -> float:
    a, text = ARTIFACTS[key], data.decode("utf-8")
    if a.argv[0] == "simulate":
        return replication_error(text)
    laws = scipy_laws(json.loads(scenario_text(a.scenario)))
    return (figure_error if a.argv[0] == "figure" else summarize_error)(text, laws)


def check() -> list[Result]:
    """Every artifact made in a scratch directory and checked against its
    oracle."""
    results = []
    with tempfile.TemporaryDirectory() as scratch:
        for key in ARTIFACTS:
            data = produce(key, tempfile.mkdtemp(dir=scratch))
            results.append(Result(key, pins()["pins"].get(key, {}).get("sha256"),
                                  hashlib.sha256(data).hexdigest(), artifact_error(key, data),
                                  data))
    return results


def dump(doc) -> str:
    """``pins.json``'s text: one line per pin."""
    lines = [f"  {json.dumps(key)}: {json.dumps(pin)}" for key, pin in sorted(doc["pins"].items())]
    return (f'{{"scenarios": {json.dumps(doc["scenarios"])},\n "pins": {{\n'
            + ",\n".join(lines) + "\n}}\n")


def main():
    results = check()
    for r in results:
        print(f"{r.key}: {'unchanged' if r.old == r.new else 'CHANGED'}, largest error "
              f"{r.error:.3g} of its tolerance\n  old {r.old}\n  new {r.new}")
    failed = [r.key for r in results if not r.error <= 1.0]
    if failed:
        sys.exit(f"refused, nothing written: {', '.join(failed)} failed its oracle")
    old = pins()
    new = {r.key: {**old["pins"].get(r.key, {}), "sha256": r.new} for r in results}
    for r in results:
        if "golden" in new[r.key]:
            (GOLDEN / new[r.key]["golden"]).write_bytes(r.data)
    PINS.write_text(dump({"scenarios": old["scenarios"], "pins": new}), encoding="utf-8")


if __name__ == "__main__":
    main()
