"""The self-describing CSV files: figure tables and replication reports.

Four figure tables, plus the replication report written by ``simulate``:

1. per-arm outcome counts under fixed per-person risks
2. per-arm outcome counts with risk uncertainty folded in
3. combined count of a population split into the two arms, next to the
   counterfactual where everybody carries the low risk
4. the same pair with risk uncertainty folded in

Each file starts with ``#``-prefixed metadata lines that record the layout
version, the tool version, the exact scenario and every setting the body
was computed from, so ``replay_text`` regenerates the file byte-for-byte
from its own header.  The body is RFC-4180 CSV with LF line endings.
Figure rows cover the union of the column supports; a cell is empty where
that column's distribution was not evaluated.  Mass cells print with
``repr`` so they round-trip exactly.  Figure bodies are rendered in fixed
blocks of rows from whole-column string operations; no figure field ever
needs quoting (counts, ``repr`` floats and empty cells), so the bytes are
those ``csv.writer`` would produce.  Replication rows, whose variant names
carry covariate names, go through ``csv.writer`` itself.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .cohort import CausalSpec, ReplicationReport, check_seed, replication_study
from .comparison import ExposureScenario, ScenarioAnalysis, UncertainScenario
from .distributions import DEFAULT_EPS, CountDistribution, DomainError
from .predictive import calibrated_scenario
from .scenarios import ScenarioError, compact_json, parse_scenario, scenario_document

__all__ = [
    "FIGURE_IDS",
    "FigureTable",
    "build_figure",
    "calibrated_figure",
    "render_figure_csv",
    "render_replication_csv",
    "read_metadata",
    "replay_text",
    "replay_file",
    "write_text_atomic",
]

FIGURE_IDS = (1, 2, 3, 4)

_LAYOUT_VERSION = 1

_ARM_COLUMNS = ("mass_exposed", "mass_unexposed")
_SPLIT_COLUMNS = ("mass_total_split", "mass_all_low")

#: Rows rendered per block: large enough that per-block overhead vanishes,
#: small enough that a block's temporary strings stay a few megabytes.
_BLOCK_ROWS = 1 << 15


@dataclass(frozen=True)
class FigureTable:
    """One figure's worth of plot-ready data.

    ``metadata`` is an ordered tuple of (key, value) pairs, rendered as
    ``# key: value`` header lines.  ``columns`` aligns with
    ``column_names``; rows span the union of the column supports.
    """

    figure_id: int
    metadata: tuple[tuple[str, str], ...]
    column_names: tuple[str, ...]
    columns: tuple[CountDistribution, ...]

    def count_range(self) -> tuple[int, int]:
        lo = min(d.support_lo for d in self.columns)
        hi = max(d.support_hi for d in self.columns)
        return lo, hi


def _header(kind: str, *lines: tuple[str, str]) -> tuple[tuple[str, str], ...]:
    """The metadata every file starts with, then ``lines``."""
    return (
        ("riskcounts_csv", str(_LAYOUT_VERSION)),
        ("kind", kind),
        ("tool_version", __version__),
        *lines,
    )


def _header_text(metadata: tuple[tuple[str, str], ...]) -> str:
    return "".join(f"# {key}: {value}\n" for key, value in metadata)


def _figure_head(figure_id: int, eps: float, scenario: str) -> tuple[tuple[str, str], ...]:
    """The fixed opening lines of a figure header, ``scenario`` being the
    compact JSON echo.  Any extra lines follow, then two lines per column."""
    return _header(
        "figure", ("figure_id", str(figure_id)), ("eps", repr(eps)), ("scenario", scenario)
    )


def build_figure(
    figure_id: int,
    payload: ExposureScenario | UncertainScenario,
    eps: float = DEFAULT_EPS,
    extra_metadata: tuple[tuple[str, str], ...] = (),
) -> FigureTable:
    """Assemble the distributions and metadata for one figure id.

    Figures 1 and 3 take fixed-risk scenarios; 2 and 4 take scenarios with
    beta risk priors.  ``extra_metadata`` lines are echoed into the header
    after the scenario line (``calibrated_figure`` uses this to note how a
    prior was calibrated).
    """
    if figure_id not in FIGURE_IDS:
        raise DomainError(f"figure_id must be one of {FIGURE_IDS}, got {figure_id!r}")
    wants_fixed = figure_id in (1, 3)
    if isinstance(payload, CausalSpec):
        raise DomainError("figures need a risk scenario, not a causal_spec")
    if wants_fixed and isinstance(payload, UncertainScenario):
        raise DomainError(
            f"figure {figure_id} shows fixed-risk counts; this file holds an "
            "uncertain_scenario (use figure 2 or 4)"
        )
    if not isinstance(payload, ExposureScenario if wants_fixed else UncertainScenario):
        law = "fixed per-person risks" if wants_fixed else "beta risk priors"
        raise DomainError(
            f"figure {figure_id} is built from {law}; got {type(payload).__name__}"
        )

    analysis = ScenarioAnalysis(payload, eps)
    if figure_id in (1, 2):
        names = _ARM_COLUMNS
        dists = (analysis.arm_e, analysis.arm_u)
    else:
        names = _SPLIT_COLUMNS
        dists = (analysis.split, analysis.all_low)

    scenario = compact_json(scenario_document(payload))
    meta = [*_figure_head(figure_id, eps, scenario), *extra_metadata]
    for name, dist in zip(names, dists):
        meta.append((f"support_{name}", f"[{dist.support_lo}, {dist.support_hi}]"))
        meta.append((f"truncated_{name}", repr(dist.truncated_mass)))
    return FigureTable(
        figure_id=figure_id,
        metadata=tuple(meta),
        column_names=names,
        columns=dists,
    )


def calibrated_figure(
    figure_id: int,
    scenario: ExposureScenario,
    target_ratio: float,
    coverage: float,
    eps: float = DEFAULT_EPS,
) -> FigureTable:
    """Figure 2 or 4 from beta priors fitted to a fixed-risk scenario.

    The header echoes the fitted priors as the scenario, then the source
    scenario, the target ratio and the coverage the fit used.
    """
    source = compact_json(scenario_document(scenario))
    payload = calibrated_scenario(scenario, target_ratio, coverage, eps)
    return build_figure(figure_id, payload, eps, (
        ("calibrated_from", source),
        ("calibrate_ratio", repr(target_ratio)),
        ("calibrate_coverage", repr(coverage)),
    ))


def render_figure_csv(table: FigureTable) -> str:
    """Render a table to the exact text written to disk."""
    lo, hi = table.count_range()
    parts = [_header_text(table.metadata)]
    parts.append(",".join(("count",) + table.column_names) + "\n")
    for start in range(lo, hi + 1, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, hi + 1)
        cells = [map(str, range(start, stop))]
        cells.extend(_column_cells(d, start, stop) for d in table.columns)
        parts.append("\n".join(map(",".join, zip(*cells))))
        parts.append("\n")
    return "".join(parts)


def _column_cells(dist: CountDistribution, start: int, stop: int) -> list[str]:
    """One column's cells for the rows ``start..stop-1``: ``repr`` of the
    stored mass inside the column's support, ``""`` outside it."""
    a = max(start, dist.support_lo)
    b = min(stop, dist.support_hi + 1)
    if a >= b:
        return [""] * (stop - start)
    masses = dist.masses[a - dist.support_lo : b - dist.support_lo].tolist()
    return [""] * (a - start) + list(map(repr, masses)) + [""] * (stop - b)


_METADATA_END = re.compile(r"\n(?!#)")


def read_metadata(text: str) -> dict[str, str]:
    """Parse the leading ``# key: value`` block of a rendered CSV.

    Only the text up to the first line-feed not followed by ``#`` is split
    into lines; the block cannot extend past it.
    """
    meta: dict[str, str] = {}
    end = _METADATA_END.search(text)
    head = text if end is None else text[: end.start()]
    for line in head.splitlines():
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        key, sep, value = body.partition(":")
        if sep:
            meta[key.strip()] = value.strip()
    return meta


def render_replication_csv(
    spec: CausalSpec,
    report: ReplicationReport,
    seed: int,
    continuity: bool,
) -> str:
    """Render a replication study to the exact text written to disk."""
    buf = io.StringIO()
    buf.write(_header_text(_header(
        "replication-report",
        ("scenario", compact_json(scenario_document(spec))),
        ("replications", str(report.replications)),
        ("alpha", repr(report.alpha)),
        ("seed", str(seed)),
        ("continuity_correction", str(continuity).lower()),
    )))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("variant", "rejection_rate", "mean_p"))
    for row in report.rows:
        writer.writerow((row.variant, repr(row.rejection_rate), repr(row.mean_p_value)))
    return buf.getvalue()


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"must be true or false, got {text!r}")
    return text == "true"


def _line(meta: dict[str, str], key: str, convert=str):
    """The value of one header line, converted; a missing line or a value
    ``convert`` refuses is a ``ScenarioError`` that names the line."""
    if key not in meta:
        raise ScenarioError(f"metadata block is missing the {key!r} line")
    try:
        return convert(meta[key])
    except ValueError as exc:
        raise ScenarioError(f"metadata line {key!r} is malformed: {exc}") from None


def replay_text(text: str) -> str:
    """Regenerate a CSV's full text from its own metadata header.

    The scenario echo in the header is parsed back through the ordinary
    scenario-file path and the computation is re-run in-process.  The
    result is byte-identical to the original file; this is the executable
    form of the "metadata echo is lossless" guarantee, and the round trip
    makes a good integrity check for archived tables.  A header this build
    cannot replay (unknown layout, another release's ``tool_version``, a
    missing or malformed line, values outside their domain) raises
    ``ScenarioError``.
    """
    meta = read_metadata(text)
    kind = _line(meta, "kind")
    doc = _line(meta, "scenario", json.loads)
    layout = _line(meta, "riskcounts_csv")
    if layout != str(_LAYOUT_VERSION):
        raise ScenarioError(
            f"metadata line 'riskcounts_csv' names layout {layout!r}; "
            f"this build replays layout {_LAYOUT_VERSION}"
        )
    version = _line(meta, "tool_version")
    if version != __version__:
        raise ScenarioError(
            f"metadata line 'tool_version' names {version!r}; this build is "
            f"{__version__!r} and replays only its own files"
        )
    payload = parse_scenario(doc, source="<metadata>").payload
    try:
        if kind == "figure":
            figure_id = _line(meta, "figure_id", int)
            eps = _line(meta, "eps", float)
            # Extra lines sit between the fixed head and the column lines.
            items = tuple(meta.items())
            head = _figure_head(figure_id, eps, meta["scenario"])
            extra = items[len(head) : len(items) - 2 * len(_ARM_COLUMNS)]
            return render_figure_csv(build_figure(figure_id, payload, eps, extra))
        if kind == "replication-report":
            if not isinstance(payload, CausalSpec):
                raise ScenarioError("replication-report metadata must carry a causal_spec")
            replications = _line(meta, "replications", int)
            alpha = _line(meta, "alpha", float)
            seed = _line(meta, "seed", lambda text: check_seed(int(text), ""))
            continuity = _line(meta, "continuity_correction", _flag)
            report = replication_study(
                payload, replications, alpha=alpha, seed=seed,
                continuity_correction=continuity,
            )
            return render_replication_csv(payload, report, seed, continuity)
    except DomainError as exc:
        raise ScenarioError(f"metadata does not replay: {exc}") from None
    raise ScenarioError(f"unknown CSV kind {kind!r} in metadata")


def replay_file(path: str | Path) -> str:
    return replay_text(Path(path).read_text(encoding="utf-8"))


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` so the file appears complete or not at all.

    Goes through a temporary file in the destination directory followed by
    ``os.replace``; a crash mid-write never leaves a truncated file at the
    final path.  Bytes are UTF-8 with LF endings on every platform.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(text.encode("utf-8"))
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
