"""Tabular figure data: count distributions laid out as CSV for plotting.

Four standard tables:

1. per-arm outcome counts under fixed per-person risks
2. per-arm outcome counts with risk uncertainty folded in
3. combined count of a population split into the two arms, next to the
   counterfactual where everybody carries the low risk
4. the same pair with risk uncertainty folded in

Each file starts with ``#``-prefixed metadata lines that record the tool
version, the figure id, the numeric tolerance, and the exact scenario the
table was built from, so a table can be regenerated byte-for-byte from its
own header (see ``replay`` in the command-line module).  The body is
RFC-4180 CSV with LF line endings.  Rows cover the union of the column
supports; a cell is empty where that column's distribution was not
evaluated.  Mass cells print with ``repr`` so they round-trip exactly.

The body is rendered in fixed blocks of rows, each joined from whole-column
string operations, which keeps the temporaries bounded.  No field ever
needs CSV quoting (counts, ``repr`` floats and empty cells, at least three
to a row), so the bytes are those ``csv.writer`` would produce.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .comparison import ExposureScenario, ScenarioAnalysis, UncertainScenario
from .distributions import DEFAULT_EPS, CountDistribution, DomainError
from .scenarios import compact_json, scenario_document

__all__ = [
    "FIGURE_IDS",
    "FigureTable",
    "build_figure",
    "render_figure_csv",
    "read_metadata",
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


def build_figure(
    figure_id: int,
    payload: ExposureScenario | UncertainScenario,
    eps: float = DEFAULT_EPS,
    extra_metadata: tuple[tuple[str, str], ...] = (),
) -> FigureTable:
    """Assemble the distributions and metadata for one figure id.

    Figures 1 and 3 take fixed-risk scenarios; 2 and 4 take scenarios with
    beta risk priors.  ``extra_metadata`` lines are echoed into the header
    after the scenario line (the command-line layer uses this to note how
    a prior was calibrated).
    """
    if figure_id not in FIGURE_IDS:
        raise DomainError(f"figure_id must be one of {FIGURE_IDS}, got {figure_id!r}")
    wants_fixed = figure_id in (1, 3)
    if wants_fixed and not isinstance(payload, ExposureScenario):
        raise DomainError(
            f"figure {figure_id} is built from fixed per-person risks; "
            f"got {type(payload).__name__}"
        )
    if not wants_fixed and not isinstance(payload, UncertainScenario):
        raise DomainError(
            f"figure {figure_id} is built from beta risk priors; "
            f"got {type(payload).__name__}"
        )

    analysis = ScenarioAnalysis(payload, eps)
    if figure_id in (1, 2):
        names = _ARM_COLUMNS
        dists = (analysis.arm_e, analysis.arm_u)
    else:
        names = _SPLIT_COLUMNS
        dists = (analysis.split, analysis.all_low)

    meta = [
        ("riskcounts_csv", str(_LAYOUT_VERSION)),
        ("kind", "figure"),
        ("tool_version", __version__),
        ("figure_id", str(figure_id)),
        ("eps", repr(eps)),
        ("scenario", compact_json(scenario_document(payload))),
    ]
    meta.extend(extra_metadata)
    for name, dist in zip(names, dists):
        meta.append((f"support_{name}", f"[{dist.support_lo}, {dist.support_hi}]"))
        meta.append((f"truncated_{name}", repr(dist.truncated_mass)))
    return FigureTable(
        figure_id=figure_id,
        metadata=tuple(meta),
        column_names=names,
        columns=dists,
    )


def render_figure_csv(table: FigureTable) -> str:
    """Render a table to the exact text written to disk."""
    lo, hi = table.count_range()
    parts = [f"# {key}: {value}\n" for key, value in table.metadata]
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
