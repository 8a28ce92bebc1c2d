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
Figure rows run from the lowest column ``support_lo`` to the highest
``support_hi``, every count in between; a cell is empty where that column's
distribution was not evaluated, so rows between disjoint supports are
``count,,``.  Mass cells print as ``repr`` so they round-trip exactly.

Figure bodies are rendered as bytes, in blocks of at most ``_BLOCK_ROWS``
rows.  One call of ``_shortest.write_reprs`` per block writes every mass
cell's ``repr`` into a fixed-width slot padded with 0 bytes: computed in
numpy below 1, and by ``repr`` itself for a point mass's 1.0.  Within a
block, each piece of rows that shares one count width and one set of
evaluated columns is one ``uint8`` matrix: the counts as fixed-width digits
from a four-digit table, commas, the slots and line feeds.  A piece with no
evaluated column has no pad byte and is taken as it is; the others are
compacted by dropping the pad bytes.  Each piece is decoded to a string
and yielded, so no whole copy of the text is held on the way to disk:
``figure --out`` writes the pieces one at a time, and a figure's replay
compares each regenerated piece with the text at its offset and returns
its input when every piece matches.  ``render_figure_csv`` joins them.  No
figure field ever needs quoting (counts, ``repr`` floats and empty cells),
so the bytes are those ``csv.writer`` would produce.  Replication rows,
whose variant names carry covariate names, go through ``csv.writer``
itself.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, _shortest
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
#: small enough that a block's byte matrix stays a few megabytes.  Read at
#: each call.
_BLOCK_ROWS = 1 << 15


@dataclass(frozen=True)
class FigureTable:
    """One figure's worth of plot-ready data.

    ``metadata`` is an ordered tuple of (key, value) pairs, rendered as
    ``# key: value`` header lines.  ``columns`` aligns with
    ``column_names``; rows run over ``count_range()``, from the lowest
    ``support_lo`` to the highest ``support_hi``, with empty cells outside
    a column's support.
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
    return "".join(_figure_pieces(table))


def _figure_pieces(table: FigureTable):
    """Yield ``render_figure_csv``'s text in pieces: the header, then runs of
    rows that share one count width and one set of evaluated columns, each
    within one block of ``_BLOCK_ROWS`` rows."""
    lo, hi = table.count_range()
    yield _header_text(table.metadata) + ",".join(("count",) + table.column_names) + "\n"
    cuts = {c for d in table.columns for c in (d.support_lo, d.support_hi + 1)}
    cuts.update(10**j for j in range(1, len(str(hi)) + 1) if lo < 10**j <= hi)
    block = _BLOCK_ROWS
    for start in range(lo, hi + 1, block):
        stop = min(start + block, hi + 1)
        # every column's cells in the block (none where it misses the
        # block), from one kernel call
        firsts = [max(start, d.support_lo) for d in table.columns]
        masses = [d.masses[a - d.support_lo : max(a, min(stop, d.support_hi + 1)) - d.support_lo]
                  for d, a in zip(table.columns, firsts)]
        slots = np.empty((sum(map(len, masses)), _shortest.SLOT), dtype=np.uint8)
        _shortest.write_reprs(np.concatenate(masses), slots)
        cells = np.split(slots, np.cumsum([len(m) for m in masses])[:-1])
        inner = sorted(c for c in cuts if start < c < stop)
        for a, b in zip([start, *inner], [*inner, stop]):
            shown = [s[a - first : b - first] if first <= a < first + len(s) else None
                     for first, s in zip(firsts, cells)]
            yield str(_rows(a, b, shown), "ascii")


def _rows(start: int, stop: int, columns: list[np.ndarray | None]) -> np.ndarray:
    """The bytes of rows ``start..stop-1``, all of one count width, with
    each column's mass slots or, for None, an empty cell."""
    width = len(str(start))
    shown = [s for s in columns if s is not None]
    rows = np.empty((stop - start, width + len(columns) + _shortest.SLOT * len(shown) + 1),
                    dtype=np.uint8)
    rows[:, :width] = _shortest.digits(np.arange(start, stop), width)
    at = width
    for slots in columns:
        rows[:, at] = ord(",")
        at += 1
        if slots is not None:
            rows[:, at : at + _shortest.SLOT] = slots
            at += _shortest.SLOT
    rows[:, at] = ord("\n")
    # only mass slots hold pad bytes
    return rows[rows != 0] if shown else rows.ravel()


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


def _json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nests too deeply to parse") from None


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
    ``ScenarioError``.  A figure's text is compared piece by piece as it
    is regenerated: where it matches, the result is ``text`` itself, and no
    second copy is made.
    """
    meta = read_metadata(text)
    kind = _line(meta, "kind")
    doc = _line(meta, "scenario", _json)
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
            pieces = _figure_pieces(build_figure(figure_id, payload, eps, extra))
            at = 0
            for piece in pieces:
                if not text.startswith(piece, at):
                    return text[:at] + "".join((piece, *pieces))
                at += len(piece)
            return text if at == len(text) else text[:at]
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
    """``replay_text`` of a file; a file that is not UTF-8 is a
    ``ScenarioError`` naming it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"cannot read CSV file {path}: {exc}") from None
    return replay_text(text)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` so the file appears complete or not at all.

    Goes through a temporary file in the destination directory followed by
    ``os.replace``; a crash mid-write never leaves a truncated file at the
    final path.  Bytes are UTF-8 with LF endings on every platform.  The
    file takes the mode a plain ``open`` gives a new file: 0o666 less the
    process umask.

    A failure raises ``OSError`` naming ``path``, not the temporary file,
    whose random name would make the message differ from run to run.
    """
    _write_atomic(path, (text,))


def _write_atomic(path: str | Path, pieces) -> None:
    """``write_text_atomic`` of the text the str ``pieces`` spell, written
    one piece at a time; an exception from ``pieces`` removes the
    temporary file and leaves the target as it was."""
    target = Path(path)
    try:
        # O_EXCL, as mkstemp, but with mode 0o666 so that the umask applies
        tmp_name = target.parent / f"{target.name}.{os.urandom(8).hex()}.tmp"
        fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as handle:
                for piece in pieces:
                    handle.write(piece.encode("utf-8"))
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(target)) from exc
