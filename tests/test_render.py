"""Block-wise figure rendering against the row-by-row ``csv.writer`` oracle.

``oracle_render`` and ``oracle_read_metadata`` are the renderer and the
metadata reader as they stood before rendering became block-wise; the new
code must reproduce them byte for byte.  The golden digests were taken from
``figure`` output of that older renderer.

Every convolution here is split over two processes (``forced_split``), so
the pins also show that figure bytes do not depend on the worker count.
A figure whose bytes depend on the BLAS thread count is written in a
subprocess under a fixed thread count, with the same split.
"""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskcounts import _parallel, distributions, figures
from riskcounts.cli import main
from riskcounts.distributions import CountDistribution
from riskcounts.figures import FigureTable, read_metadata, render_figure_csv
from riskcounts.scenarios import bundled_text

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
BLOCK = figures._BLOCK_ROWS


@pytest.fixture(autouse=True)
def forced_split(monkeypatch, request):
    """Split every convolution over two processes and record its ranges;
    a pinned figure that convolves (3 and 4) must have been split."""
    forked = []
    run = _parallel.run
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(_parallel, "blas_threads", lambda: 1)
    monkeypatch.setattr(distributions, "_PARALLEL_MIN_MACS", 0)
    monkeypatch.setattr(_parallel, "run",
                        lambda fill, ranges, shape: forked.append(ranges) or run(fill, ranges, shape))
    yield forked
    if request.node.originalname == "test_figure_bytes_match_golden_digest":
        assert bool(forked) == (request.node.callspec.params["figure_id"] in (3, 4))
        assert all(len(ranges) == 2 for ranges in forked)


def oracle_render(table: FigureTable) -> str:
    lo, hi = table.count_range()
    masses = [d.masses for d in table.columns]
    buf = io.StringIO()
    for key, value in table.metadata:
        buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("count",) + table.column_names)
    for count in range(lo, hi + 1):
        row: list[str] = [str(count)]
        for dist, mass in zip(table.columns, masses):
            d_lo, d_hi = dist.support_lo, dist.support_hi
            row.append(repr(float(mass[count - d_lo])) if d_lo <= count <= d_hi else "")
        writer.writerow(row)
    return buf.getvalue()


def oracle_read_metadata(text: str) -> dict[str, str]:
    meta: dict[str, str] = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        key, sep, value = body.partition(":")
        if sep:
            meta[key.strip()] = value.strip()
    return meta


def assert_same_text(got: str, want: str) -> None:
    """Equality with a one-line report: pytest's own diff of megabyte
    strings would take minutes."""
    if got != want:
        a, b = got.split("\n"), want.split("\n")
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {i} differs: {a[i : i + 1]!r} != {b[i : i + 1]!r}")


def column(lo: int, log_mass) -> CountDistribution:
    """A law on ``lo..lo+len-1`` with the given log masses, scaled down to
    total at most 1 and the rest carried as truncated mass."""
    log_mass = np.asarray(log_mass, dtype=np.float64)
    total = math.fsum(np.exp(log_mass))
    if total > 1.0:
        log_mass = log_mass - math.log(total)
    stored = math.fsum(np.exp(log_mass))
    return CountDistribution(
        kind="binomial",
        support_lo=lo,
        support_hi=lo + len(log_mass) - 1,
        log_mass=log_mass,
        truncated_mass=max(0.0, 1.0 - stored),
    )


def table(*columns: CountDistribution) -> FigureTable:
    return FigureTable(
        figure_id=3,
        metadata=(("riskcounts_csv", "1"), ("kind", "figure"), ("note", "a, b: c")),
        column_names=("mass_total_split", "mass_all_low")[: len(columns)],
        columns=columns,
    )


def spaced(lo: int, width: int) -> CountDistribution:
    """Log masses spread from near 0 down to the subnormal range."""
    return column(lo, np.linspace(-0.5, -744.0, width) if width > 1 else [0.0])


# ---------------------------------------------------------------------------
# renderer == oracle
# ---------------------------------------------------------------------------

_log_masses = st.lists(
    st.floats(min_value=-745.0, max_value=0.0, allow_nan=False), min_size=1, max_size=40
)


@given(
    block=st.sampled_from([1, 2, 3, 7, 16]),
    lo_a=st.integers(min_value=0, max_value=40),
    mass_a=_log_masses,
    lo_b=st.integers(min_value=0, max_value=40),
    mass_b=_log_masses,
)
@example(block=4, lo_a=0, mass_a=[-1.0] * 4, lo_b=8, mass_b=[-1.0] * 4)  # disjoint
@example(block=4, lo_a=2, mass_a=[-1.0] * 10, lo_b=4, mass_b=[-1.0] * 3)  # nested
@example(block=4, lo_a=0, mass_a=[-1.0] * 4, lo_b=4, mass_b=[-1.0] * 4)  # touching
@example(block=4, lo_a=5, mass_a=[0.0], lo_b=5, mass_b=[0.0])  # single points
@example(block=4, lo_a=3, mass_a=[-1.0] * 2, lo_b=12, mass_b=[0.0])  # cross, start
@settings(max_examples=150, deadline=None)
def test_render_matches_oracle_at_any_block_size(block, lo_a, mass_a, lo_b, mass_b):
    t = table(column(lo_a, mass_a), column(lo_b, mass_b))
    with mock.patch.object(figures, "_BLOCK_ROWS", block):
        assert_same_text(render_figure_csv(t), oracle_render(t))


@pytest.mark.parametrize(
    "supports",
    [
        [(BLOCK - 1, 2), (0, 1)],  # crosses the first boundary
        [(BLOCK, 1), (0, BLOCK)],  # starts a block; ends the one before
        [(0, BLOCK + 1), (2 * BLOCK - 1, 1)],  # ends one past; ends a block
        [(0, 3), (2 * BLOCK + 5, 3)],  # disjoint with whole empty blocks between
        [(7, 2 * BLOCK), (BLOCK + 3, 10)],  # nested across two boundaries
        [(BLOCK - 3, 3), (BLOCK, 3)],  # touching at the boundary
        [(3 * BLOCK, 1)],  # one single-point column
    ],
)
def test_render_matches_oracle_across_real_block_boundaries(supports):
    t = table(*(spaced(lo, width) for lo, width in supports))
    assert_same_text(render_figure_csv(t), oracle_render(t))


# ---------------------------------------------------------------------------
# golden figure bytes
# ---------------------------------------------------------------------------

FIGURE_SHA256 = {
    ("la_rr106", 1): "2dd6dccaca9b7e53560942fa75314542aca9c68bc29f05339538a567cd4b8886",
    ("la_rr106", 3): "82f1b906113bf7ee39f6420a7692722931fbfdc6f21f530b14671395a027c12a",
    ("la_rr2", 1): "45e3aef1fdeab6432af298fc5921b8e9f44e59ee43f3a64f03209251c29827d6",
    ("la_rr2", 3): "3ada48455ccb673bcaf66f11e4fa0077bb49add2050c597d96206376889f0cde",
    ("ny_rr2", 1): "861090b33f30c41b4a1e68fbfed3408eec490bc3d46c5f8f2e9e74c53275e25a",
    ("ny_rr2", 3): "d42a00ccf4b16d2f6dacbb3fc049b773a485f93da7ac426ab636455102b9cff1",
    ("us_rr2", 1): "9cf3c9f63da9468079c1535b9188b318c00ea44cf868ea75ca1e7c900538bc27",
    ("us_rr2", 3): "deae4780faffb7aef8d2acbc246a24836aebe11d0ba9c9e48adcd4f5676e383f",
}

#: Figures whose convolutions take dot products long enough for OpenBLAS to
#: split over its threads, which rounds differently: one digest per thread
#: count.  The two files of figure 4 differ in 1,935 of 54,464 cells of
#: ``mass_total_split``, by 1.4e-19 in all and at most 7.3e-15 relatively.
THREADED_FIGURE_SHA256 = {
    ("la_rr106_c1e3", 4): {
        1: "6417255f6ca8705f70f4be32fe7f1c2944923df0e6ea84274d3cd109d4869d32",
        2: "e90b4b29a7d247368113f7ea197924eda3910cde9f688a796c962b73a4a6736f",
    },
}

#: OpenBLAS runs at most one thread per usable CPU, whatever is asked for.
BLAS_THREADS = min(2, _parallel.usable_cpus())

#: Writes a figure with every convolution split as ``forced_split`` splits
#: it, then prints the ranges as JSON on the last line.
THREADED_FIGURE = """\
import json, sys
from riskcounts import _parallel, distributions
from riskcounts.cli import main
forked = []
run = _parallel.run
_parallel.usable_cpus = lambda: 2
_parallel.blas_threads = lambda: 1
distributions._PARALLEL_MIN_MACS = 0
_parallel.run = lambda fill, ranges, shape: forked.append(ranges) or run(fill, ranges, shape)
code = main(sys.argv[1:])
print(json.dumps(forked))
sys.exit(code)
"""


@pytest.mark.parametrize("name, figure_id", sorted(FIGURE_SHA256.keys() | THREADED_FIGURE_SHA256.keys()))
def test_figure_bytes_match_golden_digest(name, figure_id, tmp_path, capsys, forced_split):
    stored = GOLDEN / f"{name}.json"
    if stored.exists():
        scenario = str(stored)
    else:
        scenario = str(tmp_path / f"{name}.json")
        Path(scenario).write_text(bundled_text(name), encoding="utf-8")
    out = tmp_path / "figure.csv"
    argv = ["figure", scenario, "--id", str(figure_id), "--out", str(out)]
    if (name, figure_id) in THREADED_FIGURE_SHA256:
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": str(BLAS_THREADS)}
        run = subprocess.run([sys.executable, "-c", THREADED_FIGURE, *argv], env=env,
                             capture_output=True, text=True, check=True, timeout=600)
        printed, ranges = run.stdout.rsplit("\n", 2)[:2]
        forced_split.extend(json.loads(ranges))
        want = THREADED_FIGURE_SHA256[name, figure_id][BLAS_THREADS]
    else:
        assert main(argv) == 0
        printed = capsys.readouterr().out
        want = FIGURE_SHA256[name, figure_id]
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == want
    lines = len(data.decode("utf-8").splitlines())
    assert f"({lines} lines)" in printed


# ---------------------------------------------------------------------------
# read_metadata == splitlines oracle
# ---------------------------------------------------------------------------


def test_read_metadata_matches_oracle_on_rendered_and_crlf_text():
    t = table(spaced(0, 50), spaced(30, 40))
    text = render_figure_csv(t)
    for variant in (text, text.replace("\n", "\r\n"), text.replace("\n", "\r"), ""):
        assert read_metadata(variant) == oracle_read_metadata(variant)
    assert read_metadata(text) == dict((k, v.strip()) for k, v in t.metadata)


@given(
    st.lists(
        st.text(alphabet="#ab: \t\r\n\x0b\x0c\x1c\x85\u2028", max_size=12), max_size=8
    )
)
@example(["# a: 1\r\n# b: 2\r\n", "count\r\n# c: 3"])
@example(["# a: 1\rx\n# b: 2"])
@settings(max_examples=300, deadline=None)
def test_read_metadata_matches_oracle_on_any_text(pieces):
    text = "".join(pieces)
    assert read_metadata(text) == oracle_read_metadata(text)


# ---------------------------------------------------------------------------
# byte kernel edge cases == oracle
# ---------------------------------------------------------------------------


def around(count: int, before: int, after: int) -> CountDistribution:
    """A spaced law on ``count - before .. count + after - 1``."""
    return spaced(count - before, before + after)


@pytest.mark.parametrize("block", [None, 1, 3, 5, 7])
@pytest.mark.parametrize(
    "columns",
    [
        # cells that underflow to 0.0, beside cells that do not
        [column(4, [-1.0, -745.2, -746.0, -800.0, -2.0]), column(0, [-1.0, -750.0])],
        # a point mass of exactly 1.0, alone and beside a wider column
        [column(7, [0.0])],
        [column(7, [0.0]), spaced(3, 9)],
        # counts crossing 99 -> 100 and 9,999,999 -> 10,000,000 where a
        # block ends (blocks of 5 and 3) and inside a block
        [around(100, 5, 5), around(100, 2, 9)],
        [around(100, 3, 4), around(100, 1, 1)],
        [around(10**7, 3, 4), around(10**7, 1, 1)],
        # an empty-row gap wider than a block, with a width change in it
        [spaced(95, 3), spaced(120, 4)],
    ],
)
def test_render_matches_oracle_on_edge_cells_and_count_widths(columns, block):
    t = table(*columns)
    with mock.patch.object(figures, "_BLOCK_ROWS", block or BLOCK):
        assert_same_text(render_figure_csv(t), oracle_render(t))


@pytest.mark.parametrize(
    "columns",
    [
        # 9,999,999 -> 10,000,000 where a block ends
        [around(10**7, BLOCK, 2), around(10**7, 1, 5)],
        # an empty-row gap wider than a block, with a width change in it
        [spaced(95, 3), spaced(BLOCK + 200, 4)],
        [spaced(10**7 - BLOCK - 9, 2), spaced(10**7 + 4, 3)],
    ],
)
def test_render_matches_oracle_on_count_widths_across_real_blocks(columns):
    t = table(*columns)
    assert_same_text(render_figure_csv(t), oracle_render(t))


def test_each_mass_cell_goes_through_the_kernel_once(monkeypatch):
    rendered = []
    write_reprs = figures._shortest.write_reprs
    monkeypatch.setattr(figures._shortest, "write_reprs",
                        lambda x, out: rendered.append(len(x)) or write_reprs(x, out))
    columns = [spaced(3, 40), spaced(200, 30), spaced(30, 2)]
    t = FigureTable(figure_id=3, metadata=(), column_names=("a", "b", "c"), columns=tuple(columns))
    with mock.patch.object(figures, "_BLOCK_ROWS", 16):
        assert_same_text(render_figure_csv(t), oracle_render(t))
    assert sum(rendered) == sum(len(d.masses) for d in columns)
    assert len(rendered) == len(range(3, 230, 16))  # one call per block
