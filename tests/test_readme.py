"""README's figures that follow from the package's constants, computed from
the constants, so that a changed constant fails here until README says the
new figure."""

import math
import re
from pathlib import Path

import pytest

from riskcounts import cohort, distributions, predictive

#: README as one line, its line breaks and runs of spaces folded to one space.
README = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8").split())


def power(value: int, base: int) -> int:
    exponent = round(math.log(value, base))
    assert base**exponent == value
    return exponent


def bisection_midpoints() -> int:
    """The most midpoints the calibration's bisection probes: its bracket
    closing on either bound, the ratio above or below the target at every
    midpoint."""
    counts = []
    for above in (True, False):
        lo, hi = predictive.CONCENTRATION_BOUNDS
        probed = set()
        while (mid := math.sqrt(lo * hi)) not in probed:
            probed.add(mid)
            lo, hi = (mid, hi) if above else (lo, mid)
        counts.append(len(probed))
    return max(counts)


FIGURES = {
    "the replications below the in-process threshold": (
        f"{math.ceil(cohort._PARALLEL_MIN_INDIVIDUALS / (2 * 1_000 + cohort._REPLICATION_SETUP)):,}"
        " replications at 1,000 per group"
    ),
    "the multiply-adds below the in-process threshold":
        f"1e{power(distributions._PARALLEL_MIN_MACS, 10)} multiply-adds of kept cells",
    "the cells a recurrence runs at a time":
        f"The recurrences run 2^{power(distributions._SUM_BLOCK, 2)} cells at a time",
    "the chunk a refused window holds":
        f"refused holding one 2^{power(distributions._SUM_BLOCK, 2)}-cell chunk",
    "the replications of a tile": f"tiles of up to {cohort._KEY_BLOCK:,} replications",
    "the individuals of a block": f"at most half a {cohort._BLOCK:,}-individual block",
    "the window cap": f"{distributions._MAX_SUPPORT_POINTS:,}-point cap",
    "the widening rounds": (
        f"so at most {math.ceil(math.log2(distributions._MAX_SUPPORT_POINTS / 64)) + 1}"
        " rounds sum cells"
    ),
    "the bisection's midpoints": (
        "On [{:g}, {:g}]".format(*predictive.CONCENTRATION_BOUNDS).replace("e+", "e")
        + f" that comes after at most {bisection_midpoints()} midpoints"
    ),
}


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_readme_states_the_figure_its_constants_give(figure):
    assert FIGURES[figure] in README


def test_readme_names_exactly_the_law_constructors():
    """The ``riskcounts.distributions`` row of README's module table lists
    one law per ``*_distribution`` constructor in ``__all__``, as
    ``binomial_distribution`` reads "binomial"."""
    laws = re.search(r"\| `riskcounts\.distributions` \| (.*?) count laws", README).group(1)
    constructors = [name for name in distributions.__all__ if name.endswith("_distribution")]
    assert sorted(laws.split(" / ")) == sorted(
        name.removesuffix("_distribution").replace("_", "-") for name in constructors
    )
