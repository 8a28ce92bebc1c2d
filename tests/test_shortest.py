"""The vectorized shortest-``repr`` kernel against ``repr`` itself, byte for
byte, over every non-negative finite double: hypothesis, named hard cases,
every power of two, and a seeded sweep of random bit patterns."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskcounts._shortest import SLOT, digits, write_reprs


def rendered(values) -> str:
    """The kernel's text for ``values``, one per line."""
    x = np.asarray(values, dtype=np.float64)
    out = np.empty((len(x), SLOT + 1), dtype=np.uint8)
    write_reprs(x, out[:, :SLOT])
    out[:, SLOT] = ord("\n")
    return out[out != 0].tobytes().decode("ascii")


def expected(values) -> str:
    return "".join(repr(v) + "\n" for v in np.asarray(values, dtype=np.float64).tolist())


def assert_reprs(values) -> None:
    got, want = rendered(values).split("\n"), expected(values).split("\n")
    bad = [(w, g) for g, w in zip(got, want) if g != w]
    assert not bad, f"{len(bad)} differ, first (repr, kernel): {bad[:3]}"


HARD = [
    0.0,
    5e-324,  # the JDK prints 4.9E-324
    1e-323,
    2.225073858507201e-308,  # the largest subnormal
    2.0**-1022,  # the smallest normal: regular spacing below it
    9.999999999999999e-05,  # the last d.ddde-05
    0.0001,  # the first 0.000ddd
    1.0,
    9999999999999998.0,  # the last ddd.0
    1e16,  # the first d.de+XX
    1e22,
    1e23,  # the double nearest 1e23 lies below it; repr prints 1e+23
    sys.float_info.max,
    2.0**-25,  # a tie between two shortest candidates, broken to even
    1081781241735787.2,  # a tie, at 17 digits
]


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
@example(0.0)
@example(5e-324)
@example(1e-323)
@example(2.225073858507201e-308)
@example(2.0**-1022)
@example(9.999999999999999e-05)
@example(0.0001)
@example(1.0)
@example(9999999999999998.0)
@example(1e16)
@example(1e22)
@example(1e23)
@example(sys.float_info.max)
def test_repr_of_any_non_negative_double(value):
    assert rendered([value]) == repr(value) + "\n"


def test_repr_of_the_hard_cases_together():
    assert_reprs(HARD)


def test_repr_of_every_power_of_two_and_its_neighbours():
    # below a power of two the spacing halves: the irregular interval
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    above = np.nextafter(powers[:-1], np.inf)
    assert_reprs(np.concatenate([powers, np.nextafter(powers, 0.0), above]))


def test_repr_of_powers_of_ten_and_their_neighbours():
    powers = 10.0 ** np.arange(-323, 309)
    assert_reprs(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))


def test_repr_of_the_smallest_subnormals_and_integers():
    assert_reprs(np.arange(1, 20_001, dtype=np.uint64).view(np.float64))
    assert_reprs(np.arange(0.0, 20_001.0))


def test_repr_of_random_bit_patterns():
    rng = np.random.default_rng(20201217)
    bits = rng.integers(0, 0x7FF0000000000000, 200_000, dtype=np.uint64)
    assert_reprs(bits.view(np.float64))


def test_repr_of_masses_across_every_layout():
    rng = np.random.default_rng(5)
    assert_reprs(np.exp(-rng.random(50_000) * 746.0))
    assert_reprs(rng.random(50_000) * 10.0 ** rng.integers(-6, 18, 50_000))


@pytest.mark.parametrize("width", [1, 3, 4, 5, 8, 10, 17])
def test_digits_are_the_zero_filled_decimal_tail(width):
    values = np.array([0, 1, 9, 10, 99, 1000, 9999, 10**width - 1, 12345678901234567 % 10**width])
    got = [bytes(row).decode() for row in digits(values, width)]
    assert got == [f"{v:0{width}d}"[-width:] for v in values.tolist()]
