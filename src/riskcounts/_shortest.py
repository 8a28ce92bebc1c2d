"""``repr`` of non-negative float64 arrays, computed in numpy ``uint64``.

The digits are those of the shortest decimal that reads back as the same
double, the closest to it where several are that short and the even one on
a tie: Python's ``repr`` (David Gay's ``dtoa``, mode 0).  They come from
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020), as in
the JDK's ``DoubleToDecimal``, a whole array at a time: the scaled value and
the two ends of its rounding interval are each one round-to-odd product of
the significand with a 126-bit power of ten ``g1 * 2**63 + g0``, whose
64 x 64-bit products are built from 32-bit limbs.  The JDK's rule that
keeps two digits for tiny subnormals is left out: ``repr(5e-324)`` is
``'5e-324'``.

``write_reprs`` writes each value's ``repr`` into a row of ``SLOT`` bytes of
a ``uint8`` matrix, with pad bytes 0 where a layout leaves columns unused;
dropping every 0 byte leaves the text.  The layouts are ``repr``'s, with
``decpt`` the position of the decimal point after the first digit's:

* ``d.ddde-XX`` (at least two exponent digits, no ``.`` after a single
  digit) where decpt <= -4 or decpt > 16;
* ``0.000ddd`` for -4 < decpt <= 0, and ``0.0`` for zero;
* ``ddd.ddd`` or ``ddd0.0`` for 0 < decpt <= 16.

Values go through in chunks of ``_CHUNK``: numpy temporaries of that size
come from the allocator's free lists, where larger ones can cost fresh
pages on every operation.  The tables are built on first use.
"""

from __future__ import annotations

from functools import cache

import numpy as np

#: Bytes per value: the lead character, ``.``, three zeros, 17 digits, and
#: ``e``, a sign and three exponent digits.
SLOT = 27

_CHUNK = 4096

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_C_MIN = 1 << 52
_Q_MIN = -1074
_K_MIN, _K_MAX = -324, 292
#: decpt of 5e-324 and of the largest double
_DECPT_MIN, _DECPT_MAX = -323, 309
_PAD, _ZERO, _DOT = 0, ord("0"), ord(".")


@cache
def _tables():
    """``(digit4, lead4, trail4, g)``: the four ASCII digits of 0..9999 as
    one ``uint32`` each (the bytes in memory order); the leading and the
    trailing zeros of those four digits; and, one row each, the 32-bit
    limbs of g1 and of g0, then g1 itself, for k in [-324, 292], where g =
    floor(10**-k * 2**(125 - floor(log2(10**-k)))) + 1 = g1 * 2**63 + g0."""
    text = [f"{i:04d}" for i in range(10_000)]
    digit4 = np.frombuffer("".join(text).encode(), dtype=np.uint32)
    lead4 = np.array([len(t) - len(t.lstrip("0")) for t in text], dtype=np.int64)
    trail4 = np.array([len(t) - len(t.rstrip("0")) for t in text], dtype=np.int64)
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        if k <= 0:
            shift = 125 - (p.bit_length() - 1)
            gk = (p << shift if shift >= 0 else p >> -shift) + 1
        else:
            gk = (1 << (125 + p.bit_length())) // p + 1
        g1, g0 = gk >> 63, gk & ((1 << 63) - 1)
        g.append((g1 & 0xFFFFFFFF, g1 >> 32, g0 & 0xFFFFFFFF, g0 >> 32, g1))
    return digit4, lead4, trail4, np.array(g, dtype=np.uint64).T.copy()


def _groups(values: np.ndarray, groups: int) -> np.ndarray:
    """The base-10000 digits of ``values`` (non-negative, below 2**63 and
    10000**groups), most significant first, one row each."""
    out = np.empty((len(values), groups), dtype=np.int64)
    v = values.astype(np.int64)
    for g in range(groups - 1, 0, -1):
        q = v // 10_000
        out[:, g] = v - q * 10_000
        v = q
    out[:, 0] = v
    return out


def digits(values: np.ndarray, width: int) -> np.ndarray:
    """The last ``width`` ASCII digits of each of ``values`` (non-negative,
    below 2**63), zero-filled on the left, one row each."""
    groups = -(-width // 4)
    table = _tables()[0]
    return np.take(table, _groups(values, groups)).view(np.uint8)[:, 4 * groups - width :]


def _mul_hi(a_lo, a_hi, b_lo, b_hi):
    """The high 64 bits of the product of ``a_hi * 2**32 + a_lo`` and
    ``b_hi * 2**32 + b_lo``, all four below 2**32."""
    lo_hi = a_lo * b_hi
    hi_lo = a_hi * b_lo
    mid = ((a_lo * b_lo) >> _U(32)) + (lo_hi & _M32) + (hi_lo & _M32)
    return a_hi * b_hi + (lo_hi >> _U(32)) + (hi_lo >> _U(32)) + (mid >> _U(32))


def _rop(g, cp):
    """Round-to-odd of cp * g / 2**127, for the rows ``g`` of the g table."""
    g1_lo, g1_hi, g0_lo, g0_hi, g1 = g
    cp_lo, cp_hi = cp & _M32, cp >> _U(32)
    x1 = _mul_hi(g0_lo, g0_hi, cp_lo, cp_hi)
    y1 = _mul_hi(g1_lo, g1_hi, cp_lo, cp_hi)
    z = ((g1 * cp) >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(f, k)`` with ``f * 10**k`` the decimal ``repr`` prints for each of
    the non-negative finite doubles ``x``; ``f`` may end in zeros, has at
    most 17 digits, and is 0 for 0.0."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    biased = (bits >> _U(52)).astype(np.int64)
    c = bits & _U(_C_MIN - 1)
    c |= (biased != 0).astype(np.uint64) << _U(52)
    q = np.maximum(biased, 1) - 1075
    # the rounding interval is narrower below a power of two, except at the
    # smallest normal, whose predecessor is as far away as its successor
    irregular = (c == _U(_C_MIN)) & (q != _Q_MIN)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g = np.take(_tables()[3], k - _K_MIN, axis=1)
    out = c & _U(1)  # an odd significand excludes the interval's ends
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(2) + irregular) << h)
    vbr = _rop(g, (cb + _U(2)) << h)

    # s * 10**k <= x < (s + 1) * 10**k, and the interval holds s or s + 1;
    # it holds at most one multiple of 10**(k + 1), the shortest if any
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = (tp10 << _U(2)) + out <= vbr
    t = s + _U(1)
    uin = vbl + out <= s << _U(2)
    win = (t << _U(2)) + out <= vbr
    # both s and t in the interval: the closer to x, the even one on a tie
    mid = (s + t) << _U(1)
    closer = (vb < mid) | ((vb == mid) & (s & _U(1) == 0))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10),
                 np.where(np.where(uin == win, closer, uin), s, t))
    f[bits == 0] = 0
    return f, k


def write_reprs(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``repr`` of each of the non-negative finite doubles ``x`` into
    the rows of the ``(len(x), SLOT)`` ``uint8`` matrix ``out``, padded with
    0 bytes."""
    for i in range(0, len(x), _CHUNK):
        _write_chunk(x[i : i + _CHUNK], out[i : i + _CHUNK])


def _write_chunk(x: np.ndarray, out: np.ndarray) -> None:
    digit4, lead4, trail4, _ = _tables()
    shown_table, prefix_table, suffix_table = _layout_tables()
    f, k = shortest(x)
    rows = len(f)
    # f's digits as 20, in groups of four; f < 10**17, so the first 3 are 0
    groups = np.empty((5, rows), dtype=np.int64)
    top = f // _U(10**16)
    groups[0] = top
    groups[1:] = _groups(f - top * _U(10**16), 4).T
    text20 = np.take(digit4, groups.T).view(np.uint8)
    lead = np.take(lead4, groups)
    trail = np.take(trail4, groups)
    empty = groups == 0
    lz, tz = lead[4], trail[0]
    for j in range(3, -1, -1):
        lz = lead[j] + empty[j] * lz
        tz = trail[4 - j] + empty[4 - j] * tz
    lz -= 3
    zero = f == 0
    lz[zero], tz[zero] = 16, 0  # 0.0 prints one digit, at decpt 0
    length = 17 - lz
    decpt = np.where(zero, 0, length + k)
    sci = (decpt <= -4) | (decpt > 16)

    # the lead character, the point and the zeros of 0.000ddd
    prefix = np.where(sci, 4 + (length - tz == 1), np.maximum(-decpt, 0))
    out[:, :5] = np.take(prefix_table, prefix, axis=0)
    # in d.ddde-XX the first digit moves to column 0
    first = text20.ravel()[np.arange(rows) * 20 + 3 + lz]
    out[:, 0] = np.where(sci, first, _ZERO)
    shown = np.take(shown_table, (sci * 17 + lz) * 17 + tz, axis=0)
    np.multiply(text20[:, 3:], shown, out=out[:, 5:22])
    out[:, 22:] = np.take(suffix_table, np.where(sci, decpt - _DECPT_MIN, -1), axis=0)
    wide = ~sci & (decpt > 0)
    if wide.any():
        out[wide] = _positional(f[wide], lz[wide], length[wide] - tz[wide], decpt[wide])


@cache
def _layout_tables():
    """``(shown, prefix, suffix)``, one row per case: the mask of the
    17-digit columns shown, by whether the first digit moves to column 0,
    leading zeros and trailing zeros; the first five columns of 0.000ddd,
    by zeros, then of d.ddde-XX with and without the point; the last five
    columns of d.ddde-XX by decpt, then empty ones."""
    col = np.arange(17)
    shown = [
        (col >= lz) & (col < 17 - tz) & ~(sci & (col == lz))
        for sci in (False, True) for lz in range(17) for tz in range(17)
    ]
    prefix = [b"0." + b"0" * z + b"\0" * (3 - z) for z in range(4)] + [b"\0.\0\0\0", b"\0\0\0\0\0"]
    suffix = [f"e{d - 1:+03d}".encode().ljust(5, b"\0") for d in range(_DECPT_MIN, _DECPT_MAX + 1)]
    suffix.append(b"\0" * 5)

    def table(items):
        return np.frombuffer(b"".join(items), dtype=np.uint8).reshape(len(items), -1)

    return np.array(shown, dtype=np.uint8), table(prefix), table(suffix)


def _positional(f, lz, n, decpt) -> np.ndarray:
    """Slots ``ddd.ddd`` or ``ddd0.0`` for the ``n`` significant digits of
    ``f``, ``decpt`` of them (zeros past ``n``) before the point."""
    col = np.arange(SLOT)
    text = np.zeros((len(f), SLOT + 1), dtype=np.uint8)
    text[:, 1:18] = digits(f * _U(10) ** lz.astype(np.uint64), 17)
    at = decpt[:, None]
    slot = np.where(col < at, text[:, 1:], np.where(col == at, _DOT, text[:, :-1]))
    slot[col > np.maximum(n, decpt + 1)[:, None]] = _PAD
    return slot
