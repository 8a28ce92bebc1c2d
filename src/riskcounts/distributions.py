"""Truncated discrete count distributions, stored in log-space.

Binomial and beta-binomial laws over populations up to
``comparison.MAX_POPULATION`` (2^32 - 1), and their convolutions, are
represented on a finite support window inside the domain 0..n.  Whatever
probability falls outside the window is carried explicitly in
``truncated_mass`` instead of being renormalised away, so every
downstream probability comes with an honest error bound.

Numerical approach
------------------
Filling a window of log-probabilities naively from a log-gamma identity
loses absolute precision once the arguments reach 1e6-1e9 (the log-pmf is a
small difference of terms of magnitude ~1e7).  Instead, each window is
filled from a single high-precision anchor value at (or near) the mode,
extended over the window by cumulative sums of per-step log ratios

    log pmf(k+1) - log pmf(k) = log r(k),

where each ``r(k)`` is formed as one double-precision quotient before the
log is taken.  Each step then contributes ~1 ulp of absolute log error and
the window total stays accurate to ~1e-13 even for windows of 1e5+ points,
comfortably inside the 1e-9 mass-identity contract enforced below.

One widening loop (``_window``) finds each window.  Each round sums only the
cells it adds, keeping each side's last running sum, and tests each edge on
that exact value of its cell, so a window the cap refuses is refused holding
one chunk of step logs.  Widening ends: an edge passes at its domain
bound, 0 or n, and each unsettled round moves a failing edge out by a
doubling step or onto that bound, so within 20 rounds the window settles
or outgrows the cap.  The window it settles on is then filled once into
one array of log masses.  ``_build_windowed`` stores that array as a law;
callers that need only an interval (calibration and spread reports) read it
from ``_streamed_interval``, which turns the array in place into its cdf
through the same checks and to the same bits, holding 8 bytes per cell where
a law holds 16 and its cdf 8 more.

Convolution is a direct ``np.correlate`` that computes only the cells its
trim keeps.  Each tail is dropped while its running sum stays at most eps/4;
where a tail ends is found without computing its cells, from prefix sums of
the inputs, and accepted only where it clears a rounding margin
(``_prefix_margin``) that makes it the bound the running sum of every cell
would give.  Otherwise every cell is computed and the tails are trimmed from
their running sums.  The computed cells go to ``_parallel.split``, which
runs them in-process or in ranges across forked workers; each edge cell is
charged for its own Python call, and a range that costs at least the whole
correlate is sliced from one full call instead.  An edge cell reads one
operand from an offset that moves by one element a cell, so ``_cells`` takes
the edge cells in eight phases of that offset mod 8, each on a copy of the
sliding operand in one reused buffer that starts every offset of the phase
on a 64-byte boundary.  The cells are all that BLAS computes: each is the
same dot product on the same values as in one full call, on one OpenBLAS
thread (``_parallel.one_blas_thread``), and OpenBLAS's dot kernels round
alike wherever their operands sit, so the bits depend on neither the trim's
path, the worker count, the BLAS thread count nor the alignment.  Every
other sum of products is ``np.sum``'s fixed pairwise order.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from . import _parallel

__all__ = [
    "DEFAULT_EPS",
    "MAX_EPS",
    "MAX_CONCENTRATION",
    "DomainError",
    "BetaParams",
    "CountDistribution",
    "CredibleInterval",
    "binomial_log_pmf",
    "binomial_distribution",
    "beta_binomial_distribution",
    "convolve",
    "mode",
    "quantile",
    "central_interval",
]

#: Default omitted-tail budget.  Reports quote 99.99% intervals and ~1e-5
#: tail events, so the stored mass must resolve 1e-5 with guard digits.
DEFAULT_EPS = 1e-12

#: Coarsest truncation any constructor accepts.
MAX_EPS = 1e-6

#: Largest prior concentration alpha + beta a beta-binomial is built for.
#: The anchor's log-gammas grow like c ln c, so at ``_ANCHOR_DPS`` digits
#: their absolute error passes the window's own ~1e-13 beyond about 1e26.
#: Against an anchor at 40 + log10(c) + 30 digits, the stored log masses at
#: n = 10, 1e3 and 2e6 are within 3.3e-13 from the calibration cap 1e12 up to
#: 1e25, 5.5e-13 at 1e27, 8.4e-10 at 1e30, and break the mass identity at 1e31.
MAX_CONCENTRATION = 1e25

#: Tolerance of the mass identity  sum(exp(log_mass)) + truncated_mass = 1.
MASS_IDENTITY_TOL = 1e-9

#: Decimal digits used for the anchor log-pmf evaluation.
_ANCHOR_DPS = 40

#: Half-width of the initial support bracket, in standard deviations.
_BRACKET_SIGMAS = 12.0

#: Hard cap on stored support points (desk-scale memory).
_MAX_SUPPORT_POINTS = 20_000_000

#: Bound on the mass a log-concave window drops past a step ratio that
#: underflowed to zero.  Such a ratio is below 2^-1073 (the quotient rounds
#: to zero only under 2^-1075, and its operands carry at most one more
#: rounding each); the cell before it holds at most 1 and every later ratio
#: is smaller still, so the dropped tail is under r / (1 - r) < 2^-1072.
_UNDERFLOW_TAIL = 2.0**-1072

#: Convolutions that cost fewer multiply-adds (MACs) than this, each edge
#: cell charged ``_EDGE_CELL_MACS`` more, run in-process.  A billion MACs
#: take about 0.2 s on one x86-64 core, against a few ms to fork a worker.
_PARALLEL_MIN_MACS = 1_000_000_000

#: The Python cost of computing one edge cell on its own (about 1.5 us), in
#: MACs, which run at about 5e9 a second on the host above.
_EDGE_CELL_MACS = 8_000


class DomainError(ValueError):
    """An argument lies outside the operation's documented domain."""


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _check_real(value: float, name: str) -> float:
    """Return ``value`` as a ``float`` if it is a real number other than a
    bool; otherwise raise ``DomainError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise DomainError(f"{name} is beyond the float range") from None


def _check_probability(value: float, name: str) -> float:
    value = _check_real(value, name)
    if not (0.0 <= value <= 1.0):  # also rejects NaN
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def _check_count(value: int, name: str, minimum: int = 0) -> int:
    """Return ``value`` as an ``int`` if it is an integer other than a bool
    and at least ``minimum``; otherwise raise ``DomainError``.  Every count
    passes here before a message formats it, so one that ``str`` refuses
    (past its digit limit, far beyond the float range) is refused here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}".lstrip())
    value = int(value)
    if abs(value) > sys.float_info.max:
        try:
            str(value)
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise DomainError(f"{name} is beyond the float range".lstrip()) from None
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}".lstrip())
    return value


def _check_eps(eps: float) -> float:
    eps = _check_real(eps, "eps")
    if not (0.0 < eps <= MAX_EPS):
        raise DomainError(f"eps must lie in (0, {MAX_EPS}], got {eps!r}")
    return eps


def _check_open_unit(value: float, name: str) -> float:
    value = _check_real(value, name)
    if not (0.0 < value < 1.0):  # also rejects NaN
        raise DomainError(f"{name} must lie in (0, 1), got {value!r}")
    return value


def _check_law(law, name: str) -> None:
    if not isinstance(law, CountDistribution):
        raise DomainError(f"{name} must be a CountDistribution instance")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaParams:
    """Pseudo-count parameters of a beta law on a per-person probability."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            v = _check_real(getattr(self, name), name)
            if not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{name} must be finite and > 0, got {v!r}")
            object.__setattr__(self, name, v)

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def concentration(self) -> float:
        return self.alpha + self.beta


_KINDS = ("binomial", "beta-binomial", "convolution")


# The mass contract's checks, shared by ``CountDistribution`` and the
# streamed interval probe (``_streamed_interval``), which reads a window it
# never stores.


def _check_finite(log_mass: np.ndarray) -> None:
    # min and max propagate NaN, so they test finiteness without a
    # window-sized temporary
    if not (math.isfinite(log_mass.min()) and math.isfinite(log_mass.max())):
        raise DomainError("every stored log_mass must be finite")


def _check_truncated(truncated_mass: float) -> float:
    trunc = _check_real(truncated_mass, "truncated_mass")
    if not (0.0 <= trunc <= 1.0):
        raise DomainError(f"truncated_mass must lie in [0, 1], got {trunc!r}")
    return trunc


def _check_identity(stored: float, trunc: float) -> None:
    total = stored + trunc
    if abs(total - 1.0) > MASS_IDENTITY_TOL:
        raise DomainError(f"mass identity violated: stored+truncated = {total!r}")


@dataclass(frozen=True)
class CountDistribution:
    """A law over case counts on the window ``support_lo..support_hi``.

    ``log_mass[i]`` is the log-probability of count ``support_lo + i``, and
    ``masses`` its read-only linear-space counterpart.  The mass identity
    ``sum(exp(log_mass)) + truncated_mass == 1``  holds to within 1e-9 and
    is enforced at construction time.
    """

    kind: str
    support_lo: int
    support_hi: int
    log_mass: np.ndarray
    truncated_mass: float
    masses: np.ndarray = field(init=False, repr=False, compare=False)
    #: ``(exp(log_mass), its exact sum)`` from a builder that already
    #: computed both, so that a window is exponentiated and summed once.
    #: The builder hands ``log_mass`` and the masses over: both are frozen
    #: in place, where a caller's ``log_mass`` is copied.
    _exp_sum: InitVar[tuple[np.ndarray, float] | None] = None

    def __post_init__(self, _exp_sum: tuple[np.ndarray, float] | None = None) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"unknown distribution kind {self.kind!r}")
        lo = _check_count(self.support_lo, "support_lo")
        hi = _check_count(self.support_hi, "support_hi")
        if lo > hi:
            raise DomainError(f"support_lo {lo} exceeds support_hi {hi}")
        arr = np.asarray(self.log_mass, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != hi - lo + 1:
            raise DomainError("log_mass length must equal the support size")
        _check_finite(arr)
        trunc = _check_truncated(self.truncated_mass)
        if _exp_sum is None:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "support_lo", lo)
        object.__setattr__(self, "support_hi", hi)
        object.__setattr__(self, "log_mass", arr)
        object.__setattr__(self, "truncated_mass", trunc)
        if _exp_sum is None:
            masses = np.exp(arr)
            stored = _exact_sum(masses)
        else:
            masses, stored = _exp_sum
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)
        _check_identity(stored, trunc)

    # -- derived views ------------------------------------------------

    @cached_property
    def _cdf(self) -> np.ndarray:
        c = np.cumsum(self.masses)
        c.setflags(write=False)
        return c

    @property
    def stored_mass(self) -> float:
        return float(self._cdf[-1])

    def pmf(self, k: int) -> float:
        if self.support_lo <= k <= self.support_hi:
            return float(self.masses[k - self.support_lo])
        return 0.0

    def log_pmf(self, k: int) -> float:
        if self.support_lo <= k <= self.support_hi:
            return float(self.log_mass[k - self.support_lo])
        return -math.inf

    def cdf(self, k: int) -> float:
        """Stored mass at counts <= k (true CDF differs by <= truncated_mass)."""
        if k < self.support_lo:
            return 0.0
        if k >= self.support_hi:
            return self.stored_mass
        return float(self._cdf[k - self.support_lo])

    def mean(self) -> float:
        ks = np.arange(self.support_lo, self.support_hi + 1, dtype=np.float64)
        return float(np.sum(ks * self.masses))

    def variance(self) -> float:
        ks = np.arange(self.support_lo, self.support_hi + 1, dtype=np.float64)
        mu = self.mean()
        return float(np.sum((ks - mu) ** 2 * self.masses))


@dataclass(frozen=True)
class CredibleInterval:
    """A count interval with requested and actually-achieved coverage."""

    lo: int
    hi: int
    coverage: float
    achieved: float

    @property
    def width(self) -> int:
        return self.hi - self.lo


# ---------------------------------------------------------------------------
# pointwise log-pmf
# ---------------------------------------------------------------------------


def binomial_log_pmf(n: int, p: float, k: int) -> float:
    """log P(K = k) for K ~ Binomial(n, p).

    Evaluated as a window's anchor is, at ``_ANCHOR_DPS`` digits, so it
    stays within an ulp where a double log-gamma identity would not.
    Degenerate probabilities are handled exactly: p == 0 puts certainty at
    k == 0 (symmetrically p == 1 at k == n), never a NaN.
    """
    n = _check_count(n, "n")
    k = _check_count(k, "k")
    p = _check_probability(p, "p")
    if k > n:
        raise DomainError(f"k must satisfy k <= n, got k={k}, n={n}")
    if p == 0.0:
        return 0.0 if k == 0 else -math.inf
    if p == 1.0:
        return 0.0 if k == n else -math.inf
    _check_real(n, "n")
    return _anchor(n, _binomial_terms(n, p))(k)


# ---------------------------------------------------------------------------
# window construction machinery
# ---------------------------------------------------------------------------


def _point_mass(kind: str, k: int) -> CountDistribution:
    return CountDistribution(
        kind=kind,
        support_lo=k,
        support_hi=k,
        log_mass=np.zeros(1),
        truncated_mass=0.0,
    )


#: Elements per block of ``_exact_sum`` and of a window's fill
#: (``_run``): their temporaries stay in cache.
_SUM_BLOCK = 1 << 14

#: ``np.frexp`` exponents of finite doubles lie in [-1073, 1024].
_FREXP_MIN = -1073
_FREXP_SPAN = 1024 - _FREXP_MIN + 1


def _exact_sum(x: np.ndarray) -> float:
    """``math.fsum(x)`` for non-negative doubles: the correctly rounded sum.

    Each value is m * 2^(e-53) with an integer m < 2^53 (``np.frexp``); m
    splits into a high and a low half below 2^27, so every per-exponent
    bucket total of a ``_SUM_BLOCK`` is an integer below 2^53 and
    ``np.bincount`` adds it exactly.  The int64 bucket totals then add
    exactly across blocks, and are combined as one Python integer, whose
    true division by a power of two rounds correctly.  An infinity or NaN
    gives what ``math.fsum`` gives for non-negative inputs: NaN if any value
    is NaN, else infinity (``max`` propagates NaN).
    """
    if len(x) and not math.isfinite(peak := float(x.max())):
        return peak
    his = np.zeros(_FREXP_SPAN, dtype=np.int64)
    los = np.zeros(_FREXP_SPAN, dtype=np.int64)
    for a in range(0, len(x), _SUM_BLOCK):
        m, e = np.frexp(x[a : a + _SUM_BLOCK])
        m *= 2.0**53
        hi = np.floor(m * 2.0**-26)
        m -= hi * 2.0**26
        e -= _FREXP_MIN
        his += np.bincount(e, weights=hi, minlength=_FREXP_SPAN).astype(np.int64)
        los += np.bincount(e, weights=m, minlength=_FREXP_SPAN).astype(np.int64)
    total = 0
    for i in np.flatnonzero(his | los).tolist():
        total += ((int(his[i]) << 26) + int(los[i])) << i
    return total / (1 << (53 - _FREXP_MIN))


def _aligned(x: np.ndarray) -> np.ndarray:
    """A writeable, C-contiguous copy of ``x`` that starts on a 64-byte
    boundary, so that ``np.correlate`` uses it as it is."""
    out = _aligned_empty(len(x))
    out[...] = x
    return out


def _aligned_empty(n: int) -> np.ndarray:
    """An uninitialised array of ``n`` doubles that starts on a 64-byte
    boundary."""
    buf = np.empty(n + 8, dtype=np.float64)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start : start + n]


def _run(
    log_ratio, start: int, stop: int, step: int, carry: float = 0.0, out: np.ndarray | None = None
) -> float:
    """The last value of the running sum of ``log_ratio(k)`` for k from
    ``start`` toward ``stop`` (excluded) by ``step`` (1 or -1), continued
    from ``carry`` (returned as it is for an empty run).  The sum goes one
    chunk of at most ``_SUM_BLOCK`` cells at a time, and is written into
    ``out``, one cell per k in run order, where ``out`` is given.

    Each chunk's first step has the last value added before ``np.cumsum``
    adds in index order: the bits of one ``np.cumsum`` over the whole run,
    however it is split into calls and chunks.  The first carry, 0.0,
    changes no bit, as ``np.log`` never returns -0.0.
    """
    for a in range(start, stop, step * _SUM_BLOCK):
        b = min(a + _SUM_BLOCK, stop) if step > 0 else max(a - _SUM_BLOCK, stop)
        steps = log_ratio(np.arange(a, b, step, dtype=np.float64))
        steps[0] += carry
        i = (a - start) * step
        carry = float(np.cumsum(steps, out=steps if out is None else out[i : i + len(steps)])[-1])
    return carry


def _geometric_tail_bound(edge_log_mass: float, log_r: float) -> float:
    """Upper bound on the tail mass beyond a window edge.

    Valid when the pmf step ratios beyond the edge never exceed ``r``; the
    tail is then dominated by edge_mass * (r + r^2 + ...) = edge_mass *
    r / (1 - r) for r < 1.
    """
    if log_r >= 0.0:
        return math.inf
    r = math.exp(log_r)
    return math.exp(edge_log_mass) * r / (1.0 - r)


def _cap_error(points: int) -> DomainError:
    return DomainError(
        f"support window of {points} points exceeds the "
        f"{_MAX_SUPPORT_POINTS}-point cap; the eps contract cannot be "
        "met at desk scale for these parameters"
    )


def _window(
    mean: float,
    sd: float,
    n_max: int,
    log_ratio,
    anchor_fn,
    anchor_at: int,
    eps: float,
    monotone_lo: bool = True,
    monotone_hi: bool = True,
) -> tuple[int, int, np.ndarray, float]:
    """The bracket-widen-fill loop shared by every window build, and
    the one declaration of its parameters.  It returns the window it
    settles on as ``(lo, hi, log_mass, dropped)``: ``log_mass[i]`` is the
    log mass of count ``lo + i``, and ``dropped`` bounds the mass cut off
    past an underflowed step ratio (0 where none was).  ``_build_windowed``
    stores ``log_mass`` as a law; ``_streamed_interval`` as its cdf.

    Every window lies in the domain ``0..n_max``.  ``monotone_lo`` /
    ``monotone_hi`` declare that the step ratios are nonincreasing past the
    respective edge (log-concave pmf), which is what makes the geometric
    tail bound rigorous.  A side without that guarantee is extended to its
    domain bound outright.

    Each round sums only the cells it adds on each side (``_run``) and
    keeps only each side's last running sum, from which it tests each edge
    on the exact value of its cell.  So a window the cap refuses is refused
    holding one chunk of step logs, not the window.  The widening needs no
    round limit: an edge at its domain bound (0 below, ``n_max`` above)
    passes, and an unsettled round moves each failing edge out by ``step``
    (at least 64, doubling) or onto that bound.  So each edge stops at its
    bound at the latest, and the cap refuses a window before its cells are
    summed, so at most 20 rounds sum cells.  Once both edges pass, the
    window's log masses are filled once, outward from the anchor, into one
    array; each step log is computed again there.  The bits are those of
    one ``np.cumsum`` per side: ``log_ratio`` is elementwise, so each step
    log is the same whatever round or chunk computes it, and no temporary
    of ``log_ratio`` outgrows a ``_SUM_BLOCK``.
    """
    spread = max(_BRACKET_SIGMAS * sd, 8.0)
    lo = max(0, math.floor(mean - spread) - 2) if monotone_lo else 0
    hi = min(math.ceil(mean + spread) + 2, n_max) if monotone_hi else n_max

    per_side = eps / 4.0
    step = max(64, math.ceil(4.0 * sd))
    # Every constructor's anchor lies inside the first bracket, so it stays
    # put while the window widens.  ``run_lo`` and ``run_hi`` are the running
    # sums of the step logs from the anchor down to ``reached_lo`` and up to
    # ``reached_hi``.
    anchor_k = min(max(anchor_at, lo), hi)
    anchor_log = anchor_fn(anchor_k)
    run_lo = run_hi = 0.0
    reached_lo = reached_hi = anchor_k

    def passes(k: int, sign: int, run: float) -> bool:
        """The tail test past the window edge ``k`` on the side ``sign``
        (-1 below, 1 above), on the edge cell ``anchor_log + sign * run``."""
        log_r = sign * float(log_ratio(np.array([k - 1.0 if sign < 0 else float(k)]))[0])
        return _geometric_tail_bound(anchor_log + sign * run, log_r) <= per_side

    while True:
        if hi - lo + 1 > _MAX_SUPPORT_POINTS:
            raise _cap_error(hi - lo + 1)
        run_lo = _run(log_ratio, reached_lo - 1, lo - 1, -1, run_lo)
        run_hi = _run(log_ratio, reached_hi, hi, 1, run_hi)
        reached_lo, reached_hi = lo, hi

        ok_lo = lo == 0 or passes(lo, -1, run_lo)
        ok_hi = hi == n_max or passes(hi, 1, run_hi)
        if ok_lo and ok_hi:
            break
        if not ok_lo:
            lo = max(0, lo - step)
        if not ok_hi:
            hi = min(n_max, hi + step)
        step *= 2

    # the below side is summed through its reversed view, nearest cell first
    log_mass = np.empty(hi - lo + 1)
    log_mass[anchor_k - lo] = anchor_log
    below, above = log_mass[: anchor_k - lo], log_mass[anchor_k - lo + 1 :]
    _run(log_ratio, anchor_k - 1, lo - 1, -1, out=below[::-1])
    np.subtract(anchor_log, below, out=below)
    _run(log_ratio, anchor_k, hi, 1, out=above)
    np.add(anchor_log, above, out=above)

    # A step ratio that underflows to zero (a subnormal risk) leaves -inf
    # cells above it; a log-concave window that ends in -inf ends instead
    # before the first -inf cell above the anchor, and carries the dropped
    # tail's bound.  (A window with a -inf cell at or below the anchor fails
    # the law's finiteness check, cut or not.)
    dropped = 0.0
    if monotone_lo and monotone_hi and len(above) and np.isneginf(above[-1]):
        hi = anchor_k + int(np.argmax(np.isneginf(above)))
        log_mass = log_mass[: hi - lo + 1]
        dropped = _UNDERFLOW_TAIL
    return lo, hi, log_mass, dropped


def _truncated(stored: float, dropped: float, eps: float) -> float:
    """A window build's ``truncated_mass``, from its stored mass."""
    return min(max(1.0 - stored, 0.0) + dropped, eps)


def _build_windowed(kind: str, **args) -> CountDistribution:
    """The law of kind ``kind`` on the window ``_window(**args)`` settles
    on, which it takes over as its ``log_mass``."""
    lo, hi, log_mass, dropped = _window(**args)
    masses = np.exp(log_mass)
    stored = _exact_sum(masses)
    return CountDistribution(
        kind=kind,
        support_lo=lo,
        support_hi=hi,
        log_mass=log_mass,
        truncated_mass=_truncated(stored, dropped, args["eps"]),
        _exp_sum=(masses, stored),
    )


def _streamed_interval(args: CountDistribution | dict, coverage: float) -> CredibleInterval:
    """``central_interval`` at ``coverage`` of the law a constructor's
    checked arguments ``args`` describe (``_binomial_args``,
    ``_beta_binomial_args``), bit for bit, or the same error after the same
    checks, without the law.  A point mass is its own law.

    A window's log masses (``_window``) are turned in place into its cdf:
    they pass the law's finiteness check, are exponentiated, summed exactly
    and then by ``np.cumsum``, the same bits as the law's masses and
    ``_cdf``.  The stored mass then passes the law's truncated-mass and
    identity checks, in the law's order, before ``coverage`` is checked.
    The cdf, written over the window, is all it holds: 8 bytes per cell,
    where a law holds 16 and its cdf 8 more.
    """
    if isinstance(args, CountDistribution):
        return central_interval(args, coverage)
    lo, hi, cdf, dropped = _window(**args)
    _check_finite(cdf)
    stored = _exact_sum(np.exp(cdf, out=cdf))
    np.cumsum(cdf, out=cdf)
    _check_identity(stored, _check_truncated(_truncated(stored, dropped, args["eps"])))
    return _interval(lo, hi, cdf, _check_open_unit(coverage, "coverage"))


# The anchor evaluations are the one place extended precision is needed:
# a double-precision log-gamma difference at arguments ~1e6-1e9 carries an
# absolute error far above what the mass identity tolerates.  mpmath is
# imported here, not at the top: it adds 20-35 ms and about 4 MB to CLI
# start-up, and ``pvalue`` and ``simulate`` never evaluate an anchor.


def _anchor(n: int, terms):
    """The log-pmf at k as a double: log C(n, k) plus the two kind-specific
    ``terms(mpmath, k)``, added in that order at ``_ANCHOR_DPS`` digits."""
    import mpmath

    def anchor(k: int) -> float:
        with mpmath.workdps(_ANCHOR_DPS):
            lg = mpmath.loggamma
            log_choose = lg(n + 1) - lg(k + 1) - lg(n - k + 1)
            first, second = terms(mpmath, k)
            return float(log_choose + first + second)

    return anchor


def _binomial_terms(n: int, p: float):
    """Binomial(n, p)'s two ``_anchor`` terms at k: k log p and
    (n - k) log(1 - p)."""
    return lambda mp, k: (k * mp.log(p), (n - k) * mp.log(1 - mp.mpf(p)))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def binomial_distribution(n: int, p: float, eps: float = DEFAULT_EPS) -> CountDistribution:
    """Binomial(n, p) on a window whose omitted two-sided tail is <= eps."""
    args = _binomial_args(n, p, eps)
    if isinstance(args, CountDistribution):
        return args
    return _build_windowed(kind="binomial", **args)


def _binomial_args(n: int, p: float, eps: float) -> CountDistribution | dict:
    """``binomial_distribution``'s checked arguments: its point mass, or
    the keyword arguments of its window (``_window``)."""
    n = _check_count(n, "n")
    p = _check_probability(p, "p")
    eps = _check_eps(eps)
    if n == 0 or p == 0.0:
        return _point_mass("binomial", 0)
    if p == 1.0:
        return _point_mass("binomial", n)
    _check_real(n, "n")

    q = 1.0 - p

    def log_ratio(ks: np.ndarray) -> np.ndarray:
        # A subnormal p can underflow the ratio to 0 (see _window).
        with np.errstate(divide="ignore"):
            return np.log((n - ks) * p / ((ks + 1.0) * q))

    return dict(
        mean=n * p,
        sd=math.sqrt(n * p * q),
        n_max=n,
        log_ratio=log_ratio,
        anchor_fn=_anchor(n, _binomial_terms(n, p)),
        anchor_at=min(int((n + 1) * p), n),
        eps=eps,
    )


def beta_binomial_distribution(
    n: int, prior: BetaParams, eps: float = DEFAULT_EPS
) -> CountDistribution:
    """Beta-binomial: a binomial whose p is integrated over ``prior``.

    pmf(k) = C(n,k) * B(k+alpha, n-k+beta) / B(alpha, beta), evaluated in
    log-space.  For alpha < 1 (resp. beta < 1) the pmf can turn upward near
    the lower (upper) domain edge, so the geometric tail bound does not
    apply there and the window is extended to that edge instead.
    """
    args = _beta_binomial_args(n, prior, eps)
    if isinstance(args, CountDistribution):
        return args
    return _build_windowed(kind="beta-binomial", **args)


def _beta_binomial_args(n: int, prior: BetaParams, eps: float) -> CountDistribution | dict:
    """``beta_binomial_distribution``'s checked arguments: its point mass,
    or the keyword arguments of its window (``_window``)."""
    n = _check_count(n, "n")
    if not isinstance(prior, BetaParams):
        raise DomainError("prior must be a BetaParams instance")
    eps = _check_eps(eps)
    if n == 0:
        return _point_mass("beta-binomial", 0)
    _check_real(n, "n")
    a, b = prior.alpha, prior.beta

    def log_ratio(ks: np.ndarray) -> np.ndarray:
        return np.log((n - ks) * (ks + a) / ((ks + 1.0) * (n - ks - 1.0 + b)))

    def log_beta_terms(mp, k: int):
        # log B(k + a, n - k + b) and -log B(a, b): adding the negated term
        # keeps the bits of subtracting it
        lg, a_, b_ = mp.loggamma, mp.mpf(a), mp.mpf(b)
        x, y = k + a_, n - k + b_
        return lg(x) + lg(y) - lg(x + y), -(lg(a_) + lg(b_) - lg(a_ + b_))

    c = a + b
    mean = n * a / c
    var = n * a * b * (c + n) / (c * c * (c + 1.0))
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise DomainError(f"the count moments of prior {prior} overflow a float")
    if c > MAX_CONCENTRATION:
        raise DomainError(
            f"prior {prior} is too concentrated: alpha + beta = {c!r} exceeds "
            f"the bound {MAX_CONCENTRATION:g}"
        )
    return dict(
        mean=mean,
        sd=math.sqrt(var),
        n_max=n,
        log_ratio=log_ratio,
        anchor_fn=_anchor(n, log_beta_terms),
        anchor_at=int(round(mean)),
        eps=eps,
        monotone_lo=a >= 1.0,
        monotone_hi=b >= 1.0,
    )


def convolve(
    a: CountDistribution, b: CountDistribution, eps: float = DEFAULT_EPS
) -> CountDistribution:
    """Distribution of the sum of two independent counts.

    Direct convolution of the stored linear-space masses.  The output window
    is trimmed so that each dropped tail holds at most eps/4, and the
    result's truncated_mass is <= a.truncated_mass + b.truncated_mass + eps.

    Only the kept cells are computed (``_kept_cells``).  Each trim bound is
    found from prefix sums of the inputs and accepted only past the rounding
    margin of ``_prefix_margin``; otherwise every cell is computed and the
    tails are trimmed from their running sums.  Either way the bytes are
    those of trimming one full ``np.convolve``.
    """
    _check_law(a, "a")
    _check_law(b, "b")
    eps = _check_eps(eps)
    # np.convolve(a, b) with its operand order (the longer first, ``a`` on
    # a tie), so every cell comes from the same dot product, on 64-byte
    # aligned copies: np.convolve copies read-only masses to wherever the
    # heap puts them, and its dot products run slower off that alignment.
    longer, shorter = (b, a) if len(b.masses) > len(a.masses) else (a, b)
    start, kept = _kept_cells(_aligned(longer.masses), _aligned(shorter.masses[::-1]), eps / 4.0)
    lo = a.support_lo + b.support_lo + start

    # Both end cells are positive (``_kept_cells``).  Interior cells can
    # underflow to exactly zero only when the inputs are strongly bimodal;
    # floor them at the smallest normal double (an overstatement of at most
    # ~1e-300 mass) to keep the logs finite.
    kept = np.maximum(kept, np.finfo(np.float64).tiny)

    stored = _exact_sum(kept)
    cap = a.truncated_mass + b.truncated_mass + eps
    truncated = min(max(1.0 - stored, 0.0), cap)
    return CountDistribution(
        kind="convolution",
        support_lo=lo,
        support_hi=lo + len(kept) - 1,
        log_mass=np.log(kept),
        truncated_mass=truncated,
    )


def _kept_cells(x: np.ndarray, y: np.ndarray, budget: float) -> tuple[int, np.ndarray]:
    """``start`` and cells ``start`` to ``stop - 1`` of ``full =
    np.correlate(x, y, "full")``, for ``len(x) >= len(y)``: each tail is
    trimmed while its running ``np.cumsum`` stays at most ``budget``, but
    not past the first largest cell.

    The bounds come from ``_certified_head`` on the operands and on their
    reverses.  Every cell of a trimmed tail is at most its running sum, so
    once a kept cell exceeds ``budget`` the largest cell is kept and the
    clamp to it changes nothing.  Where a bound is not certified, the tails
    meet, or no kept cell exceeds ``budget``, every cell is computed and
    trimmed from its running sums.

    Both end cells are positive: a running sum passes ``budget`` (at least
    0) only by adding a positive cell, and the largest cell of two laws'
    masses is positive.
    """
    cells = len(x) + len(y) - 1
    start = _certified_head(x, y, budget)
    if start is not None:
        tail = _certified_head(x[::-1], y[::-1], budget)
        if tail is not None and start < cells - tail:
            kept = _correlate(x, y, start, cells - tail)
            if kept.max() > budget:
                return start, kept
    full = _correlate(x, y, 0, cells)
    csum = np.cumsum(full)
    start = int(np.searchsorted(csum, budget, side="right"))
    rsum = np.cumsum(full[::-1])
    stop = cells - int(np.searchsorted(rsum, budget, side="right"))
    peak = int(np.argmax(full))
    start = min(start, peak)
    return start, full[start : max(stop, peak + 1)]


def _prefix_margin(n1: int, n2: int, budget: float):
    """Exact cut-offs ``(below, above)`` for ``_certified_head``: an
    estimate ``q`` of a prefix of the full correlate of non-negative operands
    of lengths ``n1 >= n2`` at most ``below`` certifies that the prefix's
    running sum ``s``, as ``np.cumsum`` computes it over the computed cells,
    is at most ``budget``; one above ``above`` certifies that it exceeds it.

    They follow from  (1 - delta) * q - tiny <= s <= (1 + delta) * q + tiny.
    With u = 2^-53 and gamma_k = k*u / (1 - k*u) (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., sections 3.1 and 4.2), a
    sum of non-negative terms, in any order, of which each passes through
    at most k roundings lies within gamma_k of the exact sum, relatively.
    A cell is a dot product of at most n2 terms, in whatever order the BLAS
    takes, and the running sum adds at most n1 + n2 - 2 more roundings:
    k = n1 + 2*n2 - 2.  The estimate rounds n1 - 1 times in ``np.cumsum``
    of the longer operand and n2 times in its sum of products, once in each
    product and at most n2 - 1 times in ``np.sum``'s additions, in any
    order: k = n1 + n2 - 1.
    Chaining the two bounds through the exact sum costs gamma of at most
    twice the total count: delta.  Each product may also underflow, by at
    most 2^-1075 absolute: n2 products for the estimate and (n1 + n2 - 1) *
    n2 for the running sum, which ``tiny`` doubles to absorb the relative
    growth of those errors.
    """
    from fractions import Fraction  # here, not at the top: it adds 2-3 ms to CLI start-up

    k = 2 * ((n1 + 2 * n2 - 2) + (n1 + n2 - 1))
    delta = Fraction(k, 2**53 - k)
    tiny = Fraction((n1 + n2) * n2, 2**1074)
    budget = Fraction(budget)
    return (budget - tiny) / (1 + delta), (budget + tiny) / (1 - delta)


def _certified_head(x: np.ndarray, y: np.ndarray, budget: float) -> int | None:
    """The number of leading cells of ``np.correlate(x, y, "full")`` whose
    running ``np.cumsum`` stays at most ``budget``, for ``len(x) >=
    len(y)``, without computing the cells; None where a comparison on the
    way falls between the cut-offs of ``_prefix_margin``.

    The first m cells sum to  sum_t y[t] * X[m - len(y) + t],  where X is
    the running sum of ``x`` (0 before it, its total past it), one sum of
    products per m; the running sums never decrease, so bisection finds the
    count in about log2 of the cell count of them.
    """
    n1, n2 = len(x), len(y)
    below, above = _prefix_margin(n1, n2, budget)
    # ext[m + t] = X[m - n2 + t]
    ext = np.empty(n1 + 2 * n2 - 1)
    ext[:n2] = 0.0
    np.cumsum(x, out=ext[n2 : n2 + n1])
    ext[n2 + n1 :] = ext[n2 + n1 - 1]
    # the sum of the first ``lo`` cells is at most budget, that of ``hi``
    # exceeds it; hi = cells + 1 stands for past the end
    lo, hi = 0, n1 + n2
    while hi - lo > 1:
        m = (lo + hi) // 2
        q = float(np.sum(y * ext[m : m + n2]))
        if q <= below:
            lo = m
        elif q > above:
            hi = m
        else:
            return None
    return lo


def _correlate(x: np.ndarray, y: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Cells ``start`` to ``stop - 1`` of ``np.correlate(x, y, "full")``,
    for ``len(x) >= len(y)``, with the bits of that call on one OpenBLAS
    thread, split by ``_parallel.split`` at the cost of ``_cost_before``.
    A range that costs at least the full correlate's ``len(x) * len(y)``
    multiply-adds is sliced from one full ``np.correlate``; a cheaper one
    comes from ``_cells``."""
    n1, n2 = len(x), len(y)
    base = _cost_before(n1, n2, start)

    def cost_before(m: int) -> int:
        return _cost_before(n1, n2, start + m) - base

    def fill(a: int, b: int, out: np.ndarray) -> None:
        # one full correlate is one call, where the range pays a Python call
        # for each edge cell; it is the cheaper whenever the range costs more
        if cost_before(b) - cost_before(a) >= n1 * n2:
            out[...] = np.correlate(x, y, "full")[start + a : start + b]
        else:
            _cells(x, y, start + a, start + b, out)

    # workers forked here inherit the one thread; where none could be pinned,
    # none is forked
    with _parallel.one_blas_thread() as pinned:
        threshold = _PARALLEL_MIN_MACS if pinned else math.inf
        return _parallel.split(fill, (stop - start,), cost_before, threshold)


def _cells(x: np.ndarray, y: np.ndarray, start: int, stop: int, out: np.ndarray) -> None:
    """Write cells ``start`` to ``stop - 1`` of ``np.correlate(x, y,
    "full")`` into ``out``, each the dot product that call computes, on the
    same operands: an edge cell (shorter than ``len(y)``) through numpy's dot
    function, the full-length cells through one ``"valid"`` correlate, which
    takes the same small-kernel branch as the full call.

    Left-edge cell k reads ``y`` from offset n2 - 1 - k, right-edge cell k
    reads ``x`` from offset k - n2 + 1: that start slides by one element a
    cell, so most cells would read it across cache lines.  The edge cells go
    instead in phases of their sliding offset mod 8 (``_phases``), each on a
    copy of the sliding operand in one reused buffer that puts every offset
    of the phase on a 64-byte boundary; the other operand starts at its own.
    Each cell is still the same dot product on the same values and length.
    OpenBLAS's ddot kernels read unaligned and peel nothing off for
    alignment, so the bits do not depend on where the operands sit, as the
    ``_aligned`` copies in ``convolve`` also take."""
    n1, n2 = len(x), len(y)
    vdot = np.vdot
    # the offsets into y of the left-edge cells and into x of the right-edge
    # cells; either side copies at most n2 - 1 elements
    y_lo, y_hi = n2 - min(stop, n2 - 1), n2 - start
    x_lo, x_hi = max(start, n1) - n2 + 1, stop - n2 + 1
    buf = _aligned_empty(n2 - 1)
    for j0, w in _phases(y, y_lo, y_hi, buf):
        for j in range(j0, y_hi, 8):
            out[n2 - 1 - j - start] = vdot(x[: n2 - j], w[j - j0 :])
    lo, hi = max(start, n2 - 1), min(stop, n1)
    if lo < hi:
        out[lo - start : hi - start] = np.correlate(x[lo - n2 + 1 : hi], y, "valid")
    for i0, w in _phases(x, x_lo, x_hi, buf):
        for i in range(i0, x_hi, 8):
            out[n2 - 1 + i - start] = vdot(w[i - i0 :], y[: n1 - i])


def _phases(v: np.ndarray, lo: int, hi: int, buf: np.ndarray):
    """For each of the first (at most) eight offsets ``j0`` of ``lo`` to
    ``hi - 1``, one per phase mod 8, yield ``j0`` and ``v[j0:]`` copied to
    the start of ``buf``, which starts on a 64-byte boundary: every offset
    ``j0 + 8i`` of ``v`` then sits on one too.  Each phase overwrites the
    last, so one copy is live at a time."""
    for j0 in range(lo, min(lo + 8, hi)):
        w = buf[: len(v) - j0]
        w[...] = v[j0:]
        yield j0, w


def _cost_before(n1: int, n2: int, m: int) -> int:
    """The multiply-adds of the first ``m`` of the ``n1 + n2 - 1`` cells of
    a full correlate, plus ``_EDGE_CELL_MACS`` for each of them among the
    ``n2 - 1`` edge cells on either side; in closed form, and symmetric."""
    cells, edge = n1 + n2 - 1, n2 - 1

    def head(j: int) -> int:  # the cost of the first j <= n1 cells
        e = min(j, edge)
        return e * (e + 1) // 2 + e * _EDGE_CELL_MACS + (j - e) * n2

    return head(m) if m <= n1 else n1 * n2 + 2 * edge * _EDGE_CELL_MACS - head(cells - m)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def mode(d: CountDistribution) -> int:
    """Count with the largest stored mass; ties break to the smallest count."""
    _check_law(d, "d")
    return d.support_lo + int(np.argmax(d.log_mass))


def quantile(d: CountDistribution, q: float) -> int:
    """Smallest count whose stored CDF is >= q.

    Quantiles are taken against the stored mass; a q within truncated_mass
    of 1 clamps to the top of the window.
    """
    _check_law(d, "d")
    q = _check_open_unit(q, "q")
    return min(d.support_lo + int(np.searchsorted(d._cdf, q, side="left")), d.support_hi)


def central_interval(d: CountDistribution, coverage: float) -> CredibleInterval:
    """Equal-tail interval [quantile((1-c)/2), quantile(1-(1-c)/2)].

    The reported ``achieved`` coverage is the stored mass inside the
    interval, which by construction is >= the request; a request within the
    truncation budget of 1 cannot be certified and raises instead.
    ``_streamed_interval`` reads the same interval from a window it never
    stores as a law.
    """
    coverage = _check_open_unit(coverage, "coverage")
    _check_law(d, "d")
    return _interval(d.support_lo, d.support_hi, d._cdf, coverage)


def _interval(lo: int, hi: int, cdf: np.ndarray, coverage: float) -> CredibleInterval:
    """``central_interval`` at the checked ``coverage`` of the law on
    ``lo..hi`` whose stored cdf is ``cdf``.  Each quantile is ``quantile``'s,
    and is refused as ``quantile`` refuses it: at coverage 1 - 2^-53 the
    upper one, 1 - tail, rounds to 1."""
    tail = (1.0 - coverage) / 2.0
    q_lo, q_hi = (
        min(lo + int(np.searchsorted(cdf, _check_open_unit(q, "q"), side="left")), hi)
        for q in (tail, 1.0 - tail)
    )
    achieved = float(cdf[q_hi - lo]) - (float(cdf[q_lo - lo - 1]) if q_lo > lo else 0.0)
    if achieved < coverage - 1e-12:
        raise DomainError(
            f"achieved coverage {achieved!r} falls short of {coverage!r}; "
            "rebuild the distribution with a smaller eps"
        )
    return CredibleInterval(lo=q_lo, hi=q_hi, coverage=coverage, achieved=achieved)
