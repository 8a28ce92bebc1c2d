"""Truncated discrete count distributions, stored in log-space.

Binomial, Poisson, and beta-binomial laws over populations up to ~1e8 are
represented on a finite support window.  Whatever probability falls outside
the window is carried explicitly in ``truncated_mass`` instead of being
renormalised away, so every downstream probability comes with an honest
error bound.

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

One widening loop (``_window``) finds each window.  Each round tests each
edge once: against the filled cell, or, in a round that would fill a
million cells or more toward the cap, against the anchor function at the
edge within a certified slack, so that a window the cap refuses is refused
before it is filled.  Its runs of step sums are read once, each block's
log masses written over its run chunk (``_Window.log_blocks``).
``_build_windowed`` stores them as a law; callers that need only an
interval (calibration and spread reports) turn each block in place into
its block of the cdf (``_StreamedCdf``), through the same checks and to the
same bits, holding 8 bytes per cell where a law holds 16 and its cdf 8 more.

Convolution is a direct ``np.correlate`` that computes only the cells its
trim keeps.  Each tail is dropped while its running sum stays at most eps/4;
where a tail ends is found without computing its cells, from prefix sums of
the inputs, and accepted only where it clears a rounding margin
(``_prefix_margin``) that makes it the bound the running sum of every cell
would give.  Otherwise every cell is computed and the tails are trimmed from
their running sums.  The computed cells go to ``_parallel.split``, which
runs them in-process or in ranges across forked workers; each edge cell is
charged for its own Python call, and a range that costs at least the whole
correlate is sliced from one full call instead.  Each cell comes from the
same dot product on the same operands as in one full call, so the bits
depend neither on the trim's path nor on the worker count.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

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
    "poisson_distribution",
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

#: From the first widening round that would fill this many cells or more,
#: ``_window``'s loop walks without filling, deciding each edge from the
#: anchor function, so that a window the cap will refuse is refused before
#: it is filled.
_WALK_MIN_CELLS = 1 << 20

#: Unit roundoff of a double.
_U = 2.0**-53

#: Bound on the absolute error of an anchor's 40-digit evaluation before its
#: rounding to a double, wherever ``_window``'s loop walks (cell indices
#: below 2^53).  Its dozen log-gamma and log terms stay below 1e27 in
#: magnitude (c ln c at ``MAX_CONCENTRATION``; n ln n and lambda ln lambda
#: are far smaller there), and each operation at ``_ANCHOR_DPS`` digits (136
#: bits) errs by under 2^-135 of its result: 12 * 1e27 * 2^-135 < 3e-13.
_ANCHOR_ERROR = 1e-12

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


def _check_probability(value: float, name: str) -> float:
    value = float(value)
    if not (0.0 <= value <= 1.0):  # also rejects NaN
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def _check_count(value: int, name: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return value


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not (0.0 < eps <= MAX_EPS):
        raise DomainError(f"eps must lie in (0, {MAX_EPS}], got {eps!r}")
    return eps


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
            v = float(getattr(self, name))
            if not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{name} must be finite and > 0, got {v!r}")
            object.__setattr__(self, name, v)

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def concentration(self) -> float:
        return self.alpha + self.beta


_KINDS = ("binomial", "poisson", "beta-binomial", "convolution")


# The mass contract's checks, shared by ``CountDistribution`` and the
# streamed interval probe (``_StreamedCdf``), which reads a window it never
# stores.


def _check_finite(log_mass: np.ndarray) -> None:
    # min and max propagate NaN, so they test finiteness without a
    # window-sized temporary
    if not (math.isfinite(log_mass.min()) and math.isfinite(log_mass.max())):
        raise DomainError("every stored log_mass must be finite")


def _check_truncated(truncated_mass: float) -> float:
    trunc = float(truncated_mass)
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

    def _search(self, q: float) -> int:
        """``np.searchsorted(cdf, q, side="left")`` on the stored cdf."""
        return int(np.searchsorted(self._cdf, q, side="left"))

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
        return float(np.dot(ks, self.masses))

    def variance(self) -> float:
        ks = np.arange(self.support_lo, self.support_hi + 1, dtype=np.float64)
        mu = self.mean()
        return float(np.dot((ks - mu) ** 2, self.masses))


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
    choose = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return choose + k * math.log(p) + (n - k) * math.log1p(-p)


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
#: (``_extend_run``): their temporaries stay in cache.
_SUM_BLOCK = 1 << 14

#: ``np.frexp`` exponents of finite doubles lie in [-1073, 1024].
_FREXP_MIN = -1073
_FREXP_SPAN = 1024 - _FREXP_MIN + 1


class _ExactSum:
    """The correctly rounded sum of non-negative doubles, fed a block at a
    time (``add``) and read once all are in (``total``).

    Equal to ``math.fsum`` over every value added, which is also correctly
    rounded, whatever the split into blocks.  Each value is m * 2^(e-53)
    with an integer m < 2^53 (``np.frexp``); m splits into a high and a low
    half below 2^27, so every per-exponent bucket total of a ``_SUM_BLOCK``
    is an integer below 2^53 and ``np.bincount`` adds it exactly.  The
    int64 bucket totals then add exactly across blocks, and are combined as
    one Python integer, whose true division by a power of two rounds
    correctly.  An infinity or NaN gives what ``math.fsum`` gives for
    non-negative inputs: NaN if any value is NaN, else infinity.
    """

    def __init__(self) -> None:
        self._hi = np.zeros(_FREXP_SPAN, dtype=np.int64)
        self._lo = np.zeros(_FREXP_SPAN, dtype=np.int64)
        self._non_finite: float | None = None

    def add(self, x: np.ndarray) -> _ExactSum:
        if len(x) and not math.isfinite(peak := float(x.max())):
            if self._non_finite is None or math.isnan(peak):
                self._non_finite = peak
        if self._non_finite is not None:
            return self
        for a in range(0, len(x), _SUM_BLOCK):
            m, e = np.frexp(x[a : a + _SUM_BLOCK])
            m *= 2.0**53
            hi = np.floor(m * 2.0**-26)
            m -= hi * 2.0**26
            e -= _FREXP_MIN
            self._hi += np.bincount(e, weights=hi, minlength=_FREXP_SPAN).astype(np.int64)
            self._lo += np.bincount(e, weights=m, minlength=_FREXP_SPAN).astype(np.int64)
        return self

    def total(self) -> float:
        if self._non_finite is not None:
            return self._non_finite
        total = 0
        for i in np.flatnonzero(self._hi | self._lo).tolist():
            total += ((int(self._hi[i]) << 26) + int(self._lo[i])) << i
        return total / (1 << (53 - _FREXP_MIN))


def _exact_sum(x: np.ndarray) -> float:
    """``math.fsum(x)`` for non-negative doubles, through ``_ExactSum``."""
    return _ExactSum().add(x).total()


def _aligned(x: np.ndarray) -> np.ndarray:
    """A writeable, C-contiguous copy of ``x`` that starts on a 64-byte
    boundary, so that ``np.correlate`` uses it as it is."""
    buf = np.empty(len(x) + 8, dtype=np.float64)
    start = (-buf.ctypes.data % 64) // 8
    out = buf[start : start + len(x)]
    out[...] = x
    return out


def _extend_run(run: list[np.ndarray], log_ratio, start: int, stop: int, step: int) -> None:
    """Append to ``run`` the running sum of ``log_ratio(k)`` for k from
    ``start`` toward ``stop`` (excluded) by ``step`` (1 or -1), one chunk of
    at most ``_SUM_BLOCK`` cells at a time.  Each chunk continues from the
    run's last value: the same bits as one ``np.cumsum`` over the whole run."""
    for a in range(start, stop, step * _SUM_BLOCK):
        b = min(a + _SUM_BLOCK, stop) if step > 0 else max(a - _SUM_BLOCK, stop)
        steps = log_ratio(np.arange(a, b, step, dtype=np.float64))
        if run:
            steps[0] += run[-1][-1]
        run.append(np.cumsum(steps))


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


def _edge_slack(anchor_log: float, edge_log: float, steps: int) -> float:
    """A bound on how far a window edge ``steps`` cells from the anchor, as
    filled, lies from ``edge_log``, the anchor's value at the edge.

    The filled cell is ``anchor_log`` plus the running sum of ``steps``
    step logs.  The bound is the sum of:
      * each anchor's own error, ``_ANCHOR_ERROR`` plus its rounding;
      * each step's quotient, at most five roundings, and its log, within
        4 ulps: 5u per step plus 8u times the sum of |step logs|, which a
        unimodal pmf bounds by -anchor_log - edge_log (its mode's log is
        at most 0);
      * the running sum's rounding, at most u times the sum of its partial
        sums (Higham, *Accuracy and Stability of Numerical Algorithms*,
        2nd ed., section 4.2), each at most max(-anchor_log, anchor_log -
        edge_log) by unimodality;
      * the roundings of the edge's own sum and of ``edge_log`` +- slack.
    The 1s and 2s added to the log bounds absorb the difference between the
    evaluated and the true logs, far below 1.
    """
    partial = max(-anchor_log, anchor_log - edge_log) + 1.0
    variation = -anchor_log - edge_log + 2.0
    return 2.0 * _ANCHOR_ERROR + 1.01 * _U * (
        steps * (partial + 7.0)
        + 8.0 * variation
        + 4.0 * (abs(anchor_log) + abs(edge_log) + 1.0)
    )


def _edge_decision(
    anchor_log: float, edge_log: float, steps: int, log_r: float, per_side: float
) -> bool | None:
    """Whether a window edge ``steps`` cells from the anchor passes the
    widening loop's tail test, decided from ``edge_log``, the anchor's value
    at the edge, instead of the filled cell; None when undecided.

    The test is monotone in the edge's value, so it is decided where it
    holds at ``edge_log + slack`` or fails at ``edge_log - slack``
    (``_edge_slack``): where the tail bound clears eps/4 by a factor
    exp(slack).
    """
    slack = _edge_slack(anchor_log, edge_log, steps)
    if not slack < 1.0:
        return None
    if _geometric_tail_bound(edge_log + slack, log_r) <= per_side:
        return True
    if _geometric_tail_bound(edge_log - slack, log_r) > per_side:
        return False
    return None


class _Window(NamedTuple):
    """A window the widening loop of ``_window`` settled on, as the running
    sums of step logs it filled, not yet as log masses.

    ``below`` and ``above`` hold, chunk by chunk, the running sums of the
    step logs outward from the anchor: cell ``anchor_k - 1 - t`` is
    ``anchor_log - below[t]`` and cell ``anchor_k + 1 + t`` is ``anchor_log
    + above[t]``, counting t over the chunks in order.  ``dropped`` bounds
    the mass cut off past an underflowed step ratio (0 where none was).
    """

    lo: int
    hi: int
    anchor_log: float
    below: list[np.ndarray]
    above: list[np.ndarray]
    dropped: float

    def log_blocks(self):
        """The window's log masses, block by block in index order, each
        written in place over the run chunk it comes from: the ``below``
        chunks last first, each through its reversed view, then the anchor's
        own cell, then the ``above`` chunks.  Each cell is the one
        subtraction or addition that also makes it in a whole-window fill.
        Single-use: once read, the runs hold log masses, not step sums."""
        for chunk in reversed(self.below):
            block = chunk[::-1]
            yield np.subtract(self.anchor_log, block, out=block)
        yield np.array([self.anchor_log])
        for chunk in self.above:
            yield np.add(self.anchor_log, chunk, out=chunk)


def _window(
    mean: float,
    sd: float,
    n_max: int | None,
    log_ratio,
    anchor_fn,
    anchor_at: int,
    eps: float,
    monotone_lo: bool = True,
    monotone_hi: bool = True,
) -> _Window:
    """The bracket-fill-verify-widen loop shared by every window build, and
    the one declaration of its parameters.  The window it returns is read
    once (``_Window.log_blocks``): ``_build_windowed`` stores its log
    masses, ``_StreamedCdf`` keeps its cdf.

    ``monotone_lo`` / ``monotone_hi`` declare that the step ratios are
    nonincreasing past the respective edge (log-concave pmf), which is what
    makes the geometric tail bound rigorous.  A side without that guarantee
    is extended to its domain edge outright.

    Each round fills its new cells in blocks of ``_SUM_BLOCK``
    (``_extend_run``), so no temporary of ``log_ratio`` outgrows a block.
    The bits are those of one fill: ``log_ratio`` is elementwise, so each
    step log is the same whatever block holds it, and ``np.cumsum`` adds in
    index order, so a block whose first step has the run's last value added
    continues the very same sequence of roundings.

    Each round decides each edge once.  From the first round that would
    fill ``_WALK_MIN_CELLS`` cells, the loop walks: it decides each edge
    from ``anchor_fn`` at the edge instead of the filled cell
    (``_edge_decision``) and widens without filling, so that a window the
    cap refuses is refused before it is filled.  Each walked decision is
    the one the filled cell would give.  The walk ends for good at its
    first undecided edge or at a window whose two sides both pass; the next
    round fills up to that window and tests the filled edges.
    """
    spread = max(_BRACKET_SIGMAS * sd, 8.0)
    lo = max(0, math.floor(mean - spread) - 2)
    hi = math.ceil(mean + spread) + 2
    if n_max is not None:
        hi = min(hi, n_max)
    if not monotone_lo:
        lo = 0
    if not monotone_hi:
        if n_max is None:
            raise DomainError("unbounded support requires monotone tail ratios")
        hi = n_max

    per_side = eps / 4.0
    step = max(64, math.ceil(4.0 * sd))
    # Every constructor's anchor lies inside the first bracket, so it stays
    # put while the window widens.  Each round fills only the cells it adds:
    # ``above`` and ``below`` cover the cells down to ``filled_lo`` and up
    # to ``filled_hi``.
    anchor_k = min(max(anchor_at, lo), hi)
    anchor_log = anchor_fn(anchor_k)
    above: list[np.ndarray] = []
    below: list[np.ndarray] = []
    filled_lo = filled_hi = anchor_k

    def passes(k: int, sign: int, run: list[np.ndarray], walking: bool) -> bool | None:
        """The tail test past the window edge ``k`` on the side ``sign``
        (-1 below, 1 above): decided from ``anchor_fn(k)`` while walking,
        else from the filled cell, the last of ``run``."""
        log_r = sign * float(log_ratio(np.array([k - 1.0 if sign < 0 else float(k)]))[0])
        if walking:
            return _edge_decision(anchor_log, anchor_fn(k), sign * (k - anchor_k), log_r, per_side)
        edge = anchor_log + sign * run[-1][-1] if run else anchor_log
        return _geometric_tail_bound(float(edge), log_r) <= per_side

    # a window can outgrow the cap only if the domain is wider than it, and
    # the walk's error bound needs cell indices that are exact doubles
    walk = n_max is None or _MAX_SUPPORT_POINTS < n_max + 1 < 2**53
    for _ in range(128):
        if hi - lo + 1 > _MAX_SUPPORT_POINTS:
            raise _cap_error(hi - lo + 1)
        walking = walk and (filled_lo - lo) + (hi - filled_hi) >= _WALK_MIN_CELLS
        if not walking:
            if lo < filled_lo:
                _extend_run(below, log_ratio, filled_lo - 1, lo - 1, -1)
                filled_lo = lo
            if hi > filled_hi:
                _extend_run(above, log_ratio, filled_hi, hi, 1)
                filled_hi = hi

        ok_lo = lo == 0 or passes(lo, -1, below, walking)
        ok_hi = (n_max is not None and hi == n_max) or passes(hi, 1, above, walking)
        if walking and (ok_lo is None or ok_hi is None or (ok_lo and ok_hi)):
            walk = False  # the next round fills this window and tests it
            continue
        if ok_lo and ok_hi:
            break
        if not ok_lo:
            lo = max(0, lo - step)
        if not ok_hi:
            hi = hi + step if n_max is None else min(n_max, hi + step)
        step *= 2
    else:  # pragma: no cover - the widening loop reaches a domain edge first
        raise DomainError("support bracketing failed to satisfy the eps contract")

    # A step ratio that underflows to zero (a subnormal risk) leaves -inf
    # cells above it; a log-concave window that ends in -inf ends instead
    # before the first -inf cell above the anchor, and carries the dropped
    # tail's bound.  (A window with a -inf cell at or below the anchor fails
    # the law's finiteness check, cut or not.)
    dropped = 0.0
    if monotone_lo and monotone_hi and above and np.isneginf(anchor_log + above[-1][-1]):
        for i, chunk in enumerate(above):
            cut = np.flatnonzero(np.isneginf(anchor_log + chunk))
            if len(cut):
                above = above[:i] + ([chunk[: cut[0]]] if cut[0] else [])
                break
        hi = anchor_k + sum(map(len, above))
        dropped = _UNDERFLOW_TAIL
    return _Window(lo, hi, anchor_log, below, above, dropped)


def _truncated(stored: float, dropped: float, eps: float) -> float:
    """A window build's ``truncated_mass``, from its stored mass."""
    return min(max(1.0 - stored, 0.0) + dropped, eps)


def _build_windowed(kind: str, **args) -> CountDistribution:
    """The law of kind ``kind`` on the window ``_window(**args)`` settles
    on, its log masses joined from the window's one read
    (``_Window.log_blocks``)."""
    w = _window(**args)
    log_mass = np.concatenate(list(w.log_blocks()))
    lo, hi, dropped = w.lo, w.hi, w.dropped
    del w  # frees the runs before the window is exponentiated

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


class _StreamedCdf:
    """What ``central_interval`` reads of the law ``_build_windowed`` makes
    of a window -- its support, ``cdf`` and ``_search`` -- without the law.

    The window is read once (``_Window.log_blocks``), block by block in
    index order, and each block is turned in place into its block of the
    cdf: it passes the law's finiteness check, is exponentiated, added to
    the exact sum, and summed by ``np.cumsum`` continuing from the last
    value of the block before, the same bits as one ``np.cumsum`` over the
    window.  The stored mass then passes the law's truncated-mass and
    identity checks, in the law's order.  The cdf blocks, written over the
    window's runs, are all it holds: 8 bytes per cell, read by a quantile
    search or a cdf value without recomputing a cell.
    """

    def __init__(self, w: _Window, eps: float) -> None:
        self.support_lo, self.support_hi = w.lo, w.hi
        total = _ExactSum()
        self._blocks = []
        carry = 0.0
        for block in w.log_blocks():
            _check_finite(block)
            total.add(np.exp(block, out=block))
            block[0] += carry  # 0.0 added to the first mass changes no bit
            carry = np.cumsum(block, out=block)[-1]
            self._blocks.append(block)
        stored = total.total()
        _check_identity(stored, _check_truncated(_truncated(stored, w.dropped, eps)))
        self._starts = np.cumsum([0] + [len(block) for block in self._blocks[:-1]])
        self._ends = np.array([block[-1] for block in self._blocks])

    def _search(self, q: float) -> int:
        """``np.searchsorted(cdf, q, side="left")`` on the window's cdf:
        in the first block whose last value reaches ``q``."""
        j = int(np.searchsorted(self._ends, q, side="left"))
        if j == len(self._ends):
            return self.support_hi - self.support_lo + 1
        return int(self._starts[j]) + int(np.searchsorted(self._blocks[j], q, side="left"))

    def cdf(self, k: int) -> float:
        """``CountDistribution.cdf``: the stored mass at counts <= k."""
        i = min(k, self.support_hi) - self.support_lo
        if i < 0:
            return 0.0
        j = int(np.searchsorted(self._starts, i, side="right")) - 1
        return float(self._blocks[j][i - self._starts[j]])


def _streamed_law(args: CountDistribution | dict) -> CountDistribution | _StreamedCdf:
    """The law a constructor's checked arguments ``args`` describe
    (``_binomial_args``, ``_beta_binomial_args``), as ``central_interval``
    reads it: a point mass as it is, a window as a ``_StreamedCdf``.
    ``central_interval`` of it is that of the constructor's law, bit for
    bit, or raises the same error after the same checks."""
    if isinstance(args, CountDistribution):
        return args
    return _StreamedCdf(_window(**args), args["eps"])


# The anchor evaluations are the one place extended precision is needed:
# a double-precision log-gamma difference at arguments ~1e6-1e9 carries an
# absolute error far above what the mass identity tolerates.  mpmath is
# imported here, not at the top: it adds 20-35 ms and about 4 MB to CLI
# start-up, and ``pvalue`` and ``simulate`` never evaluate an anchor.


def _binomial_anchor(n: int, p: float):
    import mpmath

    def anchor(k: int) -> float:
        with mpmath.workdps(_ANCHOR_DPS):
            x = mpmath.mpf(p)
            v = (
                mpmath.loggamma(n + 1)
                - mpmath.loggamma(k + 1)
                - mpmath.loggamma(n - k + 1)
                + k * mpmath.log(x)
                + (n - k) * mpmath.log(1 - x)
            )
            return float(v)

    return anchor


def _poisson_anchor(lam: float):
    import mpmath

    def anchor(k: int) -> float:
        with mpmath.workdps(_ANCHOR_DPS):
            x = mpmath.mpf(lam)
            return float(-x + k * mpmath.log(x) - mpmath.loggamma(k + 1))

    return anchor


def _beta_binomial_anchor(n: int, a: float, b: float):
    import mpmath

    def anchor(k: int) -> float:
        with mpmath.workdps(_ANCHOR_DPS):
            aa = mpmath.mpf(a)
            bb = mpmath.mpf(b)
            v = (
                mpmath.loggamma(n + 1)
                - mpmath.loggamma(k + 1)
                - mpmath.loggamma(n - k + 1)
                + _log_beta(k + aa, n - k + bb)
                - _log_beta(aa, bb)
            )
            return float(v)

    return anchor


def _log_beta(x, y):
    import mpmath

    return mpmath.loggamma(x) + mpmath.loggamma(y) - mpmath.loggamma(x + y)


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
        anchor_fn=_binomial_anchor(n, p),
        anchor_at=min(int((n + 1) * p), n),
        eps=eps,
    )


def poisson_distribution(lam: float, eps: float = DEFAULT_EPS) -> CountDistribution:
    """Poisson(lam) on a window whose omitted tail mass is <= eps."""
    lam = float(lam)
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise DomainError(f"lambda must be finite and >= 0, got {lam!r}")
    eps = _check_eps(eps)
    if lam == 0.0:
        return _point_mass("poisson", 0)

    def log_ratio(ks: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(lam / (ks + 1.0))

    return _build_windowed(
        kind="poisson",
        mean=lam,
        sd=math.sqrt(lam),
        n_max=None,
        log_ratio=log_ratio,
        anchor_fn=_poisson_anchor(lam),
        anchor_at=int(lam),
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
    a, b = prior.alpha, prior.beta

    def log_ratio(ks: np.ndarray) -> np.ndarray:
        return np.log((n - ks) * (ks + a) / ((ks + 1.0) * (n - ks - 1.0 + b)))

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
        anchor_fn=_beta_binomial_anchor(n, a, b),
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
    of the longer operand and n2 times in its dot product: k = n1 + n2 - 1.
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
    the running sum of ``x`` (0 before it, its total past it), one dot
    product per m; the running sums never decrease, so bisection finds the
    count in about log2 of the cell count of them.
    """
    n1, n2 = len(x), len(y)
    below, above = _prefix_margin(n1, n2, budget)
    # ext[m + t] = X[m - n2 + t]
    ext = np.empty(n1 + 2 * n2 - 1)
    ext[:n2] = 0.0
    np.cumsum(x, out=ext[n2 : n2 + n1])
    ext[n2 + n1 :] = ext[n2 + n1 - 1]
    y = np.ascontiguousarray(y)
    # the sum of the first ``lo`` cells is at most budget, that of ``hi``
    # exceeds it; hi = cells + 1 stands for past the end
    lo, hi = 0, n1 + n2
    while hi - lo > 1:
        m = (lo + hi) // 2
        q = float(np.dot(y, ext[m : m + n2]))
        if q <= below:
            lo = m
        elif q > above:
            hi = m
        else:
            return None
    return lo


def _correlate(x: np.ndarray, y: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Cells ``start`` to ``stop - 1`` of ``np.correlate(x, y, "full")``,
    for ``len(x) >= len(y)``, with the same bits, split by
    ``_parallel.split`` at the cost of ``_cost_before``.  A range that
    costs at least the full correlate's ``len(x) * len(y)`` multiply-adds
    is sliced from one full ``np.correlate``; a cheaper one comes from
    ``_cells``."""
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

    return _parallel.split(fill, (stop - start,), cost_before, _PARALLEL_MIN_MACS, blas=True)


def _cells(x: np.ndarray, y: np.ndarray, start: int, stop: int, out: np.ndarray) -> None:
    """Write cells ``start`` to ``stop - 1`` of ``np.correlate(x, y,
    "full")`` into ``out``, each the dot product that call computes, on the
    same operands: an edge cell (shorter than ``len(y)``) through numpy's dot
    function, the full-length cells through one ``"valid"`` correlate, which
    takes the same small-kernel branch as the full call."""
    n1, n2 = len(x), len(y)
    vdot = np.vdot
    for k in range(start, min(stop, n2 - 1)):
        out[k - start] = vdot(x[: k + 1], y[n2 - 1 - k :])
    lo, hi = max(start, n2 - 1), min(stop, n1)
    if lo < hi:
        out[lo - start : hi - start] = np.correlate(x[lo - n2 + 1 : hi], y, "valid")
    for k in range(max(start, n1), stop):
        out[k - start] = vdot(x[k - n2 + 1 :], y[: n1 + n2 - 1 - k])


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
    return d.support_lo + int(np.argmax(d.log_mass))


def quantile(d: CountDistribution, q: float) -> int:
    """Smallest count whose stored CDF is >= q.

    Quantiles are taken against the stored mass; a q within truncated_mass
    of 1 clamps to the top of the window.
    """
    q = float(q)
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q!r}")
    return min(d.support_lo + d._search(q), d.support_hi)


def central_interval(d: CountDistribution, coverage: float) -> CredibleInterval:
    """Equal-tail interval [quantile((1-c)/2), quantile(1-(1-c)/2)].

    The reported ``achieved`` coverage is the stored mass inside the
    interval, which by construction is >= the request; a request within the
    truncation budget of 1 cannot be certified and raises instead.

    ``d`` is read only through its support, ``_search`` and ``cdf``, which
    a ``_StreamedCdf`` gives as well.
    """
    coverage = float(coverage)
    if not (0.0 < coverage < 1.0):
        raise DomainError(f"coverage must lie in (0, 1), got {coverage!r}")
    tail = (1.0 - coverage) / 2.0
    lo = quantile(d, tail)
    hi = quantile(d, 1.0 - tail)
    below = d.cdf(lo - 1) if lo > d.support_lo else 0.0
    achieved = d.cdf(hi) - below
    if achieved < coverage - 1e-12:
        raise DomainError(
            f"achieved coverage {achieved!r} falls short of {coverage!r}; "
            "rebuild the distribution with a smaller eps"
        )
    return CredibleInterval(lo=lo, hi=hi, coverage=coverage, achieved=achieved)
