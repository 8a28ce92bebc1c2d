"""Seeded synthetic cohorts with declared causal ground truth.

A CausalSpec says what actually causes the outcome — the exposure label, a
hidden latent factor, or nothing — and the generator draws individuals
accordingly.  Analyses are then run blind to that ground truth, which is
what lets the replication studies measure how often a significance
procedure "finds" a cause that is not one.

Determinism: every draw derives from numpy's SeedSequence/Philox
counter-based scheme.  Replication ``i`` of a study seeds its generator
with the entropy tuple ``(master_seed, i)``, so replications are
independent and order-free, and a study runs them across the CPUs the
process may use (``os.sched_getaffinity``; ``taskset`` limits them).  It
splits the replications into contiguous ranges, runs the first range
itself and the others in forked workers (``_parallel.run``, the package's
one process path, which convolutions share), and reduces every
replication's p-values in index order in the calling process, so the
report's bits do not depend on the worker count.  A study runs in-process
when only one CPU is usable, when workers could not be made to die with
the caller (no ``fork``, or not Linux), when the caller is a daemonic
process, or when it is too small to repay starting workers
(``_PARALLEL_MIN_INDIVIDUALS``).  A range whose worker is lost, or fails,
is recomputed in the calling process, so an error raised is the serial
loop's.

Draw order inside one cohort is fixed and documented: latent factor (two
draws: mixing uniforms, then fair coins; only when the latent factor is in
play), outcomes, covariates in listed order (rules without noise consume
no randomness), proxy flips last.  The three uniform streams (mixing,
outcomes, proxy flips) are taken in blocks of ``_BLOCK`` individuals and
compared in place, so no per-individual risk array is built; Philox's
``random()`` spends one 64-bit word per double whatever the block, so the
stream and every array are those of a single call.  The fair coins and each
covariate's normal noise stay one call each: numpy's bounded int8 draw
buffers bits within a call, which blocks would change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _parallel
from .classical import TestResult, _score_test
from .distributions import DomainError, _check_count, _check_probability

__all__ = [
    "MAX_COHORT_SIZE",
    "MAX_REPLICATIONS",
    "TRUE_CAUSES",
    "CovariateRule",
    "ProxyRule",
    "CausalSpec",
    "Cohort",
    "VariantStats",
    "ReplicationReport",
    "check_seed",
    "generate",
    "banana_swap",
    "replication_study",
    "proxy_study",
    "false_cause_rate",
]

#: Desk-scale memory cap on 2 * n_per_group.
MAX_COHORT_SIZE = 10_000_000

#: Cap on the replications of one study: 100 times the benchmark's largest
#: study, and days of work at the cohort cap.
MAX_REPLICATIONS = 1_000_000

TRUE_CAUSES = ("exposure-label", "latent-factor", "none")

Seed = int | tuple[int, ...]

#: Individuals per block of a uniform stream in ``generate``.
_BLOCK = 1 << 16

#: A replication's fixed cost (seeding, Philox setup, scoring), about 50 us,
#: in individuals drawn (about 14 ns each on a 2-vCPU x86-64 host).
_REPLICATION_SETUP = 4_000

#: Studies smaller than this, counted as replications x (2 n_per_group +
#: ``_REPLICATION_SETUP``), run in-process.  Forking and starting the pool
#: costs 10-20 ms and two busy processes run 5-30% slower each, so on the
#: host above two processes break even near this size (about 80 ms on one
#: CPU: 1,000 replications at 1,000 per group, or 1,500 at 1 per group).
_PARALLEL_MIN_INDIVIDUALS = 6_000_000


@dataclass(frozen=True)
class CovariateRule:
    """Derived covariate: intercept + slope * group_indicator (+ noise)."""

    name: str
    intercept: float
    slope: float
    noise_sd: float = 0.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise DomainError("covariate rule needs a nonempty string name")
        for attr in ("intercept", "slope", "noise_sd"):
            v = float(getattr(self, attr))
            if not math.isfinite(v):
                raise DomainError(f"covariate {attr} must be finite")
            object.__setattr__(self, attr, v)
        if self.noise_sd < 0.0:
            raise DomainError("noise_sd must be >= 0")


@dataclass(frozen=True)
class ProxyRule:
    """Symmetric misclassification: the measured exposure equals the true
    one with probability ``accuracy``, else it is flipped."""

    accuracy: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "accuracy", _check_probability(self.accuracy, "accuracy"))


@dataclass(frozen=True)
class CausalSpec:
    """Declared data-generating truth for a two-group synthetic cohort.

    ``latent_group_correlation`` (s in [0, 1]) sets the confounding
    strength when true_cause == "latent-factor": each individual's latent
    indicator copies the group indicator with probability s and is a fair
    coin otherwise; s=1 is perfect confounding, s=0 full independence.
    """

    n_per_group: int
    true_cause: str
    baseline_p: float
    effect_p: float
    covariate_rules: tuple[CovariateRule, ...] = ()
    proxy_rule: ProxyRule | None = None
    latent_group_correlation: float = 1.0

    def __post_init__(self) -> None:
        n = _check_count(self.n_per_group, "n_per_group", minimum=1)
        if 2 * n > MAX_COHORT_SIZE:
            raise DomainError(f"cohort of {2 * n} exceeds the {MAX_COHORT_SIZE} cap")
        object.__setattr__(self, "n_per_group", n)
        if self.true_cause not in TRUE_CAUSES:
            raise DomainError(f"true_cause must be one of {TRUE_CAUSES}, got {self.true_cause!r}")
        object.__setattr__(self, "baseline_p", _check_probability(self.baseline_p, "baseline_p"))
        object.__setattr__(self, "effect_p", _check_probability(self.effect_p, "effect_p"))
        rules = tuple(self.covariate_rules)
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise DomainError("covariate names must be unique")
        object.__setattr__(self, "covariate_rules", rules)
        if self.proxy_rule is not None and not isinstance(self.proxy_rule, ProxyRule):
            raise DomainError("proxy_rule must be a ProxyRule or None")
        object.__setattr__(
            self,
            "latent_group_correlation",
            _check_probability(self.latent_group_correlation, "latent_group_correlation"),
        )

    def rule(self, name: str) -> CovariateRule:
        for r in self.covariate_rules:
            if r.name == name:
                return r
        raise DomainError(f"no covariate rule named {name!r}")


@dataclass(frozen=True)
class Cohort:
    """Synthetic individuals drawn from a CausalSpec.

    Individuals 0..n-1 carry group label 0; individuals n..2n-1 carry 1.
    ``true_exposure`` is the group-1 indicator; ``latent`` is only present
    when the latent factor drives outcomes.  Arrays are read-only.
    """

    spec: CausalSpec
    seed: Seed
    group: np.ndarray
    true_exposure: np.ndarray
    proxy_exposure: np.ndarray | None
    covariates: dict[str, np.ndarray]
    outcome: np.ndarray
    latent: np.ndarray | None = field(default=None)


def check_seed(seed: int, name: str = "seed") -> int:
    """Return ``seed`` as an ``int`` if numpy's SeedSequence takes it as
    entropy (an integer >= 0); otherwise raise ``DomainError``.

    This is the one seed rule for every entry point.  ``name`` opens the
    message; a caller whose own error line already names the value passes
    ``""``.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {seed!r}".lstrip())
    if seed < 0:
        raise DomainError(f"{name} must be >= 0, got {seed}".lstrip())
    return int(seed)


def _rng(seed: Seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _draw_bool(rng: np.random.Generator, size: int, fill) -> np.ndarray:
    """A boolean array of ``size`` entries from one uniform each, drawn in
    blocks of ``_BLOCK``; ``fill(u, start, out)`` writes block ``u``, which
    starts at entry ``start``, into ``out``."""
    out = np.empty(size, dtype=bool)
    buf = np.empty(min(size, _BLOCK))
    for start in range(0, size, _BLOCK):
        u = buf[: size - start]
        rng.random(out=u)
        fill(u, start, out[start : start + len(u)])
    return out


def _halves(n: int, op0, x0: float, op1, x1: float):
    """A ``_draw_bool`` fill giving entries of group 0 (the first ``n``)
    ``op0(u, x0)`` and those of group 1 ``op1(u, x1)``."""

    def fill(u: np.ndarray, start: int, out: np.ndarray) -> None:
        cut = min(max(n - start, 0), len(u))
        op0(u[:cut], x0, out=out[:cut])
        op1(u[cut:], x1, out=out[cut:])

    return fill


def generate(spec: CausalSpec, seed: Seed) -> Cohort:
    """Draw one cohort; fully determined by (spec, seed).

    ``seed`` is a master seed or a tuple of them, each ``check_seed``-valid.
    """
    for part in seed if isinstance(seed, tuple) else (seed,):
        check_seed(part)
    rng = _rng(seed)
    n = spec.n_per_group
    n2 = 2 * n
    group = np.repeat(np.array([0, 1], dtype=np.int8), n)
    true_exposure = group == 1

    latent: np.ndarray | None = None
    if spec.true_cause == "latent-factor":
        s = spec.latent_group_correlation
        mix = _draw_bool(rng, n2, lambda u, start, out: np.less(u, s, out=out))
        # the coins are 0/1 bytes: viewed as booleans they are the latent
        # factor wherever the mix does not copy the group
        latent = rng.integers(0, 2, size=n2, dtype=np.int8).view(bool)
        np.copyto(latent, true_exposure, where=mix)
        del mix
        p0, p1 = spec.baseline_p, spec.effect_p

        def fill_outcome(u: np.ndarray, start: int, out: np.ndarray) -> None:
            np.less(u, p0, out=out)
            np.copyto(out, u < p1, where=latent[start : start + len(u)])

    else:
        p1 = spec.effect_p if spec.true_cause == "exposure-label" else spec.baseline_p
        fill_outcome = _halves(n, np.less, spec.baseline_p, np.less, p1)
    outcome = _draw_bool(rng, n2, fill_outcome)

    covariates: dict[str, np.ndarray] = {}
    for rule in spec.covariate_rules:
        # intercept + slope * g for g = 0 and 1, rounded (signed zeros too)
        # as the same float64 sum per individual would be
        levels = np.array([rule.intercept + rule.slope * 0.0, rule.intercept + rule.slope * 1.0])
        values = np.repeat(levels, n)
        if rule.noise_sd > 0.0:
            values += rng.normal(0.0, rule.noise_sd, size=n2)
        covariates[rule.name] = values

    proxy: np.ndarray | None = None
    if spec.proxy_rule is not None:
        # a flip reads group 0 as exposed and group 1 as unexposed
        acc = spec.proxy_rule.accuracy
        proxy = _draw_bool(rng, n2, _halves(n, np.greater_equal, acc, np.less, acc))

    for arr in (group, true_exposure, outcome, latent, proxy, *covariates.values()):
        if arr is not None:
            arr.setflags(write=False)
    return Cohort(
        spec=spec,
        seed=seed,
        group=group,
        true_exposure=true_exposure,
        proxy_exposure=proxy,
        covariates=covariates,
        outcome=outcome,
        latent=latent,
    )


# ---------------------------------------------------------------------------
# analyses run blind to the declared truth
# ---------------------------------------------------------------------------


def _split_score(
    outcome: np.ndarray, mask: np.ndarray, continuity_correction: bool
) -> tuple[float, float]:
    """``(statistic, p_value)`` of the score test of ``mask`` against its
    complement; a split with an empty arm carries no evidence either way."""
    n_a = np.count_nonzero(mask)
    n_b = mask.size - n_a
    if n_a == 0 or n_b == 0:
        return 0.0, 1.0
    cases_a = np.count_nonzero(outcome & mask)
    cases_b = np.count_nonzero(outcome) - cases_a
    return _score_test(cases_a, n_a, cases_b, n_b, continuity_correction)


def _variant_score(
    cohort: Cohort, variant: str, continuity_correction: bool
) -> tuple[float, float]:
    if variant == "true_exposure":
        # the label split is the two halves of the cohort
        n = cohort.spec.n_per_group
        cases_a = np.count_nonzero(cohort.outcome[n:])
        cases_b = np.count_nonzero(cohort.outcome[:n])
        return _score_test(cases_a, n, cases_b, n, continuity_correction)
    if variant == "proxy_exposure":
        if cohort.proxy_exposure is None:
            raise DomainError("spec has no proxy_rule; proxy_exposure unavailable")
        mask = cohort.proxy_exposure
    elif variant.startswith("covariate_"):
        mask = _covariate_mask(cohort, variant[len("covariate_") :])
    else:
        raise DomainError(f"unknown analysis variant {variant!r}")
    return _split_score(cohort.outcome, mask, continuity_correction)


def _covariate_mask(cohort: Cohort, name: str) -> np.ndarray:
    rule = cohort.spec.rule(name)
    if rule.slope == 0.0:
        raise DomainError(
            f"covariate {name!r} cannot separate the cohort: its rule does "
            "not vary with group"
        )
    threshold = rule.intercept + rule.slope / 2.0
    values = cohort.covariates[name]
    mask = values > threshold if rule.slope > 0.0 else values < threshold
    if mask.all() or not mask.any():
        raise DomainError(
            f"covariate {name!r} does not separate the cohort into two "
            "nonempty groups"
        )
    return mask


def banana_swap(
    cohort: Cohort,
    covariate_name: str,
    continuity_correction: bool = True,
    alpha: float = 0.05,
) -> tuple[TestResult, TestResult]:
    """Run the identical test twice: grouped by exposure label, then by the
    named covariate's threshold.

    When the covariate separates the groups perfectly the two results are
    equal field-for-field — the covariate is statistically indistinguishable
    from the exposure, so the test cannot be evidence that either is the
    cause.  A covariate whose threshold leaves one side empty cannot stand
    in for the grouping at all and raises instead.
    """
    alpha = _check_probability(alpha, "alpha")
    by_label = _variant_score(cohort, "true_exposure", continuity_correction)
    by_covariate = _split_score(
        cohort.outcome, _covariate_mask(cohort, covariate_name), continuity_correction
    )
    return tuple(
        TestResult(statistic=z, p_value=p, alpha=alpha, reject=p < alpha)
        for z, p in (by_label, by_covariate)
    )


# ---------------------------------------------------------------------------
# replication studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariantStats:
    variant: str
    rejection_rate: float
    mean_p_value: float


@dataclass(frozen=True)
class ReplicationReport:
    replications: int
    alpha: float
    rows: tuple[VariantStats, ...]

    def row(self, variant: str) -> VariantStats:
        for r in self.rows:
            if r.variant == variant:
                return r
        raise DomainError(f"no variant named {variant!r}")


def default_variants(spec: CausalSpec) -> tuple[str, ...]:
    variants = ["true_exposure"]
    if spec.proxy_rule is not None:
        variants.append("proxy_exposure")
    variants.extend(f"covariate_{r.name}" for r in spec.covariate_rules)
    return tuple(variants)


def replication_study(
    spec: CausalSpec,
    replications: int,
    alpha: float = 0.05,
    seed: int = 0,
    variants: tuple[str, ...] | None = None,
    continuity_correction: bool = True,
) -> ReplicationReport:
    """Repeat generate-and-test ``replications`` times for each variant.

    Replication i draws its cohort from entropy (seed, i); results are
    reduced in index order (p-values summed with ``+=``, one at a time), so
    the report is bit-identical across reruns and across worker counts.
    ``replications`` may not exceed ``MAX_REPLICATIONS``.  A failing
    replication raises the error of the lowest failing index, as a serial
    loop would.
    """
    replications = _check_count(replications, "replications", minimum=1)
    if replications > MAX_REPLICATIONS:
        raise DomainError(
            f"replications must be <= {MAX_REPLICATIONS}, got {replications}"
        )
    alpha = _check_probability(alpha, "alpha")
    if variants is None:
        variants = default_variants(spec)
    args = (spec, seed, tuple(variants), continuity_correction)
    size = replications * (2 * spec.n_per_group + _REPLICATION_SETUP)
    ranges = _ranges(replications, _workers(size, replications))
    if len(ranges) > 1:
        p = _forked_outcomes(args, ranges)
    else:
        p = _replicate_range(*args, 0, replications)
    rejects = [0] * len(variants)
    p_sums = [0.0] * len(variants)
    # a block at a time, so no study holds all its p-values as Python floats
    for block in range(0, replications, _BLOCK):
        for row in p[block : block + _BLOCK].tolist():
            for j, p_value in enumerate(row):
                rejects[j] += p_value < alpha
                p_sums[j] += p_value
    rows = tuple(
        VariantStats(
            variant=v,
            rejection_rate=rejects[j] / replications,
            mean_p_value=p_sums[j] / replications,
        )
        for j, v in enumerate(variants)
    )
    return ReplicationReport(replications=replications, alpha=alpha, rows=rows)


def _replicate_range(
    spec: CausalSpec,
    seed: int,
    variants: tuple[str, ...],
    continuity_correction: bool,
    start: int,
    stop: int,
) -> np.ndarray:
    """P-values of replications ``start`` to ``stop - 1``: one row per
    replication, one column per variant.  Stops at the first error."""
    p = np.empty((stop - start, len(variants)))
    for row, i in enumerate(range(start, stop)):
        cohort = generate(spec, (seed, i))
        p[row] = [_variant_score(cohort, v, continuity_correction)[1] for v in variants]
    return p


#: The CPU count studies split across; a module binding so that tests can
#: force the worker count.
_usable_cpus = _parallel.usable_cpus


def _workers(size: int, replications: int) -> int:
    """How many processes share a study of ``size`` individual-equivalents."""
    if size < _PARALLEL_MIN_INDIVIDUALS:
        return 1
    return _parallel.workers(_usable_cpus(), replications)


def _ranges(replications: int, workers: int) -> list[tuple[int, int]]:
    """``workers`` contiguous ``(start, stop)`` ranges covering the
    replications, sizes differing by at most one; the first, which the
    caller runs beside starting the workers, is no larger than the rest."""
    bounds = [replications * k // workers for k in range(workers + 1)]
    return list(zip(bounds, bounds[1:]))


def _forked_outcomes(args: tuple, ranges: list[tuple[int, int]]) -> np.ndarray:
    """Every replication's p-values, one row each: the caller computes the
    first range, forked workers the others (``_parallel.run``)."""

    def fill(start: int, stop: int, rows: np.ndarray) -> None:
        rows[...] = _replicate_range(*args, start, stop)

    return _parallel.run(fill, ranges, (ranges[-1][1], len(args[2])))


def proxy_study(
    spec: CausalSpec,
    replications: int,
    alpha: float = 0.05,
    seed: int = 0,
    continuity_correction: bool = True,
) -> ReplicationReport:
    """Rejection rates when grouping by true exposure versus by its proxy."""
    if spec.proxy_rule is None:
        raise DomainError("proxy_study requires a spec with a proxy_rule")
    return replication_study(
        spec,
        replications,
        alpha=alpha,
        seed=seed,
        variants=("true_exposure", "proxy_exposure"),
        continuity_correction=continuity_correction,
    )


def false_cause_rate(
    spec: CausalSpec,
    replications: int,
    alpha: float = 0.05,
    seed: int = 0,
    continuity_correction: bool = True,
) -> float:
    """How often the exposure-label test rejects when the exposure label is,
    by construction, not the cause."""
    if spec.true_cause == "exposure-label":
        raise DomainError(
            "false_cause_rate needs a spec whose true cause is NOT the "
            "exposure label"
        )
    report = replication_study(
        spec,
        replications,
        alpha=alpha,
        seed=seed,
        variants=("true_exposure",),
        continuity_correction=continuity_correction,
    )
    return report.rows[0].rejection_rate
