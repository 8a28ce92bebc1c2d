"""Seeded synthetic cohorts with declared causal ground truth.

A CausalSpec says what actually causes the outcome — the exposure label, a
hidden latent factor, or nothing — and the generator draws individuals
accordingly.  Analyses are then run blind to that ground truth, which is
what lets the replication studies measure how often a significance
procedure "finds" a cause that is not one.

Determinism: every draw derives from numpy's SeedSequence/Philox
counter-based scheme.  Replication ``i`` of a study seeds its generator
with the entropy tuple ``(master_seed, i)``, so replications are
independent, order-free, and safe to execute in parallel; reports
aggregate in replication-index order regardless of scheduling.

Draw order inside one cohort is fixed and documented: latent factor (two
draws: mixing uniforms, then fair coins; only when the latent factor is in
play), outcomes, covariates in listed order (rules without noise consume
no randomness), proxy flips last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classical import TestResult, TwoByTwo, two_proportion_test
from .distributions import DomainError, _check_count, _check_probability

__all__ = [
    "MAX_COHORT_SIZE",
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

TRUE_CAUSES = ("exposure-label", "latent-factor", "none")

Seed = int | tuple[int, ...]


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


def generate(spec: CausalSpec, seed: Seed) -> Cohort:
    """Draw one cohort; fully determined by (spec, seed).

    ``seed`` is a master seed or a tuple of them, each ``check_seed``-valid.
    """
    for part in seed if isinstance(seed, tuple) else (seed,):
        check_seed(part)
    rng = _rng(seed)
    n2 = 2 * spec.n_per_group
    group = np.repeat(np.array([0, 1], dtype=np.int8), spec.n_per_group)
    true_exposure = group == 1

    latent: np.ndarray | None = None
    if spec.true_cause == "latent-factor":
        mix = rng.random(n2) < spec.latent_group_correlation
        coins = rng.integers(0, 2, size=n2, dtype=np.int8).astype(bool)
        latent = np.where(mix, true_exposure, coins)

    if spec.true_cause == "exposure-label":
        cause_present = true_exposure
    elif spec.true_cause == "latent-factor":
        cause_present = latent
    else:
        cause_present = np.zeros(n2, dtype=bool)
    p_individual = np.where(cause_present, spec.effect_p, spec.baseline_p)
    outcome = rng.random(n2) < p_individual

    covariates: dict[str, np.ndarray] = {}
    for rule in spec.covariate_rules:
        values = rule.intercept + rule.slope * group.astype(np.float64)
        if rule.noise_sd > 0.0:
            values = values + rng.normal(0.0, rule.noise_sd, size=n2)
        covariates[rule.name] = values

    proxy: np.ndarray | None = None
    if spec.proxy_rule is not None:
        flips = rng.random(n2) >= spec.proxy_rule.accuracy
        proxy = true_exposure ^ flips

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


def _table_from_mask(outcome: np.ndarray, mask: np.ndarray) -> TwoByTwo | None:
    n_a = int(mask.sum())
    n_b = len(mask) - n_a
    if n_a == 0 or n_b == 0:
        return None
    return TwoByTwo(
        cases_a=int(outcome[mask].sum()),
        n_a=n_a,
        cases_b=int(outcome[~mask].sum()),
        n_b=n_b,
    )


def _test_mask(
    cohort: Cohort, mask: np.ndarray, continuity_correction: bool, alpha: float
) -> TestResult:
    table = _table_from_mask(cohort.outcome, mask)
    if table is None:
        # a split with an empty arm carries no evidence either way
        return TestResult(statistic=0.0, p_value=1.0, alpha=alpha, reject=False)
    return two_proportion_test(table, continuity_correction, alpha)


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
    by_label = _test_mask(cohort, cohort.true_exposure, continuity_correction, alpha)
    by_covariate = _test_mask(
        cohort, _covariate_mask(cohort, covariate_name), continuity_correction, alpha
    )
    return by_label, by_covariate


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


def _variant_mask(cohort: Cohort, variant: str) -> np.ndarray:
    if variant == "true_exposure":
        return cohort.true_exposure
    if variant == "proxy_exposure":
        if cohort.proxy_exposure is None:
            raise DomainError("spec has no proxy_rule; proxy_exposure unavailable")
        return cohort.proxy_exposure
    if variant.startswith("covariate_"):
        return _covariate_mask(cohort, variant[len("covariate_") :])
    raise DomainError(f"unknown analysis variant {variant!r}")


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
    reduced in index order, so the report is bit-identical across reruns
    and indifferent to any parallel execution of the replications.
    """
    replications = _check_count(replications, "replications", minimum=1)
    alpha = _check_probability(alpha, "alpha")
    if variants is None:
        variants = default_variants(spec)
    rejects = {v: 0 for v in variants}
    p_sums = {v: 0.0 for v in variants}
    for i in range(replications):
        cohort = generate(spec, (seed, i))
        for v in variants:
            result = _test_mask(cohort, _variant_mask(cohort, v), continuity_correction, alpha)
            rejects[v] += result.reject
            p_sums[v] += result.p_value
    rows = tuple(
        VariantStats(
            variant=v,
            rejection_rate=rejects[v] / replications,
            mean_p_value=p_sums[v] / replications,
        )
        for v in variants
    )
    return ReplicationReport(replications=replications, alpha=alpha, rows=rows)


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
