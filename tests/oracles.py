"""Independent computations that tests and ``record_pins.py`` check against,
each written once and sharing no code with what it checks: the exact
binomial pmf, the mpmath beta-binomial log-pmf, scipy's count laws of a
two-arm scenario, the pooled score test, and the per-individual replication
engine (``oracle_generate`` to ``oracle_replication_rows``) as it stood
before the blockwise draw.  That engine drew each uniform stream in one call
against a per-individual risk array, and tested every variant of every
replication through a validated ``TwoByTwo`` built from boolean-indexed
copies.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import scipy.stats

from riskcounts.classical import TestResult as Result, TwoByTwo
from riskcounts.cohort import VariantStats, default_variants
from riskcounts.distributions import DomainError


def exact_binomial_pmf(n: int, p: Fraction) -> list[Fraction]:
    """Exact rational binomial pmf, k = 0..n."""
    return [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]


def beta_binomial_log_pmf(n, prior, k) -> float:
    """log P(K = k) for K ~ BetaBinomial(n, prior), from mpmath log-gammas
    at enough digits that the c ln c terms cancel exactly."""
    digits = 40 + int(math.log10(prior.concentration)) + 30
    with mpmath.workdps(digits):
        a, b = mpmath.mpf(prior.alpha), mpmath.mpf(prior.beta)

        def log_beta(x, y):
            return mpmath.loggamma(x) + mpmath.loggamma(y) - mpmath.loggamma(x + y)

        return float(
            mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
            + log_beta(k + a, n - k + b) - log_beta(a, b)
        )


def _scipy_pmf(n, risk):
    """The pmf on 0 .. mean + 60 sd of Binomial(n, risk), or of
    BetaBinomial(n, alpha, beta) where ``risk`` is a prior document."""
    law = (scipy.stats.betabinom(n, risk["alpha"], risk["beta"]) if isinstance(risk, dict)
           else scipy.stats.binom(n, risk))
    hi = min(n, math.ceil(law.mean() + 60 * law.std()))
    return law.pmf(np.arange(hi + 1))


def scipy_laws(doc) -> dict[str, np.ndarray]:
    """Each figure column's law for a scenario document, as its pmf from 0,
    in the order exposed, unexposed, split total, all-low."""
    fixed = "exposure_scenario" in doc
    body = doc["exposure_scenario" if fixed else "uncertain_scenario"]
    n_e, n_u = body["n_exposed"], body["n_unexposed"]
    risk_e, risk_u = (body[("p_" if fixed else "prior_") + arm] for arm in ("exposed", "unexposed"))
    arm_e, arm_u = _scipy_pmf(n_e, risk_e), _scipy_pmf(n_u, risk_u)
    return {"mass_exposed": arm_e, "mass_unexposed": arm_u,
            "mass_total_split": np.convolve(arm_e, arm_u),
            "mass_all_low": _scipy_pmf(n_e + n_u, risk_u)}


def oracle_generate(spec, seed):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    n2 = 2 * spec.n_per_group
    group = np.repeat(np.array([0, 1], dtype=np.int8), spec.n_per_group)
    true_exposure = group == 1

    latent = None
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

    covariates = {}
    for rule in spec.covariate_rules:
        values = rule.intercept + rule.slope * group.astype(np.float64)
        if rule.noise_sd > 0.0:
            values = values + rng.normal(0.0, rule.noise_sd, size=n2)
        covariates[rule.name] = values

    proxy = None
    if spec.proxy_rule is not None:
        flips = rng.random(n2) >= spec.proxy_rule.accuracy
        proxy = true_exposure ^ flips

    for arr in (group, true_exposure, outcome, latent, proxy, *covariates.values()):
        if arr is not None:
            arr.setflags(write=False)
    return {
        "group": group,
        "true_exposure": true_exposure,
        "proxy_exposure": proxy,
        "outcome": outcome,
        "latent": latent,
        "covariates": covariates,
    }


def oracle_two_proportion_test(t, continuity_correction=True, alpha=0.05):
    pa = t.cases_a / t.n_a
    pb = t.cases_b / t.n_b
    pooled = (t.cases_a + t.cases_b) / (t.n_a + t.n_b)
    if pooled == 0.0 or pooled == 1.0:
        return Result(statistic=0.0, p_value=1.0, alpha=alpha, reject=False)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / t.n_a + 1.0 / t.n_b))
    diff = pa - pb
    d = abs(diff)
    if continuity_correction:
        d = max(0.0, d - (1.0 / t.n_a + 1.0 / t.n_b) / 2.0)
    z = math.copysign(d / se, diff)
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    return Result(statistic=z, p_value=p_value, alpha=alpha, reject=p_value < alpha)


def oracle_table_from_mask(outcome, mask):
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


def oracle_test_mask(outcome, mask, continuity_correction, alpha):
    table = oracle_table_from_mask(outcome, mask)
    if table is None:
        return Result(statistic=0.0, p_value=1.0, alpha=alpha, reject=False)
    return oracle_two_proportion_test(table, continuity_correction, alpha)


def oracle_covariate_mask(spec, cohort, name):
    rule = spec.rule(name)
    if rule.slope == 0.0:
        raise DomainError(
            f"covariate {name!r} cannot separate the cohort: its rule does "
            "not vary with group"
        )
    threshold = rule.intercept + rule.slope / 2.0
    values = cohort["covariates"][name]
    mask = values > threshold if rule.slope > 0.0 else values < threshold
    if mask.all() or not mask.any():
        raise DomainError(
            f"covariate {name!r} does not separate the cohort into two "
            "nonempty groups"
        )
    return mask


def oracle_variant_mask(spec, cohort, variant):
    if variant == "true_exposure":
        return cohort["true_exposure"]
    if variant == "proxy_exposure":
        return cohort["proxy_exposure"]
    return oracle_covariate_mask(spec, cohort, variant[len("covariate_"):])


def oracle_replication_rows(spec, replications, alpha, seed, continuity_correction):
    variants = default_variants(spec)
    rejects = {v: 0 for v in variants}
    p_sums = {v: 0.0 for v in variants}
    for i in range(replications):
        cohort = oracle_generate(spec, (seed, i))
        for v in variants:
            mask = oracle_variant_mask(spec, cohort, v)
            result = oracle_test_mask(cohort["outcome"], mask, continuity_correction, alpha)
            rejects[v] += result.reject
            p_sums[v] += result.p_value
    return tuple(
        VariantStats(
            variant=v,
            rejection_rate=rejects[v] / replications,
            mean_p_value=p_sums[v] / replications,
        )
        for v in variants
    )
