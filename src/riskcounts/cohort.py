"""Seeded synthetic cohorts with declared causal ground truth.

A CausalSpec says what actually causes the outcome — the exposure label, a
hidden latent factor, or nothing — and the generator draws individuals
accordingly.  Analyses are then run blind to that ground truth, which is
what lets the replication studies measure how often a significance
procedure "finds" a cause that is not one.

The analyses see only which side of the cohort each individual is on: every
variant is the score test of one side against the rest, group 1 for the
label and a noiseless covariate alike, the side its split cuts for a proxy
or a noisy covariate (``_scorer``).

Determinism: every draw derives from numpy's SeedSequence/Philox
counter-based scheme.  Replication ``i`` of a study draws from the entropy
tuple ``(master_seed, i)``, so replications are independent and order-free.
Each range of replications holds one Philox, re-keyed before replication
``i`` to exactly the state ``Philox(SeedSequence((master_seed, i)))`` starts
in (its key, counter 0, an empty buffer), so its stream is that of a fresh
generator without building one per replication.  The range derives those
keys in bulk (``_replication_keys``), bit-identical to
``SeedSequence((master_seed, i))``'s, so it builds no ``SeedSequence``
either; tier-1 checks the keys against numpy's own.  A study hands its
replications to ``_parallel.split``, which decides whether they run
in-process or in contiguous ranges across forked workers, and reduces every
replication's p-values in index order in the calling process, so the
report's bits do not depend on the worker count.

``generate`` and the replication ranges draw through one routine,
``_draw``, which owns the draw order inside one cohort (its phases are
listed by ``_phases``) and hands each block of raw draws to a reducer;
``_transform`` turns a block into what the cohort holds.  ``generate``
stores every block.  A range reduces its cohorts to the counts its tests
read: the cases in each group, and the individuals and cases on one side
of each proxy or noisy-covariate split.  ``_draw`` reduces a block once
the last of its rows has drawn it.  Cohorts of at most half a block are
drawn in tiles of many replications, one row each, so each phase of a tile
is reduced at once to one row of counts per replication, and the rows are
scored in order, the score tests of counts met lately read from a cache.
Wider cohorts are streamed, one replication at a time, so each block is
reduced as it is drawn and a range holds a per-individual array only while
a later phase reads it: the latent factor until the outcomes are drawn,
and the outcomes only when a proxy or noisy covariate is tested.
Covariate noise is drawn in blocks too, which gives the values of one call
and leaves the stream where one call leaves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _parallel
from .classical import TestResult, _score_test
from .distributions import DomainError, _check_count, _check_probability, _check_real

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

#: Individuals per block of a uniform stream in ``_draw``.
_BLOCK = 1 << 16

#: Individuals per block of a covariate's noise in ``_draw``: its doubles
#: and the block of uniforms together stay under 1 MiB.
_NOISE_BLOCK = _BLOCK // 4

#: A replication's fixed cost (re-keying its Philox, its share of its
#: tile's numpy calls, scoring), in draws of one phase for one individual.
#: In-process on a 2-vCPU x86-64 host it is about 5 us at 6.4 ns a draw
#: with the exposure label alone, 6.5 us at 8.3 ns with a proxy (two
#: phases) and 15 us at 11 ns with the latent factor and a noisy covariate
#: (four phases), so 800-1,400.
_REPLICATION_SETUP = 800

#: Studies smaller than this, counted as replications x (2 n_per_group x
#: the phases ``_draw`` takes + ``_REPLICATION_SETUP``), run in-process.
#: Forking costs 10-20 ms and two busy processes run slower each.  On the
#: host above, two processes won from 3,300 replications at 1 per group
#: (about 20 ms, two thirds of this size), and the benchmark's replay of
#: 2,000 replications at 1,000 per group (1.4 times this size) took 36 ms
#: forked against 52 ms in-process.  Counting phases sends a proxy or
#: latent-factor study, whose individuals cost two to four times as much,
#: to the workers sooner.
_PARALLEL_MIN_INDIVIDUALS = 4_000_000

#: Replications whose Philox keys a range derives in one pass: their
#: arrays stay a few hundred KiB whatever the range's length.
_KEY_BLOCK = 1 << 12

#: numpy's ``SeedSequence`` constants, which ``_replication_keys`` transcribes.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


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
            v = _check_real(getattr(self, attr), f"covariate {attr}")
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
        rules = self.covariate_rules
        if not isinstance(rules, (tuple, list)) or not all(
            isinstance(r, CovariateRule) for r in rules
        ):
            raise DomainError("covariate_rules must be a tuple or list of CovariateRule")
        rules = tuple(rules)
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


def _check_spec(spec: CausalSpec) -> None:
    if not isinstance(spec, CausalSpec):
        raise DomainError("spec must be a CausalSpec instance")


def check_seed(seed: int, name: str = "seed") -> int:
    """Return ``seed`` as an ``int`` if numpy's SeedSequence takes it as
    entropy (an integer >= 0); otherwise raise ``DomainError``, the message
    opening with ``name``, or with the bare rule where ``name`` is ``""``.
    This is the one seed rule for every entry point."""
    return _check_count(seed, name)


def _rng(seed: Seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _hash_constants(const: int, mult: int):
    """The constant pairs of successive ``SeedSequence`` hash steps: each
    step xors by one constant and multiplies by the next, ``mult`` times it."""
    while True:
        after = const * mult & _MASK32
        yield np.uint32(const), np.uint32(after)
        const = after


def _hash(value: np.ndarray, constants) -> np.ndarray:
    """One ``SeedSequence`` hash step of the words ``value``, under the next
    pair of ``constants``."""
    xor, mult = next(constants)
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s mix of the words ``y`` into the words ``x``."""
    result = x * np.uint32(_MIX_MULT_L)
    result -= y * np.uint32(_MIX_MULT_R)
    result ^= result >> 16
    return result


def _replication_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """The Philox keys of replications ``start`` to ``stop - 1`` of a study
    seeded with ``seed``, one row each: row ``i - start`` is
    ``SeedSequence((seed, i)).generate_state(2, np.uint64)``.

    A transcription of numpy's ``SeedSequence`` (O'Neill's seed_seq hash,
    PCG report HMC-CS-2014-0905) in uint32 arrays, whose products wrap as
    its C arithmetic does, over every ``i`` at once.  The entropy is the
    seed's little-endian 32-bit words (one word for 0), then ``i``'s one
    word; it is mixed into a pool of four words, and the pool hashed into
    the key's four words.  ``seed`` is ``check_seed``-valid.
    """
    assert 0 <= start <= stop <= 2**32, "a replication index is one 32-bit word"
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.empty((len(words) + 1, stop - start), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(start, stop, dtype=np.uint32)

    # mix_entropy: short entropy is padded with zero words
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(entropy[k] if k < len(entropy) else np.zeros_like(entropy[0]), constants)
            for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, constants))

    # generate_state(2, np.uint64): the pool's words in turn, paired low
    # word first
    constants = _hash_constants(_INIT_B, _MULT_B)
    low0, high0, low1, high1 = (_hash(word, constants).astype(np.uint64) for word in pool)
    return np.stack((low0 | high0 << 32, low1 | high1 << 32), axis=1)


def _phases(spec: CausalSpec) -> list[tuple[str, CovariateRule | ProxyRule | None]]:
    """The phases of one cohort's draw, in the order ``_draw`` takes them
    from the stream, as ``(phase, rule)``: the latent factor's ``"mix"``
    and ``"coins"`` (only when it is in play), the ``"outcome"``, the
    ``"noise"`` of each covariate rule with noise in listed order, and the
    ``"proxy"`` flips last."""
    phases = [("mix", None), ("coins", None)] if spec.true_cause == "latent-factor" else []
    phases.append(("outcome", None))
    phases += [("noise", rule) for rule in spec.covariate_rules if rule.noise_sd > 0.0]
    if spec.proxy_rule is not None:
        phases.append(("proxy", spec.proxy_rule))
    return phases


def _buffers(spec: CausalSpec, rows: int) -> list[np.ndarray | None]:
    """Where ``_draw`` puts each phase of ``_phases(spec)`` for ``rows``
    cohorts at once.

    One row is the streamed path: the uniform phases share one block of
    ``_BLOCK`` doubles and the noise one block of ``_NOISE_BLOCK``, each
    block being reduced before the next is drawn, and the coins get no
    buffer.  A tile of several rows holds each phase of each cohort whole,
    so it takes ``rows`` x 2n cells a phase, at most one block."""
    n2 = 2 * spec.n_per_group
    if rows > 1:
        assert rows * n2 <= _BLOCK, "a tile holds at most one block a phase"
        return [np.empty((rows, n2), np.int8 if phase == "coins" else float)
                for phase, _ in _phases(spec)]
    phases = [phase for phase, _ in _phases(spec)]
    uniforms = np.empty((1, min(n2, _BLOCK)))
    noise = np.empty((1, min(n2, _NOISE_BLOCK))) if "noise" in phases else None
    return [None if phase == "coins" else noise if phase == "noise" else uniforms
            for phase in phases]


def _levels(rule: CovariateRule) -> tuple[float, float]:
    """``intercept + slope * g`` for g = 0 and 1, rounded (signed zeros too)
    as the same float64 sum per individual would be."""
    return rule.intercept + rule.slope * 0.0, rule.intercept + rule.slope * 1.0


def _cut(n: int, start: int, k: int) -> int:
    """How many of the ``k`` individuals from ``start`` on are in group 0
    (the first ``n``)."""
    return min(max(n - start, 0), k)


def _draw(spec: CausalSpec, streams, rows: int, dests: list[np.ndarray | None], reduce) -> None:
    """Draw one cohort of ``spec`` from each of the ``rows`` generators
    ``streams`` yields, one row each, and hand the raw draws to ``reduce``.

    Each phase of ``_phases(spec)`` is drawn into its row of its buffer in
    ``dests`` (from ``_buffers``) in blocks of the buffer's width, and
    ``reduce(phase, rule, start, raw)`` reads a block once the last row has
    drawn it, ``raw`` being that block of every row and ``start`` its first
    individual.  So a stream (one row) reduces each block before its shared
    buffer is drawn over, and a tile, whose buffers hold each phase whole,
    reduces each phase over all its rows, in phase order.  Individuals
    0..n-1 are group 0, n..2n-1 group 1.

    The draw order is fixed: latent factor (two draws: mixing uniforms,
    then fair coins; only when the latent factor is in play), outcomes,
    covariate noise in listed order (rules without noise consume no
    randomness and are left to the caller), proxy flips last.  Every phase
    is drawn whether or not the caller reads it: normal noise takes no
    fixed number of words from the stream, so each later phase starts
    wherever the ones before it left off.  Philox's ``random()`` spends one
    64-bit word per double whatever the block, so the three uniform streams
    (mixing, outcomes, proxy flips) give a single call's values in blocks of
    any width, and ``normal()`` keeps nothing between values, so its blocks
    too give a single call's values and leave the stream where it would.
    The fair coins stay one call: numpy's bounded int8 draw buffers bits
    within a call, which blocks would change.
    """
    n2 = 2 * spec.n_per_group
    phases = list(zip(_phases(spec), dests))
    for row, rng in enumerate(streams):
        for (phase, rule), dest in phases:
            if phase == "coins":
                coins = rng.integers(0, 2, size=n2, dtype=np.int8)
                if dest is None:
                    dest = coins[None]
                else:
                    dest[row] = coins
            for start in range(0, n2, dest.shape[1]):
                raw = dest[row, : n2 - start]  # at most the buffer's width
                if phase == "noise":
                    raw[...] = rng.normal(0.0, rule.noise_sd, size=len(raw))
                elif phase != "coins":
                    rng.random(out=raw)
                if row == rows - 1:
                    reduce(phase, rule, start, dest[:rows, : len(raw)])


def _transform(spec: CausalSpec, phase: str, rule, start: int, raw: np.ndarray,
               latent: np.ndarray | None, out: np.ndarray | None) -> np.ndarray | None:
    """Turn a block ``raw`` of one phase's draws (one row per cohort, from
    individual ``start`` on) into what the cohorts hold, and return it.

    The mixing uniforms and the coins go into ``latent`` (every individual
    of each cohort) and return None: an individual's latent indicator copies
    the group where its mix is below the correlation, else it is the coin.
    The outcomes and the proxy exposures go into ``out``.  Covariate values
    are the noise plus the rule's levels, made in place."""
    n = spec.n_per_group
    k = raw.shape[1]
    cut = _cut(n, start, k)
    if phase == "mix":
        np.less(raw, spec.latent_group_correlation, out=latent[:, start : start + k])
    elif phase == "coins":
        # where the mix copies the group, group 0 reads False and group 1
        # True; elsewhere the coin stands
        coins = raw.view(bool)
        np.greater(coins[:, :n], latent[:, :n], out=latent[:, :n])
        np.logical_or(latent[:, n:], coins[:, n:], out=latent[:, n:])
    elif phase == "outcome":
        p0 = spec.baseline_p
        p1 = spec.baseline_p if spec.true_cause == "none" else spec.effect_p
        if latent is None:
            np.less(raw[:, :cut], p0, out=out[:, :cut])
            np.less(raw[:, cut:], p1, out=out[:, cut:])
        else:
            np.less(raw, p0, out=out)
            np.copyto(out, raw < p1, where=latent[:, start : start + k])
        return out
    elif phase == "noise":
        level0, level1 = _levels(rule)
        np.add(raw[:, :cut], level0, out=raw[:, :cut])
        np.add(raw[:, cut:], level1, out=raw[:, cut:])
        return raw
    else:
        # a flip reads group 0 as exposed and group 1 as unexposed
        np.greater_equal(raw[:, :cut], rule.accuracy, out=out[:, :cut])
        np.less(raw[:, cut:], rule.accuracy, out=out[:, cut:])
        return out
    return None


def generate(spec: CausalSpec, seed: Seed) -> Cohort:
    """Draw one cohort; fully determined by (spec, seed).

    ``seed`` is a master seed or a tuple of them, each ``check_seed``-valid.
    """
    _check_spec(spec)
    for part in seed if isinstance(seed, tuple) else (seed,):
        check_seed(part)
    n = spec.n_per_group
    group = np.repeat(np.array([0, 1], dtype=np.int8), n)
    true_exposure = group == 1
    latent = np.empty(2 * n, dtype=bool) if spec.true_cause == "latent-factor" else None
    outcome = np.empty(2 * n, dtype=bool)
    proxy = None if spec.proxy_rule is None else np.empty(2 * n, dtype=bool)
    covariates = {
        rule.name: np.empty(2 * n) if rule.noise_sd > 0.0 else np.repeat(_levels(rule), n)
        for rule in spec.covariate_rules
    }

    # ``_transform`` works on rows of cohorts; this is one row
    flags = {"outcome": outcome[None], "proxy": None if proxy is None else proxy[None]}
    latent_row = None if latent is None else latent[None]

    def keep(phase, rule, start, raw):
        block = slice(start, start + raw.shape[1])
        out = flags.get(phase)
        values = _transform(spec, phase, rule, start, raw, latent_row,
                            None if out is None else out[:, block])
        if phase == "noise":
            covariates[rule.name][block] = values[0]

    _draw(spec, (_rng(seed),), 1, _buffers(spec, 1), keep)
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


def _side(rule: ProxyRule | CovariateRule, values: np.ndarray) -> np.ndarray:
    """Which individuals lie on group 1's side of ``rule``'s split: the
    proxy exposures as drawn, or the covariate ``values`` beyond the
    threshold midway between the rule's two levels."""
    if isinstance(rule, ProxyRule):
        return values
    threshold = rule.intercept + rule.slope / 2.0
    return values > threshold if rule.slope > 0.0 else values < threshold


def _cells(side: np.ndarray, outcome: np.ndarray) -> tuple[int, int]:
    """``(individuals, cases)`` on the ``side`` of a split, given the
    outcomes of the same individuals."""
    return np.count_nonzero(side), np.count_nonzero(side & outcome)


def _check_separates(rule: CovariateRule, n_a: int, n: int) -> None:
    """Refuse a covariate split that puts ``n_a`` of ``n`` on one side:
    all or none."""
    if n_a == 0 or n_a == n:
        raise DomainError(
            f"covariate {rule.name!r} does not separate the cohort into two "
            "nonempty groups"
        )


def _scorer(spec: CausalSpec, variant: str, continuity_correction: bool):
    """The score test of ``variant`` on cohorts of ``spec``, as ``(split,
    score)``: the test of one side of the cohort against the rest.
    ``score(c0, c1, cell)`` gives ``(statistic, p_value)`` from a cohort's
    cases in group 0 and in group 1 and ``cell``, the ``_cells`` of the side
    ``split`` cuts: the proxy rule, or a covariate rule with noise, whose
    side must be neither empty nor all.  The label and a covariate rule
    without noise test group 1, ``split`` and ``cell`` being None: such a
    rule puts each group wholly on one side of its threshold, and
    ``fl(intercept + slope / 2)`` never rounds past group 0's level, the
    intercept, so group 1 is the side beyond it.  A variant that cannot be
    scored gets a function that raises its error: scoring a cohort raises it
    after the variants listed before it.
    """
    n = spec.n_per_group
    split = None
    try:
        if variant == "proxy_exposure":
            split = spec.proxy_rule
            if split is None:
                raise DomainError("spec has no proxy_rule; proxy_exposure unavailable")
        elif variant != "true_exposure":
            if not variant.startswith("covariate_"):
                raise DomainError(f"unknown analysis variant {variant!r}")
            rule = spec.rule(variant[len("covariate_") :])
            if rule.slope == 0.0:
                raise DomainError(f"covariate {rule.name!r} cannot separate the cohort: "
                                  "its rule does not vary with group")
            if rule.noise_sd > 0.0:
                split = rule
            else:
                _check_separates(rule, np.count_nonzero(_side(rule, np.array(_levels(rule)))), 2)
    except DomainError as exc:
        error = exc

        def fail(*_):
            raise error

        return None, fail

    def score(c0: int, c1: int, cell) -> tuple[float, float]:
        n_a, cases_a = (n, c1) if cell is None else cell
        if isinstance(split, CovariateRule):
            _check_separates(split, n_a, 2 * n)
        return _score_test(cases_a, n_a, c0 + c1 - cases_a, 2 * n - n_a, continuity_correction)

    return split, score


def _variant_score(
    cohort: Cohort, variant: str, continuity_correction: bool
) -> tuple[float, float]:
    """``variant``'s score test on ``cohort``, from the same counts a
    replication range reduces its draws to."""
    n = cohort.spec.n_per_group
    split, score = _scorer(cohort.spec, variant, continuity_correction)
    cell = None
    if split is not None:
        values = (
            cohort.proxy_exposure
            if isinstance(split, ProxyRule)
            else cohort.covariates[split.name]
        )
        cell = _cells(_side(split, values), cohort.outcome)
    return score(
        np.count_nonzero(cohort.outcome[:n]), np.count_nonzero(cohort.outcome[n:]), cell
    )


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
    if not isinstance(cohort, Cohort):
        raise DomainError("cohort must be a Cohort instance")
    alpha = _check_probability(alpha, "alpha")
    by_label = _variant_score(cohort, "true_exposure", continuity_correction)
    by_covariate = _variant_score(cohort, f"covariate_{covariate_name}", continuity_correction)
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
    reduced in index order (``np.cumsum`` adds the p-values one at a time),
    so the report is bit-identical across reruns and across worker counts.
    ``replications`` may not exceed ``MAX_REPLICATIONS``.  A failing
    replication raises the error of the lowest failing index, as a serial
    loop would.
    """
    _check_spec(spec)
    replications = _check_count(replications, "replications", minimum=1)
    if replications > MAX_REPLICATIONS:
        raise DomainError(
            f"replications must be <= {MAX_REPLICATIONS}, got {replications}"
        )
    alpha = _check_probability(alpha, "alpha")
    if variants is None:
        variants = default_variants(spec)
    variants = tuple(variants)
    seed = check_seed(seed)
    draws = 2 * spec.n_per_group * len(_phases(spec))
    p = _parallel.split(
        lambda start, stop, rows: _replicate_range(
            spec, seed, variants, continuity_correction, start, stop, rows
        ),
        (replications, len(variants)),
        lambda m: m * (draws + _REPLICATION_SETUP),
        _PARALLEL_MIN_INDIVIDUALS,
    )
    # Python numbers, whose repr is the plain value
    rows = tuple(
        VariantStats(
            variant=v,
            rejection_rate=int(np.count_nonzero(p[:, j] < alpha)) / replications,
            mean_p_value=float(np.cumsum(p[:, j])[-1]) / replications,
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
    rows: np.ndarray,
) -> None:
    """Write the p-values of replications ``start`` to ``stop - 1`` into
    ``rows``: one row per replication, one column per variant.  Stops at the
    first error, with every row before it written and none after.

    ``seed`` is ``check_seed``-valid.  Each replication is ``generate(spec,
    (seed, i))`` scored as ``_variant_score`` scores it, drawn from one
    Philox that is re-keyed, not rebuilt.  The keys are derived in bulk,
    ``_KEY_BLOCK`` replications at a time, by ``_replication_keys``, whose
    rows are bit-identical to ``SeedSequence((seed, i))``'s keys (tier-1
    checks them against numpy's own); no ``SeedSequence`` is built.

    Replications are drawn in tiles of min(``_KEY_BLOCK``, ``_BLOCK`` //
    2n), at least one, ``_draw`` being told each tile's key count: ``_Tally``
    reduces each phase of a tile to one row of counts per cohort (the cases
    in each group and the ``_cells`` of each split), and the rows are scored
    in index order, each variant's score test on counts it has scored
    lately read from ``_score_test``'s cache.  A cohort wider than half a
    block (the ``MAX_COHORT_SIZE`` rung among them) is a tile of one on
    one-row buffers, so each block is reduced as it is drawn, outcomes are
    kept one per individual only when a split is scored, and no proxy flag
    or covariate value outlives its block.
    """
    n2 = 2 * spec.n_per_group
    scorers = [_scorer(spec, v, continuity_correction) for v in variants]
    splits = tuple(dict.fromkeys(split for split, _ in scorers if split is not None))
    tile = max(1, min(_KEY_BLOCK, _BLOCK // n2))
    dests = _buffers(spec, tile)
    tally = _Tally(spec, tile, splits)
    # the column of each variant's split's cell in a row of counts
    plan = [(None if split is None else tally.at[split], score) for split, score in scorers]
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    # the state a fresh Philox starts in (counter 0, an empty buffer, no
    # spare 32-bit word), as lists, which the state setter reads faster than
    # arrays; each replication sets the key it would be seeded with
    state = bits.state
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()

    def streams(keys):
        for key in keys:
            state["state"]["key"] = key
            bits.state = state
            yield rng

    row = 0
    for at in range(start, stop, _KEY_BLOCK):
        keys = _replication_keys(seed, at, min(at + _KEY_BLOCK, stop))
        for tile_keys in np.split(keys, range(tile, len(keys), tile)):
            tally.clear()
            _draw(spec, streams(tile_keys), len(tile_keys), dests, tally)
            for c in tally.counts[: len(tile_keys)].tolist():
                rows[row] = [score(c[0], c[1], None if col is None else c[col : col + 2])[1]
                             for col, score in plan]
                row += 1


class _Tally:
    """The counts the scorers read, one row per cohort of a tile: the cases
    in group 0 and in group 1, then each split's ``(individuals, cases)`` on
    group 1's side.  Called as ``_draw``'s ``reduce``."""

    def __init__(self, spec: CausalSpec, tile: int, splits: tuple) -> None:
        n2 = 2 * spec.n_per_group
        width = min(n2, _BLOCK)
        self.spec = spec
        self.latent = np.empty((tile, n2), dtype=bool) if spec.true_cause == "latent-factor" else None
        # outcomes are kept per individual only when a split reads them
        self.keep = bool(splits)
        self.outcome = np.empty((tile, n2 if splits else width), dtype=bool)
        self.flags = np.empty((tile, width), dtype=bool) if spec.proxy_rule in splits else None
        self.counts = np.zeros((tile, 2 + 2 * len(splits)), dtype=np.int64)
        self.at = {split: 2 + 2 * j for j, split in enumerate(splits)}

    def clear(self) -> None:
        self.counts[:] = 0

    def __call__(self, phase, rule, start, raw):
        if rule is not None and rule not in self.at:
            return  # a phase no variant reads
        rows, k = raw.shape
        block = slice(start, start + k)
        out = None
        if phase == "outcome":
            out = self.outcome[:rows, block] if self.keep else self.outcome[:rows, :k]
        elif phase == "proxy":
            out = self.flags[:rows, :k]
        latent = None if self.latent is None else self.latent[:rows]
        drawn = _transform(self.spec, phase, rule, start, raw, latent, out)
        counts = self.counts[:rows]
        if phase == "outcome":
            cut = _cut(self.spec.n_per_group, start, k)
            counts[:, 0] += _count(drawn[:, :cut])
            counts[:, 1] += _count(drawn[:, cut:])
        elif rule is not None:
            side = _side(rule, drawn)
            at = self.at[rule]
            counts[:, at] += _count(side)
            counts[:, at + 1] += _count(side & self.outcome[:rows, block])


def _count(flags: np.ndarray) -> np.ndarray | int:
    """How many flags are set in each row of ``flags``.  A single row takes
    numpy's flat count, several times faster than a reduction along rows; a
    tile's rows hold at most half a block, so 16-bit sums are exact."""
    if len(flags) == 1:
        return np.count_nonzero(flags)
    return np.add.reduce(flags.view(np.uint8), axis=1, dtype=np.uint16)


def proxy_study(
    spec: CausalSpec,
    replications: int,
    alpha: float = 0.05,
    seed: int = 0,
    continuity_correction: bool = True,
) -> ReplicationReport:
    """Rejection rates when grouping by true exposure versus by its proxy."""
    _check_spec(spec)
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
    _check_spec(spec)
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
