"""The field-driven scenario reader, checked against a copy of the
hand-written parsers it replaced.

The ``oracle_*`` functions are those parsers as they stood: one function per
kind, each naming its fields, types and defaults.  Every field of the
bundled scenarios and of a full uncertain and a full causal document is
replaced by null, a bool, an int, a float, a string, a list or an object, or
deleted.  The reader must then return the oracle's ``ScenarioFile`` or raise
a ``ScenarioError`` with the oracle's text.  ``_change`` names the only
departures allowed, each listed in CHANGES.md:

(a) a kind body or a beta prior that is not an object is reported by its
    dotted path;
(b) a ``covariate_rules`` the oracle crashed on (``TypeError``) is refused
    as not a list, as is an integer too large for a float (``OverflowError``);
(c) a ``covariate_rules`` that is not a list is refused even where the
    oracle accepted it (``{}``, ``""``) or complained about its first item;
(d) with several faults in one ``causal_spec``, the first in field order is
    reported.
"""

import json
import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from pinned import DELETE, all_paths, mutated
from riskcounts.cohort import CausalSpec, CovariateRule, ProxyRule, check_seed
from riskcounts.comparison import ExposureScenario, UncertainScenario
from riskcounts.distributions import BetaParams, DomainError
from riskcounts.scenarios import (
    BUNDLED_SCENARIOS,
    SCHEMA_VERSION,
    ScenarioError,
    ScenarioFile,
    bundled_text,
    parse_scenario,
)

# ---------------------------------------------------------------------------
# oracle: the per-kind parsers
# ---------------------------------------------------------------------------

_KIND_KEYS = ("exposure_scenario", "uncertain_scenario", "causal_spec")
_CONTROL_KEYS = ("coverage", "eps", "seed", "replications", "alpha")


def _require(mapping, key, context):
    if key not in mapping:
        raise ScenarioError(f"missing field {key!r} in {context}")
    return mapping[key]


def _no_extras(mapping, allowed, context):
    extras = sorted(set(mapping) - set(allowed))
    if extras:
        raise ScenarioError(f"unknown field {extras[0]!r} in {context}")


def _number(value, key, context):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"field {key!r} in {context} must be a number")
    return float(value)


def _integer(value, key, context):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"field {key!r} in {context} must be an integer")
    return value


def oracle_exposure(doc):
    ctx = "exposure_scenario"
    _no_extras(doc, ("n_exposed", "n_unexposed", "p_exposed", "p_unexposed"), ctx)
    try:
        return ExposureScenario(
            n_exposed=_integer(_require(doc, "n_exposed", ctx), "n_exposed", ctx),
            n_unexposed=_integer(_require(doc, "n_unexposed", ctx), "n_unexposed", ctx),
            p_exposed=_number(_require(doc, "p_exposed", ctx), "p_exposed", ctx),
            p_unexposed=_number(_require(doc, "p_unexposed", ctx), "p_unexposed", ctx),
        )
    except DomainError as exc:
        raise ScenarioError(f"invalid {ctx}: {exc}") from exc


def oracle_beta(doc, key):
    ctx = f"uncertain_scenario.{key}"
    if not isinstance(doc, dict):
        raise ScenarioError(f"field {key!r} must be an object with alpha and beta")
    _no_extras(doc, ("alpha", "beta"), ctx)
    try:
        return BetaParams(
            alpha=_number(_require(doc, "alpha", ctx), "alpha", ctx),
            beta=_number(_require(doc, "beta", ctx), "beta", ctx),
        )
    except DomainError as exc:
        raise ScenarioError(f"invalid {ctx}: {exc}") from exc


def oracle_uncertain(doc):
    ctx = "uncertain_scenario"
    _no_extras(doc, ("n_exposed", "n_unexposed", "prior_exposed", "prior_unexposed"), ctx)
    try:
        return UncertainScenario(
            n_exposed=_integer(_require(doc, "n_exposed", ctx), "n_exposed", ctx),
            n_unexposed=_integer(_require(doc, "n_unexposed", ctx), "n_unexposed", ctx),
            prior_exposed=oracle_beta(_require(doc, "prior_exposed", ctx), "prior_exposed"),
            prior_unexposed=oracle_beta(_require(doc, "prior_unexposed", ctx), "prior_unexposed"),
        )
    except DomainError as exc:
        raise ScenarioError(f"invalid {ctx}: {exc}") from exc


def oracle_causal(doc):
    ctx = "causal_spec"
    _no_extras(
        doc,
        (
            "n_per_group",
            "true_cause",
            "baseline_p",
            "effect_p",
            "covariate_rules",
            "proxy_rule",
            "latent_group_correlation",
        ),
        ctx,
    )
    rules = []
    for i, rule_doc in enumerate(doc.get("covariate_rules", [])):
        rctx = f"{ctx}.covariate_rules[{i}]"
        if not isinstance(rule_doc, dict):
            raise ScenarioError(f"{rctx} must be an object")
        _no_extras(rule_doc, ("name", "intercept", "slope", "noise_sd"), rctx)
        name = _require(rule_doc, "name", rctx)
        if not isinstance(name, str):
            raise ScenarioError(f"field 'name' in {rctx} must be a string")
        try:
            rules.append(
                CovariateRule(
                    name=name,
                    intercept=_number(_require(rule_doc, "intercept", rctx), "intercept", rctx),
                    slope=_number(_require(rule_doc, "slope", rctx), "slope", rctx),
                    noise_sd=_number(rule_doc.get("noise_sd", 0.0), "noise_sd", rctx),
                )
            )
        except DomainError as exc:
            raise ScenarioError(f"invalid {rctx}: {exc}") from exc
    proxy = None
    if doc.get("proxy_rule") is not None:
        pctx = f"{ctx}.proxy_rule"
        pdoc = doc["proxy_rule"]
        if not isinstance(pdoc, dict):
            raise ScenarioError(f"{pctx} must be an object")
        _no_extras(pdoc, ("accuracy",), pctx)
        try:
            proxy = ProxyRule(accuracy=_number(_require(pdoc, "accuracy", pctx), "accuracy", pctx))
        except DomainError as exc:
            raise ScenarioError(f"invalid {pctx}: {exc}") from exc
    true_cause = _require(doc, "true_cause", ctx)
    if not isinstance(true_cause, str):
        raise ScenarioError(f"field 'true_cause' in {ctx} must be a string")
    try:
        return CausalSpec(
            n_per_group=_integer(_require(doc, "n_per_group", ctx), "n_per_group", ctx),
            true_cause=true_cause,
            baseline_p=_number(_require(doc, "baseline_p", ctx), "baseline_p", ctx),
            effect_p=_number(_require(doc, "effect_p", ctx), "effect_p", ctx),
            covariate_rules=tuple(rules),
            proxy_rule=proxy,
            latent_group_correlation=_number(
                doc.get("latent_group_correlation", 1.0), "latent_group_correlation", ctx
            ),
        )
    except DomainError as exc:
        raise ScenarioError(f"invalid {ctx}: {exc}") from exc


def oracle_parse(doc, source="scenario"):
    if not isinstance(doc, dict):
        raise ScenarioError(f"{source}: top level must be a JSON object")
    version = _require(doc, "schema_version", source)
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"field 'schema_version' is {version!r}; this build supports {SCHEMA_VERSION}"
        )
    present = [k for k in _KIND_KEYS if k in doc]
    if len(present) != 1:
        raise ScenarioError(
            f"{source}: exactly one of {_KIND_KEYS} must be present, found {present or 'none'}"
        )
    _no_extras(doc, ("schema_version", *_KIND_KEYS, *_CONTROL_KEYS), source)
    kind = present[0]
    body = doc[kind]
    if not isinstance(body, dict):
        raise ScenarioError(f"field {kind!r} must be an object")
    parsed = {
        "exposure_scenario": oracle_exposure,
        "uncertain_scenario": oracle_uncertain,
        "causal_spec": oracle_causal,
    }[kind](body)

    controls = {}
    for key in _CONTROL_KEYS:
        if key not in doc or doc[key] is None:
            controls[key] = None
        elif key in ("seed", "replications"):
            controls[key] = _integer(doc[key], key, source)
            if key == "seed":
                try:
                    check_seed(controls[key], f"field 'seed' in {source}")
                except DomainError as exc:
                    raise ScenarioError(str(exc)) from None
        else:
            controls[key] = _number(doc[key], key, source)
    return ScenarioFile(schema_version=version, payload=parsed, **controls)


# ---------------------------------------------------------------------------
# documents and their mutations
# ---------------------------------------------------------------------------

_CONTROLS = {"coverage": 0.99, "eps": 1e-10, "seed": 3, "replications": 10, "alpha": 0.01}

FULL_UNCERTAIN = {
    "schema_version": 1,
    "uncertain_scenario": {
        "n_exposed": 1000,
        "n_unexposed": 2000,
        "prior_exposed": {"alpha": 2.5, "beta": 1000.0},
        "prior_unexposed": {"alpha": 0.5, "beta": 0.5},
    },
    **_CONTROLS,
}

FULL_CAUSAL = {
    "schema_version": 1,
    "causal_spec": {
        "n_per_group": 50,
        "true_cause": "latent-factor",
        "baseline_p": 0.01,
        "effect_p": 0.03,
        "covariate_rules": [
            {"name": "snack", "intercept": 1.5, "slope": -2.0, "noise_sd": 0.75},
            {"name": "nap", "intercept": 0.0, "slope": 1.0},
        ],
        "proxy_rule": {"accuracy": 0.8},
        "latent_group_correlation": 0.25,
    },
    **_CONTROLS,
}

DOCUMENTS = [json.loads(bundled_text(name)) for name in BUNDLED_SCENARIOS]
DOCUMENTS += [FULL_UNCERTAIN, FULL_CAUSAL]

_CAUSAL_FIELDS = (
    "n_per_group",
    "true_cause",
    "baseline_p",
    "effect_p",
    "covariate_rules",
    "proxy_rule",
    "latent_group_correlation",
)
_KEY_NAMES = sorted(
    {"schema_version", *_KIND_KEYS, *_CONTROL_KEYS, *_CAUSAL_FIELDS}
    | {"n_exposed", "n_unexposed", "p_exposed", "p_unexposed", "prior_exposed"}
    | {"prior_unexposed", "alpha", "beta", "name", "intercept", "slope", "noise_sd"}
    | {"accuracy"}
)
_LIST_MESSAGE = "field 'covariate_rules' in causal_spec must be a list"


ALL_PATHS = all_paths(DOCUMENTS)


def _outcome(parse, doc):
    """('ok', repr) or ('error', message) or ('crash', exception type)."""
    try:
        return "ok", repr(parse(doc, source="t"))
    except ScenarioError as exc:
        return "error", str(exc)
    except Exception as exc:
        return "crash", type(exc).__name__


def _causal_rank(message):
    """Position in CausalSpec's field order of the field a causal_spec error
    names; one past the last for the constructor's own checks."""
    m = re.search(r"causal_spec\.(\w+)", message) or re.search(
        r"'(\w+)' in causal_spec\b", message
    )
    if m and m.group(1) in _CAUSAL_FIELDS:
        return _CAUSAL_FIELDS.index(m.group(1))
    if message.startswith("invalid causal_spec: "):
        return len(_CAUSAL_FIELDS)
    return None


def _reworded(message):
    """The oracle's message in the reader's wording for change (a)."""
    kind = re.fullmatch(r"field '(\w+)' must be an object", message)
    if kind:
        return f"{kind.group(1)} must be an object"
    prior = re.fullmatch(r"field '(\w+)' must be an object with alpha and beta", message)
    if prior:
        return f"uncertain_scenario.{prior.group(1)} must be an object"
    return message


def _change(doc, old, new):
    """Which enumerated change turns the oracle's outcome ``old`` into the
    reader's ``new``: None when they are equal; AssertionError when no
    listed change explains the difference."""
    assert new[0] != "crash", f"reader crashed with {new[1]}"
    if old == new:
        return None
    if old[0] == "error" and ("error", _reworded(old[1])) == new:
        return "a"
    body = doc.get("causal_spec")
    rules = body.get("covariate_rules", []) if isinstance(body, dict) else []
    non_list = not isinstance(rules, (list, tuple))
    if old == ("crash", "TypeError") and non_list and new == ("error", _LIST_MESSAGE):
        return "b"
    if old == ("crash", "OverflowError") and new[0] == "error":
        if re.fullmatch(r"field '\w+' in [\w.\[\]]+ is out of range", new[1]):
            return "b"
    if non_list and new == ("error", _LIST_MESSAGE):
        if old[0] == "ok" or old[1].startswith("causal_spec.covariate_rules[0] "):
            return "c"
    # The oracle read covariate_rules first, so a TypeError there came before
    # any other field; where an OverflowError came from is not known.
    old_rank = {
        "error": _causal_rank(_reworded(old[1])),
        "crash": _CAUSAL_FIELDS.index("covariate_rules") + 1
        if old[1] == "TypeError"
        else len(_CAUSAL_FIELDS) + 1,
    }.get(old[0])
    new_rank = _causal_rank(new[1]) if new[0] == "error" else None
    if None not in (old_rank, new_rank) and new_rank < old_rank:
        return "d"
    raise AssertionError(f"unexplained change: oracle {old!r}, reader {new!r}")


def _check(doc):
    return _change(doc, _outcome(oracle_parse, doc), _outcome(parse_scenario, doc))


# ---------------------------------------------------------------------------
# the sweep and the property
# ---------------------------------------------------------------------------

#: One or more values of each JSON type, chosen to reach every branch.
SWEEP_VALUES = [
    DELETE, None, True, False, 0, -1, 7, 10**400, 0.0, 2.5, 1e300, math.nan,
    "", "x", "none", [], [{}], [1], [{"name": "a", "intercept": 0, "slope": 1}],
    {}, {"x": 1}, {"alpha": 1.0, "beta": 2.0}, {"accuracy": 0.5}, {"name": "b"},
]


def test_every_field_of_every_document_against_the_oracle():
    changes = {}
    for i, path in ALL_PATHS:
        for value in SWEEP_VALUES:
            change = _check(mutated(DOCUMENTS[i], path, value))
            changes[change] = changes.get(change, 0) + 1
    # Each listed change occurs, and most mutations are not changed at all.
    assert set(changes) == {None, "a", "b", "c", "d"}
    assert changes[None] > 5 * sum(n for change, n in changes.items() if change)


def test_unmutated_documents_parse_identically():
    for doc in DOCUMENTS:
        assert _check(doc) is None


_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEY_NAMES) | st.text(max_size=4), inner, max_size=4),
    max_leaves=5,
)
_replacements = st.one_of(
    st.just(DELETE),
    st.none(),
    st.booleans(),
    st.integers() | st.just(10**400),
    st.floats(),
    st.text(max_size=8) | st.sampled_from(["none", "latent-factor", "exposure-label"]),
    st.lists(_json_values, max_size=3),
    st.dictionaries(st.sampled_from(_KEY_NAMES) | st.text(max_size=4), _json_values, max_size=5),
)


@given(target=st.sampled_from(ALL_PATHS), value=_replacements)
@settings(max_examples=100, deadline=None)
def test_random_mutations_against_the_oracle(target, value):
    i, path = target
    _check(mutated(DOCUMENTS[i], path, value))
