"""Scenario files: versioned JSON documents describing one analysis input.

A scenario file carries exactly one of ``exposure_scenario``,
``uncertain_scenario`` or ``causal_spec``, plus optional output controls
(coverage, eps, seed, replications, alpha) that commands use as defaults.
Parsing failures always name the offending field.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

from .cohort import CausalSpec, CovariateRule, ProxyRule, check_seed
from .comparison import ExposureScenario, UncertainScenario
from .distributions import BetaParams, DomainError

__all__ = [
    "SCHEMA_VERSION",
    "BUNDLED_SCENARIOS",
    "ScenarioError",
    "ScenarioFile",
    "parse_scenario",
    "load_scenario",
    "load_bundled",
    "bundled_text",
]

SCHEMA_VERSION = 1

#: Payload type -> the top-level key that holds it in a scenario file.
_KINDS = {
    ExposureScenario: "exposure_scenario",
    UncertainScenario: "uncertain_scenario",
    CausalSpec: "causal_spec",
}
_KIND_KEYS = tuple(_KINDS.values())
_CONTROL_KEYS = ("coverage", "eps", "seed", "replications", "alpha")

BUNDLED_SCENARIOS = (
    "la_rr2",
    "la_rr106",
    "ny_rr2",
    "us_rr2",
    "null_spec",
    "banana_spec",
    "proxy_spec",
)


class ScenarioError(ValueError):
    """A scenario document is malformed; the message names the field."""


@dataclass(frozen=True)
class ScenarioFile:
    schema_version: int
    payload: ExposureScenario | UncertainScenario | CausalSpec
    coverage: float | None = None
    eps: float | None = None
    seed: int | None = None
    replications: int | None = None
    alpha: float | None = None

    @property
    def kind(self) -> str:
        return _KINDS[type(self.payload)]


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ScenarioError(f"missing field {key!r} in {context}")
    return mapping[key]


def _no_extras(mapping: dict, allowed: tuple, context: str) -> None:
    extras = sorted(set(mapping) - set(allowed))
    if extras:
        raise ScenarioError(f"unknown field {extras[0]!r} in {context}")


def _number(value, key: str, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"field {key!r} in {context} must be a number")
    return float(value)


def _integer(value, key: str, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"field {key!r} in {context} must be an integer")
    return value


def _parse_exposure(doc: dict) -> ExposureScenario:
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


def _parse_beta(doc, key: str) -> BetaParams:
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


def _parse_uncertain(doc: dict) -> UncertainScenario:
    ctx = "uncertain_scenario"
    _no_extras(doc, ("n_exposed", "n_unexposed", "prior_exposed", "prior_unexposed"), ctx)
    try:
        return UncertainScenario(
            n_exposed=_integer(_require(doc, "n_exposed", ctx), "n_exposed", ctx),
            n_unexposed=_integer(_require(doc, "n_unexposed", ctx), "n_unexposed", ctx),
            prior_exposed=_parse_beta(_require(doc, "prior_exposed", ctx), "prior_exposed"),
            prior_unexposed=_parse_beta(_require(doc, "prior_unexposed", ctx), "prior_unexposed"),
        )
    except DomainError as exc:
        raise ScenarioError(f"invalid {ctx}: {exc}") from exc


def _parse_causal(doc: dict) -> CausalSpec:
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


def parse_scenario(doc, source: str = "scenario") -> ScenarioFile:
    """Validate a parsed JSON document into a ScenarioFile."""
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
        "exposure_scenario": _parse_exposure,
        "uncertain_scenario": _parse_uncertain,
        "causal_spec": _parse_causal,
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


def payload_document(payload) -> tuple[str, dict]:
    """Serialize a scenario payload back to its (kind, JSON body) pair.

    The body holds every dataclass field except those left at ``None`` or
    ``()``.  Round-trips exactly: floats serialize via their shortest repr,
    so parse_scenario on the result reconstructs an equal payload.
    """
    kind = _KINDS.get(type(payload))
    if kind is None:
        raise ScenarioError(f"cannot serialize payload of type {type(payload).__name__}")
    body = {k: v for k, v in asdict(payload).items() if v is not None and v != ()}
    return kind, body


def scenario_document(payload, **controls) -> dict:
    """Full scenario-file document for a payload plus optional controls."""
    kind, body = payload_document(payload)
    doc = {"schema_version": SCHEMA_VERSION, kind: body}
    for key, value in controls.items():
        if key not in _CONTROL_KEYS:
            raise ScenarioError(f"unknown output control {key!r}")
        if value is not None:
            doc[key] = value
    return doc


def compact_json(doc: dict) -> str:
    """Canonical one-line JSON used in metadata echoes."""
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def load_scenario(path: str | Path) -> ScenarioFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    return parse_scenario(doc, source=str(path))


def bundled_text(name: str) -> str:
    """Raw JSON text of a bundled scenario (for metadata echo)."""
    if name not in BUNDLED_SCENARIOS:
        raise ScenarioError(
            f"no bundled scenario named {name!r}; available: {', '.join(BUNDLED_SCENARIOS)}"
        )
    return (
        resources.files("riskcounts")
        .joinpath(f"data/scenarios/{name}.json")
        .read_text(encoding="utf-8")
    )


def load_bundled(name: str) -> ScenarioFile:
    return parse_scenario(json.loads(bundled_text(name)), source=f"bundled:{name}")
