"""Scenario files: versioned JSON documents describing one analysis input.

A scenario file carries exactly one of ``exposure_scenario``,
``uncertain_scenario`` or ``causal_spec``, plus optional output controls
(coverage, eps, seed, replications, alpha) that commands use as defaults.

The payload dataclasses are the schema.  A kind's keys are exactly its
dataclass's fields, and those with a default are optional; the controls are
``ScenarioFile``'s optional fields.  One reader, driven by the field types,
parses them all, and ``payload_document`` writes a payload back through
``asdict``.  Errors give the dotted path of the offending value.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from importlib import resources
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .cohort import CausalSpec, check_seed
from .comparison import ExposureScenario, UncertainScenario
from .distributions import DomainError

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
_KIND_TYPES = {key: cls for cls, key in _KINDS.items()}

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


def _no_extras(mapping: dict, allowed, context: str) -> None:
    extras = sorted(set(mapping) - set(allowed))
    if extras:
        raise ScenarioError(f"unknown field {extras[0]!r} in {context}")


#: Scalar field type -> (JSON values it takes, what the error says it must be).
_SCALARS = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}


@functools.cache
def _schema(cls) -> dict:
    """Field name -> (type, required) of dataclass ``cls``; a field is
    optional exactly when it has a default."""
    hints = get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    }


#: Output controls: the optional fields of ``ScenarioFile``.
_CONTROLS = {key: spec for key, spec in _schema(ScenarioFile).items() if not spec[1]}


def _fields(doc: dict, schema: dict, ctx: str) -> dict:
    """Read every present or required key of ``schema`` from ``doc``."""
    return {
        key: _value(_require(doc, key, ctx), hint, key, ctx)
        for key, (hint, required) in schema.items()
        if required or key in doc
    }


def _object(doc, cls, path: str):
    """Build dataclass ``cls`` from the JSON object found at ``path``."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path} must be an object")
    schema = _schema(cls)
    _no_extras(doc, schema, path)
    values = _fields(doc, schema, path)
    try:
        return cls(**values)
    except DomainError as exc:
        raise ScenarioError(f"invalid {path}: {exc}") from exc


def _value(value, hint, key: str, ctx: str):
    """Field ``key`` of the object at ``ctx``, read as type ``hint``."""
    if hint in _SCALARS:
        accepted, noun = _SCALARS[hint]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ScenarioError(f"field {key!r} in {ctx} must be {noun}")
        try:
            return hint(value)
        except OverflowError:  # an integer beyond the float range
            raise ScenarioError(f"field {key!r} in {ctx} is out of range") from None
    if is_dataclass(hint):
        return _object(value, hint, f"{ctx}.{key}")
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple and args[1:] == (...,):
        if not isinstance(value, (list, tuple)):
            raise ScenarioError(f"field {key!r} in {ctx} must be a list")
        return tuple(_object(item, args[0], f"{ctx}.{key}[{i}]") for i, item in enumerate(value))
    if len(args) == 2 and args[1] is type(None):
        return None if value is None else _value(value, args[0], key, ctx)
    raise TypeError(f"scenario field {key!r} has unsupported type {hint}")


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
    _no_extras(doc, ("schema_version", *_KIND_KEYS, *_CONTROLS), source)
    kind = present[0]
    payload = _object(doc[kind], _KIND_TYPES[kind], kind)
    controls = _fields(doc, _CONTROLS, source)
    if controls.get("seed") is not None:
        try:
            check_seed(controls["seed"], f"field 'seed' in {source}")
        except DomainError as exc:
            raise ScenarioError(str(exc)) from None
    return ScenarioFile(schema_version=version, payload=payload, **controls)


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
        if key not in _CONTROLS:
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ScenarioError(f"{path} nests JSON too deeply to parse") from None
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
