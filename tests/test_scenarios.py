"""Scenario-file parsing, bundles, and lossless serialization."""

import json

import pytest

from riskcounts import (
    BUNDLED_SCENARIOS,
    CausalSpec,
    CovariateRule,
    ExposureScenario,
    ProxyRule,
    ScenarioError,
    UncertainScenario,
    load_bundled,
    load_scenario,
    parse_scenario,
)
from riskcounts.distributions import BetaParams
from riskcounts.scenarios import compact_json, payload_document, scenario_document


def exposure_doc(**overrides):
    doc = {
        "schema_version": 1,
        "exposure_scenario": {
            "n_exposed": 1000,
            "n_unexposed": 1000,
            "p_exposed": 0.002,
            "p_unexposed": 0.001,
        },
    }
    doc["exposure_scenario"].update(overrides)
    return doc


# ---------------------------------------------------------------------------
# bundled scenarios
# ---------------------------------------------------------------------------


def test_every_bundled_scenario_loads():
    kinds = {}
    for name in BUNDLED_SCENARIOS:
        sf = load_bundled(name)
        kinds[name] = sf.kind
        assert sf.schema_version == 1
    assert kinds["la_rr2"] == "exposure_scenario"
    assert kinds["la_rr106"] == "exposure_scenario"
    assert kinds["ny_rr2"] == "exposure_scenario"
    assert kinds["us_rr2"] == "exposure_scenario"
    assert kinds["null_spec"] == "causal_spec"
    assert kinds["banana_spec"] == "causal_spec"
    assert kinds["proxy_spec"] == "causal_spec"


def test_bundled_values_match_their_stories():
    la = load_bundled("la_rr2").payload
    assert (la.n_exposed, la.n_unexposed) == (2_000_000, 2_000_000)
    assert la.p_exposed / la.p_unexposed == 2.0
    us = load_bundled("us_rr2").payload
    assert us.n_exposed == 160_000_000
    banana = load_bundled("banana_spec").payload
    assert banana.covariate_rules[0].name == "banana_servings"
    proxy = load_bundled("proxy_spec").payload
    assert proxy.proxy_rule.accuracy == 0.7


def test_unknown_bundle_name():
    with pytest.raises(ScenarioError):
        load_bundled("atlantis")


# ---------------------------------------------------------------------------
# parsing errors name the field
# ---------------------------------------------------------------------------


def test_missing_kind_is_an_error():
    with pytest.raises(ScenarioError, match="exactly one"):
        parse_scenario({"schema_version": 1}, source="t")


def test_two_kinds_is_an_error():
    doc = exposure_doc()
    doc["causal_spec"] = {
        "n_per_group": 10, "true_cause": "none", "baseline_p": 0.1, "effect_p": 0.1,
    }
    with pytest.raises(ScenarioError, match="exactly one"):
        parse_scenario(doc, source="t")


def test_unsupported_schema_version():
    doc = exposure_doc()
    doc["schema_version"] = 99
    with pytest.raises(ScenarioError, match="schema_version"):
        parse_scenario(doc, source="t")


def test_unknown_field_is_named():
    doc = exposure_doc(p_exposde=0.5)  # typo on purpose
    with pytest.raises(ScenarioError, match="p_exposde"):
        parse_scenario(doc, source="t")


def test_missing_field_is_named():
    doc = exposure_doc()
    del doc["exposure_scenario"]["n_unexposed"]
    with pytest.raises(ScenarioError, match="n_unexposed"):
        parse_scenario(doc, source="t")


def test_wrong_type_is_named():
    with pytest.raises(ScenarioError, match="n_exposed"):
        parse_scenario(exposure_doc(n_exposed="many"), source="t")
    with pytest.raises(ScenarioError, match="p_exposed"):
        parse_scenario(exposure_doc(p_exposed="tiny"), source="t")
    with pytest.raises(ScenarioError, match="n_exposed"):
        parse_scenario(exposure_doc(n_exposed=True), source="t")


def test_domain_violations_surface_as_scenario_errors():
    with pytest.raises(ScenarioError, match="p_exposed"):
        parse_scenario(exposure_doc(p_exposed=1.7), source="t")


def test_bad_control_types_are_named():
    doc = exposure_doc()
    doc["seed"] = "lucky"
    with pytest.raises(ScenarioError, match="seed"):
        parse_scenario(doc, source="t")


def test_load_scenario_reports_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError, match="broken.json"):
        load_scenario(path)


def test_load_scenario_requires_object_root(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_scenario(path)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "payload",
    [
        ExposureScenario(123, 456, 0.25, 0.125),
        ExposureScenario(2_000_000, 2_000_000, 2.0034e-4, 1.89e-4),
        UncertainScenario(
            1_000, 2_000,
            BetaParams(133.35516986940135, 665510.8989451418),
            BetaParams(0.5, 0.5),
        ),
        CausalSpec(
            n_per_group=50, true_cause="latent-factor", baseline_p=0.01,
            effect_p=0.03, latent_group_correlation=0.25,
            covariate_rules=(CovariateRule("snack", 1.5, -2.0, 0.75),),
            proxy_rule=ProxyRule(accuracy=0.8),
        ),
        CausalSpec(n_per_group=9, true_cause="none", baseline_p=0.5, effect_p=0.5),
    ],
)
def test_payload_documents_round_trip(payload):
    kind, body = payload_document(payload)
    restored = parse_scenario({"schema_version": 1, kind: body}, source="t").payload
    assert restored == payload


def test_scenario_document_carries_controls():
    doc = scenario_document(
        ExposureScenario(10, 10, 0.1, 0.1), coverage=0.99, seed=7
    )
    sf = parse_scenario(doc, source="t")
    assert sf.coverage == 0.99
    assert sf.seed == 7
    assert sf.alpha is None
    with pytest.raises(ScenarioError, match="^unknown output control 'bogus'$"):
        scenario_document(ExposureScenario(10, 10, 0.1, 0.1), bogus=1)


def test_compact_json_is_canonical():
    doc = {"b": 1, "a": {"z": 2.5, "m": [1, 2]}}
    text = compact_json(doc)
    assert text == '{"a":{"m":[1,2],"z":2.5},"b":1}'
    assert compact_json(json.loads(text)) == text


def test_control_round_trip_through_files(tmp_path):
    path = tmp_path / "s.json"
    doc = exposure_doc()
    doc["eps"] = 1e-10
    doc["alpha"] = 0.01
    path.write_text(json.dumps(doc), encoding="utf-8")
    sf = load_scenario(path)
    assert sf.eps == 1e-10
    assert sf.alpha == 0.01
    assert sf.payload.n_exposed == 1000
