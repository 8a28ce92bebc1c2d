"""Every pinned artifact of ``pinned.py`` against its digest and golden file
in ``golden/pins.json``, and against its oracle through ``record_pins``."""

import hashlib

import pytest

import record_pins
from pinned import ARTIFACTS, GOLDEN, PINS, pins, produce


@pytest.mark.parametrize("key", sorted(ARTIFACTS))
def test_pinned_artifact(key, tmp_path):
    pin = pins()["pins"][key]
    data = produce(key, tmp_path)
    assert hashlib.sha256(data).hexdigest() == pin["sha256"]
    if "golden" in pin:
        assert data.decode("utf-8") == (GOLDEN / pin["golden"]).read_text(encoding="utf-8")


def test_every_pin_is_checked_and_every_golden_file_named():
    doc = pins()
    assert doc["pins"].keys() == ARTIFACTS.keys()
    named = {PINS.name, *doc["scenarios"].values(),
             *(pin["golden"] for pin in doc["pins"].values() if "golden" in pin)}
    assert {path.name for path in GOLDEN.iterdir()} == named


def test_every_pinned_artifact_passes_its_oracle():
    results = record_pins.check()
    assert [r.key for r in results] == list(ARTIFACTS)
    assert {r.key: r.error for r in results if not r.error <= 1.0} == {}
