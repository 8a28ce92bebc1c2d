"""Every pinned artifact of ``pinned.py`` against its digest and golden file
in ``golden/pins.json``, and against its oracle through ``record_pins``."""

import hashlib
import os
import subprocess
import sys

import pytest

import record_pins
from pinned import ARTIFACTS, GOLDEN, PINS, TESTS, pins, produce, scenario_path


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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: numpy's exp, log and log1p round differently with AVX-512 "
    "dispatch off, so the figure bytes depend on numpy's SIMD tier"))
def test_a_figure_is_its_pin_with_avx512_dispatch_off(tmp_path):
    out = tmp_path / "figure.csv"
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src"),
           "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
    # check=True: a crash raises CalledProcessError, not the defect's AssertionError
    subprocess.run([sys.executable, "-m", "riskcounts", "figure", scenario_path(tmp_path, "la_rr2"),
                    "--id", "1", "--out", str(out)],
                   env=env, capture_output=True, check=True, timeout=600)
    pin = pins()["pins"]["figure-la_rr2-1"]["sha256"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pin
