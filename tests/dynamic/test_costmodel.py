"""The repair-vs-recompute dispatcher: schema, machine gating, routing."""

from __future__ import annotations

import json

import pytest

from repro.dynamic import costmodel as cm
from repro.kernels.costmodel import shape_bucket
from repro.util import hostid
from repro.util.hostid import machine_identity


@pytest.fixture(autouse=True)
def _isolated_calibration(tmp_path, monkeypatch):
    """Point dispatch at a nonexistent file so the repo root never leaks in."""
    monkeypatch.setenv(cm.ENV_CALIBRATION, str(tmp_path / "absent.json"))
    hostid.invalidate()
    yield
    hostid.invalidate()


def _load(path):
    return hostid.load_stamped(path, cm.parse_crossovers)


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return path


def _valid_doc(bucket="d3-u1k", fraction=0.05, machine=None):
    return {
        "schema": 1,
        "provenance": {"machine_id": machine or machine_identity()},
        "buckets": {bucket: {"crossover_fraction": fraction}},
    }


def test_delta_band_boundaries():
    assert cm.delta_band(0.0) == "lt1pct"
    assert cm.delta_band(0.0099) == "lt1pct"
    assert cm.delta_band(0.01) == "lt5pct"
    assert cm.delta_band(0.049) == "lt5pct"
    assert cm.delta_band(0.05) == "lt20pct"
    assert cm.delta_band(0.2) == "ge20pct"
    assert cm.delta_band(1.0) == "ge20pct"


def test_static_fallback_routes_on_threshold():
    d = cm.decide_strategy(0.01, 3, 900)
    assert d.strategy == "repair"
    assert d.mode == "static"
    assert d.threshold == cm.STATIC_CROSSOVER_FRACTION
    assert d.bucket == shape_bucket(3, 900)
    assert d.band == "lt5pct"
    big = cm.decide_strategy(0.5, 3, 900)
    assert big.strategy == "recompute"
    assert "static" in big.reason


def test_load_calibration_valid(tmp_path):
    path = _write(tmp_path / "cal.json", _valid_doc())
    cal = _load(path)
    assert cal.table["d3-u1k"] == 0.05
    assert cal.machine_id == machine_identity()


def test_load_calibration_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        _load(tmp_path / "nope.json")


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.update(schema=2),
        lambda d: d.pop("provenance"),
        lambda d: d.update(provenance={}),
        lambda d: d.update(buckets={}),
        lambda d: d.update(buckets={"d3-u1k": {}}),
        lambda d: d.update(buckets={"d3-u1k": {"crossover_fraction": "0.1"}}),
        lambda d: d.update(buckets={"d3-u1k": {"crossover_fraction": 1.5}}),
        lambda d: d.update(buckets={"d3-u1k": {"crossover_fraction": True}}),
    ],
    ids=[
        "schema",
        "no-provenance",
        "no-machine-id",
        "empty-buckets",
        "no-fraction",
        "string-fraction",
        "out-of-range",
        "bool-fraction",
    ],
)
def test_load_calibration_schema_violations(tmp_path, mangle):
    doc = _valid_doc()
    mangle(doc)
    path = _write(tmp_path / "bad.json", doc)
    with pytest.raises(hostid.CalibrationError):
        _load(path)


def test_load_calibration_not_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(hostid.CalibrationError):
        _load(path)


def test_usable_calibration_machine_gate(tmp_path):
    path = _write(tmp_path / "cal.json", _valid_doc(machine="somebody-else"))
    assert cm.usable_calibration(path) is None
    ok = _write(tmp_path / "cal2.json", _valid_doc())
    cal = cm.usable_calibration(ok)
    assert cal is not None and cal.machine_id == machine_identity()


def test_usable_calibration_invalid_returns_none(tmp_path):
    doc = _valid_doc()
    doc["schema"] = 99
    path = _write(tmp_path / "bad.json", doc)
    assert cm.usable_calibration(path) is None


def test_env_override_steers_dispatch(tmp_path, monkeypatch):
    bucket = shape_bucket(3, 900)
    path = _write(tmp_path / "cal.json", _valid_doc(bucket=bucket, fraction=0.02))
    monkeypatch.setenv(cm.ENV_CALIBRATION, str(path))
    hostid.invalidate()
    d = cm.decide_strategy(0.03, 3, 900)
    assert d.mode == "cost-model"
    assert d.threshold == 0.02
    assert d.strategy == "recompute"  # 0.03 > measured 0.02, static would repair
    small = cm.decide_strategy(0.01, 3, 900)
    assert small.strategy == "repair"


def test_uncovered_bucket_falls_back_to_static(tmp_path, monkeypatch):
    path = _write(tmp_path / "cal.json", _valid_doc(bucket="d2-u1k", fraction=0.02))
    monkeypatch.setenv(cm.ENV_CALIBRATION, str(path))
    hostid.invalidate()
    d = cm.decide_strategy(0.1, 4, 900)  # bucket d4plus-u1k not covered
    assert d.mode == "static"
    assert d.threshold == cm.STATIC_CROSSOVER_FRACTION


def test_cache_invalidation_picks_up_rewrite(tmp_path, monkeypatch):
    bucket = shape_bucket(3, 900)
    path = _write(tmp_path / "cal.json", _valid_doc(bucket=bucket, fraction=0.02))
    monkeypatch.setenv(cm.ENV_CALIBRATION, str(path))
    hostid.invalidate()
    assert cm.decide_strategy(0.03, 3, 900).threshold == 0.02
    _write(path, _valid_doc(bucket=bucket, fraction=0.4))
    # Memoised: the old threshold sticks until the cache is dropped.
    assert cm.decide_strategy(0.03, 3, 900).threshold == 0.02
    hostid.invalidate()
    assert cm.decide_strategy(0.03, 3, 900).threshold == 0.4
