"""Cost-model calibration: schema, machine identity, buckets, preference."""

from __future__ import annotations

import json

import pytest

from repro.kernels.costmodel import (
    parse_buckets,
    preferred_backend,
    shape_bucket,
    usable_calibration,
)
from repro.kernels.dispatch import ShapeFeatures
from repro.obs.metrics import isolated_registry
from repro.util.hostid import CalibrationError, load_stamped, machine_identity


def load_calibration(path):
    return load_stamped(path, parse_buckets)


def _doc(buckets=None, machine_id=None, **over):
    doc = {
        "schema": 1,
        "unit": "ns",
        "stat": "median",
        "buckets": buckets
        if buckets is not None
        else {"d3-u1k": {"csr": 100.0, "bitset": 10.0}},
        "provenance": {
            "machine_id": machine_id if machine_id is not None else machine_identity()
        },
    }
    doc.update(over)
    return doc


def _write(tmp_path, doc, name="cal.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestShapeBucket:
    @pytest.mark.parametrize(
        "dim,universe,expected",
        [
            (2, 100, "d2-u1k"),
            (1, 1024, "d2-u1k"),
            (3, 1025, "d3-u2k"),
            (3, 2048, "d3-u2k"),
            (3, 4096, "d3-u4k"),
            (4, 8192, "d4plus-u8k"),
            (8, 8193, "d4plus-u8kplus"),
            (5, 400, "d4plus-u1k"),
        ],
    )
    def test_bands(self, dim, universe, expected):
        assert shape_bucket(dim, universe) == expected

    def test_cardinality_is_bounded(self):
        labels = {
            shape_bucket(d, u)
            for d in range(1, 12)
            for u in (1, 1024, 2048, 4096, 8192, 1 << 20)
        }
        assert len(labels) <= 15


class TestLoadCalibration:
    def test_roundtrip(self, tmp_path):
        path = _write(tmp_path, _doc())
        cal = load_calibration(path)
        assert cal.machine_id == machine_identity()
        assert cal.table["d3-u1k"] == {"csr": 100.0, "bitset": 10.0}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_calibration(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("{not json")
        with pytest.raises(CalibrationError, match="not valid JSON"):
            load_calibration(path)

    def test_wrong_schema_version(self, tmp_path):
        path = _write(tmp_path, _doc(schema=2))
        with pytest.raises(CalibrationError, match="unsupported schema"):
            load_calibration(path)

    def test_machine_id_is_mandatory(self, tmp_path):
        doc = _doc()
        del doc["provenance"]["machine_id"]
        path = _write(tmp_path, doc)
        with pytest.raises(CalibrationError, match="machine_id"):
            load_calibration(path)

    def test_missing_backend_entry(self, tmp_path):
        path = _write(tmp_path, _doc(buckets={"d3-u1k": {"csr": 1.0}}))
        with pytest.raises(CalibrationError, match="missing 'bitset'"):
            load_calibration(path)

    def test_non_numeric_timing(self, tmp_path):
        path = _write(
            tmp_path, _doc(buckets={"d3-u1k": {"csr": "fast", "bitset": 1.0}})
        )
        with pytest.raises(CalibrationError, match="must be a number"):
            load_calibration(path)

    def test_negative_timing(self, tmp_path):
        path = _write(tmp_path, _doc(buckets={"d3-u1k": {"csr": -5, "bitset": 1.0}}))
        with pytest.raises(CalibrationError, match="non-negative"):
            load_calibration(path)

    def test_empty_buckets(self, tmp_path):
        path = _write(tmp_path, _doc(buckets={}))
        with pytest.raises(CalibrationError, match="non-empty"):
            load_calibration(path)


class TestUsableCalibration:
    def test_same_machine_is_usable(self, tmp_path):
        path = _write(tmp_path, _doc())
        with isolated_registry() as reg:
            cal = usable_calibration(path)
            snap = reg.snapshot()
        assert cal is not None
        assert snap["counters"]["kernels/calibration/loaded"] == 1

    def test_cross_machine_is_ignored(self, tmp_path):
        # The bench_gate rule, applied to dispatch: wall-clock measured on
        # another machine must never steer this one.
        path = _write(tmp_path, _doc(machine_id="linux-arm64-other-cpu-256c"))
        with isolated_registry() as reg:
            cal = usable_calibration(path)
            snap = reg.snapshot()
        assert cal is None
        assert snap["counters"]["kernels/calibration/machine-mismatch"] == 1

    def test_machine_id_parameter_overrides_ambient(self, tmp_path):
        path = _write(tmp_path, _doc(machine_id="linux-arm64-other-cpu-256c"))
        assert usable_calibration(path, machine_id="linux-arm64-other-cpu-256c")

    def test_missing_is_counted(self, tmp_path):
        with isolated_registry() as reg:
            assert usable_calibration(tmp_path / "nope.json") is None
            snap = reg.snapshot()
        assert snap["counters"]["kernels/calibration/missing"] == 1

    def test_invalid_is_counted(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("[]")
        with isolated_registry() as reg:
            assert usable_calibration(path) is None
            snap = reg.snapshot()
        assert snap["counters"]["kernels/calibration/invalid"] == 1


class TestPreferredBackend:
    def _cal(self, tmp_path, buckets):
        return load_calibration(_write(tmp_path, _doc(buckets=buckets)))

    def test_picks_the_measured_faster_backend(self, tmp_path):
        cal = self._cal(
            tmp_path,
            {
                "d3-u1k": {"csr": 100.0, "bitset": 10.0},
                "d3-u2k": {"csr": 10.0, "bitset": 100.0},
            },
        )
        f1 = ShapeFeatures(n=40, m=80, universe=40, dimension=3, density=2.0)
        f2 = ShapeFeatures(n=2000, m=80, universe=2000, dimension=3, density=0.04)
        assert preferred_backend(cal, f1) == "bitset"
        assert preferred_backend(cal, f2) == "csr"

    def test_tie_prefers_bitset(self, tmp_path):
        cal = self._cal(tmp_path, {"d3-u1k": {"csr": 10.0, "bitset": 10.0}})
        f = ShapeFeatures(n=40, m=80, universe=40, dimension=3, density=2.0)
        assert preferred_backend(cal, f) == "bitset"

    def test_uncovered_bucket_returns_none(self, tmp_path):
        cal = self._cal(tmp_path, {"d2-u1k": {"csr": 1.0, "bitset": 2.0}})
        f = ShapeFeatures(n=40, m=80, universe=40, dimension=3, density=2.0)
        assert preferred_backend(cal, f) is None
