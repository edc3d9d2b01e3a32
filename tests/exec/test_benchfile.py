"""The BENCH_m02 baseline under the shared machine-stamped loader.

``--workers auto`` reads the ``speedup_vs_serial`` table of
``BENCH_m02.json`` through :func:`repro.util.hostid.usable_stamped` with
:func:`repro.exec.workers.parse_speedups`.  The regression class at the
bottom pins why the shape check exists: a baseline refresh that changes
the document shape must degrade ``auto`` *loudly* (metric bump +
optimistic fallback), never silently.
"""

from __future__ import annotations

import json

import pytest

import repro.exec.workers as workers_mod
from repro.exec.workers import parse_speedups, resolve_workers
from repro.obs import metrics
from repro.util.hostid import CalibrationError, load_stamped, machine_identity

_VALID = {
    "medians_ns": {"campaign_serial": 1_000_000, "workers2": 480_000},
    "iqr_ns": {"campaign_serial": 10_000},
    "speedup_vs_serial": {"workers2": 2.1, "workers4": 1.4},
}


def _write(tmp_path, doc, name="BENCH_m02.json"):
    # Dicts without provenance are stamped with this machine's id, read at
    # call time: machine_identity() includes os.cpu_count(), which some
    # tests monkeypatch first.
    if isinstance(doc, dict) and "provenance" not in doc:
        doc = {**doc, "provenance": {"machine_id": machine_identity(), "commit": "abc"}}
    path = tmp_path / name
    path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
    return path


def load_baseline(path):
    return load_stamped(path, parse_speedups, schema=None)


class TestLoadBaseline:
    def test_valid_document(self, tmp_path):
        baseline = load_baseline(_write(tmp_path, _VALID))
        assert baseline.table == {"workers2": 2.1, "workers4": 1.4}
        assert baseline.machine_id == machine_identity()

    def test_missing_medians(self, tmp_path):
        doc = {k: v for k, v in _VALID.items() if k != "medians_ns"}
        with pytest.raises(CalibrationError, match="medians_ns"):
            load_baseline(_write(tmp_path, doc))

    def test_empty_medians(self, tmp_path):
        with pytest.raises(CalibrationError, match="medians_ns"):
            load_baseline(_write(tmp_path, {**_VALID, "medians_ns": {}}))

    @pytest.mark.parametrize("table", [[1, 2], "fast", 3])
    def test_non_mapping_table(self, tmp_path, table):
        doc = {**_VALID, "speedup_vs_serial": table}
        with pytest.raises(CalibrationError, match="must be a non-empty object"):
            load_baseline(_write(tmp_path, doc))

    @pytest.mark.parametrize("value", ["1e6", None, [1], True])
    def test_non_numeric_entry(self, tmp_path, value):
        doc = {**_VALID, "medians_ns": {"campaign_serial": value}}
        with pytest.raises(CalibrationError, match="must be a number"):
            load_baseline(_write(tmp_path, doc))

    def test_top_level_must_be_object(self, tmp_path):
        with pytest.raises(CalibrationError, match="top level"):
            load_baseline(_write(tmp_path, "[1, 2, 3]"))

    def test_bad_provenance(self, tmp_path):
        with pytest.raises(CalibrationError, match="provenance"):
            load_baseline(_write(tmp_path, {**_VALID, "provenance": "me"}))

    def test_require_speedups(self, tmp_path):
        doc = {"medians_ns": {"x": 1}}
        with pytest.raises(CalibrationError, match="speedup_vs_serial"):
            load_baseline(_write(tmp_path, doc))

    def test_io_error_keeps_its_type_bad_json_is_invalid(self, tmp_path):
        with pytest.raises(OSError):
            load_baseline(tmp_path / "absent.json")
        with pytest.raises(CalibrationError, match="not valid JSON"):
            load_baseline(_write(tmp_path, "{broken"))


class TestStaleSchemaRegression:
    """A refreshed-but-wrong baseline must fail loudly, not silently.

    This is the exact incident the shape check exists for: the file parses
    as JSON, ``--workers auto`` falls back to optimistic cpu_count — and
    the ``exec/calibration/invalid`` counter records that the committed
    baseline is unusable.
    """

    def test_stale_shape_is_optimistic_but_counted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 4)
        # the pre-refresh shape: a bare speedup table, no medians_ns
        stale = _write(tmp_path, {"speedup_vs_serial": {"workers2": 0.5}})
        corrupt = _write(tmp_path, "{not json", name="corrupt.json")
        with metrics.isolated_registry() as registry:
            assert resolve_workers("auto", bench_path=stale) == 4
            assert resolve_workers("auto", bench_path=corrupt) == 4
            counters = registry.snapshot()["counters"]
        assert counters["exec/calibration/invalid"] == 2

    def test_unreadable_file_is_not_a_schema_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 4)
        with metrics.isolated_registry() as registry:
            assert resolve_workers("auto", bench_path=tmp_path / "absent.json") == 4
            assert resolve_workers("auto", bench_path=tmp_path) == 4  # a directory
            counters = registry.snapshot()["counters"]
        assert counters["exec/calibration/missing"] == 2
        assert "exec/calibration/invalid" not in counters

    def test_valid_low_speedup_still_floors(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 4)
        doc = {"medians_ns": {"x": 1}, "speedup_vs_serial": {"workers2": 0.8}}
        with metrics.isolated_registry() as registry:
            assert resolve_workers("auto", bench_path=_write(tmp_path, doc)) is None
            counters = registry.snapshot()["counters"]
        assert "exec/calibration/invalid" not in counters
