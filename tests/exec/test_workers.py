"""resolve_workers: spec parsing and the measured ``auto`` floor."""

from __future__ import annotations

import json

import pytest

import repro.exec.workers as workers_mod
from repro.exec.workers import AUTO_SPEEDUP_FLOOR, bench_m02_path, resolve_workers
from repro.obs import metrics
from repro.util.hostid import load_stamped, machine_identity


def _bench(tmp_path, speedups, machine_id=None):
    # A schema-valid baseline: the shared loader requires medians_ns; the
    # speedup table is what the auto floor actually reads.  Stamped with
    # this machine's id unless told otherwise; machine_identity() includes
    # os.cpu_count(), so call this after monkeypatching it.
    path = tmp_path / "BENCH_m02.json"
    medians = {"campaign_serial": 1_000_000}
    medians.update({name: 500_000 for name in speedups})
    provenance = {"machine_id": machine_id or machine_identity()}
    path.write_text(
        json.dumps(
            {
                "medians_ns": medians,
                "speedup_vs_serial": speedups,
                "provenance": provenance,
            }
        )
    )
    return path


class TestSpecs:
    @pytest.mark.parametrize("spec", [None, 0, "", "0", " 0 "])
    def test_in_process_specs(self, spec):
        assert resolve_workers(spec) is None

    @pytest.mark.parametrize("spec,want", [(3, 3), ("4", 4), (" 2 ", 2), (1, 1)])
    def test_explicit_counts(self, spec, want):
        assert resolve_workers(spec) == want

    @pytest.mark.parametrize("spec", [-1, "-2"])
    def test_negative_rejected(self, spec):
        with pytest.raises(ValueError, match="non-negative"):
            resolve_workers(spec)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="worker count or 'auto'"):
            resolve_workers("lots")

    def test_auto_is_case_insensitive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 8)
        bench = _bench(tmp_path, {"workers2": 2.0})
        assert resolve_workers(" AUTO ", bench_path=bench) == 8


class TestAutoFloor:
    def test_fans_out_when_measured_speedup_clears_floor(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 6)
        bench = _bench(tmp_path, {"workers1": 0.9, "workers2": 1.8})
        assert resolve_workers("auto", bench_path=bench) == 6

    def test_floored_to_in_process_when_overhead_wins(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 6)
        bench = _bench(tmp_path, {"workers2": AUTO_SPEEDUP_FLOOR - 0.01})
        assert resolve_workers("auto", bench_path=bench) is None

    def test_floor_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 4)
        bench = _bench(tmp_path, {"workers2": AUTO_SPEEDUP_FLOOR})
        assert resolve_workers("auto", bench_path=bench) == 4

    def test_missing_bench_is_optimistic(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 5)
        assert resolve_workers("auto", bench_path=tmp_path / "absent.json") == 5

    def test_corrupt_bench_is_optimistic(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 5)
        path = tmp_path / "BENCH_m02.json"
        path.write_text("{not json")
        assert resolve_workers("auto", bench_path=path) == 5

    def test_empty_speedup_table_is_optimistic(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 5)
        bench = _bench(tmp_path, {})
        assert resolve_workers("auto", bench_path=bench) == 5

    def test_single_cpu_never_fans_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 1)
        bench = _bench(tmp_path, {"workers2": 3.0})
        assert resolve_workers("auto", bench_path=bench) is None


class TestMachineRule:
    """``auto`` follows the kernel and stream calibrations' machine rule."""

    @pytest.mark.parametrize(
        "machine_id,want,outcome",
        [("linux-arm64-other-1c", 6, "machine-mismatch"), (None, None, "loaded")],
        ids=["foreign-ignored", "local-floors"],
    )
    def test_low_speedup_counts_only_from_this_machine(
        self, tmp_path, monkeypatch, machine_id, want, outcome
    ):
        monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 6)
        bench = _bench(tmp_path, {"workers2": 0.6}, machine_id=machine_id)
        with metrics.isolated_registry() as registry:
            assert resolve_workers("auto", bench_path=bench) == want
            counters = registry.snapshot()["counters"]
        assert counters[f"exec/calibration/{outcome}"] == 1


class TestCommittedBench:
    def test_committed_file_is_readable(self):
        # The committed BENCH_m02.json must parse; 'auto' must resolve
        # without raising whatever this machine looks like.
        assert bench_m02_path().exists()
        resolved = resolve_workers("auto")
        assert resolved is None or resolved >= 1

    def test_foreign_committed_file_does_not_floor(self):
        committed = load_stamped(
            bench_m02_path(), workers_mod.parse_speedups, schema=None
        )
        if committed.machine_id == machine_identity():
            pytest.skip("BENCH_m02.json was recorded on this machine")
        cpus = workers_mod.os.cpu_count() or 1
        assert resolve_workers("auto") == (cpus if cpus > 1 else None)
