"""Shape-based backend dispatch: decisions, reasons, counters, overrides."""

from __future__ import annotations

import json

import pytest

from repro.generators import uniform_hypergraph
from repro.hypergraph import Hypergraph
from repro.kernels import DEFAULT_KERNEL, VALID_KERNELS, current_kernel, use_kernel
from repro.kernels.bl_dense import BLOCK_MAX_DIMENSION, BLOCK_MAX_UNIVERSE
from repro.kernels.dispatch import (
    DENSE_MAX_DIMENSION,
    DENSE_MAX_UNIVERSE,
    ShapeFeatures,
    dense_capable,
    select_backend,
)
from repro.kernels.jit import HAVE_NUMBA
from repro.obs.metrics import isolated_registry
from repro.util.hostid import invalidate, machine_identity

DENSE_H = uniform_hypergraph(40, 80, 3, seed=0)
SPARSE_H = Hypergraph(DENSE_MAX_UNIVERSE + 1, [(0, 1, 2)])
WIDE_H = Hypergraph(20, [tuple(range(DENSE_MAX_DIMENSION + 1))])  # dim 9
DIM4_H = Hypergraph(10, [(0, 1, 2, 3)])  # dense-capable since the frontier engine
BIG_U_H = Hypergraph(BLOCK_MAX_UNIVERSE + 1, [(0, 1, 2)])  # scalar yes, block no


@pytest.fixture(autouse=True)
def _fresh_calibration_cache(monkeypatch, tmp_path):
    # Dispatch must not pick up a developer's local KERNEL_CALIBRATION.json:
    # point the env override at a path that does not exist.
    monkeypatch.setenv("REPRO_KERNEL_CALIBRATION", str(tmp_path / "absent.json"))
    invalidate()
    yield
    invalidate()


def _write_calibration(path, buckets, machine_id=None):
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "unit": "ns",
                "stat": "median",
                "buckets": buckets,
                "provenance": {
                    "machine_id": machine_id
                    if machine_id is not None
                    else machine_identity()
                },
            }
        )
    )
    invalidate()


class TestDenseCapable:
    def test_small_low_dim_is_capable(self):
        assert dense_capable(DENSE_H)

    def test_universe_boundary(self):
        at = Hypergraph(DENSE_MAX_UNIVERSE, [(0, 1)])
        over = Hypergraph(DENSE_MAX_UNIVERSE + 1, [(0, 1)])
        assert dense_capable(at)
        assert not dense_capable(over)

    def test_dimension_boundary(self):
        at = Hypergraph(10, [tuple(range(DENSE_MAX_DIMENSION))])
        assert dense_capable(at)
        assert not dense_capable(WIDE_H)

    def test_dim4_and_big_universe_are_inside_the_envelope(self):
        # The PR-5 ceiling: these shapes used to be CSR-only.
        assert dense_capable(DIM4_H)
        assert dense_capable(Hypergraph(4096, [(0, 1, 2)]))

    def test_envelope_is_wider_than_the_block_engine(self):
        assert DENSE_MAX_DIMENSION > BLOCK_MAX_DIMENSION
        assert DENSE_MAX_UNIVERSE > BLOCK_MAX_UNIVERSE


class TestSelectBackend:
    def test_auto_picks_bitset_on_dense_shapes(self):
        d = select_backend(DENSE_H, requested="auto")
        assert (d.backend, d.reason) == ("bitset", "auto:shape-dense")
        assert d.dense

    def test_auto_picks_bitset_on_dim4_shapes(self):
        d = select_backend(DIM4_H, requested="auto")
        assert (d.backend, d.reason) == ("bitset", "auto:shape-dense")

    def test_auto_picks_csr_on_sparse_shapes(self):
        d = select_backend(SPARSE_H, requested="auto")
        assert (d.backend, d.reason) == ("csr", "auto:shape-sparse")
        assert not d.dense

    def test_auto_never_selects_jit(self):
        assert select_backend(DENSE_H, requested="auto").backend != "jit"

    def test_forced_csr_wins_over_shape(self):
        d = select_backend(DENSE_H, requested="csr")
        assert (d.backend, d.reason) == ("csr", "forced:csr")

    def test_forced_bitset(self):
        d = select_backend(DENSE_H, requested="bitset")
        assert (d.backend, d.reason) == ("bitset", "forced:bitset")

    def test_forced_backend_on_unsupported_shape_degrades_to_csr(self):
        d = select_backend(WIDE_H, requested="bitset")
        assert (d.backend, d.reason) == ("csr", "unsupported-shape")

    def test_jit_request(self):
        d = select_backend(DENSE_H, requested="jit")
        if HAVE_NUMBA:
            assert (d.backend, d.reason) == ("jit", "forced:jit")
        else:
            assert (d.backend, d.reason) == ("bitset", "fallback:jit-unavailable")

    def test_jit_request_beyond_block_shape_degrades_to_bitset(self):
        # Inside the dense envelope but outside the U²-table block engine:
        # the request degrades to the scalar/frontier engines, not to CSR.
        for H in (DIM4_H, BIG_U_H):
            d = select_backend(H, requested="jit")
            assert d.backend == "bitset"
            if HAVE_NUMBA:
                assert d.reason == "fallback:jit-shape"
            else:
                assert d.reason == "fallback:jit-unavailable"

    def test_blockers_force_csr(self):
        d = select_backend(DENSE_H, requested="bitset", blockers=("on_round",))
        assert (d.backend, d.reason) == ("csr", "blocked:on_round")

    def test_first_blocker_is_counted(self):
        d = select_backend(DENSE_H, blockers=("backend", "on_round"))
        assert d.reason == "blocked:backend"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            select_backend(DENSE_H, requested="fpga")


class TestCostModelDispatch:
    def test_calibration_steers_auto_to_csr(self, monkeypatch, tmp_path):
        cal = tmp_path / "cal.json"
        monkeypatch.setenv("REPRO_KERNEL_CALIBRATION", str(cal))
        _write_calibration(cal, {"d3-u1k": {"csr": 10.0, "bitset": 100.0}})
        d = select_backend(DENSE_H, requested="auto")
        assert (d.backend, d.reason) == ("csr", "cost-model:csr")

    def test_calibration_steers_auto_to_bitset(self, monkeypatch, tmp_path):
        cal = tmp_path / "cal.json"
        monkeypatch.setenv("REPRO_KERNEL_CALIBRATION", str(cal))
        _write_calibration(cal, {"d3-u1k": {"csr": 100.0, "bitset": 10.0}})
        d = select_backend(DENSE_H, requested="auto")
        assert (d.backend, d.reason) == ("bitset", "cost-model:bitset")

    def test_uncovered_bucket_falls_back_to_static(self, monkeypatch, tmp_path):
        cal = tmp_path / "cal.json"
        monkeypatch.setenv("REPRO_KERNEL_CALIBRATION", str(cal))
        _write_calibration(cal, {"d2-u8kplus": {"csr": 1.0, "bitset": 2.0}})
        d = select_backend(DENSE_H, requested="auto")
        assert (d.backend, d.reason) == ("bitset", "auto:shape-dense")

    def test_cross_machine_calibration_is_ignored(self, monkeypatch, tmp_path):
        cal = tmp_path / "cal.json"
        monkeypatch.setenv("REPRO_KERNEL_CALIBRATION", str(cal))
        _write_calibration(
            cal,
            {"d3-u1k": {"csr": 10.0, "bitset": 100.0}},
            machine_id="someone-elses-box-128c",
        )
        d = select_backend(DENSE_H, requested="auto")
        assert (d.backend, d.reason) == ("bitset", "auto:shape-dense")

    def test_explicit_requests_beat_the_calibration(self, monkeypatch, tmp_path):
        cal = tmp_path / "cal.json"
        monkeypatch.setenv("REPRO_KERNEL_CALIBRATION", str(cal))
        _write_calibration(cal, {"d3-u1k": {"csr": 10.0, "bitset": 100.0}})
        assert select_backend(DENSE_H, requested="bitset").backend == "bitset"

    def test_mode_counters(self, monkeypatch, tmp_path):
        cal = tmp_path / "cal.json"
        monkeypatch.setenv("REPRO_KERNEL_CALIBRATION", str(cal))
        _write_calibration(cal, {"d3-u1k": {"csr": 10.0, "bitset": 100.0}})
        with isolated_registry() as reg:
            select_backend(DENSE_H, requested="auto")  # covered bucket
            select_backend(DIM4_H, requested="auto")  # uncovered bucket
            snap = reg.snapshot()
        counters = snap["counters"]
        assert counters["kernels/dispatch_mode/cost-model"] == 1
        assert counters["kernels/dispatch_mode/static"] == 1
        assert counters["kernels/dispatch_shape/d3-u1k/csr"] == 1
        assert counters["kernels/dispatch_shape/d4plus-u1k/bitset"] == 1


FIXTURE = __import__("pathlib").Path(__file__).resolve().parents[1] / (
    "fixtures/kernel_calibration.json"
)


class TestCommittedFixture:
    """The fixture CI's kernel-calibrate step asserts against."""

    def test_is_well_formed_and_foreign(self):
        from repro.kernels.costmodel import parse_buckets
        from repro.util.hostid import load_stamped

        cal = load_stamped(FIXTURE, parse_buckets)  # validates the schema
        assert cal.machine_id != machine_identity()
        assert "d3-u1k" in cal.table

    def test_restamped_fixture_steers_dispatch(self, monkeypatch, tmp_path):
        # Re-stamp with the local machine id: the d3-u1k bucket records
        # csr as faster (opposite of the static envelope), so honoring
        # the calibration is observable.
        doc = json.loads(FIXTURE.read_text())
        doc["provenance"]["machine_id"] = machine_identity()
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("REPRO_KERNEL_CALIBRATION", str(path))
        invalidate()
        d = select_backend(DENSE_H, requested="auto")
        assert (d.backend, d.reason) == ("csr", "cost-model:csr")


class TestRequestSources:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert current_kernel() == DEFAULT_KERNEL == "auto"

    def test_use_kernel_drives_dispatch(self):
        with use_kernel("csr"):
            assert select_backend(DENSE_H).reason == "forced:csr"
        with use_kernel("bitset"):
            assert select_backend(DENSE_H).backend == "bitset"

    def test_env_var_drives_dispatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "csr")
        assert select_backend(DENSE_H).reason == "forced:csr"

    def test_use_kernel_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "csr")
        with use_kernel("bitset"):
            assert select_backend(DENSE_H).backend == "bitset"

    def test_valid_kernels_are_exactly_the_contract(self):
        assert VALID_KERNELS == ("auto", "csr", "bitset", "jit")


class TestCounters:
    def test_every_decision_is_counted(self):
        with isolated_registry() as reg:
            select_backend(DENSE_H, requested="auto")
            select_backend(SPARSE_H, requested="auto")
            select_backend(DENSE_H, requested="csr")
            snap = reg.snapshot()
        counters = snap["counters"]
        assert counters["kernels/dispatch/bitset"] == 1
        assert counters["kernels/dispatch/csr"] == 2
        assert counters["kernels/dispatch_reason/auto:shape-dense"] == 1
        assert counters["kernels/dispatch_reason/auto:shape-sparse"] == 1
        assert counters["kernels/dispatch_reason/forced:csr"] == 1

    def test_shape_bucket_counters(self):
        with isolated_registry() as reg:
            select_backend(DENSE_H, requested="auto")
            snap = reg.snapshot()
        assert snap["counters"]["kernels/dispatch_shape/d3-u1k/bitset"] == 1


class TestShapeFeatures:
    def test_of_reads_header_fields(self):
        f = ShapeFeatures.of(DENSE_H)
        assert f.n == DENSE_H.num_vertices
        assert f.m == DENSE_H.num_edges
        assert f.universe == DENSE_H.universe
        assert f.dimension == DENSE_H.dimension
        assert f.density == pytest.approx(f.m / f.n)

    def test_empty_instance(self):
        f = ShapeFeatures.of(Hypergraph(0))
        assert (f.n, f.m, f.density) == (0, 0, 0.0)
