"""Worker telemetry round-trip: span splicing and metrics merging.

A parallel run must leave the same observability trail a serial run would:
the parent's event stream gets every worker span (ids remapped, roots
re-parented under ``exec/run_cells``) and the parent's default registry
absorbs every worker counter.
"""

from __future__ import annotations

import numpy as np

from repro.core import karp_upfal_wigderson
from repro.exec import Cell, ParallelRunner
from repro.generators import uniform_hypergraph
from repro.obs import MemorySink, Tracer, use_tracer
from repro.obs.metrics import isolated_registry
from repro.util.rng import spawn_seeds

_INSTANCE = uniform_hypergraph(25, 40, 3, seed=11)


def _cells(key: str, repeats: int = 2) -> list[Cell]:
    return [
        Cell(instance=_INSTANCE, fn=karp_upfal_wigderson, seed=s, label=f"cell/{i}")
        for i, s in enumerate(spawn_seeds(key, repeats))
    ]


def _run_traced(key: str, workers: int = 1, repeats: int = 2):
    """One traced parallel run; returns (span events, merged registry)."""
    sink = MemorySink()
    with isolated_registry() as registry:
        tracer = Tracer(sink, registry=registry)
        with use_tracer(tracer), ParallelRunner(workers) as runner:
            results = runner.run_cells(_cells(key, repeats))
    spans = [e for e in sink.events if e.get("type") == "span"]
    return results, spans, registry


class TestSpanSplicing:
    def test_worker_spans_reach_parent_sink(self):
        _, spans, _ = _run_traced("tele-reach")
        names = [s["name"] for s in spans]
        assert names.count("exec/run_cells") == 1
        assert names.count("exec/cell") == 2
        assert names.count("kuw/solve") == 2  # solver spans crossed the wire

    def test_span_ids_unique_after_remap(self):
        _, spans, _ = _run_traced("tele-ids", workers=2, repeats=3)
        ids = [s["id"] for s in spans]
        assert len(ids) == len(set(ids))

    def test_cell_roots_parented_under_run_cells(self):
        _, spans, _ = _run_traced("tele-parent")
        (run_cells,) = [s for s in spans if s["name"] == "exec/run_cells"]
        for cell_span in (s for s in spans if s["name"] == "exec/cell"):
            assert cell_span["parent"] == run_cells["id"]

    def test_tree_connected(self):
        # Every span's parent is either absent (the one true root) or a
        # span id present in the stream — no dangling references.
        _, spans, _ = _run_traced("tele-tree", workers=2)
        ids = {s["id"] for s in spans}
        roots = [s for s in spans if "parent" not in s]
        assert [r["name"] for r in roots] == ["exec/run_cells"]
        for s in spans:
            if "parent" in s:
                assert s["parent"] in ids

    def test_cell_spans_carry_labels_and_pram(self):
        _, spans, _ = _run_traced("tele-attrs")
        cell_spans = [s for s in spans if s["name"] == "exec/cell"]
        assert {s["attrs"]["label"] for s in cell_spans} == {"cell/0", "cell/1"}
        for s in cell_spans:
            assert s["pram"]["depth"] > 0
            assert s["pram"]["work"] > 0


class TestMetricsMerge:
    def test_worker_counters_absorbed(self):
        results, _, registry = _run_traced("tele-counters", repeats=3)
        counters = registry.snapshot()["counters"]
        assert counters["exec/cells_run"] == 3
        # solver-side counters only exist in workers; merging brought them home
        assert counters["solver/vertices_committed"] > 0

    def test_instance_cache_metrics_merged(self):
        _, _, registry = _run_traced("tele-cache", workers=1, repeats=3)
        counters = registry.snapshot()["counters"]
        # 3 cells, 1 instance, 1 worker: one real attach, the rest cache hits
        hits = counters.get("exec/instance_cache_hits", 0)
        misses = counters.get("exec/instance_cache_misses", 0)
        assert hits + misses == 3
        assert misses >= 1

    def test_arena_publish_counted_in_parent(self):
        _, _, registry = _run_traced("tele-publish", repeats=2)
        counters = registry.snapshot()["counters"]
        assert counters["exec/arena_published"] == 1  # deduped across cells
        assert counters["exec/arena_publish_dedup"] == 1


class TestWithoutTracer:
    def test_untraced_run_still_correct(self):
        with isolated_registry() as registry:
            with ParallelRunner(1) as runner:
                results = runner.run_cells(_cells("tele-off"))
        assert all(r.mis_size > 0 for r in results)
        assert all(r.depth > 0 for r in results)
        counters = registry.snapshot()["counters"]
        assert counters["exec/cells_run"] == 2

    def test_untraced_results_match_traced(self):
        traced, _, _ = _run_traced("tele-same")
        with ParallelRunner(1) as runner:
            untraced = runner.run_cells(_cells("tele-same"))
        assert [r.mis_size for r in traced] == [r.mis_size for r in untraced]
        for a, b in zip(traced, untraced):
            assert np.array_equal(a.independent_set, b.independent_set)


class TestInProcessShape:
    def test_same_tree_as_a_worker_run(self):
        # In-process cells run the worker's cell body under the ambient
        # tracer: the same span names under the same parents.
        def shape(spans):
            by_id = {s["id"]: s["name"] for s in spans}
            return sorted((s["name"], by_id.get(s.get("parent"))) for s in spans)

        local, local_spans, local_reg = _run_traced("tele-shape", workers=0)
        pooled, pooled_spans, _ = _run_traced("tele-shape", workers=1)
        assert shape(local_spans) == shape(pooled_spans)
        assert ("exec/cell", "exec/run_cells") in shape(local_spans)
        assert [r.depth for r in local] == [r.depth for r in pooled]
        counters = local_reg.snapshot()["counters"]
        assert counters["exec/cells_run"] == counters["exec/cells_done"] == 2
