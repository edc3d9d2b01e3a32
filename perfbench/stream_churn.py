"""Workload ``stream-churn``: certified ``DynamicMIS.apply`` steps, closed loop.

The instance is a ``sharded_hypergraph`` at four times the m04 bench size
(2400 blocks of 16 vertices and 30 edges, d=3: 38,400 vertices, 72,000
edges).  The stream is a seeded ``churn_stream`` of hot-region batches of
four events mixing arrivals, departures and adversarial duplicate/superset
arrivals.  Unlike ``solve-files`` this workload writes the edge store:
``apply_updates`` and the full ``check_mis`` certificate are O(m) per step
while the patch solve is small, so a local certificate or an in-place
store shows here, and the kernels are bypassed.

A run is a sequence of passes, each ``PASS_STEPS`` batches of its own
stream (seeded by the run's seed and the pass number, so with its own hot
window) on a fresh engine built and checked outside the clock.  A run thus
averages over many hot windows, and every pass is as far into its stream
as every other.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from common import (
    LAYERS,
    Outcome,
    latency_metrics,
    layer_table,
    median_setup,
    vm_hwm_mb,
    window_rates,
)
from ledger import STREAM_POINTS, Ledger

BLOCKS, BLOCK_N, BLOCK_M, DIM = 2400, 16, 30, 3
#: Steps per pass.  A stream left running is not stationary: the hot
#: window's arrivals knit its blocks into one growing component, so the
#: repair patch grows from ~150 to ~2800 vertices over 450 steps and, past
#: ~3100 vertices, a step costs three times as much.  A run's work would
#: then depend on how far it got; short passes keep it the same.  How fast
#: the component grows depends on the window, so one window per run would
#: make the seeds disagree: each pass draws its own.
PASS_STEPS = 100
STREAM_KW = dict(
    batch_edges=4,
    arrival_fraction=0.55,
    hot_fraction=0.8,
    hot_window=0.05,
    adversarial_fraction=0.2,
)
#: Goodput counts steps completed within this limit.
LATENCY_LIMIT_MS = 250.0


def _final_check(engine) -> bool:
    """Certificate plus bit-identity with a from-scratch recompute."""
    try:
        engine.certify()
    except ValueError as exc:
        print(f"stream-churn: final state not an MIS: {exc}", file=sys.stderr)
        return False
    if not np.array_equal(engine.recompute_reference(), engine.independent_set):
        print("stream-churn: incremental MIS differs from recompute", file=sys.stderr)
        return False
    return True


@dataclass(frozen=True)
class Step:
    """What the benchmark keeps of one ``UpdateOutcome`` (not the states)."""

    certified: bool
    strategy: str
    patch_vertices: int
    n: int
    delta_fraction: float


def _step(engine, batch, latencies_ms: list[float], steps: list):
    t0 = time.perf_counter()
    try:
        out = engine.apply(batch.add_edges, batch.remove_edges)
    except Exception as exc:  # noqa: BLE001 - counted, and fails the run
        print(f"stream-churn step failed: {exc!r}", file=sys.stderr)
        out = None
    elapsed = time.perf_counter() - t0
    latencies_ms.append(elapsed * 1000.0)
    steps.append(
        Step(
            out.certified,
            out.strategy,
            out.patch_vertices,
            out.update.hypergraph.num_vertices,
            out.update.delta_fraction(),
        )
        if out is not None
        else None
    )
    return elapsed


def _run_pass(build, batches, latencies_ms: list[float], steps: list, ledger=None):
    """One pass over *batches* on a fresh engine: (timed seconds, check passed)."""
    engine = build()
    with ledger if ledger is not None else contextlib.nullcontext():
        elapsed = sum(_step(engine, b, latencies_ms, steps) for b in batches)
    return elapsed, _final_check(engine)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.dynamic import DynamicMIS
    from repro.generators import churn_stream, sharded_hypergraph

    H0 = sharded_hypergraph(BLOCKS, BLOCK_N, BLOCK_M, DIM, seed=(seed, "bench"))

    def build():
        return DynamicMIS(H0, seed=seed, strategy="auto")

    def stream(index: int):
        return churn_stream(H0, PASS_STEPS, seed=(seed, "bench-pass", index), **STREAM_KW)

    setup_s, _ = median_setup(build)
    latencies_ms: list[float] = []
    outcomes: list = []
    report = [f"instance: n={H0.num_vertices} m={H0.num_edges} d={DIM}"]

    if not trace:
        timed = 0.0
        correct = True
        passes = 0
        while timed < seconds:
            elapsed, checked = _run_pass(build, stream(passes), latencies_ms, outcomes)
            timed += elapsed
            correct &= checked
            passes += 1
        peak = vm_hwm_mb()
        ok = [out is not None and out.certified for out in outcomes]
        steps, failed = len(ok), ok.count(False)
        # A step that raised or was not certified is a wrong answer, not a
        # slow one: every step of this stream must certify.
        correct = correct and failed == 0
        lat, note = latency_metrics(latencies_ms)
        ops_rate, good_rate, _ = window_rates(latencies_ms, ok, PASS_STEPS, LATENCY_LIMIT_MS)
        mix = {}
        for out in outcomes:
            if out is not None:
                mix[out.strategy] = mix.get(out.strategy, 0) + 1
        report += [
            note,
            f"strategies: {mix}",
            f"throughput: median over {passes} passes of {PASS_STEPS} steps",
        ]
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": ops_rate,
            "goodput_per_s": good_rate,
            **lat,
            "ok_fraction": (steps - failed) / steps,
            "peak_rss_mb": peak,
        }
        return Outcome(steps, failed, correct, metrics, report)

    # Traced run: each stream once untraced and once traced, in alternating
    # order, so the overhead compares identical work.
    ledger = Ledger(STREAM_POINTS)
    plain_s = traced_s = 0.0
    passes = 0
    correct = True
    traced_outcomes: list = []
    while passes == 0 or plain_s + traced_s < seconds:
        batches = stream(passes)
        for traced in (passes % 2 == 1, passes % 2 == 0):  # alternate the order
            elapsed, checked = _run_pass(
                build,
                batches,
                latencies_ms,
                traced_outcomes if traced else outcomes,
                ledger if traced else None,
            )
            correct &= checked
            if traced:
                traced_s += elapsed
            else:
                plain_s += elapsed
        passes += 1
    everything = outcomes + traced_outcomes
    failed = sum(1 for out in everything if out is None or not out.certified)
    correct = correct and failed == 0
    done = [out for out in traced_outcomes if out is not None]
    ops = len(traced_outcomes)
    per_op = lambda ns: ns / 1e6 / ops  # noqa: E731
    layers = {layer: per_op(ledger.layer_ns(layer)) for layer in LAYERS}
    unattributed = traced_s * 1000.0 / ops - sum(layers.values())
    strategies = [out.strategy for out in done]
    metrics = {
        "hypergraph.self_ms": layers["hypergraph"],
        "hypergraph.validate.check_mis_ms": per_op(
            ledger.key_ns("hypergraph.validate.check_mis")
        ),
        "hypergraph.updates.apply_updates_ms": per_op(
            ledger.key_ns("hypergraph.updates.apply_updates")
        ),
        "hypergraph.updates.delta_fraction_mean": statistics.fmean(
            out.delta_fraction for out in done
        ),
        "kernels.self_ms": layers["kernels"],
        "kernels.dispatch.bitset_count": ledger.counts["kernels.dispatch.bitset_count"]
        / passes,
        "kernels.dispatch.csr_count": ledger.counts["kernels.dispatch.csr_count"] / passes,
        "core.self_ms": layers["core"],
        "core.greedy.patch_ms": per_op(ledger.key_ns("core.greedy.patch")),
        "dynamic.self_ms": per_op(ledger.key_ns("dynamic.apply")),
        "dynamic.costmodel.decide_ms": per_op(ledger.key_ns("dynamic.costmodel.decide")),
        "dynamic.repair_count": strategies.count("repair") / passes,
        "dynamic.recompute_count": strategies.count("recompute") / passes,
        "dynamic.noop_count": strategies.count("noop") / passes,
        "dynamic.patch_fraction": sum(out.patch_vertices for out in done)
        / sum(out.n for out in done),
        "unattributed_ms": unattributed,
        "obs.trace_overhead_fraction": 1.0 - plain_s / traced_s,
    }
    report += layer_table(
        "stream-churn layer ledger",
        {k: v for k, v in layers.items() if v},
        unattributed,
        ops,
    )
    report.append(
        f"untraced {plain_s * 1000 / ops:.3f} ms/step ({ops / plain_s:.2f} steps/s) vs "
        f"traced {traced_s * 1000 / ops:.3f} ms/step ({ops / traced_s:.2f} steps/s): "
        f"tracing overhead {metrics['obs.trace_overhead_fraction']:.1%}"
    )
    return Outcome(len(everything), failed, correct, metrics, report)
