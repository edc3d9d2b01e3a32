"""M3 — solve-service throughput: requests/s and tail latency per path.

Spins up one in-process :class:`~repro.service.server.ServerThread` and
drives it with the async load generator over the unix socket, timing the
three request paths a deployed service actually serves:

* ``service_unique``   — every request is a fresh ``(instance, algorithm,
  seed)`` cell: the full parse → batch → solve → respond pipeline.
* ``service_coalesce`` — few unique cells, many concurrent duplicates:
  the coalescing path (duplicates that arrive after their cell resolves
  hit the result cache instead — both paths skip the solver, which is
  the property being measured).
* ``service_cached``   — every request repeats an already-cached key:
  pure cache-hit servicing, the protocol/transport floor.

Each scenario is timed as whole-load wall clock plus per-request latency
percentiles (p50/p99, measured client-side).  Seeds are rotated per timed
sample so ``unique``/``coalesce`` never accidentally hit the cache warmed
by a previous sample.

Like M2 this is a process-level plain-timing module, not a
pytest-benchmark suite: the subject is the service loop itself (socket
I/O, event-loop scheduling, micro-batching), which a calibrating harness
would distort.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_m03_service.py

or through the recording/gating scripts (``scripts/bench_smoke.py
--suite m03`` writes ``BENCH_m03.json``; ``scripts/bench_gate.py``
compares a fresh run against it).
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from pathlib import Path
from typing import Any

import numpy as np

from bench_m02_campaign_throughput import _cpu_model
from repro.generators import uniform_hypergraph
from repro.service import LoadReport, ServerConfig, ServerThread, encode_instance, run_load

#: Requests per timed load; duplicates per unique cell in the coalesce
#: scenario.  48 = 8 connections × 6 requests, small enough for CI.
DEFAULT_REQUESTS = 48
DEFAULT_DUPLICATES = 8
DEFAULT_CONNECTIONS = 8


def reference_instances() -> list:
    """The fixed instances every scenario solves (mirrors the M2 grid)."""
    return [
        uniform_hypergraph(60, 120, 3, seed=11),
        uniform_hypergraph(90, 180, 3, seed=12),
    ]


def _docs_unique(instances, *, requests: int, seed_base: int) -> list[dict]:
    """*requests* distinct cells: alternate instances, unique seeds."""
    return [
        {
            "op": "solve",
            "algorithm": "bl",
            "seed": seed_base + i,
            "instance": encode_instance(instances[i % len(instances)]),
            "id": f"u{i}",
        }
        for i in range(requests)
    ]


def _docs_coalesce(
    instances, *, requests: int, duplicates: int, seed_base: int
) -> list[dict]:
    """``requests/duplicates`` unique cells, each requested *duplicates* times.

    The load generator deals docs round-robin across connections, so the
    copies of one cell land on *different* connections and arrive
    concurrently — which is what lets the server coalesce them.
    """
    unique = max(1, requests // duplicates)
    docs = []
    for i in range(requests):
        u = i % unique
        docs.append(
            {
                "op": "solve",
                "algorithm": "bl",
                "seed": seed_base + u,
                "instance": encode_instance(instances[u % len(instances)]),
                "id": f"c{u}-{i}",
            }
        )
    return docs


def _run_load(socket_path: str, docs, *, connections: int) -> LoadReport:
    return asyncio.run(run_load(socket_path, docs, connections=connections))


def run_m03(
    *,
    requests: int = DEFAULT_REQUESTS,
    duplicates: int = DEFAULT_DUPLICATES,
    connections: int = DEFAULT_CONNECTIONS,
    warmup: int = 1,
    timed: int = 5,
    seed: int = 0,
) -> dict[str, Any]:
    """Measure every request path; return the BENCH_m03 payload.

    One warm server (in-process solves) survives all scenarios and
    samples, so socket setup and interpreter warmup are paid once and the
    timed samples measure steady-state service throughput.
    """
    instances = reference_instances()
    scenarios: dict[str, list[int]] = {}  # wall ns per timed sample
    p50s: dict[str, list[float]] = {}
    p99s: dict[str, list[float]] = {}
    rates: dict[str, list[float]] = {}
    counters: dict[str, dict[str, int]] = {}
    # Rotate seeds per sample so unique/coalesce always miss the cache.
    next_seed = seed

    with tempfile.TemporaryDirectory() as tmp:
        sock = str(Path(tmp) / "bench_m03.sock")
        config = ServerConfig(
            socket_path=sock,
            workers=0,
            max_batch=64,
            queue_limit=4 * requests,
            cache_size=4096,
        )
        with ServerThread(config):

            def measure(name: str, make_docs, samples: int) -> None:
                for _ in range(samples):
                    nonlocal next_seed
                    docs = make_docs(next_seed)
                    next_seed += requests
                    t0 = time.perf_counter_ns()
                    report = _run_load(sock, docs, connections=connections)
                    wall = time.perf_counter_ns() - t0
                    if report.ok != report.total:
                        raise RuntimeError(
                            f"{name}: {report.total - report.ok}/{report.total} "
                            f"requests failed"
                        )
                    scenarios.setdefault(name, []).append(wall)
                    p50s.setdefault(name, []).append(report.percentile_ns(0.50))
                    p99s.setdefault(name, []).append(report.percentile_ns(0.99))
                    rates.setdefault(name, []).append(report.requests_per_s)
                    counters[name] = {
                        "ok": report.ok,
                        "coalesced": report.coalesced,
                        "cached": report.cached,
                    }

            # unique: all-fresh cells each sample.
            unique_docs = lambda s: _docs_unique(  # noqa: E731
                instances, requests=requests, seed_base=s
            )
            measure("service_unique", unique_docs, warmup + timed)
            scenarios["service_unique"] = scenarios["service_unique"][warmup:]

            # coalesce: fresh cells + concurrent duplicates each sample.
            coalesce_docs = lambda s: _docs_coalesce(  # noqa: E731
                instances, requests=requests, duplicates=duplicates, seed_base=s
            )
            measure("service_coalesce", coalesce_docs, warmup + timed)
            scenarios["service_coalesce"] = scenarios["service_coalesce"][warmup:]
            dup = counters["service_coalesce"]
            if dup["coalesced"] + dup["cached"] == 0:
                raise RuntimeError(
                    "coalesce scenario produced no coalesced/cached responses — "
                    "duplicates are being solved separately"
                )

            # cached: one priming load on fixed seeds, then pure repeats.
            fixed = next_seed
            cached_docs = lambda _s: _docs_coalesce(  # noqa: E731
                instances, requests=requests, duplicates=duplicates, seed_base=fixed
            )
            measure("service_cached", cached_docs, 1 + timed)  # prime + timed
            scenarios["service_cached"] = scenarios["service_cached"][1:]
            if counters["service_cached"]["cached"] != requests:
                raise RuntimeError(
                    f"cached scenario expected {requests} cache hits, got "
                    f"{counters['service_cached']['cached']}"
                )

    medians = {name: int(np.median(s)) for name, s in scenarios.items()}
    for name in list(scenarios):
        medians[f"{name}_p50"] = int(np.median(p50s[name][-timed:]))
        medians[f"{name}_p99"] = int(np.median(p99s[name][-timed:]))
    iqrs = {
        name: int(np.percentile(s, 75) - np.percentile(s, 25))
        for name, s in scenarios.items()
    }
    for name in list(scenarios):
        iqrs[f"{name}_p50"] = int(
            np.percentile(p50s[name][-timed:], 75) - np.percentile(p50s[name][-timed:], 25)
        )
        iqrs[f"{name}_p99"] = int(
            np.percentile(p99s[name][-timed:], 75) - np.percentile(p99s[name][-timed:], 25)
        )
    return {
        "benchmark": "bench_m03_service.py",
        "unit": "ns",
        "stat": "median",
        "machine": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "load": {
            "requests": requests,
            "duplicates": duplicates,
            "connections": connections,
            "timed_samples": timed,
        },
        "medians_ns": dict(sorted(medians.items())),
        "iqr_ns": dict(sorted(iqrs.items())),
        "requests_per_s": {
            name: round(float(np.median(r[-timed:])), 1)
            for name, r in sorted(rates.items())
        },
        "counters": {name: counters[name] for name in sorted(counters)},
    }


def main() -> int:
    payload = run_m03()
    width = max(len(k) for k in payload["medians_ns"])
    for name, ns in sorted(payload["medians_ns"].items()):
        iqr = payload["iqr_ns"][name]
        print(f"{name:<{width}}  {ns / 1e6:10.3f} ms  (IQR {iqr / 1e6:7.3f} ms)")
    print()
    for name, rate in payload["requests_per_s"].items():
        print(f"{name:<{width}}  {rate:10.1f} req/s  {payload['counters'][name]}")
    print(f"\ncpu_count={payload['cpu_count']}  machine={payload['machine']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
