"""Service smoke: end-to-end check of the solve server for CI.

Boots ``repro serve`` as a real subprocess (unix socket, metrics
textfile), fires ~50 concurrent requests with planned duplicates through
the async load generator, and asserts the service invariants that matter:

* every request gets an ``ok`` response;
* duplicated cells are **not** solved per-request — the coalesce counter
  is positive and coalesced+cached covers every duplicate;
* every response's independent set is byte-identical to a direct
  in-process solve with the same ``(algorithm, seed)`` — serving through
  the batching/caching pipeline changes latency, never results;
* the OpenMetrics textfile the server writes on shutdown records the
  same story (``repro_service_coalesced_total`` > 0, cache counters
  present) — checked via :func:`repro.obs.export.parse_openmetrics`, the
  same parser operators would scrape with.

Artifacts (server log, metrics textfile, response dump) land in
``--out`` so a failing CI run uploads the full forensics.  Writes a
summary table to ``$GITHUB_STEP_SUMMARY`` when set.  Exit 0 on success.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [--out DIR]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core import beame_luby, sbl  # noqa: E402
from repro.generators import uniform_hypergraph  # noqa: E402
from repro.obs.export import parse_openmetrics  # noqa: E402
from repro.service import SolveClient, encode_instance, run_load  # noqa: E402

#: The request plan: UNIQUE cells, each duplicated DUPLICATES times.
UNIQUE = 10
DUPLICATES = 5
CONNECTIONS = 10

DIRECT = {"bl": beame_luby, "sbl": sbl}


def build_docs(instances) -> list[dict]:
    """~50 requests over 10 unique cells, duplicates spread across lanes."""
    docs = []
    for i in range(UNIQUE * DUPLICATES):
        u = i % UNIQUE  # round-robin across lanes => duplicates are concurrent
        algorithm = "bl" if u % 2 == 0 else "sbl"
        docs.append(
            {
                "op": "solve",
                "algorithm": algorithm,
                "seed": 100 + u,
                "instance": encode_instance(instances[u % len(instances)]),
                "id": f"smoke-{u}-{i}",
            }
        )
    return docs


def wait_for_server(socket_path: Path, proc: subprocess.Popen, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early (rc={proc.returncode})")
        if socket_path.exists():
            try:
                with SolveClient(socket_path, timeout=2.0) as client:
                    if client.ping():
                        return
            except OSError:
                pass
        time.sleep(0.1)
    raise RuntimeError(f"server not reachable within {timeout}s")


def step_summary(rows: list[tuple[str, str]]) -> None:
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    with open(path, "a", encoding="utf-8") as fp:
        fp.write("### service smoke\n\n| check | value |\n|---|---|\n")
        for name, value in rows:
            fp.write(f"| {name} | {value} |\n")
        fp.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO / "service-smoke",
        help="artifact directory (server log, metrics, responses)",
    )
    args = parser.parse_args(argv)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    socket_path = out / "svc.sock"
    metrics_path = out / "service.metrics.txt"
    log_path = out / "service.log"

    instances = [
        uniform_hypergraph(80, 160, 3, seed=21),
        uniform_hypergraph(120, 240, 3, seed=22),
    ]
    docs = build_docs(instances)

    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--socket",
                str(socket_path),
                "--metrics-out",
                str(metrics_path),
            ],
            cwd=REPO,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    failures: list[str] = []
    report = None
    stats = None
    try:
        wait_for_server(socket_path, proc)
        report = asyncio.run(run_load(socket_path, docs, connections=CONNECTIONS))
        (out / "responses.json").write_text(
            json.dumps(report.responses, indent=2) + "\n", encoding="utf-8"
        )
        with SolveClient(socket_path, timeout=5.0) as client:
            # Sequential repeats of already-solved cells: guaranteed cache
            # hits (the load above may satisfy every duplicate by
            # coalescing alone, which would leave the cache path untested).
            repeats = []
            for u in range(3):
                repeats.append(
                    client.solve(
                        content_hash=instances[u % len(instances)].content_hash(),
                        algorithm="bl" if u % 2 == 0 else "sbl",
                        seed=100 + u,
                    )
                )
            if not all(r["cached"] for r in repeats):
                failures.append(
                    f"repeat requests not served from cache: "
                    f"{[r['cached'] for r in repeats]}"
                )
            stats = client.stats()
        (out / "stats.json").write_text(json.dumps(stats, indent=2) + "\n")
    except Exception as exc:  # noqa: BLE001 - smoke must report, not crash
        failures.append(f"load run failed: {type(exc).__name__}: {exc}")
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            failures.append("server did not shut down on SIGTERM")

    # -- invariant checks -------------------------------------------------
    if report is not None:
        total = UNIQUE * DUPLICATES
        if report.ok != total:
            failures.append(f"{total - report.ok}/{total} requests not ok")
        deduplicated = report.coalesced + report.cached
        expected_dupes = total - UNIQUE
        if report.coalesced == 0:
            failures.append("no request was coalesced (expected concurrent duplicates)")
        if deduplicated < expected_dupes:
            failures.append(
                f"only {deduplicated}/{expected_dupes} duplicates were "
                f"coalesced or cache-served — duplicates are being re-solved"
            )
        # Byte-identical to a direct solve with the same (algorithm, seed).
        by_hash = {H.content_hash(): H for H in instances}
        mismatches = 0
        for response in report.responses:
            if response.get("status") != "ok":
                continue
            H = by_hash[response["content_hash"]]
            direct = DIRECT[response["algorithm"]](H, seed=response["seed"])
            if response["independent_set"] != direct.independent_set.tolist():
                mismatches += 1
        if mismatches:
            failures.append(
                f"{mismatches} responses differ from direct solves — "
                f"serving must be bit-reproducible"
            )
        solved = stats["solved_cells"] if stats else None
        if stats is not None and stats["solved_cells"] > UNIQUE:
            failures.append(
                f"server solved {stats['solved_cells']} cells for "
                f"{UNIQUE} unique requests — coalescing is not deduplicating work"
            )
    else:
        solved = None

    if not metrics_path.exists():
        failures.append(f"server wrote no metrics textfile at {metrics_path}")
        coalesced_metric = hits_metric = None
    else:
        doc = parse_openmetrics(metrics_path.read_text(encoding="utf-8"))

        def metric(name: str) -> float | None:
            try:
                return doc.value(name, command="serve")
            except KeyError:
                return None

        coalesced_metric = metric("repro_service_coalesced_total")
        hits_metric = metric("repro_service_cache_hits_total")
        if not coalesced_metric or coalesced_metric <= 0:
            failures.append(
                f"repro_service_coalesced_total is {coalesced_metric!r} in the "
                f"exported metrics (expected > 0)"
            )
        if hits_metric is None:
            failures.append("repro_service_cache_hits_total missing from metrics")

    rows = [
        ("requests ok", f"{report.ok}/{report.total}" if report else "n/a"),
        ("coalesced", str(report.coalesced) if report else "n/a"),
        ("cache-served", str(report.cached) if report else "n/a"),
        ("cells solved", str(solved)),
        ("metric coalesced_total", str(coalesced_metric)),
        ("metric cache_hits_total", str(hits_metric)),
        ("p99 latency", f"{report.percentile_ns(0.99) / 1e6:.1f} ms" if report else "n/a"),
        ("verdict", "FAIL: " + "; ".join(failures) if failures else "pass"),
    ]
    step_summary(rows)
    for name, value in rows:
        print(f"{name:>24}: {value}")
    if failures:
        print(f"\nservice smoke FAILED ({len(failures)}):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        print(f"artifacts in {out}", file=sys.stderr)
        return 1
    print("\nservice smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
