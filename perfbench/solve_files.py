"""Workload ``solve-files``: ``repro solve <file>`` in a closed loop.

One caller runs ``repro.cli.main(["solve", path, "--algorithm", a,
"--seed", s])`` in-process with stdout captured, over a corpus of
instance files written at set-up.  The corpus spans the kernel dispatch
envelope — d=3 at a small and at a ≥4096 universe (scalar engine), d=4
and d=5 (frontier engine), d=9 and d=3 with vertex ids spread over a
70,000-id universe (CSR) — and the rotation visits each file with bl, sbl,
kuw and greedy, except bl at d=9, which alone would take most of a run
(~2 s per solve).  The sparse-id file is what reaches the CSR BL engine.
The corpus is the same in every run; the seed picks the rotation order and
the solver seeds.  File parsing, kernels, solvers and the CLI do the work;
the dynamic engine and the service are bypassed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

from common import (
    LAYERS,
    RUN_DIR,
    SRC,
    Outcome,
    latency_metrics,
    layer_table,
    median_setup,
    vm_hwm_mb,
    window_rates,
)
from ledger import SOLVE_POINTS, Ledger

ALL = ("bl", "sbl", "kuw", "greedy")
#: (name, vertices, edges, dimension, universe, files, algorithms); a
#: universe larger than the vertex count spreads the ids over it.
SHAPES = [
    ("d3-small", 400, 800, 3, 400, 3, ALL),
    ("d3-wide", 4096, 6000, 3, 4096, 2, ALL),
    ("d4", 400, 600, 4, 400, 2, ALL),
    ("d5", 400, 600, 5, 400, 2, ALL),
    ("d9-csr", 300, 400, 9, 300, 2, ("sbl", "kuw", "greedy")),
    ("d3-sparse-ids", 300, 560, 3, 70000, 1, ALL),
]
#: Goodput counts solves answered within this limit.
LATENCY_LIMIT_MS = 500.0
#: The corpus is the same for every run.  A run's seed picks the rotation
#: order and the solver seeds: with a corpus drawn per seed, the instances
#: alone moved a pass's cost by up to 9% between seeds.
CORPUS_SEED = 1


def _write_corpus(directory, seed: int):
    """Write the corpus; return (files, rotation ordered by *seed*)."""
    from repro.generators import uniform_hypergraph
    from repro.hypergraph import Hypergraph
    from repro.hypergraph.hio import dump

    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([CORPUS_SEED, 1])
    files, rotation = [], []
    for name, n, m, d, universe, count, algorithms in SHAPES:
        for i in range(count):
            H = uniform_hypergraph(n, m, d, seed=int(rng.integers(2**31)))
            if universe > n:
                ids = np.sort(rng.choice(universe, n, replace=False))
                H = Hypergraph(
                    universe,
                    [tuple(int(ids[v]) for v in e) for e in H.edges],
                    vertices=ids.tolist(),
                )
            path = directory / f"{name}-{i}.txt"
            dump(H, path)
            rotation.extend((len(files), a) for a in algorithms)
            files.append((str(path.relative_to(RUN_DIR.parent)), H))
    order = np.random.default_rng([seed, 1]).permutation(len(rotation))
    return files, [rotation[i] for i in order]


def _import_cli() -> None:
    """A fresh interpreter importing the CLI: what every ``repro`` call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"], env=env, check=True, timeout=120
    )


class _Loop:
    def __init__(self, files, rotation, seed: int):
        import repro.cli

        self.cli = repro.cli
        self.files = files
        self.rotation = rotation
        #: Pass k solves with seed ``seed_base + k``.
        self.seed_base = 10**6 * seed
        self.latencies_ms: list[float] = []
        self.outputs: list[tuple[int, str, int, str | None]] = []

    def op(self, index: int) -> float:
        """Run rotation step *index*; return its duration in seconds."""
        file_index, algorithm = self.rotation[index % len(self.rotation)]
        seed = self.seed_base + index // len(self.rotation)
        path = self.files[file_index][0]
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(
                    ["solve", path, "--algorithm", algorithm, "--seed", str(seed)]
                )
        except Exception as exc:  # noqa: BLE001 - counted, and fails the run
            rc, text = 1, None
            print(f"solve-files op {index} failed: {exc!r}", file=sys.stderr)
        else:
            text = buf.getvalue() if rc == 0 else None
            if rc != 0:
                print(f"solve-files op {index} exited {rc}", file=sys.stderr)
        elapsed = time.perf_counter() - t0
        self.latencies_ms.append(elapsed * 1000.0)
        self.outputs.append((file_index, algorithm, seed, text))
        return elapsed


def _certify(files, outputs) -> tuple[list[bool], bool]:
    """check_mis every output; return (per-op success, all outputs correct).

    Every op on this corpus must succeed, so a solve that raised or exited
    non-zero (``repro solve`` runs its own ``check_mis``) fails the run as
    surely as an output that is not an MIS.
    """
    from repro.hypergraph import check_mis

    ok = []
    correct = True
    for file_index, algorithm, seed, text in outputs:
        if text is None:
            ok.append(False)
            correct = False
            continue
        doc = json.loads(text)
        mis = np.asarray(doc["independent_set"], dtype=np.intp)
        try:
            check_mis(files[file_index][1], mis)
            valid = doc["mis_size"] == mis.size
        except ValueError as exc:
            print(f"solve-files: {algorithm} seed {seed} not an MIS: {exc}", file=sys.stderr)
            valid = False
        correct &= valid
        ok.append(valid)
    return ok, correct


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    corpus_dir = RUN_DIR / f"solve-files-{os.getpid()}"
    try:
        return _run(corpus_dir, seed, seconds, trace)
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)


def _run(corpus_dir, seed: int, seconds: float, trace: bool) -> Outcome:
    setup_s, _ = median_setup(_import_cli)
    files, rotation = _write_corpus(corpus_dir, seed)
    loop = _Loop(files, rotation, seed)
    loop.op(0)  # warm imports and the calibration lookup once, untimed
    loop.latencies_ms.clear()
    loop.outputs.clear()
    report = [f"corpus: {len(files)} files, {len(rotation)} ops per pass"]

    if not trace:
        index = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            index += 1
            loop.op(index)
        peak = vm_hwm_mb()
        ok, correct = _certify(files, loop.outputs)
        ops, failed = len(ok), ok.count(False)
        lat, note = latency_metrics(loop.latencies_ms)
        # Throughput per pass: every pass is the same mix of solves.
        ops_rate, good_rate, passes = window_rates(
            loop.latencies_ms, ok, len(rotation), LATENCY_LIMIT_MS
        )
        report += [note, f"throughput: median over {passes} complete passes"]
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": ops_rate,
            "goodput_per_s": good_rate,
            **lat,
            "ok_fraction": (ops - failed) / ops,
            "peak_rss_mb": peak,
        }
        return Outcome(ops, failed, correct, metrics, report)

    # Traced run: alternate untraced and traced passes over identical work
    # (same files, algorithms and seeds), so the overhead compares like
    # with like and every count is exact per pass.
    ledger = Ledger(SOLVE_POINTS)
    plain_s = traced_s = 0.0
    passes = 0
    per_pass = len(rotation)
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        base = (passes + 1) * per_pass
        for traced in (passes % 2 == 1, passes % 2 == 0):  # alternate the order
            with ledger if traced else contextlib.nullcontext():
                elapsed = sum(loop.op(base + i) for i in range(per_pass))
            if traced:
                traced_s += elapsed
            else:
                plain_s += elapsed
        passes += 1
    ok, correct = _certify(files, loop.outputs)
    failed = ok.count(False)
    ops = passes * per_pass
    per_op = lambda ns: ns / 1e6 / ops  # noqa: E731
    layers = {layer: per_op(ledger.layer_ns(layer)) for layer in LAYERS}
    unattributed = traced_s * 1000.0 / ops - sum(layers.values())
    metrics = {
        "cli.self_ms": layers["cli"],
        "hypergraph.self_ms": layers["hypergraph"],
        "hypergraph.hio.load_ms": per_op(ledger.key_ns("hypergraph.hio.load")),
        "hypergraph.hio.bytes_per_op": ledger.counts["hypergraph.hio.bytes"] / ops,
        "hypergraph.validate.check_mis_ms": per_op(
            ledger.key_ns("hypergraph.validate.check_mis")
        ),
        "kernels.self_ms": layers["kernels"],
        "kernels.dispatch.bitset_count": ledger.counts["kernels.dispatch.bitset_count"]
        / passes,
        "kernels.dispatch.csr_count": ledger.counts["kernels.dispatch.csr_count"]
        / passes,
        "kernels.scalar_ms": per_op(ledger.key_ns("kernels.scalar")),
        "kernels.frontier_ms": per_op(ledger.key_ns("kernels.frontier")),
        "kernels.csr_ms": per_op(ledger.key_ns("kernels.csr")),
        "core.self_ms": layers["core"],
        "unattributed_ms": unattributed,
        "obs.trace_overhead_fraction": 1.0 - plain_s / traced_s,
    }
    report += layer_table(
        "solve-files layer ledger",
        {k: v for k, v in layers.items() if v},
        unattributed,
        ops,
    )
    report.append(
        f"untraced {plain_s * 1000 / ops:.3f} ms/op ({ops / plain_s:.2f} ops/s) vs "
        f"traced {traced_s * 1000 / ops:.3f} ms/op ({ops / traced_s:.2f} ops/s): "
        f"tracing overhead {metrics['obs.trace_overhead_fraction']:.1%}"
    )
    return Outcome(2 * ops, failed, correct, metrics, report)

