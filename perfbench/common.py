"""Shared pieces of the benchmark: statistics, memory, environment, report.

Every workload module returns a :class:`Outcome`; ``run.py`` turns it into
the human-readable table and the final JSON line.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for sockets, logs and corpus files; listed in .gitignore.
RUN_DIR = ROOT / ".perfbench_run"

#: Layers whose self time the traced run tabulates, in call-depth order.
LAYERS = ("cli", "service", "exec", "dynamic", "core", "kernels", "hypergraph")


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]
    #: Lines printed above the JSON result (tables, sample counts, notes).
    report: list[str] = field(default_factory=list)


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metrics (name -> unit) as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def latency_metrics(latencies_ms: list[float]) -> tuple[dict[str, float], str]:
    """Median and p95 of a latency sample, plus a line stating its size.

    p95 is the highest percentile reported, so a run needs at least 200
    samples for ten of them to lie beyond it; smaller runs are flagged.
    """
    n = len(latencies_ms)
    p95 = float(np.percentile(latencies_ms, 95))
    beyond = sum(1 for x in latencies_ms if x > p95)
    note = f"latency samples: {n} ({beyond} beyond p95)"
    if beyond < 10:
        note += "  WARNING: fewer than 10 samples beyond p95"
    return (
        {
            "latency_p50_ms": statistics.median(latencies_ms),
            "latency_p95_ms": p95,
        },
        note,
    )


def window_rates(
    latencies_ms: list[float], ok: list[bool], size: int, limit_ms: float
) -> tuple[float, float, int]:
    """Median throughput and goodput over consecutive windows of *size* ops.

    A closed loop's total rate is at the mercy of the slowest stretch of
    the run on a shared machine; the median over many equal windows of
    work is not.  Returns (ops/s, goodput/s, complete windows); an
    incomplete last window is left out.
    """
    ops_rates, good_rates = [], []
    for lo in range(0, len(latencies_ms) - size + 1, size):
        lat, flags = latencies_ms[lo : lo + size], ok[lo : lo + size]
        seconds = sum(lat) / 1000.0
        ops_rates.append(sum(flags) / seconds)
        good = sum(1 for x, f in zip(lat, flags) if f and x <= limit_ms)
        good_rates.append(good / seconds)
    if not ops_rates:
        raise ValueError(f"run too short: fewer than {size} ops")
    return statistics.median(ops_rates), statistics.median(good_rates), len(ops_rates)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def descendants(pid: int) -> list[int]:
    """Every live descendant of *pid* (Linux ``/proc`` children lists)."""
    out: list[int] = []
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{p}/task/{tid}/children", encoding="ascii") as f:
                    kids = [int(x) for x in f.read().split()]
            except OSError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


def median_setup(build):
    """Run *build* three times; return (median seconds, last result)."""
    durations = []
    result = None
    for _ in range(3):
        t0 = time.perf_counter()
        result = build()
        durations.append(time.perf_counter() - t0)
    return statistics.median(durations), result


def environment() -> dict:
    """The run environment recorded next to every result."""
    from repro.dynamic import costmodel as dyn_cost
    from repro.kernels import costmodel as ker_cost
    from repro.kernels.jit import HAVE_NUMBA
    from repro.util.hostid import machine_identity

    def active(module) -> str | None:
        path = module.calibration_path()
        return str(path.name) if module.usable_calibration(path) is not None else None

    return {
        "machine_id": machine_identity(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "REPRO_KERNEL": os.environ.get("REPRO_KERNEL", "auto") or "auto",
        "kernel_calibration": active(ker_cost),
        "dynamic_calibration": active(dyn_cost),
        "numba": HAVE_NUMBA,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def layer_table(
    title: str, per_op_ms: dict[str, float], unattributed: float, ops: int
) -> list[str]:
    """Render a layer self-time table (ms per op) with its unattributed row."""
    total = sum(per_op_ms.values()) + unattributed
    lines = [f"{title}  ({ops} traced ops; self ms per op)"]
    lines.append(f"  {'layer':<14}{'self_ms':>10}{'share':>8}")
    for name, value in list(per_op_ms.items()) + [("unattributed", unattributed)]:
        share = value / total if total else 0.0
        lines.append(f"  {name:<14}{value:>10.3f}{share:>8.1%}")
    lines.append(f"  {'total':<14}{total:>10.3f}")
    return lines
