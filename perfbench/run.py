"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve-files --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer ledger.  Every metric is
printed with its unit above the result; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 1 when an output fails its correctness check, 2 when the run is
refused (no program source next to the benchmark, or ``REPRO_KERNEL`` set
to anything but ``auto``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, environment, metric_units  # noqa: E402

WORKLOADS = {
    "solve-files": "solve_files",
    "stream-churn": "stream_churn",
    "service-mixed": "service_mixed",
}


def _refusal() -> str | None:
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program source at {SRC}: run from the root of a checkout"
    kernel = os.environ.get("REPRO_KERNEL", "").strip().lower() or "auto"
    if kernel != "auto":
        return f"REPRO_KERNEL={kernel!r}: the benchmark measures the default 'auto' dispatch"
    return None


def _run_one(args) -> int:
    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = module.run(args.seed, args.seconds, bool(args.trace))
    end_to_end, per_layer = metric_units()
    wanted = per_layer if args.trace else end_to_end
    unknown = set(outcome.metrics) - set(wanted)
    missing = set() if args.trace else set(wanted) - set(outcome.metrics)
    if unknown or missing:
        raise RuntimeError(f"metric set mismatch: unknown {unknown}, missing {missing}")
    # In the traced run a layer this workload bypasses reads 0.
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in wanted.items()
    }
    print(f"== {args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    for line in outcome.report:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:<40}{m['value']:>16.6f} {m['unit']}")
    print(f"  attempted {outcome.attempted}, failed {outcome.failed}, correct {outcome.correct}")
    print(json.dumps({"env": environment()}))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if outcome.correct else 1


def _run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined), flush=True)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    refusal = _refusal()
    if refusal is not None:
        print(f"perfbench: refused: {refusal}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
