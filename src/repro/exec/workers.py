"""Worker-count resolution: ``--workers auto`` with a measured floor.

Every parallel entry point (``campaign``, ``experiment``, ``fuzz run``,
``serve``) accepts ``--workers auto``.  Auto does not blindly return
``os.cpu_count()``: process fan-out has real dispatch overhead (pickling,
pool startup, telemetry splicing), and on small boxes that overhead can
eat the whole win.  The repo *measures* that overhead — the
``speedup_vs_serial`` table of ``BENCH_m02.json`` records the campaign
speedup at 1/2/4 workers on the recording machine — so auto uses the
measurement as a floor: if the best recorded speedup never cleared
:data:`AUTO_SPEEDUP_FLOOR`, fanning out is a measured loss and auto
resolves to in-process execution instead.

The file is read through :func:`repro.util.hostid.usable_stamped`, the
rule the kernel and stream calibrations follow too: a speedup measured on
another machine says nothing about this one and is ignored; so is a
missing or invalid file.  Every outcome is counted on
``exec/calibration/*``, and an ignored file leaves ``auto`` at plain
``os.cpu_count()`` (optimistic: no evidence against parallelism).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

from repro.obs import metrics as obs_metrics
from repro.util.hostid import number, table, usable_stamped

__all__ = ["AUTO_SPEEDUP_FLOOR", "bench_m02_path", "parse_speedups", "resolve_workers"]

#: Minimum measured campaign speedup (vs serial) for ``auto`` to fan out.
#: Below this, measured dispatch overhead cancels the parallel win and
#: ``auto`` resolves to in-process execution.
AUTO_SPEEDUP_FLOOR = 1.15

WorkerSpec = Union[int, str, None]


def bench_m02_path() -> Path:
    """Location of the committed dispatch-overhead benchmark."""
    return Path(__file__).resolve().parents[3] / "BENCH_m02.json"


def parse_speedups(doc: dict) -> dict[str, float]:
    """The ``speedup_vs_serial`` table of a ``BENCH_m02.json`` baseline.

    ``medians_ns`` is checked too, so a baseline refresh that changes the
    document shape is counted as invalid rather than read half-right.
    """
    _numbers(doc, "medians_ns")
    return _numbers(doc, "speedup_vs_serial")


def _numbers(doc: dict, key: str) -> dict[str, float]:
    return {str(name): number(v, f"{key}[{name!r}]") for name, v in table(doc, key).items()}


def _auto_workers(bench_path: Path | None) -> int | None:
    cpus = os.cpu_count() or 1
    cal = usable_stamped(
        "exec", bench_path or bench_m02_path(), parse_speedups, schema=None
    )
    if cal is not None and max(cal.table.values()) < AUTO_SPEEDUP_FLOOR:
        obs_metrics.inc("exec/workers_auto/floored")
        return None
    obs_metrics.inc("exec/workers_auto/cpu_count")
    return cpus if cpus > 1 else None


def resolve_workers(
    spec: WorkerSpec, *, bench_path: Path | None = None
) -> int | None:
    """Resolve a ``--workers`` value to a process count (or in-process).

    ``None``, ``0``, ``""`` and ``"0"`` mean in-process (returns
    ``None``); a positive int (or int string) is used as-is; ``"auto"``
    derives the count from ``os.cpu_count()``, floored to in-process when
    this machine's measured dispatch overhead in ``BENCH_m02.json`` shows
    fan-out does not pay (see :data:`AUTO_SPEEDUP_FLOOR`).  *bench_path*
    overrides the benchmark location (tests).
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        spec = spec.strip().lower()
        if spec in ("", "0"):
            return None
        if spec == "auto":
            return _auto_workers(bench_path)
        try:
            spec = int(spec)
        except ValueError:
            raise ValueError(
                f"bad --workers value {spec!r}: want a worker count or 'auto'"
            ) from None
    if spec < 0:
        raise ValueError(f"--workers must be non-negative: {spec}")
    return spec or None
