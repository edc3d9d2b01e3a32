"""Normalized machine identity, and the one rule for machine-stamped files.

Some files record wall-clock measurements that only mean something on the
machine that produced them:

* ``KERNEL_CALIBRATION.json`` — csr-vs-bitset medians per shape bucket,
  read by :mod:`repro.kernels.costmodel` to pick a solve's engine;
* ``DYNAMIC_CALIBRATION.json`` — repair-vs-recompute crossovers, read by
  :mod:`repro.dynamic.costmodel` to route a stream step;
* ``BENCH_m02.json`` — campaign ``speedup_vs_serial``, read by
  :mod:`repro.exec.workers` to resolve ``--workers auto``;
* every ``BENCH_*.json`` baseline, read by ``scripts/bench_gate.py``.

Each stamps :func:`machine_identity` into ``provenance.machine_id``.  The
three runtime consumers go through :func:`usable_stamped`, which applies
one rule: read the JSON, check ``schema`` and ``provenance.machine_id``,
hand the document to the consumer's parser, **ignore** a file from another
machine, count the outcome on ``<consumer>/calibration/{missing,invalid,
machine-mismatch,loaded}``, and memoise the answer per path.  A missing,
invalid or foreign file therefore reverts its decision to the static
default; it never breaks a solve, a stream step or a worker count.
``bench_gate`` refuses (rather than ignores) a cross-machine comparison.

Lives in ``repro.util`` so both the installed package and the repo
scripts share one definition (``scripts/bench_smoke.py`` re-exports
:func:`machine_identity` for its historical importers).
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.obs import metrics as obs_metrics

__all__ = [
    "Calibration",
    "CalibrationError",
    "invalidate",
    "load_stamped",
    "machine_identity",
    "number",
    "table",
    "usable_stamped",
]


def machine_identity() -> str:
    """A normalized id for *this* machine, stable across runs on it.

    ``system-arch-cpumodel-Nc`` (lowercased, punctuation collapsed to
    ``-``).  Benchmark medians are only comparable between runs that share
    this id — ``bench_gate`` refuses cross-machine comparisons by default,
    and :func:`usable_stamped` ignores files from other machines.
    """
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = None
    cpu = cpu or platform.processor() or "unknown-cpu"
    cpu = re.sub(r"[^a-z0-9]+", "-", cpu.lower()).strip("-")
    return (
        f"{platform.system().lower()}-{platform.machine().lower()}"
        f"-{cpu}-{os.cpu_count()}c"
    )


class CalibrationError(ValueError):
    """A machine-stamped file exists but does not match its schema."""


@dataclass(frozen=True)
class Calibration:
    """A loaded, schema-checked machine-stamped file."""

    path: Path
    machine_id: str
    table: Any  # whatever the consumer's parser returned


def table(doc: Mapping[str, Any], key: str) -> dict:
    """``doc[key]`` as a non-empty object, else :class:`CalibrationError`."""
    value = doc.get(key)
    if not isinstance(value, dict) or not value:
        raise CalibrationError(f"{key} must be a non-empty object")
    return value


def number(value: object, where: str, *, hi: float = math.inf) -> float:
    """*value* as a float in ``[0, hi]``, else :class:`CalibrationError`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CalibrationError(f"{where} must be a number, got {value!r}")
    out = float(value)
    if not 0.0 <= out <= hi:
        bound = "non-negative" if hi == math.inf else f"in [0, {hi}]"
        raise CalibrationError(f"{where} must be {bound}, got {out}")
    return out


def load_stamped(
    path: Path, parse: Callable[[dict], Any], *, schema: int | None = 1
) -> Calibration:
    """Read, schema-check and parse one machine-stamped file.

    Raises ``OSError`` (``FileNotFoundError`` when absent) if the file
    cannot be read, and :class:`CalibrationError` when it is not JSON, its
    ``schema`` is not *schema* (``None`` skips that check: the ``BENCH_*``
    baselines carry none), ``provenance.machine_id`` is not a string — a
    measurement that cannot say where it was taken must never steer a
    decision — or *parse* rejects the document.
    """
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CalibrationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CalibrationError(f"{path}: top level must be an object")
    if schema is not None and doc.get("schema") != schema:
        raise CalibrationError(
            f"{path}: unsupported schema {doc.get('schema')!r} (expected {schema})"
        )
    provenance = doc.get("provenance")
    if not isinstance(provenance, dict) or not isinstance(
        provenance.get("machine_id"), str
    ):
        raise CalibrationError(f"{path}: provenance.machine_id (a string) is required")
    try:
        parsed = parse(doc)
    except CalibrationError as exc:
        raise CalibrationError(f"{path}: {exc}") from None
    return Calibration(path=path, machine_id=provenance["machine_id"], table=parsed)


#: (consumer, path, machine_id override) -> outcome.  Keyed on the path
#: string, not ``Path.resolve()``: a lookup runs on every solve and stream
#: step and must not touch the filesystem.  ``None`` is memoised too.
_MEMO: dict[tuple[str, str, str | None], Calibration | None] = {}


def invalidate() -> None:
    """Forget every memoised file (tests; after rewriting a calibration)."""
    _MEMO.clear()


def usable_stamped(
    consumer: str,
    path: Path,
    parse: Callable[[dict], Any],
    *,
    schema: int | None = 1,
    machine_id: str | None = None,
) -> Calibration | None:
    """The file *consumer* may act on, or ``None`` with the reason counted.

    ``None`` when the file is missing or unreadable, fails
    :func:`load_stamped`, or was stamped on another machine than
    *machine_id* (default: :func:`machine_identity`).  The answer is
    memoised per path until :func:`invalidate`.
    """
    key = (consumer, str(path), machine_id)
    if key in _MEMO:
        return _MEMO[key]
    try:
        cal: Calibration | None = load_stamped(path, parse, schema=schema)
        outcome = "loaded"
    except OSError:
        cal, outcome = None, "missing"
    except CalibrationError:
        cal, outcome = None, "invalid"
    if cal is not None and cal.machine_id != (machine_id or machine_identity()):
        cal, outcome = None, "machine-mismatch"
    obs_metrics.inc(f"{consumer}/calibration/{outcome}")
    if len(_MEMO) >= 16:  # env churn in long-lived test processes
        _MEMO.clear()
    _MEMO[key] = cal
    return cal
