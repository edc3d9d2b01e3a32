"""Measured repair-vs-recompute crossover for the dynamic engine.

Small update batches should be repaired in place (cost scales with the
affected region); large ones should recompute from scratch (repair's
localization overhead — one component labeling plus the splice — stops
paying for itself).  Where the crossover sits depends on the machine and
on the instance shape, so a calibration file (``DYNAMIC_CALIBRATION.json``
at the repo root) maps each *shape bucket* — the same dimension × universe
vocabulary as kernel dispatch, see
:func:`repro.kernels.costmodel.shape_bucket` — to a measured crossover
delta-fraction.  It is read through
:func:`repro.util.hostid.usable_stamped`, the same machine rule as the
kernel calibration: schema-checked, **ignored** when stamped on another
machine, counted on ``dynamic/calibration/*`` and memoised.  Without a
usable calibration the dispatcher falls back to a static threshold; a bad
calibration can never break an update, only mis-route it.

``scripts/dynamic_calibrate.py`` produces the calibration by racing
repair against recompute at increasing delta fractions per bucket.
Override the file location with ``REPRO_DYNAMIC_CALIBRATION``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.kernels.costmodel import shape_bucket
from repro.util.hostid import (
    Calibration,
    CalibrationError,
    number,
    table,
    usable_stamped,
)

__all__ = [
    "DEFAULT_CALIBRATION_PATH",
    "ENV_CALIBRATION",
    "STATIC_CROSSOVER_FRACTION",
    "StrategyDecision",
    "calibration_path",
    "decide_strategy",
    "delta_band",
    "parse_crossovers",
    "usable_calibration",
]

#: Environment variable overriding the calibration file location.
ENV_CALIBRATION = "REPRO_DYNAMIC_CALIBRATION"

#: Default location, next to the BENCH_*.json baselines at the repo root.
DEFAULT_CALIBRATION_PATH = Path(__file__).resolve().parents[3] / "DYNAMIC_CALIBRATION.json"

#: Delta-fraction above which recompute wins when no calibration applies.
#: Conservative: repair's fixed overhead (diff + component labeling) is
#: small next to the greedy solve over the whole instance that it avoids
#: (numpy rounds, O(n + Σ|e|) work either way), so the measured crossover
#: usually sits far higher.
STATIC_CROSSOVER_FRACTION = 0.25

#: Delta-fraction band upper bounds (exclusive), smallest first; used only
#: for the low-cardinality decision counters, never for dispatch itself.
_DELTA_BANDS: tuple[tuple[float, str], ...] = (
    (0.01, "lt1pct"),
    (0.05, "lt5pct"),
    (0.20, "lt20pct"),
)
_DELTA_TOP = "ge20pct"


@dataclass(frozen=True)
class StrategyDecision:
    """One repair-vs-recompute routing decision, with its audit trail."""

    strategy: str  # "repair" | "recompute"
    reason: str
    bucket: str  # shape bucket (kernel vocabulary, e.g. "d3-u4k")
    band: str  # delta-fraction band (e.g. "lt1pct")
    threshold: float
    mode: str  # "cost-model" | "static"


def delta_band(fraction: float) -> str:
    """Low-cardinality label for a delta fraction (counter dimension)."""
    for bound, label in _DELTA_BANDS:
        if fraction < bound:
            return label
    return _DELTA_TOP


def calibration_path() -> Path:
    """The calibration file location (env override, else the repo default)."""
    override = os.environ.get(ENV_CALIBRATION)
    return Path(override) if override else DEFAULT_CALIBRATION_PATH


def parse_crossovers(doc: dict) -> dict[str, float]:
    """The ``buckets`` table: shape bucket -> crossover delta-fraction."""
    buckets: dict[str, float] = {}
    for bucket, entry in table(doc, "buckets").items():
        if not isinstance(entry, dict) or "crossover_fraction" not in entry:
            raise CalibrationError(
                f"buckets[{bucket!r}] must be an object with crossover_fraction"
            )
        buckets[str(bucket)] = number(
            entry["crossover_fraction"], f"buckets[{bucket!r}].crossover_fraction", hi=1.0
        )
    return buckets


def usable_calibration(
    path: Path | None = None, *, machine_id: str | None = None
) -> Calibration | None:
    """The calibration routing may act on (see :func:`usable_stamped`)."""
    return usable_stamped(
        "dynamic",
        path if path is not None else calibration_path(),
        parse_crossovers,
        machine_id=machine_id,
    )


def decide_strategy(
    delta_fraction: float, dimension: int, universe: int
) -> StrategyDecision:
    """Route one update batch: repair in place or recompute from scratch.

    The batch's *delta fraction* (changed edges over ``|E_old ∪ E_new|``)
    is compared against the crossover for the instance's shape bucket —
    measured when a usable calibration covers the bucket, the static
    threshold otherwise.
    """
    bucket = shape_bucket(dimension, universe)
    band = delta_band(delta_fraction)
    cal = usable_calibration()
    if cal is not None and bucket in cal.table:
        threshold = cal.table[bucket]
        mode = "cost-model"
    else:
        threshold = STATIC_CROSSOVER_FRACTION
        mode = "static"
    strategy = "repair" if delta_fraction <= threshold else "recompute"
    reason = (
        f"{mode}: delta {delta_fraction:.4f} "
        f"{'<=' if strategy == 'repair' else '>'} crossover {threshold:.4f} [{bucket}]"
    )
    return StrategyDecision(
        strategy=strategy,
        reason=reason,
        bucket=bucket,
        band=band,
        threshold=threshold,
        mode=mode,
    )
