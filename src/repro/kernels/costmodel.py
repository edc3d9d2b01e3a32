"""Measured csr-vs-bitset cost model for the kernel dispatcher.

The static shape thresholds in :mod:`repro.kernels.dispatch` encode *one*
machine's crossover points.  This module replaces them — when a
calibration exists — with measured ones: ``scripts/kernel_calibrate.py``
times the CSR and bitset engines on one representative instance per
*shape bucket* (dimension band × universe band) and persists the medians
to ``KERNEL_CALIBRATION.json`` at the repo root.  ``select_backend`` then
picks whichever backend measured faster for the instance's bucket, and
falls back to the static thresholds for buckets the probe did not cover.

The file is read through :func:`repro.util.hostid.usable_stamped`, the
rule every machine-stamped file follows: schema-checked, **ignored** when
its ``provenance.machine_id`` is another machine's, counted on
``kernels/calibration/*`` and memoised.  A missing, invalid or
cross-machine calibration reverts dispatch to the static thresholds; it
can never break a solve.

Override the calibration location with ``REPRO_KERNEL_CALIBRATION`` (CI
points it at a committed fixture to pin the honoring behaviour).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.util.hostid import (
    Calibration,
    CalibrationError,
    number,
    table,
    usable_stamped,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dispatch imports us)
    from repro.kernels.dispatch import ShapeFeatures

__all__ = [
    "DEFAULT_CALIBRATION_PATH",
    "ENV_CALIBRATION",
    "calibration_path",
    "parse_buckets",
    "usable_calibration",
    "shape_bucket",
    "preferred_backend",
]

#: Environment variable overriding the calibration file location.
ENV_CALIBRATION = "REPRO_KERNEL_CALIBRATION"

#: Default location, next to the BENCH_*.json baselines at the repo root.
DEFAULT_CALIBRATION_PATH = Path(__file__).resolve().parents[3] / "KERNEL_CALIBRATION.json"

#: Universe band upper bounds (inclusive), smallest first; shapes above the
#: last bound land in the open top band.
_UNIVERSE_BANDS: tuple[tuple[int, str], ...] = (
    (1024, "u1k"),
    (2048, "u2k"),
    (4096, "u4k"),
    (8192, "u8k"),
)
_UNIVERSE_TOP = "u8kplus"

#: The two backends the probe races; the cost model never proposes jit
#: (an explicit ``REPRO_KERNEL=jit`` request is the only way in).
_BACKENDS = ("csr", "bitset")


def shape_bucket(dimension: int, universe: int) -> str:
    """The calibration bucket for an instance shape, e.g. ``"d3-u2k"``.

    Buckets are a dimension band (``d2`` | ``d3`` | ``d4plus``) crossed
    with a universe band (``u1k`` ≤ 1024 < ``u2k`` ≤ 2048 < ``u4k`` ≤ 4096
    < ``u8k`` ≤ 8192 < ``u8kplus``).  Low-cardinality by construction —
    3 × 5 possible labels — so the per-bucket dispatch counters stay
    bounded.
    """
    if dimension <= 2:
        dim_band = "d2"
    elif dimension == 3:
        dim_band = "d3"
    else:
        dim_band = "d4plus"
    for bound, label in _UNIVERSE_BANDS:
        if universe <= bound:
            return f"{dim_band}-{label}"
    return f"{dim_band}-{_UNIVERSE_TOP}"


def calibration_path() -> Path:
    """The calibration file location (env override, else the repo default)."""
    override = os.environ.get(ENV_CALIBRATION)
    return Path(override) if override else DEFAULT_CALIBRATION_PATH


def parse_buckets(doc: dict) -> dict[str, dict[str, float]]:
    """The ``buckets`` table: shape bucket -> backend -> median ns."""
    buckets: dict[str, dict[str, float]] = {}
    for bucket, entry in table(doc, "buckets").items():
        if not isinstance(entry, dict):
            raise CalibrationError(f"buckets[{bucket!r}] must be an object")
        for backend in _BACKENDS:
            if backend not in entry:
                raise CalibrationError(f"buckets[{bucket!r}] is missing {backend!r}")
        buckets[str(bucket)] = {
            backend: number(entry[backend], f"buckets[{bucket!r}][{backend!r}]")
            for backend in _BACKENDS
        }
    return buckets


def usable_calibration(
    path: Path | None = None, *, machine_id: str | None = None
) -> Calibration | None:
    """The calibration dispatch may act on (see :func:`usable_stamped`).

    *machine_id* exists for the cross-machine unit tests; real callers use
    the ambient :func:`repro.util.hostid.machine_identity`.
    """
    return usable_stamped(
        "kernels",
        path if path is not None else calibration_path(),
        parse_buckets,
        machine_id=machine_id,
    )


def preferred_backend(cal: Calibration, features: "ShapeFeatures") -> str | None:
    """The measured-faster backend for this shape, or ``None`` if uncovered.

    ``None`` means the calibration has no entry for the instance's bucket
    and dispatch should fall back to the static thresholds.
    """
    entry = cal.table.get(shape_bucket(features.dimension, features.universe))
    if entry is None:
        return None
    return "bitset" if entry["bitset"] <= entry["csr"] else "csr"
