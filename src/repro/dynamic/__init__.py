"""Incremental MIS maintenance under edge streams.

The one-shot solvers in :mod:`repro.core` answer "what is an MIS of H?";
this package answers "H just changed — what is an MIS *now*?" without
paying for a full re-solve when the change is small:

* :mod:`repro.dynamic.engine` — :class:`DynamicMIS`, the repair engine:
  localize the update's dirty region to whole connected components,
  re-solve only those (greedy along a global priority order, so the
  repaired answer is *bit-identical* to recompute-from-scratch), splice,
  and certify against the updated hypergraph.
* :mod:`repro.dynamic.costmodel` — the repair-vs-recompute dispatcher:
  a measured per-shape-bucket crossover delta-fraction
  (``DYNAMIC_CALIBRATION.json``, read under the machine rule of
  :func:`repro.util.hostid.usable_stamped`) with a static threshold
  fallback.

The batch-update primitive itself —
:func:`repro.hypergraph.updates.apply_updates` with its exact structural
diff and content-hash chaining — lives on the hypergraph layer so
non-dynamic callers (caches, the service) can reuse it.
"""

from repro.dynamic.costmodel import (
    DEFAULT_CALIBRATION_PATH,
    ENV_CALIBRATION,
    STATIC_CROSSOVER_FRACTION,
    StrategyDecision,
    calibration_path,
    decide_strategy,
    delta_band,
    parse_crossovers,
    usable_calibration,
)
from repro.dynamic.engine import DynamicMIS, UpdateOutcome

__all__ = [
    "DynamicMIS",
    "UpdateOutcome",
    "StrategyDecision",
    "decide_strategy",
    "delta_band",
    "parse_crossovers",
    "usable_calibration",
    "calibration_path",
    "DEFAULT_CALIBRATION_PATH",
    "ENV_CALIBRATION",
    "STATIC_CROSSOVER_FRACTION",
]
