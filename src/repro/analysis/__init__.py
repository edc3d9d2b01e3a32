"""Experiment harness.

* :mod:`repro.analysis.tables` — plain-text / markdown table rendering
  (no third-party dependency).
* :mod:`repro.analysis.instrument` — per-round instrumentation hooks
  (degree-migration tracking, colored-fraction extraction) and trace
  aggregation helpers (power-law fits).
* :mod:`repro.analysis.experiments` — one runner per experiment id
  E1–E18 of DESIGN.md; each returns an
  :class:`~repro.analysis.experiments.ExperimentResult` that the
  benchmarks print and EXPERIMENTS.md records.
* :mod:`repro.analysis.ablations` — the A1–A6 design-decision studies.
* :mod:`repro.analysis.campaign` — algorithm × instance grid runner with
  verified outputs and CSV export.
* :mod:`repro.analysis.traces` — MISResult (de)serialisation.
"""

from repro.analysis.ablations import ABLATIONS, run_ablation
from repro.analysis.campaign import AlgorithmSpec, Campaign, InstanceSpec, write_csv
from repro.analysis.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    run_experiment,
)
from repro.analysis.instrument import (
    MigrationTracker,
    colored_fractions,
    fit_power_law,
)
from repro.analysis.tables import render_kv, render_table

__all__ = [
    "ABLATIONS",
    "run_ablation",
    "Campaign",
    "InstanceSpec",
    "AlgorithmSpec",
    "write_csv",
    "render_table",
    "render_kv",
    "MigrationTracker",
    "colored_fractions",
    "fit_power_law",
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
]
