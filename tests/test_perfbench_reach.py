"""The benchmark's reach into ``src/``: every name ``perfbench/`` looks up.

``perfbench/run.py`` wraps module attributes by name for its layer ledger
and reads both calibrations for its environment record.  A rename in
``src/`` that breaks one of those lookups would otherwise surface only
when the benchmark runs; this test fails first.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_ledger_points_resolve_and_restore():
    ledger_mod = _module("ledger")
    points = ledger_mod.SOLVE_POINTS + ledger_mod.STREAM_POINTS + ledger_mod.SERVICE_POINTS
    originals = [
        ledger_mod._get(ledger_mod._resolve_owner(owner), attr) for owner, attr, _ in points
    ]
    with ledger_mod.Ledger(points) as ledger:
        ledger_mod.time_batches(ledger)
    after = [ledger_mod._get(ledger_mod._resolve_owner(owner), attr) for owner, attr, _ in points]
    assert all(a is b for a, b in zip(after, originals))


def test_environment_record():
    env = _module("common").environment()
    assert {"machine_id", "kernel_calibration", "dynamic_calibration", "numba"} <= env.keys()
