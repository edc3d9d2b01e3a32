"""Smoke-run every example script.

Examples are user-facing documentation; a broken one is a broken promise.
Each runs as a subprocess with a generous timeout.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "theory_tables.py",
    "job_batching.py",
    "hypergraph_coloring.py",
    "potential_decay.py",
    "erew_simulator.py",
    "linear_hypergraphs.py",
    "streaming_updates.py",
    "parallel_scaling.py",
]


def _run(name: str, timeout: int = 180) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs_clean(name):
    proc = _run(name)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"
    if name == "parallel_scaling.py":
        assert "Brent" in proc.stdout


def test_examples_directory_fully_covered():
    """Every example is in the fast list."""
    present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert present == set(FAST_EXAMPLES)
