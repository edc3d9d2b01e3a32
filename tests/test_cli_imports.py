"""What a cold ``repro solve`` loads.

A solve from a file needs the solvers, the hypergraph substrate, numpy and
``scipy.sparse``.  The modules below serve other commands only; each is
imported where its command runs, so none may appear in a fresh
interpreter after ``import repro.cli`` and one in-process solve.  The check
reads ``sys.modules`` — deterministic, unlike a start-up timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

NOT_LOADED_BY_SOLVE = [
    "scipy.sparse.csgraph",
    "asyncio",
    "multiprocessing.shared_memory",
    "repro.analysis",
    "repro.exec",
    "repro.service",
    "repro.dynamic",
    "repro.qa",
]

_SOLVE_THEN_LIST = """
import json, sys
import repro.cli
assert repro.cli.main(["solve", sys.argv[1]]) == 0
watched = json.loads(sys.argv[2])
sys.stderr.write(json.dumps({name: name in sys.modules for name in watched}))
# info imports its renderer lazily: it must still run afterwards.
assert repro.cli.main(["info", sys.argv[1]]) == 0
"""


def _run(script: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )


def _instance(tmp_path) -> str:
    path = tmp_path / "inst.txt"
    path.write_text("universe 6\n0 1 2\n1 3\n2 4 5\n")
    return str(path)


def test_solve_loads_only_what_it_runs(tmp_path):
    watched = NOT_LOADED_BY_SOLVE + ["numpy", "scipy.sparse"]
    proc = _run(_SOLVE_THEN_LIST, _instance(tmp_path), json.dumps(watched))
    loaded = json.loads(proc.stderr)
    assert [name for name in NOT_LOADED_BY_SOLVE if loaded[name]] == []
    # Every solve needs these (check_mis, the incidence matrix): they stay eager.
    assert loaded["numpy"] and loaded["scipy.sparse"]
    assert "max vertex degree" in proc.stdout
