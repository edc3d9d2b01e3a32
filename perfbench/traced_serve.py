"""Run ``repro serve`` with the service-layer ledger installed.

Usage: ``python perfbench/traced_serve.py LEDGER_OUT [serve options...]``.
The server runs exactly as ``python -m repro serve [options...]`` would;
on shutdown (SIGTERM or SIGINT) the ledger's self times and counts are
written to LEDGER_OUT as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC  # noqa: E402

sys.path.insert(0, str(SRC))

from ledger import SERVICE_POINTS, Ledger, time_batches  # noqa: E402


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    ledger = Ledger(SERVICE_POINTS).install()
    time_batches(ledger)
    import repro.cli

    try:
        return repro.cli.main(["serve", *argv[1:]])
    finally:
        out.write_text(json.dumps(ledger.snapshot()))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
