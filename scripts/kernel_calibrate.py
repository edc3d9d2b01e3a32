"""Measure the kernel cost model: probe csr vs bitset per shape bucket.

The dispatcher's ``auto`` mode (``repro.kernels.dispatch``) consults a
per-machine calibration file when one exists: for each shape bucket
(dimension band x universe band, :func:`repro.kernels.costmodel.shape_bucket`)
it records which backend actually measured faster *on this machine*, and
``select_backend`` follows the measurement instead of the static envelope.

This script produces that file.  For every bucket inside the dense
envelope it builds a representative random instance, solves it end-to-end
under ``use_kernel("csr")`` and ``use_kernel("bitset")``, and writes the
median wall-clock (ns) of each to ``KERNEL_CALIBRATION.json`` at the repo
root (or ``--output``).  The payload is stamped with
``machine_identity()`` — the same bench_gate rule applies: a calibration
measured elsewhere is ignored at load time, never silently applied.

    PYTHONPATH=src python scripts/kernel_calibrate.py              # probe
    PYTHONPATH=src python scripts/kernel_calibrate.py --samples 5
    PYTHONPATH=src python scripts/kernel_calibrate.py --quick      # 3 buckets

CI uses ``--verify-fixture`` instead of trusting a fresh probe: it checks
that the committed cross-machine fixture is *ignored* as committed, and
*honored* once re-stamped with the local machine id — i.e. the dispatch
plumbing end-to-end, independent of this machine's timings.

    PYTHONPATH=src python scripts/kernel_calibrate.py \
        --verify-fixture tests/fixtures/kernel_calibration.json
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.bl import beame_luby  # noqa: E402
from repro.generators import uniform_hypergraph  # noqa: E402
from repro.hypergraph import Hypergraph  # noqa: E402
from repro.kernels import use_kernel  # noqa: E402
from repro.kernels.costmodel import shape_bucket  # noqa: E402
from repro.util.hostid import machine_identity  # noqa: E402

OUT = REPO / "KERNEL_CALIBRATION.json"

#: One probe instance per bucket: (dimension, universe, edges).  The
#: universes sit inside their band; edge counts keep each solve well
#: under a second per backend so the full probe stays CI-friendly.
PROBE_SHAPES: list[tuple[int, int, int]] = [
    (2, 768, 1536),
    (2, 1536, 3072),
    (2, 3072, 6144),
    (2, 6144, 9216),
    (2, 16384, 16384),
    (3, 768, 1536),
    (3, 1536, 3072),
    (3, 3072, 6144),
    (3, 6144, 9216),
    (3, 16384, 16384),
    (4, 768, 1536),
    (4, 1536, 3072),
    (4, 3072, 6144),
    (4, 6144, 9216),
    (4, 16384, 16384),
]

#: The ``--quick`` subset: one bucket per dimension band.
QUICK_SHAPES: list[tuple[int, int, int]] = [
    (2, 768, 1536),
    (3, 3072, 6144),
    (4, 768, 1536),
]

BACKENDS = ("csr", "bitset")
PROBE_SEED = 20140623  # SPAA'14


def _median_ns(H: Hypergraph, kernel: str, samples: int) -> int:
    times = []
    for _ in range(samples):
        t0 = time.perf_counter_ns()
        with use_kernel(kernel):
            beame_luby(H, seed=1)
        times.append(time.perf_counter_ns() - t0)
    return int(statistics.median(times))


def probe(shapes: list[tuple[int, int, int]], samples: int) -> dict:
    buckets: dict[str, dict[str, int]] = {}
    for d, universe, m in shapes:
        bucket = shape_bucket(d, universe)
        H = uniform_hypergraph(universe, m, d, seed=PROBE_SEED)
        entry = {k: _median_ns(H, k, samples) for k in BACKENDS}
        buckets[bucket] = entry
        winner = min(entry, key=lambda k: (entry[k], k != "bitset"))
        print(
            f"  {bucket:<16} csr={entry['csr'] / 1e6:9.2f}ms "
            f"bitset={entry['bitset'] / 1e6:9.2f}ms -> {winner}"
        )
    return {
        "schema": 1,
        "unit": "ns",
        "stat": "median",
        "buckets": buckets,
        "provenance": {
            "machine_id": machine_identity(),
            "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "samples": samples,
            "seed": PROBE_SEED,
        },
    }


def verify_fixture(fixture: Path) -> int:
    """CI check: the committed fixture steers dispatch exactly as specced.

    1. As committed (foreign ``machine_id``) it must be **ignored**:
       dispatch falls back to the static envelope.
    2. Re-stamped with the local machine id it must be **honored**: every
       covered bucket's measured winner is what ``select_backend`` picks.
    """
    from repro.kernels.dispatch import select_backend
    from repro.util.hostid import invalidate

    doc = json.loads(fixture.read_text())
    failures: list[str] = []

    def _probe_instance(bucket: str) -> Hypergraph:
        d = {"d2": 2, "d3": 3, "d4plus": 4}[bucket.split("-")[0]]
        u = {"u1k": 768, "u2k": 1536, "u4k": 3072, "u8k": 6144, "u8kplus": 16384}[
            bucket.split("-")[1]
        ]
        edges = [tuple(range(i, i + d)) for i in range(0, 4 * d, d)]
        return Hypergraph(u, edges)

    # 1. Foreign machine_id => ignored, static fallback decides.
    os.environ["REPRO_KERNEL_CALIBRATION"] = str(fixture)
    invalidate()
    for bucket in doc["buckets"]:
        d = select_backend(_probe_instance(bucket), requested="auto")
        if not d.reason.startswith("auto:"):
            failures.append(
                f"{bucket}: cross-machine fixture was not ignored ({d.reason})"
            )

    # 2. Local machine_id => honored bucket by bucket.
    doc["provenance"]["machine_id"] = machine_identity()
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        local = fh.name
    try:
        os.environ["REPRO_KERNEL_CALIBRATION"] = local
        invalidate()
        for bucket, entry in doc["buckets"].items():
            want = "bitset" if entry["bitset"] <= entry["csr"] else "csr"
            d = select_backend(_probe_instance(bucket), requested="auto")
            if (d.backend, d.reason) != (want, f"cost-model:{want}"):
                failures.append(
                    f"{bucket}: want ({want}, cost-model:{want}), "
                    f"got ({d.backend}, {d.reason})"
                )
    finally:
        os.unlink(local)
        os.environ.pop("REPRO_KERNEL_CALIBRATION", None)
        invalidate()

    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if not failures:
        print(f"ok: dispatch honors {fixture} ({len(doc['buckets'])} buckets)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", type=Path, default=OUT)
    ap.add_argument("--samples", type=int, default=3)
    ap.add_argument(
        "--quick", action="store_true", help="probe one bucket per dimension band"
    )
    ap.add_argument(
        "--verify-fixture",
        type=Path,
        default=None,
        metavar="PATH",
        help="skip probing; assert select_backend honors the committed fixture",
    )
    args = ap.parse_args(argv)
    if args.verify_fixture is not None:
        return verify_fixture(args.verify_fixture)
    shapes = QUICK_SHAPES if args.quick else PROBE_SHAPES
    print(f"probing {len(shapes)} buckets x {args.samples} samples per backend:")
    payload = probe(shapes, args.samples)
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output} (machine_id={payload['provenance']['machine_id']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
