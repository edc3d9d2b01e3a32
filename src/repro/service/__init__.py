"""repro.service — MIS-as-a-service: the async batching solve server.

The front door on the executor substrate.  A long-running asyncio server
accepts solve requests over a unix socket (JSON-lines) and optionally
HTTP/1.1, and turns concurrent traffic into efficient batch execution:

* **Coalescing** — concurrent requests for the same
  ``(content_hash, algorithm, seed)`` share one in-flight cell; one solve
  answers all of them with identical payloads
  (:mod:`repro.service.batching`).
* **Group-commit batching** — an idle server dispatches a request at
  once; cells that queue while a batch runs on the
  :class:`~repro.exec.aio.AsyncBatchExecutor` leave together as the next
  batch, amortising dispatch overhead under load without a gathering
  delay (:mod:`repro.service.server`).
* **Result caching** — completed solves land in an LRU cache keyed by
  ``(content_hash, algorithm, seed)``; repeats are answered without
  touching the executor (:mod:`repro.service.cache`).
* **Admission control** — a bounded pending queue rejects excess load
  (the 429 analogue) and per-request deadlines expire stale requests
  *before* they are dispatched, so overload degrades into fast failures
  instead of collapse (:mod:`repro.service.batching`).

Telemetry rides the existing :mod:`repro.obs` stack: per-request spans
spliced into one tree, service counters/gauges published through the
heartbeat's OpenMetrics textfile, executor spans via the normal worker
splice.  :mod:`repro.service.client` is the matching blocking client and
async load generator (used by ``repro client solve``, the CI smoke and
``benchmarks/bench_m03_service.py``).
"""

from repro.service.cache import ResultCache
from repro.service.client import LoadReport, ServiceError, SolveClient, run_load
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    SolveRequest,
    decode_line,
    encode_instance,
    encode_line,
    parse_solve_request,
)
from repro.service.server import ServerConfig, ServerThread, SolveServer, default_algorithms

__all__ = [
    "PROTOCOL_VERSION",
    "LoadReport",
    "ProtocolError",
    "ResultCache",
    "ServerConfig",
    "ServerThread",
    "ServiceError",
    "SolveClient",
    "SolveRequest",
    "SolveServer",
    "decode_line",
    "default_algorithms",
    "encode_instance",
    "encode_line",
    "parse_solve_request",
    "run_load",
]
