"""Clients for the solve service: a blocking socket client and a load generator.

:class:`SolveClient` is the deliberately boring piece — a synchronous
JSON-lines conversation over the unix socket, one ``sendall`` + buffered
``readline`` per call.  It is what ``repro client solve`` and tests use.

:func:`run_load` is the async load generator behind the CI smoke and
``benchmarks/bench_m03_service.py``: it opens *connections* concurrent
unix-socket streams, fires a request schedule (with planned duplicates to
exercise coalescing), and folds the responses into a :class:`LoadReport`
with throughput and tail-latency percentiles.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.hypergraph.hypergraph import Hypergraph
from repro.service.protocol import (
    ERROR_STATUSES,
    ProtocolError,
    decode_line,
    encode_instance,
    encode_line,
)

__all__ = ["LoadReport", "ServiceError", "SolveClient", "run_load"]


class ServiceError(RuntimeError):
    """A non-``ok`` response, surfaced with its status and message."""

    def __init__(self, status: str, message: str, response: Mapping[str, Any]):
        super().__init__(f"{status}: {message}")
        self.status = status
        self.response = dict(response)


def _raise_for_status(response: Mapping[str, Any]) -> dict[str, Any]:
    status = str(response.get("status", "error"))
    if status == "ok":
        return dict(response)
    message = str(response.get("error", "<no message>"))
    if status not in ERROR_STATUSES:
        status = "error"
    raise ServiceError(status, message, response)


class SolveClient:
    """Blocking JSON-lines client over the service's unix socket.

    One connection per client; requests on a single client are strictly
    sequential (send, then read one response line).  Use several clients
    — or :func:`run_load` — for concurrency.
    """

    def __init__(self, socket_path: str | Path, *, timeout: float = 30.0):
        self.socket_path = str(socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._sock.settimeout(timeout)
            self._sock.connect(self.socket_path)
        except BaseException:
            self._sock.close()
            raise
        self._rfile = self._sock.makefile("rb")

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "SolveClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        """Send one raw protocol document; return the raw response dict."""
        self._sock.sendall(encode_line(doc))
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        try:
            return decode_line(line)
        except ProtocolError as exc:  # pragma: no cover - server always sends JSON
            raise ConnectionError(f"undecodable response: {exc}") from exc

    def solve(
        self,
        instance: Hypergraph | str | Mapping[str, Any] | None = None,
        *,
        algorithm: str,
        seed: int = 0,
        content_hash: str | None = None,
        deadline_ms: float | None = None,
        verify: bool = True,
        request_id: str | None = None,
    ) -> dict[str, Any]:
        """One solve round-trip; raises :class:`ServiceError` on non-``ok``."""
        doc: dict[str, Any] = {"op": "solve", "algorithm": algorithm, "seed": seed}
        if isinstance(instance, Hypergraph):
            doc["instance"] = encode_instance(instance)
        elif instance is not None:
            doc["instance"] = instance
        if content_hash is not None:
            doc["content_hash"] = content_hash
        if deadline_ms is not None:
            doc["deadline_ms"] = deadline_ms
        if not verify:
            doc["verify"] = False
        if request_id is not None:
            doc["id"] = request_id
        return _raise_for_status(self.request(doc))

    def ping(self) -> bool:
        """Liveness round-trip."""
        return self.request({"op": "ping"}).get("op") == "pong"

    def stats(self) -> dict[str, Any]:
        """The server's ``stats`` snapshot."""
        return _raise_for_status(self.request({"op": "stats"}))["stats"]


# -- load generation -------------------------------------------------------


@dataclass
class LoadReport:
    """Aggregate outcome of one :func:`run_load` run."""

    total: int
    ok: int
    cached: int
    coalesced: int
    rejected: int
    expired: int
    errors: int
    wall_s: float
    latencies_ns: list[int] = field(default_factory=list)
    responses: list[dict[str, Any]] = field(default_factory=list)

    @property
    def requests_per_s(self) -> float:
        return self.total / self.wall_s if self.wall_s > 0 else 0.0

    def percentile_ns(self, q: float) -> float:
        """Nearest-rank latency percentile over completed requests (ns)."""
        if not self.latencies_ns:
            return 0.0
        sample = sorted(self.latencies_ns)
        rank = min(len(sample) - 1, max(0, int(q * len(sample))))
        return float(sample[rank])

    def summary(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "ok": self.ok,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "expired": self.expired,
            "errors": self.errors,
            "wall_s": round(self.wall_s, 4),
            "requests_per_s": round(self.requests_per_s, 2),
            "latency_p50_ms": round(self.percentile_ns(0.50) / 1e6, 3),
            "latency_p90_ms": round(self.percentile_ns(0.90) / 1e6, 3),
            "latency_p99_ms": round(self.percentile_ns(0.99) / 1e6, 3),
        }


async def _drive_connection(
    socket_path: str,
    docs: Sequence[Mapping[str, Any]],
    latencies: list[int],
    responses: list[dict[str, Any]],
) -> None:
    """One connection's work: pipeline all *docs*, then collect responses.

    Requests are written back-to-back (no wait-for-response) so duplicates
    across connections genuinely overlap in the server — that concurrency
    is what the coalescing assertions in the smoke test depend on.
    """
    reader, writer = await asyncio.open_unix_connection(socket_path)
    try:
        t_send: dict[str, int] = {}
        for i, doc in enumerate(docs):
            doc = dict(doc)
            doc.setdefault("id", f"c{id(writer) & 0xFFFF:x}-{i}")
            t_send[str(doc["id"])] = time.perf_counter_ns()
            writer.write(encode_line(doc))
        await writer.drain()
        for _ in docs:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed mid-load")
            response = decode_line(line)
            t0 = t_send.get(str(response.get("id", "")))
            if t0 is not None:
                latencies.append(time.perf_counter_ns() - t0)
            responses.append(response)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


async def run_load(
    socket_path: str | Path,
    docs: Sequence[Mapping[str, Any]],
    *,
    connections: int = 8,
) -> LoadReport:
    """Fire *docs* across *connections* concurrent streams; fold a report.

    Documents are distributed round-robin, preserving relative order
    within a connection.  Duplicate documents placed on *different*
    connections arrive concurrently and exercise the server's coalescer.
    """
    socket_path = str(socket_path)
    connections = max(1, min(connections, len(docs) or 1))
    lanes: list[list[Mapping[str, Any]]] = [[] for _ in range(connections)]
    for i, doc in enumerate(docs):
        lanes[i % connections].append(doc)
    latencies: list[int] = []
    responses: list[dict[str, Any]] = []
    t0 = time.perf_counter()
    await asyncio.gather(
        *(
            _drive_connection(socket_path, lane, latencies, responses)
            for lane in lanes
            if lane
        )
    )
    wall_s = time.perf_counter() - t0
    counts = {"ok": 0, "cached": 0, "coalesced": 0, "rejected": 0, "expired": 0, "errors": 0}
    for response in responses:
        status = response.get("status")
        if status == "ok":
            counts["ok"] += 1
            counts["cached"] += bool(response.get("cached"))
            counts["coalesced"] += bool(response.get("coalesced"))
        elif status == "rejected":
            counts["rejected"] += 1
        elif status == "expired":
            counts["expired"] += 1
        else:
            counts["errors"] += 1
    return LoadReport(
        total=len(responses),
        wall_s=wall_s,
        latencies_ns=latencies,
        responses=responses,
        **counts,
    )
