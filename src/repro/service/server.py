"""The asyncio solve server: transports, request lifecycle, dispatch loop.

Request lifecycle (everything except the solve itself runs on the event
loop)::

    transport → parse → cache lookup ──hit──────────────→ respond (cached)
                          │miss
                          ▼
                admission + coalescing (MicroBatcher.submit)
                          │                     │QueueFull
                          ▼                     └────────→ respond (rejected)
                await waiter.future
                          ▲
      dispatch loop: take_batch → AsyncBatchExecutor.solve_batch
                     (expired waiters answered without dispatch;
                      what queues during a batch is the next batch)

Instances are held once per content hash: the first request carrying an
instance registers it (and, in pool mode, publishes it into the server's
:class:`~repro.exec.shm.ShmArena` — so a coalesced or repeated instance
crosses the process boundary exactly once, however many requests name
it); later requests may send only the ``content_hash``.

Telemetry: the server opens one root ``service/serve`` span for its
lifetime; each finished request is recorded under it via
:meth:`~repro.obs.tracer.Tracer.record_span` (asyncio request lifetimes
interleave, so the context-manager span stack cannot model them), and the
dispatch thread's ``exec/run_cells`` spans — including spliced worker
spans in pool mode — nest under the same root.  One tree per server run.

Overload behaviour is the design centre: the queue bound converts excess
load into immediate ``rejected`` responses, deadlines stop stale work
before it reaches a solver, and the cache/coalescer mean a hot instance
costs one solve regardless of fan-in.  See docs/service.md.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core import (
    beame_luby,
    greedy_mis,
    karp_upfal_wigderson,
    linear_hypergraph_mis,
    luby_mis,
    permutation_bl,
    sbl,
)
from repro.exec.aio import AsyncBatchExecutor
from repro.exec.runner import Cell
from repro.exec.shm import ShmArena
from repro.hypergraph.hypergraph import Hypergraph
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import current_tracer
from repro.service.batching import MicroBatcher, PendingCell, QueueFull, Waiter
from repro.service.cache import ResultCache
from repro.service.protocol import (
    ProtocolError,
    SolveRequest,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    parse_solve_request,
)

__all__ = ["ServerConfig", "ServerThread", "SolveServer", "default_algorithms"]

_log = logging.getLogger(__name__)

#: Request latencies kept for the p50/p99 liveness gauges (a ring buffer).
LATENCY_WINDOW = 1024


def default_algorithms() -> dict[str, Callable]:
    """The served solver registry (same names the CLI exposes)."""
    return {
        "sbl": sbl,
        "bl": beame_luby,
        "kuw": karp_upfal_wigderson,
        "greedy": greedy_mis,
        "permutation": permutation_bl,
        "luby": luby_mis,
        "linear": linear_hypergraph_mis,
    }


@dataclass
class ServerConfig:
    """Tunables of one :class:`SolveServer`.

    ``workers`` follows the executor convention: each batch runs on a
    :class:`~repro.exec.runner.ParallelRunner` with that many worker
    processes, where ``None``/0 solves in-process on a dispatch thread.
    """

    socket_path: str | Path
    http: tuple[str, int] | None = None
    workers: int | None = None
    max_batch: int = 32
    queue_limit: int = 256
    cache_size: int = 1024
    default_deadline_ms: float | None = None
    verify: bool = True
    algorithms: dict[str, Callable] = field(default_factory=default_algorithms)


def _percentile(sorted_ns: list[int], q: float) -> float:
    """Nearest-rank percentile of an ascending latency sample (ns)."""
    if not sorted_ns:
        return 0.0
    rank = min(len(sorted_ns) - 1, max(0, int(q * len(sorted_ns))))
    return float(sorted_ns[rank])


class SolveServer:
    """One solve service: transports + batcher + cache + executor.

    Use :meth:`start` / :meth:`stop` from a running event loop, or
    :class:`ServerThread` to host a server from synchronous code (the
    CLI's ``repro serve`` blocks on :meth:`serve_forever`).
    """

    def __init__(self, config: ServerConfig):
        self.config = config
        self._algorithms = dict(config.algorithms)
        self._batcher = MicroBatcher(max_batch=config.max_batch, max_pending=config.queue_limit)
        self._cache = ResultCache(config.cache_size)
        self._executor = AsyncBatchExecutor(config.workers)
        self._instances: dict[str, Hypergraph] = {}
        self._arena: ShmArena | None = ShmArena() if config.workers else None
        self._handles: dict[str, Any] = {}
        self._latencies_ns: list[int] = []  # ring buffer, LATENCY_WINDOW long
        self._latency_pos = 0
        self._last_batch_size = 0
        self._servers: list[asyncio.base_events.Server] = []
        self._dispatch_task: asyncio.Task | None = None
        self._stopped = asyncio.Event()
        self._t_start = time.monotonic()
        self._root_span_id: int | None = None
        self._requests = 0
        self._solved_cells = 0
        self._errors = 0

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Bind the transports and start the dispatch loop."""
        tracer = current_tracer()
        if tracer.enabled:
            self._root_span_id = tracer.record_span(
                "service/serve", 0, socket=str(self.config.socket_path)
            )
        path = Path(self.config.socket_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            path.unlink()
        self._servers.append(await asyncio.start_unix_server(self._handle_jsonl, path=str(path)))
        if self.config.http is not None:
            host, port = self.config.http
            self._servers.append(
                await asyncio.start_server(self._handle_http, host=host, port=port)
            )
        self._dispatch_task = asyncio.create_task(
            self._dispatch_loop(), name="repro-service-dispatch"
        )
        self._t_start = time.monotonic()

    @property
    def http_port(self) -> int | None:
        """The bound HTTP port (after :meth:`start`; supports port 0)."""
        if self.config.http is None or len(self._servers) < 2:
            return None
        return self._servers[1].sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or cancellation)."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Stop transports and dispatch; release the arena and executor."""
        for server in self._servers:
            server.close()
        for server in self._servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        self._servers.clear()
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatch_task
            self._dispatch_task = None
        self._executor.close()
        if self._arena is not None:
            self._arena.close()
        with contextlib.suppress(FileNotFoundError):
            Path(self.config.socket_path).unlink()
        self._stopped.set()

    # -- instance registry -----------------------------------------------
    def _register_instance(self, H: Hypergraph, content_hash: str) -> None:
        if content_hash in self._instances:
            return
        self._instances[content_hash] = H
        obs_metrics.inc("service/instances_registered")
        if self._arena is not None:
            # Published exactly once per content: every cell for this
            # instance ships the same few-hundred-byte handle.
            self._handles[content_hash] = self._arena.publish(H)

    def _cell_instance(self, content_hash: str) -> Any:
        if self._arena is not None:
            return self._handles[content_hash]
        return self._instances[content_hash]

    # -- request path (event loop) ---------------------------------------
    async def handle_doc(self, doc: dict[str, Any]) -> dict[str, Any]:
        """Transport-agnostic request handling: one document in, one out."""
        op = doc.get("op", "solve")
        if op == "ping":
            return {"status": "ok", "op": "pong"}
        if op == "stats":
            return {"status": "ok", "op": "stats", "stats": self.stats()}
        if op != "solve":
            return error_response(str(doc.get("id", "")), "bad_request", f"unknown op {op!r}")
        t0 = time.perf_counter_ns()
        self._requests += 1
        obs_metrics.inc("service/requests")
        try:
            req = parse_solve_request(
                doc, algorithms=self._algorithms, default_id=str(self._requests)
            )
        except ProtocolError as exc:
            obs_metrics.inc("service/bad_requests")
            return error_response(str(doc.get("id", "")), "bad_request", str(exc))
        response = await self._solve(req, t0)
        self._finish_request(req, response, t0)
        return response

    async def _answer(self, doc: dict[str, Any]) -> dict[str, Any]:
        """:meth:`handle_doc` for a transport: every request gets an answer.

        An exception that escapes the request path becomes an ``error``
        response carrying the request id, counted on
        ``service/internal_errors`` and logged with its traceback, instead
        of a client left waiting.
        """
        try:
            return await self.handle_doc(doc)
        except Exception as exc:  # noqa: BLE001 - answer, never drop
            obs_metrics.inc("service/internal_errors")
            _log.exception("internal error answering request %r", doc.get("id"))
            return error_response(
                str(doc.get("id", "")), "error", f"internal error: {type(exc).__name__}: {exc}"
            )

    async def _solve(self, req: SolveRequest, t0: int) -> dict[str, Any]:
        if req.instance is not None:
            self._register_instance(req.instance, req.content_hash)
        elif req.content_hash not in self._instances:
            obs_metrics.inc("service/unknown_hash")
            return error_response(
                req.id,
                "bad_request",
                f"unknown content_hash {req.content_hash!r}: send the instance "
                f"once before referring to it by hash",
            )
        key = (req.content_hash, req.algorithm, req.seed)
        cached = self._cache.get(key)
        if cached is not None:
            return ok_response(
                req,
                cached,
                cached=True,
                coalesced=False,
                wall_ms=(time.perf_counter_ns() - t0) / 1e6,
            )
        deadline_ms = (
            req.deadline_ms
            if req.deadline_ms is not None
            else self.config.default_deadline_ms
        )
        waiter = Waiter(
            request_id=req.id,
            future=asyncio.get_running_loop().create_future(),
            expires_at=(
                time.monotonic() + deadline_ms / 1000.0
                if deadline_ms is not None
                else None
            ),
            t_arrival_ns=t0,
        )
        try:
            self._batcher.submit(key, waiter, lambda: self._make_work(req))
        except QueueFull as exc:
            return error_response(req.id, "rejected", str(exc), retry=True)
        outcome = await waiter.future
        status, payload = outcome
        wall_ms = (time.perf_counter_ns() - t0) / 1e6
        if status == "ok":
            return ok_response(
                req, payload, cached=False, coalesced=waiter.coalesced, wall_ms=wall_ms
            )
        return error_response(req.id, status, payload)

    def _make_work(self, req: SolveRequest) -> Cell:
        return Cell(
            instance=self._cell_instance(req.content_hash),
            fn=self._algorithms[req.algorithm],
            seed=req.seed,
            verify=self.config.verify and req.verify,
            label=f"{req.algorithm}/{req.content_hash[:12]}/s{req.seed}",
        )

    def _finish_request(self, req: SolveRequest, response: Mapping[str, Any], t0: int) -> None:
        wall_ns = time.perf_counter_ns() - t0
        if len(self._latencies_ns) < LATENCY_WINDOW:
            self._latencies_ns.append(wall_ns)
        else:
            self._latencies_ns[self._latency_pos] = wall_ns
            self._latency_pos = (self._latency_pos + 1) % LATENCY_WINDOW
        status = response.get("status", "error")
        obs_metrics.inc(f"service/responses_{status}")
        if status not in ("ok",):
            self._errors += status in ("error",)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.record_span(
                "service/request",
                wall_ns,
                parent_id=self._root_span_id,
                algorithm=req.algorithm,
                seed=req.seed,
                status=status,
                cached=bool(response.get("cached", False)),
                coalesced=bool(response.get("coalesced", False)),
            )

    # -- dispatch loop ----------------------------------------------------
    async def _dispatch_loop(self) -> None:
        # Group commit: one batch in flight at a time, so whatever queues
        # while it runs leaves together as the next batch.
        while True:
            cells, expired = await self._batcher.take_batch()
            for waiter in expired:
                if not waiter.future.done():
                    waiter.future.set_result(("expired", "deadline passed before dispatch"))
            if not cells:
                continue
            self._last_batch_size = len(cells)
            obs_metrics.inc("service/batches")
            obs_metrics.inc("service/batched_cells", len(cells))
            exec_cells = [c.work for c in cells]
            try:
                outcomes = await self._executor.solve_batch(exec_cells)
            except Exception as exc:  # noqa: BLE001 - dispatch must survive
                outcomes = None
                message = f"dispatch failed: {type(exc).__name__}: {exc}"
            for i, cell in enumerate(cells):
                if outcomes is None:
                    self._resolve_cell(cell, ("error", message))
                    continue
                outcome = outcomes[i]
                if outcome.ok:
                    assert outcome.result is not None
                    r = outcome.result
                    payload = {
                        "mis_size": r.mis_size,
                        "independent_set": r.independent_set.tolist(),
                        "num_rounds": r.num_rounds,
                        "depth": r.depth,
                        "work": r.work,
                        "solve_ms": round(r.wall_ns / 1e6, 3),
                    }
                    self._cache.put(cell.key, payload)
                    self._solved_cells += 1
                    obs_metrics.inc("service/solved_cells")
                    self._resolve_cell(cell, ("ok", payload))
                else:
                    obs_metrics.inc("service/solve_errors")
                    self._resolve_cell(cell, ("error", outcome.error))

    def _resolve_cell(self, cell: PendingCell, outcome: tuple[str, Any]) -> None:
        for waiter in self._batcher.resolve(cell):
            if not waiter.future.done():
                waiter.future.set_result(outcome)

    # -- transports -------------------------------------------------------
    async def _handle_jsonl(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """JSON-lines over the unix socket; requests pipeline freely.

        Each line spawns its own task so a slow solve never blocks later
        lines on the same connection; a per-connection lock serialises the
        interleaved response writes.
        """
        obs_metrics.inc("service/connections")
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def answer(doc_or_error) -> None:
            if isinstance(doc_or_error, dict):
                response = await self._answer(doc_or_error)
            else:
                response = doc_or_error
            async with write_lock:
                writer.write(encode_line(response))
                with contextlib.suppress(ConnectionError):
                    await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    doc = decode_line(line)
                except ProtocolError as exc:
                    doc = error_response("", "bad_request", str(exc))
                task = asyncio.create_task(answer(doc))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server stopping with the connection open
        finally:
            for task in tasks:
                task.cancel()
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.1: POST /solve, GET /metrics, GET /healthz.

        One request per connection (``Connection: close``) — the HTTP
        transport exists for curl/scrape ergonomics; high-rate clients
        should pipeline JSON lines over the unix socket.
        """
        obs_metrics.inc("service/http_requests")
        try:
            request_line = (await reader.readline()).decode("latin-1").strip()
            parts = request_line.split()
            if len(parts) != 3:
                await self._http_reply(writer, 400, "text/plain", b"bad request line\n")
                return
            method, target, _version = parts
            headers: dict[str, str] = {}
            while True:
                raw = await reader.readline()
                line = raw.decode("latin-1").strip()
                if not line:
                    break
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            if method == "GET" and target == "/healthz":
                await self._http_reply(writer, 200, "text/plain", b"ok\n")
            elif method == "GET" and target == "/metrics":
                from repro.obs.export import render_openmetrics
                from repro.obs.metrics import default_registry

                for name, value in self.liveness_gauges().items():
                    default_registry().gauge(name).set(value)
                text = render_openmetrics(
                    default_registry().snapshot(), labels={"command": "serve"}
                )
                await self._http_reply(
                    writer,
                    200,
                    "application/openmetrics-text; version=1.0.0",
                    text.encode("utf-8"),
                )
            elif method == "POST" and target == "/solve":
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = -1
                if length < 0:
                    await self._http_reply(writer, 400, "text/plain", b"bad content-length\n")
                    return
                body = await reader.readexactly(length) if length else b""
                try:
                    doc = decode_line(body)
                except ProtocolError as exc:
                    response = error_response("", "bad_request", str(exc))
                else:
                    response = await self._answer(doc)
                status = 200 if response.get("status") == "ok" else _http_status(response)
                await self._http_reply(
                    writer,
                    status,
                    "application/json",
                    json.dumps(response).encode("utf-8") + b"\n",
                )
            else:
                await self._http_reply(writer, 404, "text/plain", b"not found\n")
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass
        except asyncio.CancelledError:
            pass  # server stopping with the connection open
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    @staticmethod
    async def _http_reply(
        writer: asyncio.StreamWriter, status: int, ctype: str, body: bytes
    ) -> None:
        reason = _HTTP_REASONS.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- introspection ----------------------------------------------------
    def liveness_gauges(self) -> dict[str, float]:
        """Service gauges for the heartbeat's ``extra`` hook.

        Queue depth, in-flight cells, last batch occupancy, cache hit
        rate and request-latency p50/p99 (ms) over the ring buffer —
        published through the existing heartbeat/OpenMetrics path.
        """
        sample = sorted(self._latencies_ns)
        return {
            "service/queue_depth": float(self._batcher.depth),
            "service/pending_requests": float(self._batcher.pending_requests),
            "service/inflight_cells": float(self._batcher.inflight),
            "service/batch_occupancy": self._last_batch_size / self.config.max_batch,
            "service/cache_hit_rate": round(self._cache.hit_rate, 4),
            "service/cache_size": float(len(self._cache)),
            "service/latency_p50_ms": round(_percentile(sample, 0.50) / 1e6, 3),
            "service/latency_p99_ms": round(_percentile(sample, 0.99) / 1e6, 3),
        }

    def stats(self) -> dict[str, Any]:
        """The ``stats`` op payload: counters, cache and queue occupancy."""
        return {
            "uptime_s": round(time.monotonic() - self._t_start, 3),
            "workers": self._executor.workers,
            "requests": self._requests,
            "solved_cells": self._solved_cells,
            "instances": len(self._instances),
            "cache": {
                "size": len(self._cache),
                "capacity": self._cache.capacity,
                "hits": self._cache.hits,
                "misses": self._cache.misses,
                "evictions": self._cache.evictions,
                "hit_rate": round(self._cache.hit_rate, 4),
            },
            "queue": {
                "depth": self._batcher.depth,
                "pending_requests": self._batcher.pending_requests,
                "inflight_cells": self._batcher.inflight,
                "limit": self.config.queue_limit,
            },
            "batch": {
                "max_batch": self.config.max_batch,
                "last_size": self._last_batch_size,
            },
            "gauges": self.liveness_gauges(),
        }


class ServerThread:
    """Host a :class:`SolveServer` on a background thread (own event loop).

    For synchronous callers — tests, the m03 load benchmark, anything
    that wants a live server without running asyncio itself::

        with ServerThread(config) as handle:
            client = SolveClient(config.socket_path)
            ...

    ``start`` blocks until the transports are bound; ``stop`` is
    idempotent and joins the thread.
    """

    def __init__(self, config: ServerConfig):
        self.config = config
        self.server: SolveServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None

    def start(self, timeout: float = 10.0) -> "ServerThread":
        if self._thread is not None:
            raise RuntimeError("server thread already running")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server thread failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = SolveServer(self.config)
        try:
            await self.server.start()
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._error = exc
            self._started.set()
            return
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await self.server.stop()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


def _http_status(response: Mapping[str, Any]) -> int:
    return {
        "rejected": 429,
        "expired": 504,
        "bad_request": 400,
        "error": 500,
    }.get(str(response.get("status")), 500)
