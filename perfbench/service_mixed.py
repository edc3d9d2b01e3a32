"""Workload ``service-mixed``: an open loop against ``repro serve --workers 1``.

Requests arrive on a seeded Poisson schedule at a fixed rate (about a
seventh of the measured capacity of ``--workers 1`` on a 2-CPU box) over
at most two unix-socket connections.  A run replays the schedule
``REPLAYS`` times, each on a fresh server.  The mix:

* instance sizes are heavy-tailed over 60–3200 vertices (d=3, m ≈ 1.9 n),
  so 0.6% of request lines (the fresh instances above ~2200 vertices)
  exceed the server's 64 KiB line limit.  Today such a request drops its
  connection.  The load generator sends these on a connection of their
  own, counts every request outstanding on a dropped connection as
  failed, and reconnects;
* bl, sbl, kuw and greedy are mixed;
* about 30% of requests repeat an earlier (instance, algorithm, seed)
  cell that can be answered, so they hit the result cache or coalesce with
  a cell in flight;
* about 10% refer by ``content_hash`` to instances published before the
  timed window.

Latency is measured from each request's scheduled send time; a failed or
unanswered request enters at the generator's timeout.  Each request's
latency is its median over the replays.  The protocol, batching,
cache and exec layers do the work here, with the same solvers as
``solve-files``.
"""

from __future__ import annotations

import asyncio
import contextlib
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.service.client import SolveClient
from repro.service.protocol import encode_instance, encode_line

from common import (
    ROOT,
    RUN_DIR,
    SRC,
    Outcome,
    descendants,
    latency_metrics,
    layer_table,
    vm_hwm_mb,
)

#: Offered load (requests per second).  On a 2-CPU Xeon (2.1 GHz) VM this
#: mix against ``--workers 1`` kept p95 under the 500 ms limit up to 200
#: requests/s (p50 25 ms, p95 240 ms) and fell behind at 240/s.  Below that,
#: requests still queue behind one another in the server and its worker, and
#: how long they wait swings with the machine's speed: at 80 and 120/s p95
#: spread 42–108 ms between runs, and at 40/s still 0.3 of its median.  At
#: 30/s a request seldom waits for another.
RATE_PER_S = 30.0
#: A run replays one schedule this many times, each on a fresh server, and
#: takes each request's median latency over the replays.  The same requests
#: at the same offsets queue the same way each time, so the median keeps
#: the schedule's queueing and drops most of a slow spell of the machine,
#: which rarely covers all replays.
REPLAYS = 3
CONNECTIONS = 2
ALGORITHMS = ("bl", "sbl", "kuw", "greedy")
#: With this tail 0.6% of requests exceed the 64 KiB line limit, the same
#: share for every seed since the sizes are stratified.  Failed requests
#: enter p95 at the timeout, so a larger share pushes p95 deeper into the
#: tail: at 2% it spread twice as much between runs.
MIN_N, MAX_N, TAIL_ALPHA = 60, 3200, 1.3
EDGES_PER_VERTEX = 1.875
REPEAT_FRACTION, BY_HASH_FRACTION = 0.30, 0.10
CATALOG_SIZE = 8
#: A request still unanswered this long after its due time has failed.
TIMEOUT_S = 2.0
#: Per-request deadline sent to the server (queued past it: ``expired``).
DEADLINE_MS = 1000.0
#: Goodput counts ``ok`` responses within this limit of their due time.
LATENCY_LIMIT_MS = 500.0
LINE_LIMIT = 64 * 1024
#: Every request is well formed, so these statuses mean the server failed
#: one it should have solved (its own ``check_mis`` rejected the set, or
#: the solve crashed): a wrong answer, unlike load shedding (``rejected``,
#: ``expired``) or a dropped connection.
WRONG_STATUSES = ("error", "bad_request")
GOLDEN = (5**0.5 - 1) / 2


@dataclass
class Request:
    id: str
    due_s: float
    line: bytes
    cell: tuple[str, str, int]  # (content_hash, algorithm, seed)
    sent_s: float | None = None
    done_s: float | None = None
    response: dict | None = None
    error: str | None = None


@dataclass
class Schedule:
    requests: list[Request]
    instances: dict[str, object]  # content_hash -> Hypergraph
    catalog: list[dict]  # solve requests that publish the by-hash instances
    oversized: int = 0


def build_schedule(seed: int, seconds: float) -> Schedule:
    """The seeded request mix; the same seed gives the same bytes."""
    from repro.generators import uniform_hypergraph

    rng = np.random.default_rng([seed, 3])
    instances: dict[str, object] = {}
    encoded: dict[str, dict] = {}

    def new_instance(n: int) -> str:
        H = uniform_hypergraph(
            n, int(round(EDGES_PER_VERTEX * n)), 3, seed=int(rng.integers(2**31))
        )
        key = H.content_hash()
        instances[key] = H
        encoded[key] = encode_instance(H)
        return key

    catalog = [new_instance(int(rng.integers(MIN_N, 400))) for _ in range(CATALOG_SIZE)]
    catalog_docs = [
        {"id": f"warm-{i}", "algorithm": "greedy", "seed": 10**6 + i,
         "instance": encoded[key]}
        for i, key in enumerate(catalog)
    ]
    # The mix is stratified so that every seed draws the same multiset of
    # request kinds and the same (size, algorithm) pairs for fresh instances.  The sizes sit on
    # the fresh slots in golden-ratio order from a seeded offset, which
    # spreads the large ones evenly over the window; the seed also picks
    # the instances' edges, the solver seeds, the repeated cells and the
    # arrival times (a Poisson process conditioned on its count).
    total = int(round(RATE_PER_S * seconds))
    due = np.sort(rng.uniform(0.0, seconds, total))
    repeats = int(round(REPEAT_FRACTION * total))
    by_hash_count = int(round(BY_HASH_FRACTION * total))
    kinds = rng.permutation(
        ["repeat"] * repeats + ["hash"] * by_hash_count
        + ["fresh"] * (total - repeats - by_hash_count)
    )
    first_hash = int(np.flatnonzero(kinds == "hash")[0])
    kinds[[0, first_hash]] = kinds[[first_hash, 0]]  # nothing to repeat yet
    fresh = np.flatnonzero(kinds == "fresh")
    # Truncated Pareto quantiles, largest first: P(n > x) = (MIN_N / x) ** alpha.
    q = (np.arange(fresh.size) + 0.5) / fresh.size
    sizes = np.minimum(MAX_N, (MIN_N * q ** (-1.0 / TAIL_ALPHA)).astype(int))
    slot = np.argsort(np.argsort((rng.random() + np.arange(fresh.size) * GOLDEN) % 1.0))
    size_of = dict(zip(fresh[slot].tolist(), sizes.tolist()))
    # Cycle the algorithms along the sizes, so each sees the same sizes.
    algorithm_of = {
        int(fresh[slot[k]]): ALGORITHMS[k % len(ALGORITHMS)] for k in range(fresh.size)
    }
    requests: list[Request] = []
    # A repeat asks again for a cell that can be answered; a request over
    # the line limit never is, so repeating it would only add failures, and
    # a seed-dependent number of them.
    answerable: list[tuple[str, str, int]] = []
    for i in range(total):
        by_hash = kinds[i] == "hash"
        if kinds[i] == "repeat":
            cell = answerable[int(rng.integers(len(answerable)))]
        else:
            if by_hash:
                key = catalog[i % CATALOG_SIZE]
                algorithm = ALGORITHMS[(i // CATALOG_SIZE) % len(ALGORITHMS)]
            else:
                key, algorithm = new_instance(size_of[i]), algorithm_of[i]
            cell = (key, algorithm, int(rng.integers(1000)))
        doc = {"id": str(i), "algorithm": cell[1], "seed": cell[2],
               "deadline_ms": DEADLINE_MS}
        if by_hash:
            doc["content_hash"] = cell[0]
        else:
            doc["instance"] = encoded[cell[0]]
        line = encode_line(doc)
        if kinds[i] != "repeat" and len(line) <= LINE_LIMIT:
            answerable.append(cell)
        requests.append(Request(doc["id"], float(due[i]), line, cell))
    oversized = sum(1 for r in requests if len(r.line) > LINE_LIMIT)
    return Schedule(requests, instances, catalog_docs, oversized)


# -- the server process ------------------------------------------------------


class Server:
    """One ``repro serve --workers 1`` subprocess on a socket in RUN_DIR."""

    def __init__(self, name: str, ledger_out: Path | None = None):
        RUN_DIR.mkdir(parents=True, exist_ok=True)
        self.socket = str((RUN_DIR / f"{name}.sock").relative_to(ROOT))
        self.log_path = RUN_DIR / f"{name}.log"
        if ledger_out is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("traced_serve.py")),
                   str(ledger_out)]
        cmd += ["--socket", self.socket, "--workers", "1"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log,
                preexec_fn=_die_with_parent,
            )

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus its worker(s), read while they live."""
        pids = [self.proc.pid, *descendants(self.proc.pid)]
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.returncode == 0:
            self.log_path.unlink(missing_ok=True)

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""


def _die_with_parent() -> None:
    """Runs in the server child: SIGTERM it if the benchmark dies first."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


def _wait_ready(server: Server, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while True:
        if server.proc.poll() is not None:
            raise RuntimeError(f"server exited early:\n{server.log_tail()}")
        try:
            with SolveClient(server.socket) as client:
                if client.ping():
                    return
        except (FileNotFoundError, ConnectionError):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"server not ready after {timeout_s}s:\n{server.log_tail()}")
        time.sleep(0.02)


def start_server(name: str, schedule: Schedule, ledger_out: Path | None = None) -> Server:
    """Start a server, wait for it, publish the catalog (warms the pool)."""
    server = Server(name, ledger_out)
    try:
        _wait_ready(server)
        with SolveClient(server.socket) as client:
            warm = [client.request(doc) for doc in schedule.catalog]
        if any(doc.get("status") != "ok" for doc in warm):
            raise RuntimeError(f"catalog publish failed: {warm}")
    except BaseException:
        server.stop()
        raise
    return server


def server_stats(server: Server) -> dict:
    with SolveClient(server.socket) as client:
        return client.stats()


# -- the open-loop load generator --------------------------------------------


@dataclass
class _Connection:
    socket: str
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None
    outstanding: dict[str, Request] = field(default_factory=dict)


class LoadGenerator:
    """Send each request at its due time; never wait for earlier replies.

    Requests over the server's line limit go on the second connection and
    all others on the first.  When a connection drops, every request
    outstanding on it fails and the next send reconnects.  Since only
    over-limit requests share a connection with a drop, which requests fail
    is a function of the schedule, not of timing.
    """

    def __init__(self, socket: str):
        self.conns = [_Connection(socket) for _ in range(CONNECTIONS)]
        self.dropped_connections = 0
        self.t0 = 0.0
        self.readers: list[asyncio.Task] = []
        self.closing = False

    async def _connect(self, conn: _Connection) -> None:
        conn.reader, conn.writer = await asyncio.open_unix_connection(
            conn.socket, limit=2**24
        )
        conn.outstanding = {}
        self.readers.append(
            asyncio.create_task(self._read(conn, conn.reader, conn.outstanding))
        )

    def _drop(self, conn: _Connection, outstanding: dict, why: str) -> None:
        """Fail everything outstanding on a dead connection (once)."""
        if self.closing or conn.outstanding is not outstanding:
            return  # our own shutdown, or already replaced by a reconnect
        self.dropped_connections += 1
        now = time.perf_counter()
        for req in outstanding.values():
            req.error, req.done_s = why, now
        outstanding.clear()
        conn.outstanding = {}
        if conn.writer is not None:
            conn.writer.close()
        conn.reader = conn.writer = None

    async def _read(self, conn: _Connection, reader, outstanding: dict) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                now = time.perf_counter()
                doc = json.loads(line)
                req = outstanding.pop(doc.get("id"), None)
                if req is not None:
                    req.response, req.done_s = doc, now
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass
        self._drop(conn, outstanding, "connection dropped")

    async def _send_all(self, conn: _Connection, requests: list[Request]) -> None:
        for req in requests:
            delay = self.t0 + req.due_s - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if conn.writer is None:
                try:
                    await self._connect(conn)
                except (ConnectionError, FileNotFoundError) as exc:
                    req.error, req.done_s = f"connect failed: {exc}", time.perf_counter()
                    continue
            req.sent_s = time.perf_counter()
            conn.outstanding[req.id] = req
            try:
                conn.writer.write(req.line)
                await conn.writer.drain()
            except ConnectionError:
                self._drop(conn, conn.outstanding, "connection dropped on send")

    async def run(self, requests: list[Request]) -> None:
        for conn in self.conns:
            await self._connect(conn)
        self.t0 = time.perf_counter() + 0.05
        lanes = (
            [r for r in requests if len(r.line) <= LINE_LIMIT],
            [r for r in requests if len(r.line) > LINE_LIMIT],
        )
        senders = [
            asyncio.create_task(self._send_all(conn, lane))
            for conn, lane in zip(self.conns, lanes)
        ]
        await asyncio.gather(*senders)
        # Wait for the stragglers until the last one's timeout.
        limit = self.t0 + requests[-1].due_s + TIMEOUT_S if requests else 0.0
        while any(c.outstanding for c in self.conns) and time.perf_counter() < limit:
            await asyncio.sleep(0.01)
        self.closing = True
        for conn in self.conns:
            if conn.writer is not None:
                conn.writer.close()
                with contextlib.suppress(ConnectionError):
                    await conn.writer.wait_closed()
        # The readers were cancelled here, by their owner: swallow that.
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)


# -- measurement -------------------------------------------------------------


@dataclass
class Window:
    """The load generator's view of one timed window."""

    latencies_ms: list[float]
    ok_latencies_ms: list[float]
    late_ms: list[float]
    ok: list[Request]
    statuses: dict[str, int]
    dropped_connections: int
    #: From the first due time to the last answer (or the last due time).
    span_s: float


def _summarise(gen: LoadGenerator, requests: list[Request]) -> Window:
    timeout_ms = TIMEOUT_S * 1000.0
    latencies, ok_latencies, late, ok = [], [], [], []
    statuses: dict[str, int] = {}
    for req in requests:
        if req.sent_s is not None:
            late.append((req.sent_s - gen.t0 - req.due_s) * 1000.0)
        status = req.response.get("status") if req.response else None
        if status is None:
            status = "dropped" if req.error else "unanswered"
        elif (req.done_s - gen.t0 - req.due_s) * 1000.0 > timeout_ms:
            status = "unanswered"  # answered only after the generator gave up
        if status == "ok":
            latency = (req.done_s - gen.t0 - req.due_s) * 1000.0
            latencies.append(latency)
            ok_latencies.append(latency)
            ok.append(req)
        else:
            latencies.append(timeout_ms)
        statuses[status] = statuses.get(status, 0) + 1
    ends = [r.done_s - gen.t0 for r in requests if r.done_s is not None]
    span_s = max(ends + [requests[-1].due_s]) if requests else 0.0
    return Window(
        latencies, ok_latencies, late, ok, statuses, gen.dropped_connections, span_s
    )


async def _timed_window(server: Server, requests: list[Request]) -> tuple[Window, dict, dict]:
    before = server_stats(server)
    gen = LoadGenerator(server.socket)
    await gen.run(requests)
    after = server_stats(server)
    return _summarise(gen, requests), before, after


def _verify(
    schedule: Schedule, window: Window, expected: dict[tuple, np.ndarray]
) -> tuple[int, bool]:
    """Certify every ok response and compare it with an in-process solve.

    *expected* caches the in-process solves by cell across windows.
    Returns (ok responses that failed, whole window correct); a response
    with one of ``WRONG_STATUSES`` makes the window incorrect too.
    """
    from repro.hypergraph import check_mis
    from repro.service.server import default_algorithms

    solvers = default_algorithms()
    bad = 0
    wrong = {s: n for s, n in window.statuses.items() if s in WRONG_STATUSES}
    if wrong:
        print(f"service-mixed: well-formed requests failed: {wrong}", file=sys.stderr)
    for req in window.ok:
        key, algorithm, seed = req.cell
        H = schedule.instances[key]
        got = np.asarray(req.response["independent_set"], dtype=np.intp)
        if req.cell not in expected:
            expected[req.cell] = solvers[algorithm](H, seed=seed).independent_set
        try:
            check_mis(H, got)
        except ValueError as exc:
            print(f"service-mixed: response {req.cell[1:]} not an MIS: {exc}", file=sys.stderr)
            bad += 1
            continue
        if req.response["content_hash"] != key or not np.array_equal(got, expected[req.cell]):
            print(f"service-mixed: response {req.cell[1:]} differs from a direct solve",
                  file=sys.stderr)
            bad += 1
    return bad, bad == 0 and not wrong


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    return asyncio.run(_run(seed, seconds, trace))


async def _run(seed: int, seconds: float, trace: bool) -> Outcome:
    # The traced run has two windows: one untraced, one traced.
    schedule = build_schedule(seed, seconds / (2 if trace else REPLAYS))
    requests = schedule.requests
    name = f"serve-{os.getpid()}"
    expected: dict[tuple, np.ndarray] = {}
    report = [
        f"schedule: {len(requests)} requests at {RATE_PER_S:g}/s, "
        f"{schedule.oversized} over the {LINE_LIMIT // 1024} KiB line limit"
    ]
    if not trace:
        setups, windows, peaks, ok_counts, goods = [], [], [], [], []
        correct = True
        for _ in range(REPLAYS):
            for req in requests:
                req.sent_s = req.done_s = req.response = req.error = None
            t0 = time.perf_counter()
            server = start_server(name, schedule)
            setups.append(time.perf_counter() - t0)
            try:
                window, _, _ = await _timed_window(server, requests)
                peaks.append(server.peak_rss_mb())
            finally:
                server.stop()
            bad, checked = _verify(schedule, window, expected)
            correct &= checked
            windows.append(window)
            ok_counts.append(len(window.ok) - bad)
            good = sum(1 for x in window.ok_latencies_ms if x <= LATENCY_LIMIT_MS)
            goods.append(max(good - bad, 0))
        attempted = REPLAYS * len(requests)
        # Each request's median over the replays (requests are in schedule
        # order in every window).
        per_request = np.median([w.latencies_ms for w in windows], axis=0)
        lat, note = latency_metrics(per_request.tolist())
        spans = [w.span_s for w in windows]
        report.append(f"{note}; each a request's median over {REPLAYS} replays")
        for w in windows:
            report.append(
                f"replay: statuses {w.statuses}, dropped connections "
                f"{w.dropped_connections}, generator late p95 "
                f"{np.percentile(w.late_ms, 95):.3f} ms"
            )
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(n / t for n, t in zip(ok_counts, spans)),
            "goodput_per_s": statistics.median(g / t for g, t in zip(goods, spans)),
            **lat,
            "ok_fraction": sum(ok_counts) / attempted,
            "peak_rss_mb": statistics.median(peaks),
        }
        return Outcome(attempted, attempted - sum(ok_counts), correct, metrics, report)

    # Traced run: the same schedule against an untraced server, then against
    # a fresh server started through traced_serve.py, which books the
    # service layers' self time inside the server process.
    plain_server = start_server(name, schedule)
    try:
        plain, _, _ = await _timed_window(plain_server, requests)
    finally:
        plain_server.stop()
    plain_bad, plain_correct = _verify(schedule, plain, expected)
    plain_ok = len(plain.ok)
    for req in requests:
        req.sent_s = req.done_s = req.response = req.error = None
    ledger_path = RUN_DIR / f"{name}-ledger.json"
    traced_server = start_server(name, schedule, ledger_out=ledger_path)
    try:
        traced, before, after = await _timed_window(traced_server, requests)
    finally:
        traced_server.stop()
    try:
        server_ledger = json.loads(ledger_path.read_text())
    finally:
        ledger_path.unlink(missing_ok=True)
    bad, correct = _verify(schedule, traced, expected)
    metrics, lines = _traced_metrics(plain, traced, before, after, server_ledger)
    attempted = 2 * len(requests)
    failed = attempted - (plain_ok - plain_bad + len(traced.ok) - bad)
    return Outcome(attempted, failed, plain_correct and correct, metrics, report + lines)


def _traced_metrics(
    plain: Window, traced: Window, before: dict, after: dict, server_ledger: dict
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced window, and the ledger table."""
    ok = traced.ok
    n_ok = max(len(ok), 1)
    transport = solve = queue = 0.0
    for req in ok:
        r = req.response
        solve_ms = 0.0 if r.get("cached") else float(r.get("solve_ms", 0.0))
        transport += (req.done_s - req.sent_s) * 1000.0 - r["wall_ms"]
        queue += r["wall_ms"] - solve_ms
        solve += solve_ms
    served = max(after["requests"] - before["requests"], 1)
    self_ns = server_ledger["self_ns"]
    counts = server_ledger["counts"]
    service_self = sum(v for k, v in self_ns.items() if k.startswith("service.")) / 1e6 / served
    exec_self = sum(v for k, v in self_ns.items() if k.startswith("exec.")) / 1e6 / served
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    mean_latency = statistics.fmean(traced.ok_latencies_ms) if ok else 0.0
    mean_late = statistics.fmean(traced.late_ms) if traced.late_ms else 0.0
    unattributed = mean_latency - mean_late - solve / n_ok - service_self - exec_self
    p50_plain = statistics.median(plain.latencies_ms)
    p50_traced = statistics.median(traced.latencies_ms)
    metrics = {
        "service.self_ms": service_self,
        "service.transport_ms": transport / n_ok,
        "service.queue_wait_ms": queue / n_ok,
        "service.solve_ms": solve / n_ok,
        "service.cache_hit_fraction": hits / max(hits + misses, 1),
        "service.coalesced_fraction": sum(1 for r in ok if r.response.get("coalesced")) / n_ok,
        "service.batch_size_mean": counts.get("exec.cells", 0.0)
        / max(counts.get("exec.batches", 0.0), 1.0),
        "service.rejected_count": float(traced.statuses.get("rejected", 0)),
        "service.expired_count": float(traced.statuses.get("expired", 0)),
        "service.dropped_connections": float(traced.dropped_connections),
        "exec.self_ms": exec_self,
        "driver.late_p95_ms": float(np.percentile(traced.late_ms, 95)) if traced.late_ms else 0.0,
        "unattributed_ms": unattributed,
        "obs.trace_overhead_fraction": p50_traced / p50_plain - 1.0,
    }
    lines = layer_table(
        "service-mixed layer ledger (from each ok request's due time)",
        {"generator-late": mean_late, "service": service_self, "exec": exec_self,
         "solve": solve / n_ok},
        unattributed,
        len(ok),
    )
    lines.append(
        f"untraced server p50 {p50_plain:.3f} ms vs traced server p50 "
        f"{p50_traced:.3f} ms: tracing overhead {metrics['obs.trace_overhead_fraction']:.1%}"
    )
    return metrics, lines
