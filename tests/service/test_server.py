"""SolveServer end to end: coalescing, cache, overload, failure isolation.

Every test hosts a real server on a background thread (:class:`ServerThread`)
and talks to it over the unix socket — the same transport production
clients use.  Concurrency (for the coalescing and admission tests) comes
from :func:`run_load`, which pipelines requests across connections.

The server dispatches a request as soon as its executor is free, so tests
that need requests to wait in the queue first occupy the executor with a
:class:`_Held` solve and open it once the server has taken every request.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import beame_luby, greedy_mis
from repro.generators import uniform_hypergraph
from repro.hypergraph.hio import dump as hio_dump
from repro.obs import metrics
from repro.service import (
    ServerConfig,
    ServerThread,
    ServiceError,
    SolveClient,
    encode_instance,
    run_load,
)

_H1 = uniform_hypergraph(40, 80, 3, seed=5)
_H2 = uniform_hypergraph(25, 50, 3, seed=6)


def _boom(H, seed, machine=None, **options):
    """A served 'solver' that always fails (failure-isolation tests)."""
    raise RuntimeError("boom")


class _Held:
    """A served 'solver' that blocks until :meth:`release`.

    While it runs the executor is busy: requests that arrive meanwhile
    queue (or coalesce onto its cell) and leave as the next batch.  Once
    released it solves as :func:`beame_luby`, or with ``fail=True`` raises,
    so that it adds no solved cell.  The gate is a file under *tmp_path*,
    so a held solve in a worker process sees the release too.
    """

    def __init__(self, tmp_path, *, fail: bool = False):
        self.fail = fail
        self._gate = tmp_path / "held.gate"

    def release(self) -> None:
        self._gate.touch()

    def __call__(self, H, seed, machine=None, **options):
        deadline = time.monotonic() + 30
        while not self._gate.exists():
            if time.monotonic() > deadline:
                raise TimeoutError("held solve was never released")
            time.sleep(0.001)
        if self.fail:
            raise RuntimeError("held solve failed on purpose")
        return beame_luby(H, seed, machine=machine, **options)


def _config(tmp_path, **over) -> ServerConfig:
    defaults = dict(socket_path=tmp_path / "repro.sock")
    defaults.update(over)
    return ServerConfig(**defaults)


def _held_config(tmp_path, held: _Held, **over) -> ServerConfig:
    algorithms = {"bl": beame_luby, "greedy": greedy_mis, "boom": _boom, "held": held}
    return _config(tmp_path, algorithms=algorithms, **over)


@contextlib.contextmanager
def _serving(config: ServerConfig, held: _Held):
    """A live server, a client and a thread pool; *held* is released on exit."""
    with ServerThread(config) as handle, ThreadPoolExecutor(4) as pool:
        try:
            with SolveClient(config.socket_path) as client:
                yield handle, client, pool
        finally:
            held.release()


def _wait_for(client: SolveClient, ready, timeout: float = 10.0) -> dict:
    """Poll the server's stats until ``ready(stats)`` holds; return them."""
    deadline = time.monotonic() + timeout
    while not ready(stats := client.stats()):
        assert time.monotonic() < deadline, f"server never got there: {stats}"
        time.sleep(0.002)
    return stats


def _request(socket_path, doc) -> dict:
    with SolveClient(socket_path) as client:
        return client.request(doc)


def _hold(client: SolveClient, pool, socket_path):
    """Put a held solve in flight (on ``_H2``); returns its response future."""
    future = pool.submit(_request, socket_path, _solve_doc(_H2, "held", 0, req_id="held"))
    _wait_for(client, lambda s: s["queue"]["inflight_cells"] == 1 and s["queue"]["depth"] == 0)
    return future


def _load(pool, socket_path, docs, connections: int):
    """Run :func:`run_load` on a pool thread; returns the report future."""
    return pool.submit(
        lambda: asyncio.run(run_load(socket_path, docs, connections=connections))
    )


def _solve_doc(H, algorithm="bl", seed=0, req_id=None, **extra):
    doc = {"op": "solve", "algorithm": algorithm, "seed": seed, "instance": encode_instance(H)}
    if req_id is not None:
        doc["id"] = req_id
    doc.update(extra)
    return doc


class TestCoalescing:
    def test_concurrent_duplicates_cost_one_solve(self, tmp_path):
        # The first duplicate's solve is held, so the other seven arrive
        # while its cell is queued or in flight and attach to it.
        held = _Held(tmp_path)
        config = _held_config(tmp_path, held)
        docs = [_solve_doc(_H1, "held", 3, req_id=f"r{i}") for i in range(8)]
        with _serving(config, held) as (handle, client, pool):
            load = _load(pool, config.socket_path, docs, connections=8)
            _wait_for(client, lambda s: s["requests"] == 8)
            held.release()
            report = load.result(timeout=30)
            stats = client.stats()
        assert report.ok == 8 and report.errors == 0
        assert report.coalesced == 7  # all but the cell-creating request
        assert stats["solved_cells"] == 1
        # every response carries the byte-identical payload of a direct solve
        direct = beame_luby(_H1, 3)
        for response in report.responses:
            assert response["mis_size"] == direct.size
            assert response["independent_set"] == direct.independent_set.tolist()
            assert response["num_rounds"] == direct.num_rounds
        assert handle.server is not None

    def test_repeat_request_is_a_cache_hit(self, tmp_path):
        config = _config(tmp_path)
        with ServerThread(config):
            with SolveClient(config.socket_path) as client:
                first = client.solve(_H1, algorithm="bl", seed=9)
                again = client.solve(_H1, algorithm="bl", seed=9)
                by_hash = client.solve(
                    algorithm="bl", seed=9, content_hash=_H1.content_hash()
                )
                stats = client.stats()
        assert first["cached"] is False
        assert again["cached"] is True and by_hash["cached"] is True
        for key in ("mis_size", "independent_set", "num_rounds"):
            assert again[key] == first[key] == by_hash[key]
        assert stats["solved_cells"] == 1
        assert stats["cache"]["hits"] == 2

    def test_different_seeds_are_different_cells(self, tmp_path):
        config = _config(tmp_path)
        with ServerThread(config):
            with SolveClient(config.socket_path) as client:
                a = client.solve(_H1, algorithm="bl", seed=1)
                b = client.solve(_H1, algorithm="bl", seed=2)
                stats = client.stats()
        assert a["cached"] is False and b["cached"] is False
        assert stats["solved_cells"] == 2


class TestCacheEviction:
    def test_lru_bound_holds_under_distinct_cells(self, tmp_path):
        config = _config(tmp_path, cache_size=2)
        with ServerThread(config):
            with SolveClient(config.socket_path) as client:
                for seed in (0, 1, 2):
                    client.solve(_H1, algorithm="greedy", seed=seed)
                stats = client.stats()
                # seed 0 was evicted (LRU); seed 2 is still resident
                refetch_old = client.solve(_H1, algorithm="greedy", seed=0)
                refetch_new = client.solve(_H1, algorithm="greedy", seed=2)
        assert stats["cache"]["size"] == 2
        assert stats["cache"]["evictions"] == 1
        assert refetch_old["cached"] is False
        assert refetch_new["cached"] is True


class TestOverload:
    def test_deadline_expires_before_dispatch(self, tmp_path):
        # A held (and then failing) solve keeps the executor busy past the
        # deadline, so the request must be answered 'expired' without ever
        # reaching a solver.
        held = _Held(tmp_path, fail=True)
        config = _held_config(tmp_path, held)

        def solve_late():
            with SolveClient(config.socket_path) as late:
                return late.solve(_H1, algorithm="bl", seed=0, deadline_ms=25)

        with _serving(config, held) as (_, client, pool):
            holder = _hold(client, pool, config.socket_path)
            answer = pool.submit(solve_late)
            _wait_for(client, lambda s: s["queue"]["depth"] == 1)
            time.sleep(0.05)  # past the deadline, still queued
            held.release()
            with pytest.raises(ServiceError) as excinfo:
                answer.result(timeout=30)
            assert holder.result(timeout=30)["status"] == "error"
            stats = client.stats()
        assert excinfo.value.status == "expired"
        assert stats["solved_cells"] == 0

    def test_admission_rejects_past_queue_limit(self, tmp_path):
        held = _Held(tmp_path)
        config = _held_config(tmp_path, held, queue_limit=1)
        docs = [_solve_doc(_H1, "bl", seed, req_id=f"q{seed}") for seed in range(4)]
        with _serving(config, held) as (_, client, pool):
            holder = _hold(client, pool, config.socket_path)
            load = _load(pool, config.socket_path, docs, connections=4)
            _wait_for(client, lambda s: s["requests"] == 5)
            held.release()
            report = load.result(timeout=30)
            assert holder.result(timeout=30)["status"] == "ok"
        assert report.ok >= 1
        assert report.rejected >= 1
        assert report.ok + report.rejected == 4
        assert report.rejected == 3  # one queued behind the held solve
        rejected = [r for r in report.responses if r["status"] == "rejected"]
        assert all(r.get("retry") is True for r in rejected)

    def test_duplicates_coalesce_even_at_the_bound(self, tmp_path):
        held = _Held(tmp_path)
        config = _held_config(tmp_path, held, queue_limit=1)
        docs = [_solve_doc(_H1, "bl", 5, req_id=f"d{i}") for i in range(4)]
        with _serving(config, held) as (_, client, pool):
            holder = _hold(client, pool, config.socket_path)
            load = _load(pool, config.socket_path, docs, connections=4)
            _wait_for(client, lambda s: s["requests"] == 5)
            held.release()
            report = load.result(timeout=30)
            assert holder.result(timeout=30)["status"] == "ok"
        assert report.ok == 4 and report.rejected == 0
        assert report.coalesced == 3


class TestGroupCommit:
    def test_requests_queued_behind_a_batch_leave_as_one_batch(self, tmp_path):
        held = _Held(tmp_path)
        config = _held_config(tmp_path, held)
        docs = [_solve_doc(_H1, "bl", seed, req_id=f"n{seed}") for seed in range(6)]
        with metrics.isolated_registry() as registry:
            with _serving(config, held) as (_, client, pool):
                holder = _hold(client, pool, config.socket_path)
                load = _load(pool, config.socket_path, docs, connections=6)
                _wait_for(client, lambda s: s["queue"]["depth"] == 6)
                held.release()
                report = load.result(timeout=30)
                assert holder.result(timeout=30)["status"] == "ok"
                stats = client.stats()
            counters = registry.snapshot()["counters"]
        assert report.ok == 6
        assert counters["service/batches"] == 2
        assert counters["service/batched_cells"] == 7
        assert stats["batch"]["last_size"] == 6

    def test_lone_request_is_dispatched_at_once(self, tmp_path):
        # An idle server does not wait for company: the answer is back
        # long before a 300 ms gathering window would even have closed.
        config = _config(tmp_path)
        with ServerThread(config):
            with SolveClient(config.socket_path) as client:
                assert client.ping() is True
                t0 = time.perf_counter()
                response = client.solve(_H2, algorithm="greedy", seed=0)
                elapsed = time.perf_counter() - t0
        assert response["cached"] is False
        assert elapsed < 0.3


class TestFailureIsolation:
    def test_crashing_solver_fails_only_its_request(self, tmp_path):
        self._check_failing_cell_fails_only_itself(tmp_path)

    def test_raising_solver_fails_only_its_request_in_a_worker(self, tmp_path):
        self._check_failing_cell_fails_only_itself(tmp_path, workers=1)

    def _check_failing_cell_fails_only_itself(self, tmp_path, **over):
        # Both requests queue behind a held solve, so they share a batch.
        held = _Held(tmp_path)
        config = _held_config(tmp_path, held, **over)
        docs = [
            _solve_doc(_H1, "boom", 0, req_id="bad"),
            _solve_doc(_H1, "bl", 0, req_id="good"),
        ]
        with _serving(config, held) as (_, client, pool):
            holder = _hold(client, pool, config.socket_path)
            load = _load(pool, config.socket_path, docs, connections=2)
            _wait_for(client, lambda s: s["queue"]["depth"] == 2)
            held.release()
            report = load.result(timeout=30)
            assert holder.result(timeout=30)["status"] == "ok"
            assert client.stats()["batch"]["last_size"] == 2
            # the server survives the failed cell and keeps solving
            after = client.solve(_H1, algorithm="bl", seed=1)
        assert report.ok == 1 and report.errors == 1
        failed = next(r for r in report.responses if r["status"] == "error")
        assert failed["id"] == "bad"
        assert "RuntimeError" in failed["error"]
        assert after["mis_size"] == beame_luby(_H1, 1).size


class TestProtocolSurface:
    def test_unexpected_exception_gets_an_error_answer(self, tmp_path, monkeypatch):
        from repro.service import server as server_module

        def explode(*args, **kwargs):
            raise RuntimeError("parser exploded")

        monkeypatch.setattr(server_module, "parse_solve_request", explode)
        config = _config(tmp_path)
        with metrics.isolated_registry() as registry:
            with ServerThread(config):
                with SolveClient(config.socket_path, timeout=1.0) as client:
                    response = client.request(_solve_doc(_H1, req_id="r1"))
                    # the connection outlives the failed request
                    assert client.ping() is True
            counters = registry.snapshot()["counters"]
        assert response["status"] == "error"
        assert response["id"] == "r1"
        assert "RuntimeError: parser exploded" in response["error"]
        assert counters["service/internal_errors"] == 1

    def test_bad_requests_and_ops(self, tmp_path):
        config = _config(tmp_path)
        with ServerThread(config):
            with SolveClient(config.socket_path) as client:
                assert client.ping() is True

                with pytest.raises(ServiceError) as bad_algo:
                    client.solve(_H1, algorithm="nope", seed=0)

                response = client.request(
                    {"op": "solve", "algorithm": "nope", "instance": encode_instance(_H1)}
                )
                assert response["status"] == "bad_request"
                assert "unknown algorithm" in response["error"]

                response = client.request(
                    {"op": "solve", "algorithm": "bl", "content_hash": "deadbeef"}
                )
                assert response["status"] == "bad_request"
                assert "unknown content_hash" in response["error"]

                response = client.request({"op": "wat"})
                assert response["status"] == "bad_request"

                # a non-JSON line gets an answer instead of a dropped connection
                client._sock.sendall(b"{this is not json\n")
                line = client._rfile.readline()
                garbage = json.loads(line)
                assert garbage["status"] == "bad_request"

                stats = client.stats()
        assert bad_algo.value.status == "bad_request"
        assert stats["requests"] >= 3
        assert {"cache", "queue", "batch", "gauges"} <= stats.keys()

    def test_gauges_present_in_stats(self, tmp_path):
        config = _config(tmp_path)
        with ServerThread(config):
            with SolveClient(config.socket_path) as client:
                client.solve(_H2, algorithm="greedy", seed=0)
                gauges = client.stats()["gauges"]
        for name in (
            "service/queue_depth",
            "service/cache_hit_rate",
            "service/latency_p50_ms",
            "service/batch_occupancy",
        ):
            assert name in gauges


class TestPoolMode:
    def test_worker_pool_results_match_direct_solve(self, tmp_path):
        config = _config(tmp_path, workers=1)
        with ServerThread(config):
            with SolveClient(config.socket_path) as client:
                r1 = client.solve(_H1, algorithm="bl", seed=4)
                r2 = client.solve(_H2, algorithm="greedy", seed=4)
                stats = client.stats()
        assert stats["workers"] == 1
        assert stats["instances"] == 2
        d1 = beame_luby(_H1, 4)
        d2 = greedy_mis(_H2, 4)
        assert r1["independent_set"] == d1.independent_set.tolist()
        assert r2["independent_set"] == d2.independent_set.tolist()


class TestHttpTransport:
    def test_solve_metrics_healthz(self, tmp_path):
        config = _config(tmp_path, http=("127.0.0.1", 0))
        with ServerThread(config) as handle:
            assert handle.server is not None
            port = handle.server.http_port
            assert port

            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            body = json.dumps(_solve_doc(_H1, "bl", 7, req_id="h1"))
            conn.request("POST", "/solve", body=body)
            solved = json.loads(conn.getresponse().read())
            conn.close()
            assert solved["status"] == "ok"
            assert solved["id"] == "h1"
            assert solved["mis_size"] == beame_luby(_H1, 7).size

            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("GET", "/healthz")
            assert conn.getresponse().read() == b"ok\n"
            conn.close()

            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("GET", "/metrics")
            metrics_text = conn.getresponse().read().decode("utf-8")
            conn.close()
            assert "repro_service_requests_total" in metrics_text
            assert 'command="serve"' in metrics_text

            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404
            conn.close()

    def test_error_statuses_map_to_http_codes(self, tmp_path):
        config = _config(tmp_path, http=("127.0.0.1", 0))
        with ServerThread(config) as handle:
            assert handle.server is not None
            port = handle.server.http_port
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("POST", "/solve", body=json.dumps({"algorithm": "nope"}))
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["status"] == "bad_request"
            conn.close()

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_a_400(self, tmp_path, length):
        config = _config(tmp_path, http=("127.0.0.1", 0))
        with ServerThread(config) as handle:
            assert handle.server is not None
            port = handle.server.http_port
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall(
                    f"POST /solve HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}".encode()
                )
                reply = b""
                while chunk := sock.recv(4096):
                    reply += chunk
            assert reply.startswith(b"HTTP/1.1 400 "), reply
            assert reply.endswith(b"bad content-length\n"), reply


class TestCLI:
    def test_client_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        config = _config(tmp_path)
        instance_file = tmp_path / "inst.hio"
        with instance_file.open("w", encoding="utf-8") as fp:
            hio_dump(_H1, fp)
        sock = str(config.socket_path)
        with ServerThread(config):
            assert main(["client", "ping", "--socket", sock]) == 0
            assert "pong" in capsys.readouterr().out

            rc = main(
                [
                    "client",
                    "solve",
                    str(instance_file),
                    "--socket",
                    sock,
                    "--algorithm",
                    "bl",
                    "--seed",
                    "2",
                ]
            )
            assert rc == 0
            response = json.loads(capsys.readouterr().out)
            assert response["status"] == "ok"
            assert response["mis_size"] == beame_luby(_H1, 2).size

            assert main(["client", "stats", "--socket", sock]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["requests"] >= 1

    def test_client_against_absent_server(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["client", "ping", "--socket", str(tmp_path / "absent.sock")])
        assert rc == 1
        assert "cannot reach server" in capsys.readouterr().err
