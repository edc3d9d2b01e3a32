"""Campaign liveness: a periodic flush of progress gauges.

Long campaigns and fuzz runs used to be black boxes until they returned.
:class:`Heartbeat` is a daemon thread that, every ``interval`` seconds,
reads the executor's progress counters off a metrics registry
(``exec/cells_scheduled``/``exec/cells_done``/``exec/cell_wall_ns`` and
their ``tasks`` twins, maintained by
:class:`~repro.exec.runner.ParallelRunner` in both its in-process and its
pool mode),
derives the liveness gauges

* ``exec/cells_done`` / ``exec/cells_total`` — progress through the grid,
* ``exec/cells_per_s`` — throughput over the last beat,
* ``exec/eta_s`` — remaining cells at that throughput,
* ``exec/worker_utilization`` — fraction of worker·seconds spent inside
  cells (from the cell wall-time counter; 1.0 = all workers busy),

and publishes them twice over: a ``metrics`` event on the telemetry
stream (so the JSONL file shows in-flight snapshots, not just the final
one) and, optionally, an OpenMetrics textfile rewritten atomically each
beat — the scrape surface for Prometheus' textfile collector or a quick
``watch cat``.

The beat body is pure reads plus a few gauge writes; with no heartbeat
constructed nothing runs and nothing is paid.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Union

from repro.obs.export import render_openmetrics
from repro.obs.metrics import MetricsRegistry, default_registry

__all__ = ["Heartbeat"]


class Heartbeat:
    """Periodic progress-gauge flusher (daemon thread; use as context manager).

    Parameters
    ----------
    interval:
        Seconds between beats (> 0).
    registry:
        The registry to read counters from and write gauges to (defaults
        to the ambient default registry *at construction*, so it composes
        with ``isolated_registry``).
    tracer:
        When given (and enabled), each beat appends one ``metrics`` event
        to its stream.
    textfile:
        When given, each beat atomically rewrites this path with the
        OpenMetrics rendering of the registry snapshot.
    labels:
        Extra labels stamped on every exported sample.
    extra:
        Optional callable returning ``{gauge_name: value}``; invoked at
        the top of every beat and each pair written as a gauge before the
        snapshot is published.  This is how a subsystem with its own
        derived liveness numbers (the solve service's queue depth, batch
        occupancy, cache hit rate and latency percentiles) rides the
        existing heartbeat/OpenMetrics path instead of growing a second
        exporter.  Exceptions from the hook are swallowed — liveness
        reporting must never take down the run it reports on.
    """

    def __init__(
        self,
        interval: float,
        *,
        registry: MetricsRegistry | None = None,
        tracer: Any = None,
        textfile: Union[str, Path, None] = None,
        labels: dict[str, str] | None = None,
        extra: Callable[[], Mapping[str, float]] | None = None,
        clock=time.monotonic,
    ):
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be positive: {interval}")
        self.interval = float(interval)
        self.registry = registry if registry is not None else default_registry()
        self.tracer = tracer
        self.textfile = Path(textfile) if textfile is not None else None
        self.labels = labels
        self.extra = extra
        self.beats = 0
        self._clock = clock
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_t: float | None = None
        self._last_done = 0
        self._last_busy_ns = 0

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "Heartbeat":
        if self._thread is not None:
            raise RuntimeError("heartbeat already running")
        self._stop_event.clear()
        self._last_t = self._clock()
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and emit one final beat (totals, not rates)."""
        if self._thread is not None:
            self._stop_event.set()
            self._thread.join()
            self._thread = None
        self.beat()

    def __enter__(self) -> "Heartbeat":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.beat()

    # -- one beat ---------------------------------------------------------
    def _counter(self, name: str) -> float:
        return self.registry.counter(name).value

    def beat(self) -> dict[str, float]:
        """Compute and publish the liveness gauges; returns them as a dict."""
        if self.extra is not None:
            try:
                for name, value in self.extra().items():
                    self.registry.gauge(name).set(float(value))
            except Exception:  # noqa: BLE001 - liveness must not kill the run
                self.registry.counter("obs/heartbeat_extra_errors").inc()
        now = self._clock()
        dt = max(1e-9, now - (self._last_t if self._last_t is not None else now))
        done = self._counter("exec/cells_done") + self._counter("exec/tasks_done")
        total = self._counter("exec/cells_scheduled") + self._counter(
            "exec/tasks_scheduled"
        )
        busy_ns = self._counter("exec/cell_wall_ns") + self._counter(
            "exec/task_wall_ns"
        )
        workers = self.registry.gauge("exec/workers").value or 1

        rate = (done - self._last_done) / dt
        remaining = max(0.0, total - done)
        eta = remaining / rate if rate > 0 else float("inf") if remaining else 0.0
        utilization = min(
            1.0, (busy_ns - self._last_busy_ns) / 1e9 / (dt * max(1, workers))
        )

        gauges = {
            "exec/cells_total": float(total),
            "exec/cells_per_s": round(rate, 3),
            "exec/eta_s": round(eta, 3) if eta != float("inf") else -1.0,
            "exec/worker_utilization": round(max(0.0, utilization), 4),
        }
        for name, value in gauges.items():
            self.registry.gauge(name).set(value)
        self.registry.counter("obs/heartbeats").inc()
        self.beats += 1
        self._last_t, self._last_done, self._last_busy_ns = now, done, busy_ns

        if self.tracer is not None and getattr(self.tracer, "enabled", False):
            self.tracer.flush_metrics(self.registry)
        if self.textfile is not None:
            self.write_textfile()
        return gauges

    def write_textfile(self) -> None:
        """Atomically rewrite the OpenMetrics textfile (tmp + rename)."""
        assert self.textfile is not None
        text = render_openmetrics(self.registry.snapshot(), labels=self.labels)
        tmp = self.textfile.with_name(self.textfile.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, self.textfile)
