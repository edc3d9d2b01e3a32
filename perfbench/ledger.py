"""Outside-in layer ledger: self time per layer, without spans in ``src/``.

The ledger replaces the module attributes that callers look up at call
time (``repro.core.bl.beame_luby_scalar``, ``repro.dynamic.engine.apply_updates``,
``repro.cli.load``, ...) with timing wrappers.  Each wrapper pushes a
frame on a per-thread stack; on return its duration minus the time its
wrapped children took is the call's *self time*, booked under a dotted key
whose first component names the layer.  Time inside an operation that no
wrapper covers is the caller's ``unattributed`` remainder.

Only synchronous functions can be wrapped this way: an ``async`` function
interleaves with others on the event loop, so its frames would not nest.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: (owner, attribute, key).  Owner is ``module`` or ``module:Name`` (a class
#: or dict inside the module).  The key's first component is the layer.
SOLVE_POINTS = [
    ("repro.cli", "main", "cli.main"),
    ("repro.cli", "load", "hypergraph.hio.load"),
    ("repro.cli", "check_mis", "hypergraph.validate.check_mis"),
    ("repro.cli:ALGORITHMS", "bl", "core.bl"),
    ("repro.cli:ALGORITHMS", "sbl", "core.sbl"),
    ("repro.cli:ALGORITHMS", "kuw", "core.kuw"),
    ("repro.cli:ALGORITHMS", "greedy", "core.greedy"),
    ("repro.core.sbl", "beame_luby", "core.bl"),
    ("repro.core.sbl", "greedy_mis", "core.greedy"),
    ("repro.core.sbl", "karp_upfal_wigderson", "core.kuw"),
    ("repro.core.sbl", "remove_edges_touching", "hypergraph.ops"),
    ("repro.core.sbl", "trim_vertices", "hypergraph.ops"),
    ("repro.core.bl", "normalize", "hypergraph.ops"),
    ("repro.core.bl", "normalize_after_trim", "hypergraph.ops"),
    ("repro.core.bl", "trim_vertices", "hypergraph.ops"),
    ("repro.core.bl", "select_backend", "kernels.dispatch"),
    ("repro.core.kuw", "select_backend", "kernels.dispatch"),
    ("repro.core.greedy", "select_backend", "kernels.dispatch"),
    ("repro.core.bl", "beame_luby_scalar", "kernels.scalar"),
    ("repro.core.bl", "beame_luby_frontier", "kernels.frontier"),
    ("repro.core.bl", "beame_luby_dense", "kernels.jit"),
    # The CSR engine has no public entry of its own: beame_luby calls the
    # module-level loop below when dispatch picks CSR.
    ("repro.core.bl", "_beame_luby", "kernels.csr"),
]

STREAM_POINTS = [
    ("repro.dynamic.engine:DynamicMIS", "apply", "dynamic.apply"),
    ("repro.dynamic.engine", "apply_updates", "hypergraph.updates.apply_updates"),
    ("repro.dynamic.engine", "decide_strategy", "dynamic.costmodel.decide"),
    ("repro.dynamic.engine", "greedy_mis", "core.greedy.patch"),
    ("repro.dynamic.engine", "check_mis", "hypergraph.validate.check_mis"),
    ("repro.dynamic.engine", "component_labels", "hypergraph.components"),
    ("repro.core.greedy", "select_backend", "kernels.dispatch"),
]

#: Installed inside the server process (see ``traced_serve.py``).  All of
#: them run on the server's event-loop thread; solves run in the pool worker
#: and are seen through each response's ``solve_ms``.
SERVICE_POINTS = [
    ("repro.service.server", "decode_line", "service.protocol"),
    ("repro.service.server", "parse_solve_request", "service.protocol"),
    ("repro.service.server", "ok_response", "service.protocol"),
    ("repro.service.server", "error_response", "service.protocol"),
    ("repro.service.server", "encode_line", "service.protocol"),
    ("repro.service.cache:ResultCache", "get", "service.cache"),
    ("repro.service.cache:ResultCache", "put", "service.cache"),
    ("repro.service.batching:MicroBatcher", "submit", "service.batching"),
    ("repro.service.batching:MicroBatcher", "resolve", "service.batching"),
    ("repro.exec.shm:ShmArena", "publish", "exec.shm"),
]


def _resolve_owner(spec: str) -> Any:
    module_name, _, inner = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, inner) if inner else owner


def _get(owner: Any, attr: str) -> Any:
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def _set(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Ledger:
    """Self-time and count accumulators fed by attribute wrappers.

    Use as a context manager: wrappers are installed on entry and the
    original attributes restored on exit, so untraced runs in the same
    process pay nothing.
    """

    def __init__(self, points: list[tuple[str, str, str]]):
        self.points = points
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- accounting -------------------------------------------------------
    def layer_ns(self, layer: str) -> int:
        return sum(ns for key, ns in self.self_ns.items() if key.split(".")[0] == layer)

    def key_ns(self, prefix: str) -> int:
        """Self time of every key equal to or below *prefix*."""
        return sum(
            ns
            for key, ns in self.self_ns.items()
            if key == prefix or key.startswith(prefix + ".")
        )

    def snapshot(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
        }

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, key: str, fn: Callable, observe: Callable | None) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(ledger._local, "stack", None)
            if stack is None:
                stack = ledger._local.stack = []
            frame = [0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                with ledger._lock:
                    ledger.self_ns[key] += duration - frame[0]
            if observe is not None:
                observe(ledger, args, result)
            return result

        return wrapper

    def install(self) -> "Ledger":
        for owner_spec, attr, key in self.points:
            owner = _resolve_owner(owner_spec)
            original = _get(owner, attr)
            _set(owner, attr, self._wrap(key, original, _OBSERVERS.get(key)))
            self._undo.append((owner, attr, original))
        return self

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            _set(owner, attr, original)

    def __enter__(self) -> "Ledger":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def _count_dispatch(ledger: Ledger, args: tuple, decision: Any) -> None:
    with ledger._lock:
        ledger.counts[f"kernels.dispatch.{decision.backend}_count"] += 1


def _count_load_bytes(ledger: Ledger, args: tuple, result: Any) -> None:
    with ledger._lock:
        ledger.counts["hypergraph.hio.bytes"] += os.path.getsize(args[0])


_OBSERVERS: dict[str, Callable] = {
    "kernels.dispatch": _count_dispatch,
    "hypergraph.hio.load": _count_load_bytes,
}


def time_batches(ledger: Ledger) -> None:
    """Book each service batch's executor round trip, less its solve time.

    ``AsyncBatchExecutor.solve_batch`` is a coroutine, so it cannot join
    the frame stack; its overhead (thread hop, pickling, shared-memory
    attach, pool IPC, verification) is booked directly as ``exec.aio``.
    """
    from repro.exec.aio import AsyncBatchExecutor

    original = AsyncBatchExecutor.__dict__["solve_batch"]

    @functools.wraps(original)
    async def solve_batch(self, cells):
        t0 = time.perf_counter_ns()
        outcomes = await original(self, cells)
        elapsed = time.perf_counter_ns() - t0
        solved = sum(o.result.wall_ns for o in outcomes if o.ok)
        with ledger._lock:
            ledger.self_ns["exec.aio"] += elapsed - solved
            ledger.counts["exec.batches"] += 1
            ledger.counts["exec.cells"] += len(cells)
        return outcomes

    AsyncBatchExecutor.solve_batch = solve_batch
    ledger._undo.append((AsyncBatchExecutor, "solve_batch", original))
