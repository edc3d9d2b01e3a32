"""The solve-service wire protocol: JSON lines, one object per message.

Requests and responses are single JSON objects separated by ``\\n`` —
trivially composable from any language, debuggable with ``nc -U`` and
``jq``, and the same document shape rides the optional HTTP transport as
a POST body.

Request (``op: "solve"``, the default)::

    {"id": "r1", "algorithm": "bl", "seed": 7,
     "instance": {"universe": 9, "edges": [[0,1,2], [2,3]]},
     "deadline_ms": 250, "verify": true}

``instance`` is either the JSON object form above
(:func:`repro.hypergraph.hio.to_obj`; ``vertices`` is sent only when some
vertex of the universe is inactive) or a string in the
:mod:`repro.hypergraph.hio` text format.  A client that already knows the
server holds the instance (a previous request published it) sends
``content_hash`` instead — the dedup key of
:meth:`~repro.hypergraph.hypergraph.Hypergraph.content_hash` — and skips
shipping the arrays entirely.

Response::

    {"id": "r1", "status": "ok", "mis_size": 4, "independent_set": [...],
     "num_rounds": 3, "algorithm": "bl", "seed": 7, "content_hash": "…",
     "cached": false, "coalesced": false, "wall_ms": 1.93}

``status`` values: ``ok``; ``rejected`` (admission control — the queue is
full, the 429 analogue); ``expired`` (the request's deadline passed
before dispatch); ``bad_request`` (malformed document, unknown algorithm,
unknown content hash); ``error`` (the solve itself failed).  Non-``ok``
responses carry ``error`` (message) instead of a result.

Two auxiliary ops: ``{"op": "ping"}`` → ``{"status": "ok", "op": "pong"}``
and ``{"op": "stats"}`` → a server-state snapshot (counters, cache and
queue occupancy, uptime).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.hypergraph.hio import from_obj
from repro.hypergraph.hio import loads as hio_loads
from repro.hypergraph.hio import to_obj as encode_instance
from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SolveRequest",
    "decode_line",
    "encode_line",
    "encode_instance",
    "parse_solve_request",
    "ok_response",
    "error_response",
]

PROTOCOL_VERSION = 1

#: Non-ok response statuses (``ok`` is the only success status).
ERROR_STATUSES = ("rejected", "expired", "bad_request", "error")


class ProtocolError(ValueError):
    """A request document that cannot be honoured; maps to ``bad_request``."""


@dataclass(frozen=True)
class SolveRequest:
    """One validated solve request, instance already materialised.

    Exactly one of ``instance`` / ``content_hash`` was provided by the
    client; when ``instance`` is set, ``content_hash`` is filled in from
    it so the coalescing key is always available.
    """

    id: str
    algorithm: str
    seed: int
    instance: Hypergraph | None
    content_hash: str
    deadline_ms: float | None
    verify: bool


def encode_line(doc: Mapping[str, Any]) -> bytes:
    """Serialise one protocol message to a JSON line (trailing newline)."""
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a dict; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(f"request must be a JSON object, got {type(doc).__name__}")
    return doc


def _decode_instance(value: Any) -> Hypergraph:
    if isinstance(value, str):
        decode, form = hio_loads, "text"
    elif isinstance(value, Mapping):
        decode, form = from_obj, "object"
    else:
        raise ProtocolError(
            f"instance must be an object or hio text, got {type(value).__name__}"
        )
    try:
        return decode(value)
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ProtocolError(f"bad instance {form}: {exc}") from exc


def _require_type(doc: Mapping[str, Any], key: str, types: tuple, default: Any) -> Any:
    value = doc.get(key, default)
    if value is default:
        return default
    if isinstance(value, bool) and bool not in types:
        raise ProtocolError(f"{key!r} must be {types}, got bool")
    if not isinstance(value, types):
        raise ProtocolError(
            f"{key!r} must be {'/'.join(t.__name__ for t in types)}, "
            f"got {type(value).__name__}"
        )
    return value


def parse_solve_request(
    doc: Mapping[str, Any],
    *,
    algorithms: Iterable[str],
    default_id: str = "",
) -> SolveRequest:
    """Validate one solve document; raises :class:`ProtocolError` loudly.

    *algorithms* is the server's registry of known solver names; anything
    else is a ``bad_request`` (never a 500) so clients get actionable
    errors for typos.
    """
    known = set(algorithms)
    algorithm = _require_type(doc, "algorithm", (str,), None)
    if algorithm is None:
        raise ProtocolError("missing 'algorithm'")
    if algorithm not in known:
        raise ProtocolError(f"unknown algorithm {algorithm!r}; known: {sorted(known)}")
    seed = _require_type(doc, "seed", (int,), 0)
    verify = bool(doc.get("verify", True))
    deadline = _require_type(doc, "deadline_ms", (int, float), None)
    if deadline is not None and deadline <= 0:
        raise ProtocolError(f"'deadline_ms' must be positive, got {deadline}")
    req_id = doc.get("id", default_id)
    if not isinstance(req_id, (str, int)):
        raise ProtocolError(f"'id' must be a string or int, got {type(req_id).__name__}")

    instance_field = doc.get("instance")
    hash_field = _require_type(doc, "content_hash", (str,), None)
    if instance_field is None and hash_field is None:
        raise ProtocolError("need 'instance' or 'content_hash'")
    instance = _decode_instance(instance_field) if instance_field is not None else None
    if instance is not None:
        computed = instance.content_hash()
        if hash_field is not None and hash_field != computed:
            raise ProtocolError(
                f"content_hash mismatch: sent {hash_field!r}, instance hashes "
                f"to {computed!r}"
            )
        hash_field = computed
    assert hash_field is not None
    return SolveRequest(
        id=str(req_id),
        algorithm=algorithm,
        seed=int(seed),
        instance=instance,
        content_hash=hash_field,
        deadline_ms=float(deadline) if deadline is not None else None,
        verify=verify,
    )


def ok_response(
    req: SolveRequest,
    payload: Mapping[str, Any],
    *,
    cached: bool,
    coalesced: bool,
    wall_ms: float,
) -> dict[str, Any]:
    """Assemble the success response for one request.

    *payload* is the per-key solve result (``mis_size``,
    ``independent_set``, ``num_rounds``, ``depth``, ``work``) shared
    verbatim by every coalesced/cached consumer of the same cell — that
    sharing is what makes "identical payloads" a structural guarantee
    rather than a property to test for.
    """
    return {
        "id": req.id,
        "status": "ok",
        "algorithm": req.algorithm,
        "seed": req.seed,
        "content_hash": req.content_hash,
        **payload,
        "cached": cached,
        "coalesced": coalesced,
        "wall_ms": round(wall_ms, 3),
    }


def error_response(req_id: str, status: str, message: str, **extra: Any) -> dict[str, Any]:
    """Assemble a non-``ok`` response (status must be a known error status)."""
    assert status in ERROR_STATUSES, status
    return {"id": req_id, "status": status, "error": message, **extra}
