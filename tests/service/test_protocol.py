"""Wire protocol: parsing, validation errors, instance round-trips.

``spec_encode_instance`` / ``spec_decode_instance`` are the tuple-per-edge
object codec the wire used before it shared :mod:`repro.hypergraph.hio`'s;
the differential tests hold the shared codec to them.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.generators import mixed_dimension_hypergraph, uniform_hypergraph
from repro.hypergraph import Hypergraph
from repro.hypergraph.hio import dumps as hio_dumps
from repro.service.protocol import (
    ERROR_STATUSES,
    ProtocolError,
    SolveRequest,
    decode_line,
    encode_instance,
    encode_line,
    error_response,
    ok_response,
    parse_solve_request,
)

_H = uniform_hypergraph(20, 30, 3, seed=3)
_ALGOS = ("bl", "sbl", "greedy")


def _doc(**over):
    doc = {"algorithm": "bl", "seed": 7, "instance": encode_instance(_H)}
    doc.update(over)
    return doc


def spec_encode_instance(H: Hypergraph) -> dict:
    doc = {"universe": H.universe, "edges": [list(e) for e in H.edges]}
    if H.vertices.size != H.universe:
        doc["vertices"] = H.vertices.tolist()
    return doc


def spec_decode_instance(value) -> Hypergraph:
    """The old object decoder, with ``OverflowError`` mapped as well: it let
    that one escape, and the server left such a request unanswered."""
    if "universe" not in value:
        raise ProtocolError("instance object needs a 'universe' field")
    try:
        return Hypergraph(
            int(value["universe"]),
            [tuple(int(v) for v in e) for e in value.get("edges", ())],
            vertices=value.get("vertices"),
        )
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ProtocolError(f"bad instance object: {exc}") from exc


def _decoded(decode, value):
    """The content hash of the decoded instance, or ``ProtocolError``."""
    try:
        return decode(value).content_hash()
    except ProtocolError:
        return "ProtocolError"


def _wire_decode(value) -> Hypergraph:
    req = parse_solve_request(_doc(instance=value), algorithms=_ALGOS)
    assert req.instance is not None
    return req.instance


def _odd_id(rng: np.random.Generator, n: int):
    """An id that is not a plain in-range int, or one given another way."""
    v = int(rng.integers(n))
    return [
        str(v), float(v), v + 0.5, bool(v % 2), n + int(rng.integers(3)), -1 - v,
        2**63, 2**70, None, "x", [v],
    ][int(rng.integers(11))]


def random_instance_object(rng: np.random.Generator) -> dict:
    """A wire instance object with the features and faults a client may
    send: mixed and size-1 edges, duplicate and unsorted ids, partial
    ``vertices``, ids as strings/floats/bools, out-of-universe, negative
    and over-int64 ids, non-list edges, and a missing or odd ``universe``."""
    n = int(rng.integers(1, 12))
    edges: list = []
    for _ in range(int(rng.integers(0, 10))):
        edge = rng.integers(0, n, size=int(rng.integers(1, 6))).tolist()
        roll = rng.random()
        if roll < 0.08:
            edge[int(rng.integers(len(edge)))] = _odd_id(rng, n)
        elif roll < 0.11:
            edge = [int(rng.integers(5)), "12", None, {"3": 0}, ""][int(rng.integers(5))]
        elif roll < 0.13:
            edge = []
        elif edges and roll < 0.2:
            edge = edges[int(rng.integers(len(edges)))]  # a duplicate
        edges.append(edge)
    obj: dict = {"universe": n, "edges": edges}
    roll = rng.random()
    if roll < 0.25:
        obj["vertices"] = np.flatnonzero(rng.random(n) < 0.8).tolist()
    elif roll < 0.28:
        obj["vertices"] = [n + 1]
    roll = rng.random()
    if roll < 0.04:
        del obj["universe"]
    elif roll < 0.1:
        obj["universe"] = [str(n), float(n), -1, None, "many", True][int(rng.integers(6))]
    elif roll < 0.12:
        obj["edges"] = [7, "01", None][int(rng.integers(3))]
    return obj


class TestLineCodec:
    def test_round_trip(self):
        doc = {"op": "solve", "seed": 3, "nested": {"a": [1, 2]}}
        line = encode_line(doc)
        assert line.endswith(b"\n")
        assert decode_line(line) == doc

    def test_accepts_str_input(self):
        assert decode_line('{"a": 1}') == {"a": 1}

    @pytest.mark.parametrize("bad", [b"{not json}\n", b"[1, 2]\n", b'"just a string"\n'])
    def test_non_object_lines_rejected(self, bad):
        with pytest.raises(ProtocolError):
            decode_line(bad)

    def test_non_utf8_rejected(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_line(b"\xff\xfe{}\n")


class TestInstanceCodec:
    def test_object_round_trip(self):
        doc = encode_instance(_H)
        req = parse_solve_request(_doc(instance=doc), algorithms=_ALGOS)
        assert req.instance is not None
        assert req.instance.universe == _H.universe
        assert req.instance.content_hash() == _H.content_hash()

    def test_hio_text_accepted(self):
        req = parse_solve_request(_doc(instance=hio_dumps(_H)), algorithms=_ALGOS)
        assert req.instance is not None
        assert req.instance.content_hash() == _H.content_hash()

    def test_vertices_field_survives(self):
        sub = _H.induced(np.arange(10))
        doc = encode_instance(sub)
        assert "vertices" not in doc or doc["vertices"] == sub.vertices.tolist()
        req = parse_solve_request(_doc(instance=doc), algorithms=_ALGOS)
        assert req.instance is not None
        assert req.instance.content_hash() == sub.content_hash()

    @pytest.mark.parametrize(
        "bad",
        [
            {"edges": [[0, 1]]},
            "not a hio document",
            42,
            [1, 2, 3],
            # OverflowError (ids beyond int64) and IndexError (vertices
            # outside the universe) are bad requests too
            {"universe": 3, "edges": [[0, 2**70]]},
            {"universe": 3, "edges": [[0, 1]], "vertices": [2**70]},
            {"universe": 3, "edges": [[0, 1e30]]},
            "universe 3\n0 " + "9" * 25 + "\n",
            "universe 3\nvertices 0 9\n",
        ],
    )
    def test_bad_instances_rejected(self, bad):
        with pytest.raises(ProtocolError):
            parse_solve_request(_doc(instance=bad), algorithms=_ALGOS)

    def test_edges_field_is_required(self):
        # One rule with hio's JSON format: an edgeless instance says
        # "edges": [], as encode_instance writes it.
        with pytest.raises(ProtocolError, match=r"missing JSON field: 'edges'"):
            parse_solve_request(_doc(instance={"universe": 3}), algorithms=_ALGOS)
        req = parse_solve_request(
            _doc(instance={"universe": 3, "edges": []}), algorithms=_ALGOS
        )
        assert req.content_hash == Hypergraph(3).content_hash()

    def test_decoder_matches_spec_on_random_objects(self):
        rng = np.random.default_rng(2024)
        outcomes = set()
        for _ in range(300):
            obj = random_instance_object(rng)
            new = _decoded(_wire_decode, obj)
            assert new == _decoded(spec_decode_instance, obj), obj
            outcomes.add(new == "ProtocolError")
        assert outcomes == {True, False}  # both valid and invalid inputs drawn

    def test_encoder_matches_spec(self):
        rng = np.random.default_rng(5)
        instances = [Hypergraph(0), Hypergraph(4), Hypergraph(6, [(1, 2)], vertices=[1, 2, 4])]
        for seed in range(8):
            H = mixed_dimension_hypergraph(40, 70, [1, 2, 3, 5], seed=seed)
            instances.append(H)
            instances.append(H.induced(np.flatnonzero(rng.random(40) < 0.6)))
        for H in instances:
            doc = encode_instance(H)
            assert encode_line(doc) == encode_line(spec_encode_instance(H))
            assert list(doc) == ["universe", "edges", *(["vertices"] * ("vertices" in doc))]
            assert _wire_decode(doc).content_hash() == H.content_hash()


class TestParseSolveRequest:
    def test_happy_path_fills_hash(self):
        req = parse_solve_request(_doc(id="r1", deadline_ms=250), algorithms=_ALGOS)
        assert isinstance(req, SolveRequest)
        assert req.id == "r1"
        assert req.algorithm == "bl"
        assert req.seed == 7
        assert req.content_hash == _H.content_hash()
        assert req.deadline_ms == 250.0
        assert req.verify is True

    def test_missing_algorithm(self):
        with pytest.raises(ProtocolError, match="missing 'algorithm'"):
            parse_solve_request({"instance": encode_instance(_H)}, algorithms=_ALGOS)

    def test_unknown_algorithm_lists_known(self):
        with pytest.raises(ProtocolError, match="unknown algorithm 'nope'"):
            parse_solve_request(_doc(algorithm="nope"), algorithms=_ALGOS)

    def test_needs_instance_or_hash(self):
        with pytest.raises(ProtocolError, match="'instance' or 'content_hash'"):
            parse_solve_request({"algorithm": "bl"}, algorithms=_ALGOS)

    def test_hash_only_request(self):
        req = parse_solve_request(
            {"algorithm": "bl", "content_hash": "abc123"}, algorithms=_ALGOS
        )
        assert req.instance is None
        assert req.content_hash == "abc123"

    def test_hash_cross_check(self):
        with pytest.raises(ProtocolError, match="content_hash mismatch"):
            parse_solve_request(_doc(content_hash="wrong"), algorithms=_ALGOS)

    def test_matching_hash_accepted(self):
        req = parse_solve_request(
            _doc(content_hash=_H.content_hash()), algorithms=_ALGOS
        )
        assert req.content_hash == _H.content_hash()

    @pytest.mark.parametrize("seed", ["7", 1.5, True, None])
    def test_bad_seed_types(self, seed):
        with pytest.raises(ProtocolError, match="'seed'"):
            parse_solve_request(_doc(seed=seed), algorithms=_ALGOS)

    @pytest.mark.parametrize("deadline", [0, -5, "fast", True])
    def test_bad_deadlines(self, deadline):
        with pytest.raises(ProtocolError):
            parse_solve_request(_doc(deadline_ms=deadline), algorithms=_ALGOS)

    def test_int_id_coerced_to_str(self):
        req = parse_solve_request(_doc(id=42), algorithms=_ALGOS)
        assert req.id == "42"

    def test_bad_id_type(self):
        with pytest.raises(ProtocolError, match="'id'"):
            parse_solve_request(_doc(id=[1]), algorithms=_ALGOS)

    def test_default_id_used_when_absent(self):
        req = parse_solve_request(_doc(), algorithms=_ALGOS, default_id="auto-3")
        assert req.id == "auto-3"


class TestResponses:
    def test_ok_response_spreads_payload(self):
        req = parse_solve_request(_doc(id="r9"), algorithms=_ALGOS)
        payload = {"mis_size": 4, "independent_set": [0, 2, 5, 8], "num_rounds": 2}
        response = ok_response(req, payload, cached=True, coalesced=False, wall_ms=1.2345)
        assert response["status"] == "ok"
        assert response["id"] == "r9"
        assert response["mis_size"] == 4
        assert response["independent_set"] == [0, 2, 5, 8]
        assert response["cached"] is True
        assert response["coalesced"] is False
        assert response["wall_ms"] == 1.234
        json.dumps(response)  # must be wire-serialisable as-is

    @pytest.mark.parametrize("status", ERROR_STATUSES)
    def test_error_statuses_accepted(self, status):
        response = error_response("r1", status, "why", retry=True)
        assert response == {"id": "r1", "status": status, "error": "why", "retry": True}

    def test_unknown_error_status_asserts(self):
        with pytest.raises(AssertionError):
            error_response("r1", "ok", "not an error status")
