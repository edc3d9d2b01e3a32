"""Tests for hypergraph serialisation.

``spec_loads`` / ``spec_from_json`` are the tuple-per-edge parsers the
array-native ones replaced; they are the specification the differential
tests hold :func:`loads` and :func:`from_json` to, errors included.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import mixed_dimension_hypergraph, uniform_hypergraph
from repro.hypergraph import Hypergraph
from repro.hypergraph.hio import dump, dumps, from_json, load, loads, to_json


def spec_loads(text: str) -> Hypergraph:
    universe = None
    vertices = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "universe":
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: malformed universe directive")
            universe = int(parts[1])
        elif parts[0] == "vertices":
            vertices = [int(x) for x in parts[1:]]
        else:
            try:
                edges.append(tuple(int(x) for x in parts))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: non-integer vertex id") from exc
    if universe is None:
        raise ValueError("missing 'universe' directive")
    return Hypergraph(universe, edges, vertices=vertices)


def spec_from_json(text: str) -> Hypergraph:
    obj = json.loads(text)
    try:
        return Hypergraph(
            int(obj["universe"]),
            [tuple(e) for e in obj["edges"]],
            vertices=obj.get("vertices"),
        )
    except KeyError as exc:
        raise ValueError(f"missing JSON field: {exc}") from exc


def outcome(parse, text):
    """The content hash of the parsed instance, or the error it raised."""
    try:
        return parse(text).content_hash()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)


SEPARATORS = [" ", "  ", "\t", " \t "]


def random_document(rng: np.random.Generator) -> str:
    """A text instance with every feature the format allows, in any order:
    mixed and size-1 edges, repeated ids, duplicate, unsorted and
    prefix-related edges, comments, inline ``#``, blank lines, tabs and a
    ``vertices`` directive."""
    n = int(rng.integers(1, 12))
    lines = [f"universe {n}"]
    if rng.random() < 0.3:
        active = np.flatnonzero(rng.random(n) < 0.8).tolist() or [0]
        lines.append("vertices " + " ".join(map(str, active)))
    else:
        active = list(range(n))
    edges = []
    for _ in range(int(rng.integers(0, 12))):
        roll = rng.random()
        if edges and roll < 0.15:
            edge = list(edges[int(rng.integers(len(edges)))])  # duplicate
        elif edges and roll < 0.3:
            base = edges[int(rng.integers(len(edges)))]
            edge = list(base[: max(1, len(base) - 1)])  # a prefix of an edge
        else:
            size = int(rng.integers(1, 6))
            edge = rng.choice(active, size=size).tolist()  # may repeat ids
            if rng.random() < 0.6:
                edge = sorted(set(edge))
        edges.append(edge)
    if rng.random() < 0.5:
        edges.sort()
    for edge in edges:
        sep = SEPARATORS[int(rng.integers(len(SEPARATORS)))]
        line = sep.join(map(str, edge))
        if rng.random() < 0.2:
            line = "\t" + line + " "
        if rng.random() < 0.15:
            line += "  # inline"
        lines.append(line)
        if rng.random() < 0.1:
            lines.append("" if rng.random() < 0.5 else "# a comment")
    if rng.random() < 0.2:
        lines.insert(int(rng.integers(len(lines) + 1)), "   ")
    return "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")


class TestArrayParserMatchesSpec:
    def test_random_documents(self):
        rng = np.random.default_rng(17)
        for _ in range(400):
            text = random_document(rng)
            assert outcome(loads, text) == outcome(spec_loads, text), text

    @pytest.mark.parametrize("seed", range(4))
    def test_written_files(self, seed):
        for H in (
            uniform_hypergraph(300, 500, 3, seed=seed),
            mixed_dimension_hypergraph(200, 300, [1, 2, 3, 5], seed=seed),
        ):
            text = dumps(H)
            assert loads(text).content_hash() == spec_loads(text).content_hash()
            assert loads(text) == H

    def test_line_endings_and_unicode_whitespace(self):
        base = "universe 6\n0 1 2\n# c\n2 3\n4 5 1\n"
        for text in (
            base.replace("\n", "\r\n"),
            base.replace("\n", "\r"),
            base.replace("2 3", "2\u00a03"),  # non-breaking space
            base.replace("2 3", "2\x1f3"),  # ASCII unit separator
            base.replace("2 3", "+2 03"),
        ):
            assert outcome(loads, text) == outcome(spec_loads, text), repr(text)

    @pytest.mark.parametrize(
        "text",
        [
            "universe -1\n0 1\n",
            "universe -1\n0 " + "9" * 25 + "\n",
            "universe 3\nvertices 9\n0 " + "9" * 25 + "\n",
            "universe 3\nvertices 9\n0 1 # c\n5 1\n",
            "universe 3\nvertices 0 1\n2 " + "9" * 25 + "\n",
        ],
    )
    def test_first_of_several_errors_matches_spec(self, text):
        assert outcome(loads, text) == outcome(spec_loads, text)

    def test_long_ids_read_as_python_ints(self):
        text = "universe 4\n0 1\n0 " + "9" * 25 + "\n"
        assert outcome(loads, text) == outcome(spec_loads, text)
        text = "universe 4\n0 1\n0 " + "0" * 24 + "3\n"
        assert loads(text) == spec_loads(text)


_edge_line = st.lists(st.integers(0, 9), min_size=1, max_size=5)
_line = st.one_of(
    st.tuples(st.just("edge"), _edge_line, st.sampled_from(SEPARATORS), st.booleans()),
    st.tuples(st.just("comment")),
    st.tuples(st.just("blank")),
    st.tuples(st.just("vertices"), st.lists(st.integers(0, 9), max_size=10)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_line, max_size=15), st.integers(0, 12), st.booleans())
def test_hypothesis_documents_match_spec(lines, universe, trailing_newline):
    out = [f"universe {universe}"]
    for kind, *rest in lines:
        if kind == "edge":
            edge, sep, inline = rest
            out.append(sep.join(map(str, edge)) + (" # x" if inline else ""))
        elif kind == "comment":
            out.append("# note")
        elif kind == "blank":
            out.append("")
        else:
            out.append("vertices " + " ".join(map(str, rest[0])))
    text = "\n".join(out) + ("\n" if trailing_newline else "")
    assert outcome(loads, text) == outcome(spec_loads, text)


class TestErrorMessages:
    def test_non_integer_id_names_its_line(self):
        with pytest.raises(ValueError, match=r"^line 3: non-integer vertex id$"):
            loads("universe 4\n0 1\n0 x\n2 3\n")

    def test_first_bad_line_wins(self):
        with pytest.raises(ValueError, match=r"^line 2: non-integer vertex id$"):
            loads("universe 4\n1 y\n0 1\nuniverse 4 5\n")

    def test_malformed_universe(self):
        with pytest.raises(ValueError, match=r"^line 2: malformed universe directive$"):
            loads("# header\nuniverse 4 5\n0 1\n")

    def test_missing_universe(self):
        with pytest.raises(ValueError, match=r"^missing 'universe' directive$"):
            loads("0 1\n1 2\n")

    def test_id_outside_universe(self):
        with pytest.raises(ValueError, match=r"^edge \(1, 7\) contains inactive vertex 7$"):
            loads("universe 4\n0 1\n7 1\n")

    def test_vertex_directive_outside_universe(self):
        with pytest.raises(IndexError, match=r"^vertex outside universe$"):
            loads("universe 4\nvertices 0 9\n")


class TestTextRoundTrip:
    def test_simple(self, small_mixed):
        assert loads(dumps(small_mixed)) == small_mixed

    def test_partial_vertices(self):
        H = Hypergraph(6, [(1, 2)], vertices=[1, 2, 4])
        assert loads(dumps(H)) == H

    def test_edgeless(self):
        H = Hypergraph(4)
        assert loads(dumps(H)) == H

    def test_comments_and_blank_lines(self):
        text = """
        # a comment
        universe 4

        0 1  # trailing comment
        2 3
        """
        H = loads(text)
        assert H.edges == ((0, 1), (2, 3))

    def test_missing_universe_raises(self):
        with pytest.raises(ValueError, match="universe"):
            loads("0 1\n")

    def test_malformed_universe_raises(self):
        with pytest.raises(ValueError):
            loads("universe 4 5\n")

    def test_non_integer_vertex_raises(self):
        with pytest.raises(ValueError, match="line"):
            loads("universe 4\n0 x\n")

    def test_file_object_round_trip(self, triangle):
        buf = io.StringIO()
        dump(triangle, buf)
        buf.seek(0)
        assert load(buf) == triangle

    def test_path_round_trip(self, triangle, tmp_path):
        path = tmp_path / "h.txt"
        dump(triangle, path)
        assert load(path) == triangle


class TestJsonRoundTrip:
    def test_simple(self, small_mixed):
        assert from_json(to_json(small_mixed)) == small_mixed

    def test_partial_vertices(self):
        H = Hypergraph(6, [(1, 2)], vertices=[1, 2, 4])
        assert from_json(to_json(H)) == H

    def test_missing_field_raises(self):
        with pytest.raises(ValueError, match="missing"):
            from_json('{"universe": 3}')

    def test_vertices_optional(self):
        H = from_json('{"universe": 3, "edges": [[0, 1]]}')
        assert H.num_vertices == 3

    @pytest.mark.parametrize(
        "text",
        [
            '{"universe": 5, "edges": [[3, 1, 1], [0], [1, 3], [0, 1, 2], [0, 1]]}',
            '{"universe": 5, "edges": [], "vertices": [4, 1]}',
            '{"universe": 5, "edges": [[0, 1]], "vertices": [0, 1, 1]}',
            '{"universe": 5, "edges": [["1", 2.0, true]]}',
            '{"universe": 5, "edges": "01"}',
            '{"universe": 3}',
            '{"edges": []}',
            '{"universe": 3, "edges": [[0, 1], []]}',
            '{"universe": 3, "edges": [[0, 5]]}',
            '{"universe": 3, "edges": [[0, 1], 2]}',
            '{"universe": 3, "edges": 7}',
            '{"universe": 3, "edges": [[0, null]]}',
            '{"universe": 3, "edges": [[0, "x"]]}',
            '{"universe": 3, "edges": [[0, 1]], "vertices": [0, 7]}',
            # several errors: the first one the constructor checks wins
            '{"universe": 3, "edges": [[]], "vertices": [9]}',
            '{"universe": -1, "edges": [[]]}',
            '{"universe": -1, "edges": [[0, "x"]]}',
            '{"universe": 3, "edges": [[], [0, "x"]]}',
            '{"universe": 3, "edges": [[0, 1e30]], "vertices": [9]}',
            '{"universe": 3, "edges": [[0, 99999999999999999999999], [5]]}',
        ],
    )
    def test_matches_spec(self, text):
        assert outcome(from_json, text) == outcome(spec_from_json, text)

    def test_random_instances_match_spec(self):
        for seed in range(6):
            H = mixed_dimension_hypergraph(60, 90, [1, 2, 4], seed=seed)
            doc = json.loads(to_json(H))
            doc["edges"] = [e[::-1] for e in doc["edges"]][::-1]  # unsorted input
            text = json.dumps(doc)
            assert from_json(text).content_hash() == spec_from_json(text).content_hash()
