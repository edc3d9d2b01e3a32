"""Hypergraph (de)serialisation.

Two formats:

* **Plain text** — a human-editable line format::

      # optional comments
      universe 10
      vertices 0 1 2 3 4 5 6 7 8 9      # optional; defaults to all
      0 1 2
      2 3
      4 5 6 7

  Each non-directive line is one edge (whitespace-separated vertex ids).

* **JSON** — ``{"universe": n, "vertices": [...], "edges": [[...], ...]}``.

Both round-trip through the canonical representation.  Both parsers build
the CSR arrays directly (no tuple per edge) and hand them to
:meth:`Hypergraph.from_arrays` with ``canonical=False``, whose check adopts
already-canonical input — every file :func:`dump` writes — without a sort.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["dumps", "loads", "dump", "load", "to_json", "from_json"]

PathLike = Union[str, Path]

#: Bytes of a plain edge line: digits, space, tab, and the ending newline.
#: Such lines are split in bulk; any other byte sends its line through
#: :class:`_LineReader`.
_PLAIN = np.zeros(256, dtype=bool)
_PLAIN[np.frombuffer(b"0123456789 \t\n", dtype=np.uint8)] = True
#: ASCII line breaks of ``str.splitlines`` besides ``\n``: with any of them
#: the byte offsets no longer give the line numbers, so every line is read
#: one at a time.
_OTHER_BREAKS = np.frombuffer(b"\r\x0b\x0c\x1c\x1d\x1e", dtype=np.uint8)
#: Longer digit runs may not fit an int64; their lines are read one at a
#: time, as Python ints.
_MAX_DIGITS = 18


def dumps(H: Hypergraph) -> str:
    """Serialise to the plain-text format."""
    lines = [f"universe {H.universe}"]
    verts = H.vertices
    if verts.size != H.universe:
        lines.append("vertices " + " ".join(str(v) for v in verts.tolist()))
    for e in H.edges:
        lines.append(" ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


class _LineReader:
    """Directives and edges of the lines read one at a time."""

    def __init__(self) -> None:
        self.universe: int | None = None
        self.vertices: list[int] | None = None
        self.sizes: list[int] = []
        self.ids: list[int] = []

    def read(self, lineno: int, raw: str) -> None:
        line = raw.split("#", 1)[0].strip()
        if not line:
            return
        parts = line.split()
        if parts[0] == "universe":
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: malformed universe directive")
            self.universe = int(parts[1])
        elif parts[0] == "vertices":
            self.vertices = [int(x) for x in parts[1:]]
        else:
            try:
                self.ids.extend([int(x) for x in parts])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: non-integer vertex id") from exc
            self.sizes.append(len(parts))


def _split_plain(text: str, reader: _LineReader) -> tuple[np.ndarray, np.ndarray]:
    """Sizes and ids of the plain edge lines of *text*, in one bulk pass.

    Every other line — directives, comments, anything beyond digits and
    blanks — goes to *reader* in line order, so its errors carry their
    line numbers.  Text that is not ASCII, or that breaks lines with
    anything but ``\n``, is read entirely line by line.
    """
    empty = np.empty(0, dtype=np.intp)
    data = None
    if text.isascii():
        data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        odd = np.flatnonzero(~_PLAIN[data])
        if np.isin(data[odd], _OTHER_BREAKS).any():
            data = None
    if data is None:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            reader.read(lineno, raw)
        return empty, empty
    newlines = np.flatnonzero(data == ord("\n"))
    digit = (data >= ord("0")) & (data <= ord("9"))
    step = np.diff(digit.view(np.int8), prepend=np.int8(0), append=np.int8(0))
    starts = np.flatnonzero(step == 1)
    lengths = np.flatnonzero(step == -1) - starts
    token_line = np.searchsorted(newlines, starts)
    special = np.zeros(newlines.size + 1, dtype=bool)
    special[np.searchsorted(newlines, odd)] = True
    special[token_line[lengths > _MAX_DIGITS]] = True
    line_starts = np.concatenate(([0], newlines + 1))
    line_ends = np.append(newlines, data.size)
    for line in np.flatnonzero(special).tolist():
        reader.read(line + 1, text[line_starts[line] : line_ends[line]])
    plain = ~special[token_line]
    starts, lengths, token_line = starts[plain], lengths[plain], token_line[plain]
    if starts.size == 0:
        return empty, empty
    # Horner over the digit columns: one pass per digit of the longest id.
    ids = np.zeros(starts.size, dtype=np.intp)
    last = data.size - 1
    for k in range(int(lengths.max())):
        d = data[np.minimum(starts + k, last)].astype(np.intp) - ord("0")
        np.copyto(ids, ids * 10 + d, where=lengths > k)
    sizes = np.bincount(token_line, minlength=newlines.size + 1)
    return sizes[sizes > 0], ids


def _from_parts(
    universe: int, vertices, sizes: np.ndarray, ids: np.ndarray
) -> Hypergraph:
    """The hypergraph of a parsed universe, vertex list and flat edge ids."""
    indptr = np.zeros(sizes.size + 1, dtype=np.intp)
    np.cumsum(sizes, out=indptr[1:])
    return Hypergraph.from_arrays(universe, vertices, indptr, ids, canonical=False)


def loads(text: str) -> Hypergraph:
    """Parse the plain-text format."""
    reader = _LineReader()
    sizes, ids = _split_plain(text, reader)
    if reader.universe is None:
        raise ValueError("missing 'universe' directive")
    if reader.sizes:
        try:
            extra = np.asarray(reader.ids, dtype=np.intp)
        except OverflowError:
            # An id beyond int64: a bad universe or vertex list is
            # reported first, as the constructor does.
            Hypergraph(reader.universe, (), vertices=reader.vertices)
            raise
        sizes = np.concatenate([sizes, np.asarray(reader.sizes, dtype=np.intp)])
        ids = np.concatenate([ids, extra])
    return _from_parts(reader.universe, reader.vertices, sizes, ids)


def dump(H: Hypergraph, fp: Union[TextIO, PathLike]) -> None:
    """Write the plain-text format to a file object or path."""
    text = dumps(H)
    if isinstance(fp, (str, Path)):
        Path(fp).write_text(text)
    else:
        fp.write(text)


def load(fp: Union[TextIO, PathLike]) -> Hypergraph:
    """Read the plain-text format from a file object or path."""
    if isinstance(fp, (str, Path)):
        return loads(Path(fp).read_text())
    return loads(fp.read())


def to_json(H: Hypergraph) -> str:
    """Serialise to a JSON string."""
    return json.dumps(
        {
            "universe": H.universe,
            "vertices": H.vertices.tolist(),
            "edges": [list(e) for e in H.edges],
        }
    )


def from_json(text: str) -> Hypergraph:
    """Parse the JSON format produced by :func:`to_json`."""
    obj = json.loads(text)
    try:
        universe = int(obj["universe"])
        edges = obj["edges"]
        flat = list(chain.from_iterable(edges))
        vertices = obj.get("vertices")
    except KeyError as exc:
        raise ValueError(f"missing JSON field: {exc}") from exc
    sizes = np.fromiter(map(len, edges), dtype=np.intp, count=len(edges))
    try:
        ids = np.fromiter(map(int, flat), dtype=np.intp, count=len(flat))
    except (TypeError, ValueError, OverflowError):
        # Ids that are not int64: the constructor raises what it always
        # did, after its universe, vertex and empty-edge checks.
        return Hypergraph(universe, [tuple(e) for e in edges], vertices=vertices)
    return _from_parts(universe, vertices, sizes, ids)
