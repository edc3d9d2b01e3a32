"""Dense edge representation: packed bitset rows + padded incidence block.

:class:`BitEdgeStore` is the second physical layout for a hypergraph's
edge set, complementing the CSR :class:`~repro.hypergraph.edgestore.EdgeStore`.
It holds two views of the same edges:

* ``rows`` — one packed ``uint64`` bitset row per edge over the (fixed)
  universe, so subset tests, trims and unions are word-parallel;
* ``block`` — the *packed incidence block*: an ``(m, dim)`` integer matrix
  whose row *i* lists the vertices of edge *i* in ascending order, padded
  with the sentinel ``universe``.  For the small dimensions the paper's
  algorithms live in (``d ≤ 3`` after normalisation) a gather over this
  block replaces a ragged ``np.add.reduceat`` over CSR — one contiguous
  fancy-index instead of a segmented reduction, which is what the
  shape-dispatched solvers exploit.

The primitives here are exactly the round-body operations of the solvers
(per-edge marked counts, fully-marked detection, trim, singleton
collection, containment witnesses); each is differentially pinned against
its CSR counterpart in ``tests/kernels`` and via the ``repro.qa`` fuzz
subjects.

Padding convention: every lookup that gathers a per-vertex value through
``block`` must supply the value the sentinel column should contribute
(identity of the reduction): 0 for sums of indicator values, ``True`` for
universally-quantified tests, and so on.  The helpers take an explicit
``pad`` argument to keep that choice visible at the call site.

Stripe tiling: packed rows additionally come in a *tiled* layout that
splits the universe into ``STRIPE_WORDS``-word stripes (4096 bits each)
and materialises only the stripes that carry at least one vertex of any
edge.  Big-universe instances — the ones the dispatcher newly routes
dense — tend to occupy a handful of stripes of a wide vertex space, so
word-parallel scans over the tiled rows (:meth:`BitEdgeStore.superset_mask`)
do work proportional to the **live** stripes, not ``ceil(universe / 64)``.
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph.edgestore import EdgeStore

__all__ = ["BitEdgeStore", "pack_mask", "unpack_words", "STRIPE_WORDS", "STRIPE_BITS"]

#: Word size of the packed rows.
WORD_BITS = 64

#: Words per stripe of the tiled row layout.
STRIPE_WORDS = 64

#: Bits per stripe (4096): the tiling granularity over the universe.
STRIPE_BITS = WORD_BITS * STRIPE_WORDS


def pack_mask(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean vector into little-endian ``uint64`` words."""
    packed = np.packbits(mask.astype(np.uint8, copy=False), bitorder="little")
    pad = (-packed.size) % 8
    if pad:
        packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
    return packed.view(np.uint64)


def unpack_words(words: np.ndarray, universe: int) -> np.ndarray:
    """Inverse of :func:`pack_mask` (truncates to *universe* bits)."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return bits[:universe].astype(bool)


def _stripe_spans(live: np.ndarray, words: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-live-stripe ``(start_word, width)``, clipping the last stripe."""
    starts = live * STRIPE_WORDS
    widths = np.minimum(starts + STRIPE_WORDS, words) - starts
    return starts, widths


class BitEdgeStore:
    """Dense (bitset + incidence-block) view of a canonical edge store.

    Parameters
    ----------
    universe:
        Ground-set size; every row spans ``ceil(universe / 64)`` words.
    block:
        ``(m, dim)`` vertex matrix padded with ``universe`` (adopted, not
        copied).
    sizes:
        Per-edge sizes aligned with *block*.
    """

    __slots__ = ("universe", "block", "sizes", "_rows", "_tiles")

    def __init__(self, universe: int, block: np.ndarray, sizes: np.ndarray):
        self.universe = int(universe)
        self.block = block
        self.sizes = sizes
        self._rows: np.ndarray | None = None
        self._tiles: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_store(cls, store: EdgeStore, universe: int) -> "BitEdgeStore":
        """Build the dense view from a canonical CSR store."""
        sizes = store.sizes().astype(np.intp, copy=True)
        m = sizes.size
        dim = int(sizes.max()) if m else 0
        block = np.full((m, max(dim, 1)), universe, dtype=np.intp)
        if m:
            rows = np.repeat(np.arange(m, dtype=np.intp), sizes)
            cols = np.arange(store.indices.size, dtype=np.intp) - np.repeat(
                store.indptr[:-1], sizes
            )
            block[rows, cols] = store.indices
        return cls(universe, block, sizes)

    def to_store(self) -> EdgeStore:
        """Rebuild a canonical CSR store (tests / interop; not a hot path)."""
        m = self.sizes.size
        edges = [
            tuple(int(v) for v in self.block[i] if v < self.universe)
            for i in range(m)
        ]
        return EdgeStore.from_iterable(edges)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(self.sizes.size)

    @property
    def dimension(self) -> int:
        return int(self.sizes.max()) if self.sizes.size else 0

    @property
    def words(self) -> int:
        """Words per packed row."""
        return (self.universe + WORD_BITS - 1) // WORD_BITS

    @property
    def rows(self) -> np.ndarray:
        """Packed ``(m, words)`` bitset rows (built lazily, then cached)."""
        if self._rows is None:
            m = self.num_edges
            w = max(self.words, 1)
            rows = np.zeros((m, w), dtype=np.uint64)
            if m:
                valid = self.block < self.universe
                eids = np.broadcast_to(
                    np.arange(m, dtype=np.intp)[:, None], self.block.shape
                )[valid]
                verts = self.block[valid]
                flat = rows.view(np.uint64).reshape(m, w)
                np.bitwise_or.at(
                    flat,
                    (eids, verts // WORD_BITS),
                    np.uint64(1) << (verts % WORD_BITS).astype(np.uint64),
                )
            self._rows = rows
        return self._rows

    @property
    def stripes(self) -> int:
        """Stripes covering the universe (``STRIPE_BITS`` bits each)."""
        return (self.universe + STRIPE_BITS - 1) // STRIPE_BITS

    @property
    def live_stripes(self) -> np.ndarray:
        """Ascending ids of the stripes that carry at least one vertex."""
        return self.tiled[0]

    @property
    def tiled(self) -> tuple[np.ndarray, np.ndarray]:
        """Stripe-tiled packed rows: ``(live, tiles)``.

        ``live`` lists the occupied stripe ids in ascending order; ``tiles``
        is the ``(m, total_width)`` ``uint64`` matrix holding only those
        stripes' words, concatenated in stripe order (the last stripe is
        clipped to the universe, so a single-stripe instance tiles to
        exactly its plain packed width).  Dead stripes are absent
        entirely: scans over ``tiles`` cost ``O(m · live_words)`` rather
        than ``O(m · ceil(universe / 64))``.
        """
        if self._tiles is None:
            m = self.num_edges
            w = max(self.words, 1)
            valid = self.block < self.universe
            verts = self.block[valid]
            if verts.size == 0:
                live = np.empty(0, dtype=np.intp)
                tiles = np.zeros((m, 0), dtype=np.uint64)
            else:
                live = np.unique(verts // STRIPE_BITS).astype(np.intp)
                _, widths = _stripe_spans(live, w)
                offsets = np.concatenate(
                    [np.zeros(1, dtype=np.intp), np.cumsum(widths)]
                )
                tiles = np.zeros((m, int(offsets[-1])), dtype=np.uint64)
                eids = np.broadcast_to(
                    np.arange(m, dtype=np.intp)[:, None], self.block.shape
                )[valid]
                rank = np.searchsorted(live, verts // STRIPE_BITS)
                cols = offsets[rank] + (verts % STRIPE_BITS) // WORD_BITS
                np.bitwise_or.at(
                    tiles,
                    (eids, cols),
                    np.uint64(1) << (verts % WORD_BITS).astype(np.uint64),
                )
            self._tiles = (live, tiles)
        return self._tiles

    def pack_frontier(self, mask: np.ndarray) -> np.ndarray:
        """Pack a universe-length boolean mask into the tiled layout.

        Bits falling in dead stripes are dropped — no edge has a vertex
        there, so every per-edge test against the result is unchanged at
        the tiled width.
        """
        live, _ = self.tiled
        if live.size == 0:
            return np.zeros(0, dtype=np.uint64)
        w = max(self.words, 1)
        full = np.zeros(w, dtype=np.uint64)
        packed = pack_mask(mask)
        full[: packed.size] = packed
        starts, widths = _stripe_spans(live, w)
        return np.concatenate(
            [full[s : s + d] for s, d in zip(starts.tolist(), widths.tolist())]
        )

    def unpack_frontier(self, words: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`pack_frontier`; dead stripes come back empty."""
        live, _ = self.tiled
        w = max(self.words, 1)
        full = np.zeros(w, dtype=np.uint64)
        starts, widths = _stripe_spans(live, w)
        off = 0
        for s, d in zip(starts.tolist(), widths.tolist()):
            full[s : s + d] = words[off : off + d]
            off += d
        return unpack_words(full, self.universe)

    # ------------------------------------------------------------------
    # round-body primitives (each pinned against the CSR equivalent)
    # ------------------------------------------------------------------
    def gather(self, values: np.ndarray, pad) -> np.ndarray:
        """Per-slot gather of a per-vertex array through the block.

        *values* has length ``universe``; *pad* is the value the sentinel
        column contributes (the identity of whatever reduction follows).
        """
        ext = np.empty(self.universe + 1, dtype=values.dtype)
        ext[: self.universe] = values
        ext[self.universe] = pad
        return ext[self.block]

    def edge_mark_counts(self, marked: np.ndarray) -> np.ndarray:
        """Per-edge count of marked vertices — dense twin of the CSR
        round's ``incidence @ marked`` (:func:`~repro.core.bl.apply_bl_round`)."""
        return self.gather(marked, False).sum(axis=1).astype(np.int64)

    def fully_marked(self, marked: np.ndarray) -> np.ndarray:
        """Edges entirely inside the marked set (pad counts as marked)."""
        return self.gather(marked, True).all(axis=1)

    def union_of(self, edge_mask: np.ndarray) -> np.ndarray:
        """Union of the selected edges, as a boolean vertex mask."""
        out = np.zeros(self.universe + 1, dtype=bool)
        out[self.block[edge_mask].ravel()] = True
        return out[: self.universe]

    def touching(self, vertex_mask: np.ndarray) -> np.ndarray:
        """Edges with at least one endpoint in *vertex_mask*."""
        return self.gather(vertex_mask, False).any(axis=1)

    def trim(self, vertex_mask: np.ndarray) -> "BitEdgeStore":
        """Remove the masked vertices from every edge (no dedup; the
        engines own the dedup/cleanup policy).  Raises like the CSR trim
        if an edge would become empty."""
        hit = self.gather(vertex_mask, False)
        new_sizes = self.sizes - hit.sum(axis=1)
        if (new_sizes == 0).any():
            bad = int(np.flatnonzero(new_sizes == 0)[0])
            edge = tuple(int(v) for v in self.block[bad] if v < self.universe)
            raise ValueError(
                f"edge {edge} became empty: the removed set contains a full edge"
            )
        block = np.where(hit, self.universe, self.block)
        block = np.sort(block, axis=1)  # kept vertices stay ascending; pads sink right
        return BitEdgeStore(self.universe, block, new_sizes.astype(np.intp))

    def singleton_vertices(self) -> np.ndarray:
        """Sorted unique vertices carried by singleton edges."""
        single = self.sizes == 1
        if not single.any():
            return np.empty(0, dtype=np.intp)
        return np.unique(self.block[single, 0])

    def superset_mask(self) -> np.ndarray:
        """Edges that properly contain another edge (word-parallel scan).

        Quadratic in ``m`` over the **tiled** packed rows — per-pair cost
        is proportional to the live stripes of the universe, which is
        what lets the scan stay cheap on the wide-universe instances the
        dispatcher now routes dense.  Differential subject for the CSR
        Gram-product scan.
        """
        m = self.num_edges
        drop = np.zeros(m, dtype=bool)
        if m <= 1:
            return drop
        _, rows = self.tiled
        sizes = self.sizes
        for j in range(m):
            smaller = sizes < sizes[j]
            if not smaller.any():
                continue
            contained = ~np.bitwise_and(rows, ~rows[j]).any(axis=1)
            if (contained & smaller).any():
                drop[j] = True
        return drop
