"""CSR-native edge storage — the array substrate under :class:`Hypergraph`.

Edges are held as a ragged CSR pair ``(indptr, indices)``: edge ``i`` is
``indices[indptr[i]:indptr[i+1]]``.  The **canonical invariant** is

* every edge strictly increasing (sorted, no repeated vertex),
* no empty edges,
* edges lexicographically sorted as tuples, no duplicate edges.

Canonicalisation is vectorised: one ``np.lexsort`` over (row, vertex) sorts
and dedups within edges, and one ``np.lexsort`` over a sentinel-padded edge
matrix sorts and dedups the edge list — no per-edge Python.  Python-tuple
comparison order is reproduced exactly by padding short edges with ``-1``
(a missing position compares *smaller* than any vertex, so a prefix sorts
before its extensions, just as ``(0, 1) < (0, 1, 2)``).  Array input
(:meth:`EdgeStore.from_arrays` with ``canonical=False``: parsed files, the
update merge) is first checked in O(Σ|e|) and adopted as it is when
already canonical, as every file ``dump`` writes is.

The store is the linchpin of the trusted-construction fast path
(:meth:`Hypergraph._from_arrays`): every operation here that only *selects*
edges (masking, component splits) preserves the invariant by construction,
and :meth:`trim` restores it with a single re-sort that skips the
within-edge pass (removing vertices from a sorted edge keeps it sorted).
Those operations therefore hand their output straight to ``_from_arrays``
without re-canonicalising — the fact that makes every algorithm round an
end-to-end NumPy pipeline.

The CSR incidence matrix of the hypergraph *is* these arrays (plus a ones
data vector), so "building" the incidence costs O(1) extra allocations —
the old per-round ``np.fromiter`` over edge tuples is gone entirely.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.obs import metrics as obs_metrics

__all__ = ["EdgeStore"]

#: Beyond this edge size the padded lex-sort matrix gets wasteful; fall
#: back to sorting Python tuples (construction-time only, never per round).
_PAD_LIMIT = 64

_EMPTY_EDGE_MSG = "empty edge is not allowed (it would make every set dependent)"


def _row_ids(indptr: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Edge id of every position in ``indices``."""
    return np.repeat(np.arange(sizes.size, dtype=np.intp), sizes)


def _padded(indptr: np.ndarray, indices: np.ndarray, sizes: np.ndarray, dmax: int) -> np.ndarray:
    """The edges as the rows of an ``(m, dmax)`` matrix padded with ``-1``."""
    rows = _row_ids(indptr, sizes)
    cols = np.arange(indices.size, dtype=np.intp) - np.repeat(indptr[:-1], sizes)
    M = np.full((sizes.size, dmax), -1, dtype=np.intp)
    M[rows, cols] = indices
    return M


def _ids_ascending(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Is every edge strictly increasing?  One compare per position."""
    if indices.size < 2:
        return True
    step = indices[1:] > indices[:-1]
    step[indptr[1:-1] - 1] = True  # an edge's first id need not exceed the last edge's
    return bool(step.all())


def _rows_ascending(M: np.ndarray) -> bool:
    """Are the padded rows strictly lex-ascending (sorted, no duplicates)?

    Walks the columns, comparing each row with its successor only while
    all earlier columns tie; a pair tied through every column is a
    duplicate and fails.
    """
    tied = np.ones(M.shape[0] - 1, dtype=bool)
    for c in range(M.shape[1]):
        if not tied.any():
            return True
        a, b = M[:-1, c], M[1:, c]
        if (tied & (b < a)).any():
            return False
        tied &= b == a
    return not tied.any()


def _lexsort_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    changed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Sort edges lexicographically and merge duplicates.

    Input edges must already be internally sorted and non-empty.  Returns
    ``(indptr, indices, changed_out, present_out)`` where, when *changed*
    is given, *changed_out* ORs the per-edge flags over each duplicate
    group — a dedup collision marks the surviving edge as changed, which
    :func:`repro.hypergraph.ops.normalize_after_trim` relies on — and
    *present_out* flags output edges whose group contains an *unchanged*
    member, i.e. edges whose tuple already existed verbatim in the input
    (what lets callers report an exact edge diff without a full set
    comparison).
    """
    sizes = np.diff(indptr)
    m = sizes.size
    if m <= 1:
        present = None if changed is None else ~changed
        return indptr, indices, changed, present
    dmax = int(sizes.max())
    if dmax > _PAD_LIMIT:
        return _lexsort_rows_fallback(indptr, indices, changed)
    M = _padded(indptr, indices, sizes, dmax)
    order = np.lexsort(M.T[::-1])
    Ms = M[order]
    keep = np.empty(m, dtype=bool)
    keep[0] = True
    keep[1:] = (Ms[1:] != Ms[:-1]).any(axis=1)

    sizes_sorted = sizes[order]
    out_sizes = sizes_sorted[keep]
    out_indptr = np.zeros(out_sizes.size + 1, dtype=np.intp)
    np.cumsum(out_sizes, out=out_indptr[1:])
    starts = indptr[:-1][order][keep]
    within = np.arange(int(out_indptr[-1]), dtype=np.intp) - np.repeat(
        out_indptr[:-1], out_sizes
    )
    out_indices = indices[np.repeat(starts, out_sizes) + within]

    changed_out = None
    present_out = None
    if changed is not None:
        group = np.cumsum(keep) - 1  # output row of each sorted input row
        changed_sorted = changed[order]
        changed_out = np.zeros(out_sizes.size, dtype=bool)
        np.logical_or.at(changed_out, group, changed_sorted)
        present_out = np.zeros(out_sizes.size, dtype=bool)
        np.logical_or.at(present_out, group, ~changed_sorted)
    return out_indptr, out_indices, changed_out, present_out


def _lexsort_rows_fallback(
    indptr: np.ndarray,
    indices: np.ndarray,
    changed: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Tuple-based edge sort for degenerate dimensions (> _PAD_LIMIT)."""
    m = indptr.size - 1
    tuples = [tuple(indices[indptr[i] : indptr[i + 1]].tolist()) for i in range(m)]
    order = sorted(range(m), key=tuples.__getitem__)
    merged: dict[tuple[int, ...], list[bool]] = {}
    for i in order:
        t = tuples[i]
        flag = bool(changed[i]) if changed is not None else False
        entry = merged.get(t)
        if entry is None:
            merged[t] = [flag, not flag]
        else:
            entry[0] = entry[0] or flag
            entry[1] = entry[1] or not flag
    out_sizes = np.fromiter((len(t) for t in merged), dtype=np.intp, count=len(merged))
    out_indptr = np.zeros(out_sizes.size + 1, dtype=np.intp)
    np.cumsum(out_sizes, out=out_indptr[1:])
    out_indices = np.fromiter(
        (v for t in merged for v in t), dtype=np.intp, count=int(out_indptr[-1])
    )
    changed_out = None
    present_out = None
    if changed is not None:
        changed_out = np.fromiter(
            (e[0] for e in merged.values()), dtype=bool, count=len(merged)
        )
        present_out = np.fromiter(
            (e[1] for e in merged.values()), dtype=bool, count=len(merged)
        )
    return out_indptr, out_indices, changed_out, present_out


class EdgeStore:
    """Immutable canonical edge list in CSR form.

    Construct via :meth:`from_iterable` (general input, full
    canonicalisation) or :meth:`from_arrays` (``canonical=True`` trusts the
    caller's proof that the invariant already holds and skips all work;
    ``canonical=False`` checks it first).
    """

    __slots__ = ("indptr", "indices", "_sizes", "_keys")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr = indptr
        self.indices = indices
        self._sizes: np.ndarray | None = None
        # ``(base, width, keys)``: the packed edge keys that
        # :mod:`repro.hypergraph.updates` computed for this store (or
        # carried over from its predecessor).  Trusted like ``_sizes`` and,
        # like it, not part of equality or hashing.
        self._keys: tuple[int, int, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "EdgeStore":
        return cls(np.zeros(1, dtype=np.intp), np.empty(0, dtype=np.intp))

    @classmethod
    def from_iterable(cls, edges: Iterable[Iterable[int]]) -> "EdgeStore":
        """Canonicalise arbitrary edge input (the general construction path).

        Always sorts.  Taking :meth:`from_arrays`' already-canonical check
        here as well would speed up generators whose output is canonical,
        but it also changes the heap the sort leaves behind: on a 2-CPU
        Xeon VM the ``DynamicMIS`` builds that follow ``sharded_hypergraph``
        then page-fault ~2,400–5,000 times each and run ~35% slower (see
        the benchmark follow-ups in ROADMAP.md).
        """
        edge_list = [tuple(e) for e in edges]
        if not edge_list:
            return cls.empty()
        sizes = np.fromiter((len(e) for e in edge_list), dtype=np.intp, count=len(edge_list))
        if (sizes == 0).any():
            raise ValueError(_EMPTY_EDGE_MSG)
        indptr = np.zeros(sizes.size + 1, dtype=np.intp)
        np.cumsum(sizes, out=indptr[1:])
        indices = np.fromiter(
            (int(v) for e in edge_list for v in e), dtype=np.intp, count=int(indptr[-1])
        )
        return cls._sorted(indptr, indices, sizes)

    @classmethod
    def from_arrays(
        cls, indptr: np.ndarray, indices: np.ndarray, *, canonical: bool
    ) -> "EdgeStore":
        """Build from CSR arrays.

        With ``canonical=True`` the arrays are adopted as-is — the trusted
        fast path for algorithm-produced successors.  With ``canonical=False``
        the invariant is checked in O(Σ|e|): ids strictly ascending inside
        each edge, then edges strictly lex-ascending (first ids, then one
        padded-row compare).  Input that passes is adopted as-is; otherwise
        the full canonicalisation runs — sort + dedup within each edge,
        then lex-sort + dedup the edge list.  Only that sort counts toward
        the ``edgestore/canonicalisations`` metric.
        """
        indptr = np.asarray(indptr, dtype=np.intp)
        indices = np.asarray(indices, dtype=np.intp)
        if canonical:
            return cls(indptr, indices)
        sizes = np.diff(indptr)
        if (sizes == 0).any():
            raise ValueError(_EMPTY_EDGE_MSG)
        if sizes.size == 0:
            return cls.empty()
        indptr = np.ascontiguousarray(indptr)
        indices = np.ascontiguousarray(indices)
        dmax = int(sizes.max())
        if dmax <= _PAD_LIMIT and _ids_ascending(indptr, indices):
            first = indices[indptr[:-1]]
            if not (first[1:] < first[:-1]).any():
                if indices.size == sizes.size * dmax:  # every edge has dmax ids
                    padded = indices.reshape(sizes.size, dmax)
                else:
                    padded = _padded(indptr, indices, sizes, dmax)
                if _rows_ascending(padded):
                    out = cls(indptr, indices)
                    out._sizes = sizes
                    return out
        return cls._sorted(indptr, indices, sizes)

    @classmethod
    def _sorted(cls, indptr: np.ndarray, indices: np.ndarray, sizes: np.ndarray) -> "EdgeStore":
        """Full canonicalisation of non-empty edges: sort + dedup within
        each edge, then lex-sort + dedup the edge list."""
        obs_metrics.inc("edgestore/canonicalisations")
        # Within-edge sort: lexsort with row as the primary key keeps rows
        # grouped (they are already in ascending order) and sorts inside.
        rows = _row_ids(indptr, sizes)
        order = np.lexsort((indices, rows))
        sorted_idx = indices[order]
        dup = np.zeros(indices.size, dtype=bool)
        if indices.size > 1:
            dup[1:] = (rows[1:] == rows[:-1]) & (sorted_idx[1:] == sorted_idx[:-1])
        keep = ~dup
        new_indices = sorted_idx[keep]
        new_sizes = np.bincount(rows[keep], minlength=sizes.size).astype(np.intp)
        new_indptr = np.zeros(new_sizes.size + 1, dtype=np.intp)
        np.cumsum(new_sizes, out=new_indptr[1:])
        out_indptr, out_indices, _, _ = _lexsort_rows(new_indptr, new_indices)
        return cls(out_indptr, out_indices)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return self.indptr.size - 1

    @property
    def total_size(self) -> int:
        return int(self.indptr[-1])

    def sizes(self) -> np.ndarray:
        """Per-edge sizes (computed once and cached; treat as read-only)."""
        if self._sizes is None:
            self._sizes = np.diff(self.indptr)
        return self._sizes

    def edge(self, i: int) -> tuple[int, ...]:
        """Edge *i* as a sorted tuple (error paths and cold queries only)."""
        return tuple(self.indices[self.indptr[i] : self.indptr[i + 1]].tolist())

    def edge_tuples(self) -> tuple[tuple[int, ...], ...]:
        """All edges as sorted tuples — the compatibility view, O(total) Python."""
        if self.num_edges == 0:
            return ()
        parts = np.split(self.indices, self.indptr[1:-1])
        return tuple(tuple(p.tolist()) for p in parts)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.edge_tuples())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeStore):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        )

    def __hash__(self) -> int:
        return hash((self.indptr.tobytes(), self.indices.tobytes()))

    # ------------------------------------------------------------------
    # canonical-preserving transforms (all trusted-output)
    # ------------------------------------------------------------------
    def position_mask(self, edge_mask: np.ndarray) -> np.ndarray:
        """Expand a per-edge boolean mask to a per-position mask."""
        return np.repeat(edge_mask, self.sizes())

    def select(self, edge_mask: np.ndarray) -> "EdgeStore":
        """Keep the masked edges.  A subsequence of a canonical edge list is
        canonical, so the result is trusted."""
        sizes = self.sizes()
        kept_sizes = sizes[edge_mask]
        new_indptr = np.zeros(kept_sizes.size + 1, dtype=np.intp)
        np.cumsum(kept_sizes, out=new_indptr[1:])
        new_indices = self.indices[np.repeat(edge_mask, sizes)]
        out = EdgeStore(new_indptr, new_indices)
        out._sizes = kept_sizes
        return out

    def diff(self, other: "EdgeStore") -> tuple[np.ndarray, np.ndarray]:
        """Symmetric difference of two canonical stores, as index arrays.

        Returns ``(removed, added)``: indices of the edges present in *self*
        but not in *other*, and vice versa.  Both stores being duplicate-free,
        one lex-sort of the stacked padded matrices pairs identical rows off
        (every equal-row run has length exactly two: one row per store); the
        unpaired rows are the difference.  This is what lets the incremental
        degree tracker update in O(changed) instead of O(m) per round.
        """
        m1, m2 = self.num_edges, other.num_edges
        if m1 == 0 or m2 == 0:
            return (
                np.arange(m1, dtype=np.intp),
                np.arange(m2, dtype=np.intp),
            )
        s1, s2 = self.sizes(), other.sizes()
        dmax = int(max(s1.max(), s2.max()))
        if dmax > _PAD_LIMIT:
            return self._diff_fallback(other)
        M = np.full((m1 + m2, dmax), -1, dtype=np.intp)
        rows1 = _row_ids(self.indptr, s1)
        cols1 = np.arange(self.indices.size, dtype=np.intp) - np.repeat(
            self.indptr[:-1], s1
        )
        M[rows1, cols1] = self.indices
        rows2 = _row_ids(other.indptr, s2)
        cols2 = np.arange(other.indices.size, dtype=np.intp) - np.repeat(
            other.indptr[:-1], s2
        )
        M[m1 + rows2, cols2] = other.indices
        order = np.lexsort(M.T[::-1])
        Ms = M[order]
        same = (Ms[1:] == Ms[:-1]).all(axis=1)
        matched = np.zeros(m1 + m2, dtype=bool)
        matched[1:] = same
        matched[:-1] |= same
        unmatched = order[~matched]
        removed = np.sort(unmatched[unmatched < m1])
        added = np.sort(unmatched[unmatched >= m1] - m1)
        return removed, added

    def _diff_fallback(self, other: "EdgeStore") -> tuple[np.ndarray, np.ndarray]:
        """Tuple-based diff for degenerate dimensions (> _PAD_LIMIT)."""
        a = set(self.edge_tuples())
        b = set(other.edge_tuples())
        removed = np.asarray(
            [i for i, t in enumerate(self.edge_tuples()) if t not in b], dtype=np.intp
        )
        added = np.asarray(
            [i for i, t in enumerate(other.edge_tuples()) if t not in a], dtype=np.intp
        )
        return removed, added

    def trim(
        self, vertex_mask: np.ndarray
    ) -> tuple["EdgeStore", np.ndarray, bool, np.ndarray, np.ndarray]:
        """Remove the masked vertices from every edge; re-canonicalise.

        Removing vertices keeps each edge internally sorted, so only the
        edge-level lex-sort + dedup re-runs.  Returns
        ``(store, changed_mask, any_change, changed_in, present_mask)``:
        *changed_mask* flags the output edges that shrank or absorbed a
        dedup collision, *changed_in* flags the **input** edges that shrank,
        and *present_mask* flags output edges whose tuple already existed
        verbatim in the input (some dedup-group member was untouched) — the
        two extra masks are what exact cross-round caches (the Δ tracker)
        consume in lieu of a full store diff.

        Raises
        ------
        ValueError
            If an edge would become empty (the removed set contains a full
            edge — a correctness violation upstream).
        """
        obs_metrics.inc("edgestore/trim_calls")
        if self.num_edges == 0:
            z = np.zeros(0, dtype=bool)
            return self, z, False, z, np.ones(0, dtype=bool)
        hit = vertex_mask[self.indices]
        if not hit.any():
            z = np.zeros(self.num_edges, dtype=bool)
            return self, z, False, z, np.ones(self.num_edges, dtype=bool)
        sizes = self.sizes()
        removed_per_edge = np.add.reduceat(hit.astype(np.intp), self.indptr[:-1])
        new_sizes = sizes - removed_per_edge
        if (new_sizes == 0).any():
            bad = int(np.flatnonzero(new_sizes == 0)[0])
            raise ValueError(
                f"edge {self.edge(bad)} became empty: the removed set contains a full edge"
            )
        new_indices = self.indices[~hit]
        new_indptr = np.zeros(new_sizes.size + 1, dtype=np.intp)
        np.cumsum(new_sizes, out=new_indptr[1:])
        changed = removed_per_edge > 0
        obs_metrics.inc("edgestore/edges_trimmed", int(np.count_nonzero(changed)))
        out_indptr, out_indices, changed_out, present_out = _lexsort_rows(
            new_indptr, new_indices, changed
        )
        assert changed_out is not None and present_out is not None
        return EdgeStore(out_indptr, out_indices), changed_out, True, changed, present_out
