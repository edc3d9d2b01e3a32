"""The canonical hypergraph value type.

Design notes
------------
* **Fixed universe.**  Vertices are integers in ``{0, …, universe-1}``.  The
  universe never changes across algorithm rounds even as vertices are
  removed, so vertex ids in the final independent set always refer to the
  input hypergraph.  The *active* vertex set is an explicit sorted array.
* **CSR-native canonical edges.**  Edges live in an
  :class:`~repro.hypergraph.edgestore.EdgeStore` — a ``(indptr, indices)``
  ragged-array pair holding each edge as a strictly increasing run, the
  edge list lexicographically sorted and deduplicated.  The tuple-of-tuples
  view (:attr:`edges`) is materialised lazily for cold paths and tests; the
  hot paths (algorithm rounds, incidence, validation) never touch it.
* **Trusted construction.**  ``Hypergraph._from_arrays`` adopts
  already-canonical arrays without re-canonicalising or re-validating —
  every algorithm-produced successor hypergraph (masked edge selections,
  trims of canonical stores) qualifies, which removes the per-round
  canonicalisation cost entirely.  Public construction still canonicalises
  and validates.
* **Vectorised hot path.**  The fully-marked-edge test at the heart of the
  Beame–Luby algorithm is a sparse matrix–vector product against the CSR
  incidence matrix, built once per instance from the edge store's arrays;
  per-edge Python loops are kept only in reference implementations used
  for differential testing.
* **Value semantics.**  Instances are immutable; the update operations in
  :mod:`repro.hypergraph.ops` return new instances.  This costs an array
  rebuild per algorithm round — rounds are polylogarithmic, each round is
  Ω(total edge size) anyway — and buys simple, auditable algorithm code.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from repro.hypergraph.edgestore import EdgeStore

__all__ = ["Hypergraph"]

EdgeLike = Iterable[int]


def _checked_vertices(universe: int, vertices) -> np.ndarray:
    """The sorted active-vertex array, after checking the universe and
    that every vertex lies in it (all of it when *vertices* is None)."""
    if universe < 0:
        raise ValueError(f"universe must be non-negative: {universe}")
    if vertices is None:
        return np.arange(universe, dtype=np.intp)
    v = np.unique(np.asarray(list(vertices) if not isinstance(vertices, np.ndarray) else vertices, dtype=np.intp))
    if v.size and (v[0] < 0 or v[-1] >= universe):
        raise IndexError("vertex outside universe")
    return v


class Hypergraph:
    """An immutable hypergraph ``H = (V, E)`` over a fixed integer universe.

    Parameters
    ----------
    universe:
        Size of the ground set; vertices are ``0 … universe-1``.
    edges:
        Iterable of vertex iterables.  Edges are canonicalised (sorted,
        deduplicated); an empty edge raises ``ValueError``.
    vertices:
        The active vertex set.  Defaults to the full universe.  Every edge
        must be contained in the active set.

    Examples
    --------
    >>> H = Hypergraph(5, [(0, 1, 2), (2, 3)])
    >>> H.num_vertices, H.num_edges, H.dimension
    (5, 2, 3)
    >>> H.edges
    ((0, 1, 2), (2, 3))
    """

    __slots__ = (
        "_universe",
        "_vertices",
        "_store",
        "_edges",
        "_incidence",
        "_edge_sizes",
        "_dimension",
        "_vertex_to_edges",
        "_content_hash",
    )

    def __init__(
        self,
        universe: int,
        edges: Iterable[EdgeLike] = (),
        vertices: Sequence[int] | np.ndarray | None = None,
    ):
        self._vertices = _checked_vertices(universe, vertices)
        self._universe = int(universe)
        self._store = edges if isinstance(edges, EdgeStore) else EdgeStore.from_iterable(edges)
        self._validate_edges_active()
        self._init_caches()

    def _init_caches(self) -> None:
        self._edges: tuple[tuple[int, ...], ...] | None = None
        self._incidence: sp.csr_matrix | None = None
        self._edge_sizes: np.ndarray | None = None
        self._dimension: int | None = None
        self._vertex_to_edges: dict[int, list[int]] | None = None
        self._content_hash: str | None = None

    def _validate_edges_active(self) -> None:
        """Every edge vertex must be an *active* vertex — one vectorised mask
        check over the flat index array (no per-vertex Python loop)."""
        idx = self._store.indices
        if idx.size == 0:
            return
        active_mask = np.zeros(self._universe + 1, dtype=bool)
        active_mask[self._vertices] = True
        in_range = (idx >= 0) & (idx < self._universe)
        ok = in_range & active_mask[np.where(in_range, idx, self._universe)]
        if ok.all():
            return
        pos = int(np.flatnonzero(~ok)[0])
        j = int(np.searchsorted(self._store.indptr, pos, side="right")) - 1
        raise ValueError(
            f"edge {self._store.edge(j)} contains inactive vertex {int(idx[pos])}"
        )

    @classmethod
    def _from_arrays(
        cls, universe: int, store: EdgeStore, vertices: np.ndarray
    ) -> "Hypergraph":
        """Trusted-construction fast path.

        Adopts *store* (which must already satisfy the canonical invariant)
        and *vertices* (sorted, unique, in range, containing every edge
        vertex) without canonicalisation or validation.  Callers are the
        algorithm kernels whose outputs provably preserve those invariants
        — masked selections and trims of an already-canonical hypergraph.
        """
        obj = object.__new__(cls)
        obj._universe = int(universe)
        obj._vertices = vertices
        obj._store = store
        obj._init_caches()
        return obj

    # ------------------------------------------------------------------
    # array round-trip (the wire/shared-memory representation)
    # ------------------------------------------------------------------
    def to_arrays(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Decompose into ``(universe, vertices, indptr, indices)``.

        The three arrays are the instance's own buffers exposed read-only
        (zero-copy); together with the universe they determine the
        hypergraph exactly and satisfy the canonical invariant, so
        :meth:`from_arrays` reconstructs an equal instance without
        re-canonicalising.  This is the transfer format the parallel
        executor serialises into shared memory.
        """

        def _ro(a: np.ndarray) -> np.ndarray:
            view = a.view()
            view.flags.writeable = False
            return view

        return (
            self._universe,
            _ro(self._vertices),
            _ro(self._store.indptr),
            _ro(self._store.indices),
        )

    @classmethod
    def from_arrays(
        cls,
        universe: int,
        vertices: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        canonical: bool = True,
    ) -> "Hypergraph":
        """Rebuild from :meth:`to_arrays` output.

        With ``canonical=True`` (the round-trip case) the arrays are
        adopted as-is — no copy, no validation — so workers attaching to a
        shared-memory buffer pay only the view construction.  Pass
        ``canonical=False`` for arrays of unknown provenance; they are
        canonicalised (adopted as-is when already canonical, see
        :meth:`EdgeStore.from_arrays`) and the active-vertex validation
        runs.
        """
        if canonical:
            store = EdgeStore.from_arrays(indptr, indices, canonical=True)
            return cls._from_arrays(int(universe), store, np.asarray(vertices, dtype=np.intp))
        universe = int(universe)
        verts = _checked_vertices(universe, vertices)  # before the edges, as __init__
        store = EdgeStore.from_arrays(indptr, indices, canonical=False)
        obj = cls._from_arrays(universe, store, verts)
        obj._validate_edges_active()
        return obj

    def content_hash(self) -> str:
        """SHA-256 over the canonical arrays (hex digest, cached).

        Two hypergraphs are equal iff their hashes agree (the arrays are
        canonical, so the representation is unique).  The parallel
        executor keys its worker-side instance cache on this.
        """
        if self._content_hash is None:
            import hashlib

            h = hashlib.sha256()
            h.update(
                np.asarray(
                    [self._universe, self._vertices.size, self._store.num_edges],
                    dtype=np.int64,
                ).tobytes()
            )
            h.update(np.ascontiguousarray(self._vertices).tobytes())
            h.update(np.ascontiguousarray(self._store.indptr).tobytes())
            h.update(np.ascontiguousarray(self._store.indices).tobytes())
            self._content_hash = h.hexdigest()
        return self._content_hash

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def universe(self) -> int:
        """Size of the ground set (stable across algorithm rounds)."""
        return self._universe

    @property
    def vertices(self) -> np.ndarray:
        """Active vertices as a sorted read-only index array."""
        view = self._vertices.view()
        view.flags.writeable = False
        return view

    @property
    def store(self) -> EdgeStore:
        """The CSR edge store (canonical ``(indptr, indices)`` arrays)."""
        return self._store

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Canonical edge tuple (each edge a sorted tuple of vertex ids).

        Materialised lazily from the edge store; hot paths use the arrays.
        """
        if self._edges is None:
            self._edges = self._store.edge_tuples()
        return self._edges

    @property
    def num_vertices(self) -> int:
        """|V| — the number of *active* vertices."""
        return int(self._vertices.size)

    @property
    def num_edges(self) -> int:
        """|E|."""
        return self._store.num_edges

    @property
    def dimension(self) -> int:
        """Maximum edge size (0 for an edgeless hypergraph)."""
        if self._dimension is None:
            sizes = self.edge_sizes()
            self._dimension = int(sizes.max()) if sizes.size else 0
        return self._dimension

    @property
    def min_edge_size(self) -> int:
        """Minimum edge size (0 for an edgeless hypergraph)."""
        sizes = self.edge_sizes()
        return int(sizes.min()) if sizes.size else 0

    @property
    def total_edge_size(self) -> int:
        """Σ_e |e| — the natural input-size measure."""
        return self._store.total_size

    def edge_sizes(self) -> np.ndarray:
        """Edge sizes as an int array aligned with :attr:`edges`."""
        if self._edge_sizes is None:
            self._edge_sizes = self._store.sizes()
        return self._edge_sizes

    # ------------------------------------------------------------------
    # derived structures (lazily cached)
    # ------------------------------------------------------------------
    def incidence(self) -> sp.csr_matrix:
        """The ``m × universe`` 0/1 incidence matrix in CSR form.

        Row ``i`` is the indicator vector of edge ``i``.  The hot path of
        every marking algorithm is ``incidence() @ marked`` which yields,
        per edge, the number of marked vertices.  Built once and cached.
        scipy downcasts the store's int64 index arrays to int32 when they
        fit, so construction copies them (an O(Σ|e|) pass) besides
        allocating the data vector.
        """
        if self._incidence is None:
            data = np.ones(self._store.indices.size, dtype=np.int64)
            self._incidence = sp.csr_matrix(
                (data, self._store.indices, self._store.indptr),
                shape=(self._store.num_edges, self._universe),
            )
        return self._incidence

    def vertex_to_edges(self) -> dict[int, list[int]]:
        """Map each vertex to the (sorted) list of indices of edges containing it."""
        if self._vertex_to_edges is None:
            adj: dict[int, list[int]] = {}
            for i, e in enumerate(self.edges):
                for v in e:
                    adj.setdefault(v, []).append(i)
            self._vertex_to_edges = adj
        return self._vertex_to_edges

    def degree(self, v: int) -> int:
        """Number of edges containing vertex *v*."""
        return int(np.count_nonzero(self._store.indices == v))

    def degrees(self) -> np.ndarray:
        """Vertex degrees over the whole universe (one bincount)."""
        return np.bincount(self._store.indices, minlength=self._universe)

    def max_degree(self) -> int:
        """Maximum vertex degree (0 if edgeless)."""
        if self._store.indices.size == 0:
            return 0
        return int(self.degrees().max())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_edge(self, e: EdgeLike) -> bool:
        """Is the canonicalised *e* an edge of H? (binary search)"""
        t = tuple(sorted(set(int(v) for v in e)))
        edges = self.edges
        lo, hi = 0, len(edges)
        while lo < hi:
            mid = (lo + hi) // 2
            if edges[mid] < t:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(edges) and edges[lo] == t

    def edges_within(self, member_mask: np.ndarray) -> np.ndarray:
        """Indices of edges fully contained in the vertex set given by *member_mask*.

        *member_mask* is a boolean array over the universe.  Vectorised:
        one sparse matvec.
        """
        if member_mask.shape != (self._universe,):
            raise ValueError("mask must cover the universe")
        if self.num_edges == 0:
            return np.empty(0, dtype=np.intp)
        counts = self.incidence() @ member_mask.astype(np.int64)
        return np.flatnonzero(counts == self.edge_sizes())

    def edges_touching(self, member_mask: np.ndarray) -> np.ndarray:
        """Indices of edges with at least one vertex in the masked set."""
        if member_mask.shape != (self._universe,):
            raise ValueError("mask must cover the universe")
        if self.num_edges == 0:
            return np.empty(0, dtype=np.intp)
        counts = self.incidence() @ member_mask.astype(np.int64)
        return np.flatnonzero(counts > 0)

    def contains_fully(self, member_mask: np.ndarray) -> bool:
        """Does some edge lie entirely inside the masked vertex set?"""
        return self.edges_within(member_mask).size > 0

    def vertex_mask(self) -> np.ndarray:
        """Boolean mask over the universe marking the active vertices."""
        mask = np.zeros(self._universe, dtype=bool)
        mask[self._vertices] = True
        return mask

    # ------------------------------------------------------------------
    # sub-hypergraphs
    # ------------------------------------------------------------------
    def _subset_mask(self, vertex_subset: Iterable[int] | np.ndarray) -> np.ndarray:
        idx = np.asarray(
            list(vertex_subset) if not isinstance(vertex_subset, np.ndarray) else vertex_subset,
            dtype=np.intp,
        )
        mask = np.zeros(self._universe, dtype=bool)
        if idx.size:
            if int(idx.min()) < 0 or int(idx.max()) >= self._universe:
                raise IndexError("vertex outside universe")
            mask[idx] = True
        return mask

    def induced(self, vertex_subset: Iterable[int] | np.ndarray) -> "Hypergraph":
        """The sub-hypergraph induced by *vertex_subset*.

        Vertices are restricted to the subset; the edges kept are exactly
        those **fully contained** in the subset (the paper's
        ``E' = {e ∈ E : e ⊆ V'}`` in SBL line 7).  A masked selection of a
        canonical store stays canonical, so the result uses the trusted
        fast path.
        """
        mask = self._subset_mask(vertex_subset)
        active = self._vertices[mask[self._vertices]]
        if self.num_edges == 0:
            return Hypergraph._from_arrays(self._universe, self._store, active)
        counts = self.incidence() @ mask.astype(np.int64)
        keep = counts == self.edge_sizes()
        return Hypergraph._from_arrays(self._universe, self._store.select(keep), active)

    def without_vertices(self, vertex_subset: Iterable[int] | np.ndarray) -> "Hypergraph":
        """Drop the given vertices from the active set and drop edges touching them."""
        mask = self._subset_mask(vertex_subset)
        remaining = self._vertices[~mask[self._vertices]]
        if self.num_edges == 0:
            return Hypergraph._from_arrays(self._universe, self._store, remaining)
        counts = self.incidence() @ mask.astype(np.int64)
        keep = counts == 0
        return Hypergraph._from_arrays(
            self._universe, self._store.select(keep), remaining
        )

    def replace(
        self,
        *,
        edges: Iterable[EdgeLike] | None = None,
        vertices: Sequence[int] | np.ndarray | None = None,
    ) -> "Hypergraph":
        """Functional update returning a new hypergraph over the same universe."""
        return Hypergraph(
            self._universe,
            self._store if edges is None else edges,
            vertices=self._vertices if vertices is None else vertices,
        )

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self._universe == other._universe
            and self._vertices.size == other._vertices.size
            and bool((self._vertices == other._vertices).all())
            and self._store == other._store
        )

    def __hash__(self) -> int:
        return hash((self._universe, self._vertices.tobytes(), self._store))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.edges)

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:
        return (
            f"Hypergraph(universe={self._universe}, n={self.num_vertices}, "
            f"m={self.num_edges}, dim={self.dimension})"
        )
