"""Connected components of a hypergraph.

Two vertices are connected when some chain of edges links them.  MIS
decomposes over components: the union of per-component MISs is an MIS of
the whole hypergraph, and on a PRAM the components run side by side, so
the depth is the *maximum* (not the sum) over components.
:func:`repro.core.decompose.solve_by_components` exploits exactly that.

Implementation: one ``scipy.sparse.csgraph.connected_components`` call on
the bipartite vertex–edge graph (a node per vertex slot plus a node per
edge, linked by incidence) — O(Σ|e|) in compiled code instead of the old
Python union–find.  The edge store already is that graph's CSR: edge rows
take the store's ``indptr``/``indices``, vertex rows are empty, and
``directed=False`` symmetrises (:func:`incidence_labels`).  Labels keep the
historical order: dense 0-based ids assigned by first occurrence over the
ascending active vertices.  ``csgraph`` is imported on the first call: it
pulls in ``scipy.linalg`` (~0.15 s), which a plain ``repro solve`` never
needs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["component_labels", "connected_components", "incidence_labels", "num_components"]


def incidence_labels(n: int, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Component label of each vertex ``0..n-1`` of an edge list in CSR form.

    Edge ``j`` has the members ``indices[indptr[j]:indptr[j+1]]`` (each
    below *n*).  The labels are those of the vertex–edge graph whose node
    ``n + j`` is edge ``j``.  Its CSR is the vertex rows (empty) followed by
    the edge rows, which are the edge list itself: no COO detour, no
    per-position edge-id array.  Label values are arbitrary but distinct
    per component.
    """
    from scipy.sparse import csgraph

    m = indptr.size - 1
    rows = np.concatenate((np.zeros(n, dtype=indptr.dtype), indptr))
    graph = sp.csr_matrix(
        (np.ones(indices.size, dtype=np.int8), indices, rows), shape=(n + m, n + m)
    )
    _, labels = csgraph.connected_components(graph, directed=False)
    return labels[:n]


def component_labels(H: Hypergraph) -> np.ndarray:
    """Label each *active* vertex with a component id (0-based, dense).

    Returns an array over the universe; inactive vertices get ``-1``.
    Isolated active vertices form singleton components.
    """
    labels = np.full(H.universe, -1, dtype=np.intp)
    verts = H.vertices
    if verts.size == 0:
        return labels
    if H.num_edges:
        store = H.store
        raw = incidence_labels(H.universe, store.indptr, store.indices)[verts]
    else:
        raw = np.arange(verts.size, dtype=np.intp)
    # Dense remap by first occurrence over the (ascending) active vertices —
    # the id order the union–find implementation produced.
    uniq, first_idx, inv = np.unique(raw, return_index=True, return_inverse=True)
    remap = np.empty(uniq.size, dtype=np.intp)
    remap[np.argsort(first_idx, kind="stable")] = np.arange(uniq.size, dtype=np.intp)
    labels[verts] = remap[inv]
    return labels


def connected_components(H: Hypergraph) -> list[Hypergraph]:
    """Split into component sub-hypergraphs (all over the same universe).

    Every edge lies entirely inside one component by construction, so each
    part carries its full constraint set.  Each part's edges are a masked
    selection of the canonical store (trusted construction — no
    re-canonicalisation).
    """
    labels = component_labels(H)
    count = int(labels.max()) + 1 if H.num_vertices else 0
    if count == 0:
        return []
    store = H.store
    edge_label = (
        labels[store.indices[store.indptr[:-1]]]
        if store.num_edges
        else np.empty(0, dtype=np.intp)
    )
    verts = H.vertices
    vert_label = labels[verts]
    return [
        Hypergraph._from_arrays(
            H.universe, store.select(edge_label == i), verts[vert_label == i]
        )
        for i in range(count)
    ]


def num_components(H: Hypergraph) -> int:
    """Number of connected components among the active vertices."""
    labels = component_labels(H)
    return int(labels.max()) + 1 if H.num_vertices else 0
