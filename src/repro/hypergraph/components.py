"""Connected components of a hypergraph.

Two vertices are connected when some chain of edges links them.  MIS
decomposes over components: the union of per-component MISs is an MIS of
the whole hypergraph, and on a PRAM the components run side by side, so
the depth is the *maximum* (not the sum) over components.
:func:`repro.core.decompose.solve_by_components` exploits exactly that.

Implementation: one ``scipy.sparse.csgraph.connected_components`` call on
the bipartite vertex–edge graph (a node per universe slot plus a node per
edge, linked by incidence) — O(Σ|e|) in compiled code instead of the old
Python union–find.  Labels keep the historical order: dense 0-based ids
assigned by first occurrence over the ascending active vertices.
``csgraph`` is imported on the first call: it pulls in ``scipy.linalg``
(~0.15 s), which a plain ``repro solve`` never needs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["component_labels", "connected_components", "num_components"]


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
        from scipy.sparse import csgraph

        store = H.store
        m = store.num_edges
        n_nodes = H.universe + m
        rows = store.indices
        cols = H.universe + np.repeat(np.arange(m, dtype=np.intp), store.sizes())
        graph = sp.coo_matrix(
            (np.ones(rows.size, dtype=np.int8), (rows, cols)),
            shape=(n_nodes, n_nodes),
        )
        _, raw_all = csgraph.connected_components(graph, directed=False)
        raw = raw_all[verts]
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
