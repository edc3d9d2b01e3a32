"""Pure-Python reference implementations for differential testing.

The production hot paths are vectorised (sparse incidence matvecs,
NumPy masks).  These references implement the same operations with plain
sets and loops, straight from the definitions; the test suite checks the
two agree on random inputs, and the ablation benchmark A1 measures the
speedup the vectorisation buys (one of DESIGN.md §5's decisions).
"""

from __future__ import annotations

from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "reference_fully_marked_edges",
    "reference_bl_round",
    "reference_superset_removal",
    "reference_greedy",
]


def reference_fully_marked_edges(H: Hypergraph, marked: set[int]) -> list[int]:
    """Indices of edges whose vertices are all in *marked* — per-edge loop."""
    return [i for i, e in enumerate(H.edges) if all(v in marked for v in e)]


def reference_bl_round(
    H: Hypergraph, marked: set[int]
) -> tuple[Hypergraph, set[int], set[int]]:
    """One BL round body on sets: returns ``(H_after, added, red)``.

    Mirrors :func:`repro.core.bl.apply_bl_round` exactly, including the
    cleanup fixed point (superset removal + singleton deletion).
    """
    marked = {v for v in marked if v in set(H.vertices.tolist())}
    # Unmark every vertex of every fully marked edge.
    unmark: set[int] = set()
    for e in H.edges:
        if all(v in marked for v in e):
            unmark.update(e)
    added = marked - unmark
    # Commit: drop added from vertices and edges.
    vertices = [v for v in H.vertices.tolist() if v not in added]
    edges = [tuple(v for v in e if v not in added) for e in H.edges]
    if any(len(e) == 0 for e in edges):
        raise ValueError("edge became empty — independence broken")
    # Cleanup fixed point.
    red: set[int] = set()
    while True:
        # superset removal (keep minimal edges)
        sets = [frozenset(e) for e in edges]
        keep = []
        for i, e in enumerate(edges):
            if not any(sets[j] < sets[i] for j in range(len(edges)) if j != i):
                keep.append(e)
        edges = keep
        # singleton removal
        singles = {e[0] for e in edges if len(e) == 1}
        if not singles:
            break
        red.update(singles)
        vertices = [v for v in vertices if v not in singles]
        edges = [e for e in edges if not (set(e) & singles)]
    H_after = Hypergraph(H.universe, edges, vertices=vertices)
    return H_after, added, red


def reference_superset_removal(H: Hypergraph) -> Hypergraph:
    """O(m²) superset removal straight from the definition."""
    sets = [frozenset(e) for e in H.edges]
    keep = [
        e
        for i, e in enumerate(H.edges)
        if not any(sets[j] < sets[i] for j in range(len(sets)) if j != i)
    ]
    return H.replace(edges=keep)


def reference_greedy(H: Hypergraph, order) -> list[int]:
    """Greedy MIS along *order*, one vertex at a time — the scan's spec.

    A vertex is rejected iff some edge containing it has all its other
    vertices already accepted, detected with a per-edge count of accepted
    members.  Returns the accepted vertices, sorted.
    """
    sizes = [len(e) for e in H.edges]
    accepted_count = [0] * len(sizes)
    adj = H.vertex_to_edges()
    accepted = []
    for v in order:
        incident = adj.get(int(v), ())
        if any(accepted_count[i] == sizes[i] - 1 for i in incident):
            continue
        accepted.append(int(v))
        for i in incident:
            accepted_count[i] += 1
    return sorted(accepted)
