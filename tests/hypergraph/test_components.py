"""Tests for connected components."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import matching_hypergraph, tight_path, uniform_hypergraph
from repro.hypergraph import Hypergraph
from repro.hypergraph.components import (
    component_labels,
    connected_components,
    incidence_labels,
    num_components,
)
from repro.hypergraph.edgestore import EdgeStore


def _coo_labels(n: int, store: EdgeStore) -> np.ndarray:
    """The spec: the vertex–edge graph as COO, with a per-position edge id."""
    import scipy.sparse as sp
    from scipy.sparse import csgraph

    m = store.num_edges
    rows = store.indices
    cols = n + np.repeat(np.arange(m, dtype=np.intp), store.sizes())
    graph = sp.coo_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n + m, n + m)
    )
    return csgraph.connected_components(graph, directed=False)[1][:n]


def _partition(labels: np.ndarray) -> set[frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for v, label in enumerate(labels.tolist()):
        groups.setdefault(label, set()).add(v)
    return {frozenset(g) for g in groups.values()}


class TestLabels:
    def test_single_component(self):
        H = tight_path(6, 3)
        labels = component_labels(H)
        assert len(set(labels[H.vertices].tolist())) == 1

    def test_matching_has_one_component_per_block(self):
        H = matching_hypergraph(4, 3)
        assert num_components(H) == 4

    def test_isolated_vertices_are_singletons(self):
        H = Hypergraph(5, [(0, 1)])
        assert num_components(H) == 4  # {0,1} plus 2,3,4

    def test_inactive_vertices_labelled_minus_one(self):
        H = Hypergraph(6, [(1, 2)], vertices=[1, 2, 4])
        labels = component_labels(H)
        assert labels[0] == -1 and labels[3] == -1 and labels[5] == -1
        assert labels[1] == labels[2] != labels[4]

    def test_chain_merging(self):
        # edges overlapping pairwise chain everything together
        H = Hypergraph(7, [(0, 1, 2), (2, 3), (3, 4, 5), (5, 6)])
        assert num_components(H) == 1

    def test_empty(self):
        assert num_components(Hypergraph(0)) == 0

    def test_edgeless(self):
        assert num_components(Hypergraph(4)) == 4


class TestIncidenceLabels:
    @pytest.mark.parametrize("seed", range(12))
    def test_partition_matches_coo_spec(self, seed):
        # random stores: empty ones, isolated vertices and size-1 edges included
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 25)) if seed % 4 else 0
        edges = {
            tuple(sorted(rng.choice(n, size=min(n, int(rng.integers(1, 5))), replace=False)))
            for _ in range(m)
        }
        store = EdgeStore.from_iterable(edges)
        got = incidence_labels(n, store.indptr, store.indices)
        assert got.shape == (n,)
        assert _partition(got) == _partition(_coo_labels(n, store))

    def test_empty_store_leaves_every_vertex_alone(self):
        store = EdgeStore.from_iterable([])
        assert _partition(incidence_labels(3, store.indptr, store.indices)) == {
            frozenset({0}), frozenset({1}), frozenset({2})
        }


class TestSplit:
    def test_parts_partition_vertices(self):
        H = matching_hypergraph(3, 4)
        parts = connected_components(H)
        seen = np.concatenate([p.vertices for p in parts])
        assert sorted(seen.tolist()) == H.vertices.tolist()

    def test_parts_carry_their_edges(self):
        H = Hypergraph(8, [(0, 1), (2, 3, 4), (6, 7)])
        parts = connected_components(H)
        all_edges = sorted(e for p in parts for e in p.edges)
        assert tuple(all_edges) == H.edges

    def test_universe_preserved(self):
        H = Hypergraph(9, [(0, 1), (4, 5)])
        for p in connected_components(H):
            assert p.universe == 9

    def test_random_instance_consistency(self):
        H = uniform_hypergraph(60, 30, 3, seed=0)
        parts = connected_components(H)
        assert sum(p.num_vertices for p in parts) == H.num_vertices
        assert sum(p.num_edges for p in parts) == H.num_edges
        assert len(parts) == num_components(H)
