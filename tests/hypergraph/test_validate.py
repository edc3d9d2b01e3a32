"""Tests for independence/maximality validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hypergraph import (
    Hypergraph,
    IndependenceViolation,
    MaximalityViolation,
    check_mis,
    is_independent,
    is_maximal_independent,
)
from repro.hypergraph.validate import (
    find_independence_witness,
    find_maximality_witness,
)


class TestIndependence:
    def test_empty_set_independent(self, triangle):
        assert is_independent(triangle, [])

    def test_single_vertices_independent(self, triangle):
        for v in range(3):
            assert is_independent(triangle, [v])

    def test_edge_is_dependent(self, triangle):
        assert not is_independent(triangle, [0, 1])

    def test_witness_is_contained_edge(self, small_mixed):
        w = find_independence_witness(small_mixed, [0, 1, 2, 7])
        assert w == (0, 1, 2)

    def test_no_witness_when_independent(self, small_mixed):
        assert find_independence_witness(small_mixed, [0, 1]) is None

    def test_edgeless_any_set_independent(self, edgeless):
        assert is_independent(edgeless, range(6))

    def test_member_outside_universe_raises(self, triangle):
        with pytest.raises(IndexError):
            is_independent(triangle, [5])

    def test_subset_of_big_edge_independent(self, single_edge):
        assert is_independent(single_edge, [1, 2])
        assert not is_independent(single_edge, [1, 2, 3])


class TestMaximality:
    def test_triangle_mis(self, triangle):
        # any single vertex is maximal in the triangle? No: {0} can add nothing
        # adjacent... adding 1 creates edge (0,1): blocked; adding 2 creates
        # (0,2): blocked. So {0} is maximal.
        assert is_maximal_independent(triangle, [0])

    def test_triangle_empty_not_maximal(self, triangle):
        assert not is_maximal_independent(triangle, [])
        assert find_maximality_witness(triangle, []) is not None

    def test_witness_is_addable(self, small_mixed):
        members = [0]
        w = find_maximality_witness(small_mixed, members)
        assert w is not None
        assert is_independent(small_mixed, members + [w])

    def test_full_edgeless_maximal(self, edgeless):
        assert is_maximal_independent(edgeless, range(6))

    def test_singleton_edge_blocks_vertex(self):
        H = Hypergraph(3, [(0,), (1, 2)])
        # 0 can never join: {1} ∪ {2} blocked by (1,2); I = {1} with 2 blocked
        # only if adding 2 completes (1,2) — yes. 0 blocked by (0,).
        assert is_maximal_independent(H, [1])
        assert not is_maximal_independent(H, [])

    def test_isolated_vertices_must_be_included(self, single_edge):
        # vertices 0 and 4 touch no edge: any maximal set includes them.
        assert not is_maximal_independent(single_edge, [1, 2])
        assert is_maximal_independent(single_edge, [0, 1, 2, 4])

    def test_inactive_vertices_not_required(self):
        H = Hypergraph(5, [(1, 2)], vertices=[1, 2, 3])
        # 0 and 4 inactive: maximality only ranges over active vertices.
        assert is_maximal_independent(H, [1, 3])

    def test_near_complete_big_edge(self):
        H = Hypergraph(5, [(0, 1, 2, 3, 4)])
        assert is_maximal_independent(H, [0, 1, 2, 3])
        assert not is_maximal_independent(H, [0, 1, 2])


class TestCheckMis:
    def test_passes_on_valid(self, triangle):
        check_mis(triangle, [0])  # no exception

    def test_independence_violation_carries_edge(self, triangle):
        with pytest.raises(IndependenceViolation) as exc:
            check_mis(triangle, [0, 1])
        assert exc.value.edge == (0, 1)

    def test_maximality_violation_carries_vertex(self, triangle):
        with pytest.raises(MaximalityViolation) as exc:
            check_mis(triangle, [])
        assert 0 <= exc.value.vertex < 3

    def test_independence_checked_before_maximality(self, small_mixed):
        # a dependent set that is also non-maximal reports independence first
        with pytest.raises(IndependenceViolation):
            check_mis(small_mixed, [2, 3])

    def test_numpy_input(self, triangle):
        check_mis(triangle, np.array([0]))

    def test_exception_str(self):
        assert "edge" in str(IndependenceViolation((0, 1)))
        assert "vertex" in str(MaximalityViolation(3))


def _random_instance(rng) -> Hypergraph:
    """Mixed sizes 1..4, some inactive vertices, sometimes no edges."""
    universe = int(rng.integers(1, 30))
    active = np.flatnonzero(rng.random(universe) < 0.8)
    if active.size == 0:
        active = np.array([0])
    edges = []
    if rng.random() < 0.85:
        for _ in range(int(rng.integers(1, 2 * universe + 2))):
            size = int(rng.choice([1, 2, 2, 3, 3, 4]))
            size = min(size, active.size)
            edges.append(tuple(rng.choice(active, size=size, replace=False).tolist()))
        if rng.random() < 0.5:  # half the instances keep no size-1 edge
            edges = [e for e in edges if len(e) > 1] or edges
    return Hypergraph(universe, edges, vertices=active)


def _lowest_contained_edge(H: Hypergraph, members) -> tuple[int, ...] | None:
    inside = set(members)
    return next((e for e in H.edges if set(e) <= inside), None)


def _lowest_free_vertex(H: Hypergraph, members) -> int | None:
    inside = set(members)
    for v in H.vertices.tolist():
        if v in inside:
            continue
        if not any(v in e and set(e) - {v} <= inside for e in H.edges):
            return v
    return None


class TestCertificateWitnesses:
    """check_mis reads both witnesses off one pass; they must be the
    standalone finders' witnesses, which are the lowest ones."""

    def _check_same_witness(self, H: Hypergraph, members: list[int]) -> None:
        edge = find_independence_witness(H, members)
        vertex = find_maximality_witness(H, members)
        assert edge == _lowest_contained_edge(H, members)
        assert vertex == _lowest_free_vertex(H, members)
        if edge is not None:
            with pytest.raises(IndependenceViolation) as exc:
                check_mis(H, members)
            assert exc.value.edge == edge
        elif vertex is not None:
            with pytest.raises(MaximalityViolation) as exc:
                check_mis(H, members)
            assert exc.value.vertex == vertex
        else:
            check_mis(H, members)
        assert is_maximal_independent(H, members) == (edge is None and vertex is None)

    def test_corrupted_greedy_mis(self):
        from repro.core.greedy import greedy_mis

        rng = np.random.default_rng(2024)
        corruptions = {"drop": 0, "add": 0}
        for trial in range(150):
            H = _random_instance(rng)
            mis = greedy_mis(H, seed=trial).independent_set.tolist()
            self._check_same_witness(H, mis)
            if mis:
                dropped = list(mis)
                dropped.pop(int(rng.integers(len(dropped))))
                self._check_same_witness(H, dropped)
                corruptions["drop"] += 1
            outside = sorted(set(H.vertices.tolist()) - set(mis))
            if outside:
                extra = sorted(mis + [outside[int(rng.integers(len(outside)))]])
                self._check_same_witness(H, extra)
                corruptions["add"] += 1
        assert min(corruptions.values()) > 50, corruptions

    def test_edgeless_and_inactive(self):
        H = Hypergraph(6, [], vertices=[1, 4])
        self._check_same_witness(H, [])
        self._check_same_witness(H, [1])
        self._check_same_witness(H, [1, 4])
        # An inactive member is not a witness either way.
        self._check_same_witness(H, [0, 1, 4])

    def test_size_one_edges(self):
        H = Hypergraph(4, [(2,), (0, 1), (1, 3)])
        self._check_same_witness(H, [0, 3])
        self._check_same_witness(H, [0, 2, 3])  # contains the edge (2,)
        self._check_same_witness(H, [0])  # 3 is free; 2 never is


def test_dense_greedy_leaves_tuple_view_unbuilt():
    from repro.core.greedy import greedy_mis
    from repro.generators import uniform_hypergraph
    from repro.kernels.dispatch import select_backend

    H = uniform_hypergraph(60, 120, 3, seed=5)
    assert select_backend(H).dense
    result = greedy_mis(H, seed=1)
    assert H._edges is None
    check_mis(H, result.independent_set)
    assert H._edges is None
