"""Tests for the sequential greedy baseline and its round kernel."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import greedy_mis
from repro.core.greedy import GreedyRounds, pi_last
from repro.core.reference import reference_greedy
from repro.generators import (
    complete_uniform,
    matching_hypergraph,
    mixed_dimension_hypergraph,
    uniform_hypergraph,
)
from repro.hypergraph import Hypergraph, check_mis
from repro.obs.events import JsonlSink, read_events
from repro.obs.tracer import Tracer


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_random(self, seed):
        H = uniform_hypergraph(50, 100, 3, seed=seed)
        res = greedy_mis(H, seed=seed)
        check_mis(H, res.independent_set)

    def test_small_mixed(self, small_mixed):
        check_mis(small_mixed, greedy_mis(small_mixed, seed=0).independent_set)

    def test_edgeless(self, edgeless):
        assert greedy_mis(edgeless, seed=0).size == 6

    def test_singleton_edge_rejects_vertex(self):
        H = Hypergraph(3, [(1,)])
        res = greedy_mis(H, seed=0)
        assert 1 not in res.independent_set
        check_mis(H, res.independent_set)

    def test_complete_uniform_size(self):
        H = complete_uniform(8, 4)
        assert greedy_mis(H, seed=0).size == 3

    def test_matching_size(self):
        H = matching_hypergraph(4, 3)
        assert greedy_mis(H, seed=0).size == 8


class TestOrder:
    def test_explicit_order_deterministic(self, small_mixed):
        order = list(range(8))
        a = greedy_mis(small_mixed, order=order)
        b = greedy_mis(small_mixed, order=order)
        assert np.array_equal(a.independent_set, b.independent_set)

    def test_lexicographic_greedy_known(self):
        # scan 0,1,2: take 0, take 1 → edge (0,1)? build H to check precisely
        H = Hypergraph(4, [(0, 1), (1, 2, 3)])
        res = greedy_mis(H, order=[0, 1, 2, 3])
        # 0 in; 1 completes (0,1) → rejected; 2 in; 3 would complete (1,2,3)?
        # 1 not in I so no; 3 in.
        assert res.independent_set.tolist() == [0, 2, 3]

    def test_order_changes_result(self):
        H = Hypergraph(3, [(0, 1)])
        a = greedy_mis(H, order=[0, 1, 2])
        b = greedy_mis(H, order=[1, 0, 2])
        assert 0 in a.independent_set and 1 in b.independent_set

    def test_order_must_match_active_vertices(self, small_mixed):
        with pytest.raises(ValueError):
            greedy_mis(small_mixed, order=[0, 1, 2])

    def test_order_over_partial_vertices(self):
        H = Hypergraph(6, [(1, 2)], vertices=[1, 2, 4])
        res = greedy_mis(H, order=[4, 2, 1])
        check_mis(H, res.independent_set)

    def test_random_order_seeded(self, small_mixed):
        a = greedy_mis(small_mixed, seed=3)
        b = greedy_mis(small_mixed, seed=3)
        assert np.array_equal(a.independent_set, b.independent_set)


class TestTrace:
    def test_trace_record(self, small_mixed):
        res = greedy_mis(small_mixed, seed=0, trace=True)
        assert len(res.rounds) == 1
        rec = res.rounds[0]
        assert rec.added == res.size
        assert rec.added + rec.removed_red == small_mixed.num_vertices

    def test_no_trace_by_default(self, small_mixed):
        assert greedy_mis(small_mixed, seed=0).rounds == []


@st.composite
def instance_and_order(draw):
    """Mixed edge sizes (size-1 included) over an active subset of a larger
    universe, with isolated vertices; either a random or the sorted order."""
    universe = draw(st.integers(min_value=0, max_value=24))
    active = draw(
        st.lists(st.integers(0, max(universe - 1, 0)), max_size=universe, unique=True)
        if universe
        else st.just([])
    )
    edges = []
    if active:
        for _ in range(draw(st.integers(0, 2 * len(active)))):
            size = draw(st.integers(1, min(5, len(active))))
            edges.append(
                tuple(draw(st.lists(st.sampled_from(active), min_size=size,
                                    max_size=size, unique=True)))
            )
    H = Hypergraph(universe, edges, vertices=active)
    if draw(st.booleans()):
        order = H.vertices.tolist()
    else:
        order = draw(st.permutations(H.vertices.tolist()))
    return H, order


def _mixed_instances():
    yield Hypergraph(0, [])
    yield Hypergraph(9, [])
    yield Hypergraph(12, [(1,), (2, 5), (2, 5, 7), (7, 9)], vertices=[1, 2, 5, 7, 9, 11])
    for seed in range(6):
        yield mixed_dimension_hypergraph(400, 700, (1, 2, 3, 5), seed=seed)
        yield uniform_hypergraph(1500, 3000, 3, seed=seed)
    # A universe far larger than the active set.
    H = uniform_hypergraph(900, 1800, 2, seed=7)
    yield Hypergraph(5000, H.edges, vertices=H.vertices)


def _orders(H, seed):
    yield H.vertices
    yield np.random.default_rng(seed).permutation(H.vertices.copy())


class TestMatchesSequentialScan:
    @settings(max_examples=200, deadline=None)
    @given(instance_and_order())
    def test_property(self, case):
        H, order = case
        assert greedy_mis(H, order=order).independent_set.tolist() == (
            reference_greedy(H, order)
        )

    @pytest.mark.parametrize("index", range(16))
    def test_differential(self, index):
        H = list(_mixed_instances())[index]
        for order in _orders(H, index):
            assert greedy_mis(H, order=order).independent_set.tolist() == (
                reference_greedy(H, order)
            )

    @pytest.mark.parametrize("index", range(16))
    def test_rounds_alone_match(self, index):
        # The round body driven to completion with no tail, as E18 does.
        H = list(_mixed_instances())[index]
        for order in _orders(H, index):
            state = GreedyRounds(H.store, np.asarray(order))
            while state.undecided.size:
                state.round()
            assert state.tail_size == 0
            assert sorted(state.independent_set().tolist()) == reference_greedy(H, order)


def _greedy_span(H, order):
    buf = io.StringIO()
    result = greedy_mis(H, order=order, tracer=Tracer(JsonlSink(buf)))
    buf.seek(0)
    (span,) = [e for e in read_events(buf) if e.get("name") == "greedy/solve"]
    return result, span["attrs"]


class TestDependencyRounds:
    def test_random_order_is_shallow(self):
        H = uniform_hypergraph(4096, 8192, 3, seed=1)
        order = np.random.default_rng(1).permutation(H.vertices.copy())
        result, attrs = _greedy_span(H, order)
        assert result.independent_set.tolist() == reference_greedy(H, order)
        assert 2 <= attrs["rounds"] <= 12
        assert attrs["tail"] < 64

    def test_adversarial_chain_hands_over_to_the_scan(self):
        # A 3-uniform chain in identity order has dependency depth n: each
        # vertex waits on the two before it.  The kernel must notice after a
        # round or two and finish with the scan.
        n = 8000
        H = Hypergraph(n, [(i, i + 1, i + 2) for i in range(n - 2)])
        order = H.vertices
        result, attrs = _greedy_span(H, order)
        assert result.independent_set.tolist() == reference_greedy(H, order)
        assert attrs["rounds"] <= 3
        assert attrs["tail"] > n - 100
        assert attrs["mis_size"] == result.size

    def test_pi_last_is_the_highest_ranked_member(self):
        H = mixed_dimension_hypergraph(60, 90, (1, 2, 4), seed=3)
        rank = np.zeros(H.universe, dtype=np.int64)
        rank[np.random.default_rng(3).permutation(H.vertices.copy())] = np.arange(
            H.num_vertices
        )
        tops = pi_last(H.store, rank[H.store.indices])
        assert tops.tolist() == [max(rank[v] for v in e) for e in H.edges]
        assert pi_last(Hypergraph(4, []).store, rank[:0]).size == 0
