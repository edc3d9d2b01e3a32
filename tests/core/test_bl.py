"""Tests for the Beame–Luby algorithm."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import beame_luby, bl_marking_probability
from repro.generators import (
    complete_uniform,
    matching_hypergraph,
    star_hypergraph,
    sunflower,
    tight_cycle,
    uniform_hypergraph,
)
from repro.hypergraph import Hypergraph, check_mis
from repro.kernels.dispatch import select_backend
from repro.pram import CountingMachine


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_uniform(self, seed):
        H = uniform_hypergraph(40, 60, 3, seed=seed)
        res = beame_luby(H, seed=seed)
        check_mis(H, res.independent_set)

    def test_small_mixed(self, small_mixed):
        res = beame_luby(small_mixed, seed=0)
        check_mis(small_mixed, res.independent_set)

    def test_edgeless_takes_everything(self, edgeless):
        res = beame_luby(edgeless, seed=0)
        assert res.independent_set.tolist() == list(range(6))

    def test_single_edge_leaves_one_out(self, single_edge):
        res = beame_luby(single_edge, seed=1)
        check_mis(single_edge, res.independent_set)
        assert {0, 4} <= set(res.independent_set.tolist())

    def test_singleton_edges_excluded(self):
        H = Hypergraph(4, [(0,), (1,), (2, 3)])
        res = beame_luby(H, seed=0)
        check_mis(H, res.independent_set)
        assert 0 not in res.independent_set
        assert 1 not in res.independent_set

    def test_complete_uniform(self):
        H = complete_uniform(9, 3)
        res = beame_luby(H, seed=3)
        check_mis(H, res.independent_set)
        assert res.size == 2

    def test_matching(self):
        H = matching_hypergraph(6, 3)
        res = beame_luby(H, seed=2)
        check_mis(H, res.independent_set)
        assert res.size == 12

    def test_star(self):
        H = star_hypergraph(8, 3)
        res = beame_luby(H, seed=2)
        check_mis(H, res.independent_set)

    def test_sunflower(self):
        H = sunflower(3, 6, 2)
        res = beame_luby(H, seed=4)
        check_mis(H, res.independent_set)

    def test_tight_cycle(self):
        H = tight_cycle(30, 3)
        res = beame_luby(H, seed=5)
        check_mis(H, res.independent_set)

    def test_empty_hypergraph(self):
        res = beame_luby(Hypergraph(0), seed=0)
        assert res.size == 0

    def test_partial_vertex_set(self):
        H = Hypergraph(10, [(2, 3, 4)], vertices=[2, 3, 4, 5])
        res = beame_luby(H, seed=0)
        check_mis(H, res.independent_set)
        assert set(res.independent_set.tolist()) <= {2, 3, 4, 5}


class TestDeterminism:
    def test_same_seed_same_result(self, small_mixed):
        a = beame_luby(small_mixed, seed=11)
        b = beame_luby(small_mixed, seed=11)
        assert np.array_equal(a.independent_set, b.independent_set)
        assert a.num_rounds == b.num_rounds

    def test_trace_matches_commits(self):
        H = uniform_hypergraph(30, 40, 3, seed=0)
        res = beame_luby(H, seed=1)
        added = sum(r.added for r in res.rounds)
        assert added == res.size

    def test_multi_chunk_marking_pinned(self):
        """A CSR solve whose first rounds draw more than COIN_CHUNK coins.

        Pins the chunked coin stream end to end: any change to the chunk
        size or the child-seed order moves this digest.
        """
        H = uniform_hypergraph(70_000, 140, 3, seed=5)
        assert select_backend(H).reason == "auto:shape-sparse"
        res = beame_luby(H, seed=7)
        digest = hashlib.sha256(res.independent_set.astype(np.int64).tobytes())
        assert digest.hexdigest() == (
            "6a7bdf5347864c8890d48e0e4447ad60a23ae637ba4e3ae06d2b57ad82f232f5"
        )
        assert (res.size, res.num_rounds) == (69861, 56)


class TestMarkingProbability:
    def test_formula(self):
        H = Hypergraph(5, [(0, 1), (0, 2), (0, 3)])
        # d = 2, Δ = 3 → p = 1/(2^3·3)
        assert bl_marking_probability(H) == pytest.approx(1.0 / 24.0)

    def test_edgeless_probability_one(self):
        assert bl_marking_probability(Hypergraph(4)) == 1.0

    def test_clipped_to_one(self):
        H = Hypergraph(3, [(0, 1)])
        assert 0 < bl_marking_probability(H) <= 1.0

    def test_p_recorded_in_trace(self):
        H = uniform_hypergraph(20, 30, 3, seed=0)
        res = beame_luby(H, seed=0)
        constrained = [r for r in res.rounds if r.m_before > 0]
        assert all(0 < r.extras["p"] <= 1 for r in constrained)

    def test_override(self, small_mixed):
        res = beame_luby(small_mixed, seed=0, marking_probability=0.5)
        check_mis(small_mixed, res.independent_set)
        assert res.meta["p_initial"] == 0.5

    def test_fixed_probability_mode(self):
        H = uniform_hypergraph(30, 40, 3, seed=0)
        res = beame_luby(H, seed=1, recompute_probability=False)
        check_mis(H, res.independent_set)
        constrained = [r for r in res.rounds if r.m_before > 0]
        ps = {r.extras["p"] for r in constrained}
        assert len(ps) == 1  # Algorithm 2 literal: p computed once


class TestTraceInvariants:
    def test_monotone_shrinkage(self):
        H = uniform_hypergraph(40, 60, 3, seed=2)
        res = beame_luby(H, seed=2)
        for r in res.rounds:
            assert r.n_after <= r.n_before
            assert r.m_after <= r.m_before
            assert r.unmarked <= r.marked
            assert r.added <= r.marked

    def test_dimension_never_grows(self):
        H = uniform_hypergraph(40, 60, 4, seed=3)
        res = beame_luby(H, seed=3)
        dims = [r.dimension for r in res.rounds if r.m_before > 0]
        assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_round_indices_sequential(self, small_mixed):
        res = beame_luby(small_mixed, seed=0)
        assert [r.index for r in res.rounds] == list(range(res.num_rounds))

    def test_trace_disabled(self, small_mixed):
        res = beame_luby(small_mixed, seed=0, trace=False)
        assert res.rounds == []
        check_mis(small_mixed, res.independent_set)


class TestMachineAccounting:
    def test_depth_work_positive(self):
        H = uniform_hypergraph(30, 40, 3, seed=0)
        mach = CountingMachine()
        beame_luby(H, seed=0, machine=mach)
        assert mach.depth > 0
        assert mach.work > 0

    def test_snapshot_attached(self):
        H = uniform_hypergraph(20, 20, 3, seed=0)
        mach = CountingMachine()
        res = beame_luby(H, seed=0, machine=mach)
        assert res.machine == mach.snapshot()

    def test_depth_scales_with_rounds(self):
        H = uniform_hypergraph(40, 80, 3, seed=1)
        mach = CountingMachine()
        res = beame_luby(H, seed=1, machine=mach)
        assert mach.depth >= res.num_rounds  # at least one step per round


class TestGuards:
    def test_max_rounds_exceeded_raises(self):
        H = uniform_hypergraph(40, 80, 3, seed=0)
        with pytest.raises(RuntimeError, match="terminate"):
            # p so small that no progress happens in 3 rounds w.h.p.
            beame_luby(H, seed=0, marking_probability=1e-12, max_rounds=3)

    def test_on_round_called_each_round(self, small_mixed):
        calls = []
        res = beame_luby(
            small_mixed, seed=0, on_round=lambda rec, b, a, m, add: calls.append(rec.index)
        )
        constrained_rounds = [r for r in res.rounds if r.m_before > 0]
        assert len(calls) == len(constrained_rounds)
