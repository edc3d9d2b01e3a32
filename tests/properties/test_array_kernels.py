"""Differential properties: the array kernels vs the tuple-path semantics.

The vectorised hot path (CSR edge store, masked round bodies, fused
incremental cleanup, cross-round Δ tracking) must be *bit-identical* to
the pre-array behaviour.  Two baselines pin that down:

* :mod:`repro.core.reference` — per-edge Python loops straight from the
  paper's definitions (the slow oracle);
* inline tuple reimplementations of the old ``Hypergraph`` operations
  (``sorted(set(...))`` canonicalisation, list comprehensions per edge).

Random instances sweep ``n``, ``m`` and ``d`` via both Hypothesis
strategies and seeded generator draws.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import apply_bl_round, beame_luby
from repro.core.reference import reference_bl_round, reference_superset_removal
from repro.generators import uniform_hypergraph
from repro.hypergraph import Hypergraph, check_mis, degree_profile, normalize
from repro.hypergraph.degrees import DeltaTracker
from repro.hypergraph.ops import normalize_after_trim, trim_vertices

# ----------------------------------------------------------------------
# instance generation
# ----------------------------------------------------------------------


@st.composite
def hypergraphs(draw, max_universe: int = 14, max_edges: int = 12, max_size: int = 4):
    n = draw(st.integers(min_value=1, max_value=max_universe))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = []
    for _ in range(m):
        size = draw(st.integers(min_value=1, max_value=min(max_size, n)))
        edge = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        edges.append(tuple(edge))
    return Hypergraph(n, edges)


SEEDS = st.integers(min_value=0, max_value=2**31)


def random_instances(seed: int, trials: int = 40):
    """Seeded (H, rng) pairs sweeping n, m, d — the generator path."""
    rng = np.random.default_rng(seed)
    import math

    for _ in range(trials):
        n = int(rng.integers(4, 30))
        d = int(rng.integers(2, min(5, n) + 1))
        m = int(rng.integers(1, min(40, math.comb(n, d)) + 1))
        yield uniform_hypergraph(n, m, d, seed=int(rng.integers(2**31))), rng


# ----------------------------------------------------------------------
# tuple-path reimplementations (the pre-change semantics)
# ----------------------------------------------------------------------


def tuple_normalize(H: Hypergraph) -> tuple[Hypergraph, set[int]]:
    """Fixpoint of superset removal + singleton deletion, on tuples."""
    edges = list(H.edges)
    vertices = H.vertices.tolist()
    red: set[int] = set()
    while True:
        sets = [frozenset(e) for e in edges]
        edges = [
            e
            for i, e in enumerate(edges)
            if not any(sets[j] < sets[i] for j in range(len(sets)) if j != i)
        ]
        singles = {e[0] for e in edges if len(e) == 1}
        if not singles:
            break
        red.update(singles)
        vertices = [v for v in vertices if v not in singles]
        edges = [e for e in edges if not (set(e) & singles)]
    return Hypergraph(H.universe, edges, vertices=vertices), red


def tuple_trim(H: Hypergraph, removed: set[int]) -> Hypergraph:
    """Per-edge filter + re-canonicalisation through the general constructor."""
    edges = [tuple(v for v in e if v not in removed) for e in H.edges]
    vertices = [v for v in H.vertices.tolist() if v not in removed]
    return Hypergraph(H.universe, edges, vertices=vertices)


def tuple_induced(H: Hypergraph, subset: set[int]) -> Hypergraph:
    return Hypergraph(
        H.universe,
        [e for e in H.edges if set(e) <= subset],
        vertices=[v for v in H.vertices.tolist() if v in subset],
    )


def tuple_without(H: Hypergraph, subset: set[int]) -> Hypergraph:
    return Hypergraph(
        H.universe,
        [e for e in H.edges if not (set(e) & subset)],
        vertices=[v for v in H.vertices.tolist() if v not in subset],
    )


def _independent_subset(H: Hypergraph, rng: np.random.Generator) -> np.ndarray:
    """A random vertex subset containing no full edge (safe to trim)."""
    mask = np.zeros(H.universe, dtype=bool)
    active = H.vertices
    mask[active[rng.random(active.size) < 0.4]] = True
    for e in H.edges:
        if all(mask[v] for v in e):
            mask[e[0]] = False
    return mask


# ----------------------------------------------------------------------
# sub-hypergraph + cleanup operations
# ----------------------------------------------------------------------


class TestSubHypergraphOps:
    @given(hypergraphs(), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_induced_matches_tuple_path(self, H, seed):
        rng = np.random.default_rng(seed)
        subset = {int(v) for v in H.vertices if rng.random() < 0.5}
        assert H.induced(sorted(subset)) == tuple_induced(H, subset)

    @given(hypergraphs(), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_without_vertices_matches_tuple_path(self, H, seed):
        rng = np.random.default_rng(seed)
        subset = {int(v) for v in H.vertices if rng.random() < 0.5}
        assert H.without_vertices(sorted(subset)) == tuple_without(H, subset)

    @given(hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_normalize_matches_tuple_path(self, H):
        got, red = normalize(H)
        want, want_red = tuple_normalize(H)
        assert got == want
        assert set(red.tolist()) == want_red
        # And against the O(m²) oracle for the superset half.
        assert set(reference_superset_removal(H).edges) >= set(got.edges)

    @given(hypergraphs(), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_trim_matches_tuple_path(self, H, seed):
        rng = np.random.default_rng(seed)
        mask = _independent_subset(H, rng)
        removed = {int(v) for v in np.flatnonzero(mask)}
        assert trim_vertices(H, np.flatnonzero(mask)) == tuple_trim(H, removed)

    @given(hypergraphs(), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_normalize_after_trim_matches_composition(self, H, seed):
        """On a normal hypergraph the fused kernel equals normalize∘trim —
        both as arrays and through the tuple path."""
        W, _ = normalize(H)
        rng = np.random.default_rng(seed)
        mask = _independent_subset(W, rng)
        fused, red = normalize_after_trim(W, np.flatnonzero(mask))
        composed, red2 = normalize(trim_vertices(W, np.flatnonzero(mask)))
        assert fused == composed
        assert red.tolist() == red2.tolist()
        removed = {int(v) for v in np.flatnonzero(mask)}
        want, want_red = tuple_normalize(tuple_trim(W, removed))
        assert fused == want and set(red.tolist()) == want_red


# ----------------------------------------------------------------------
# the BL round body vs the reference oracle
# ----------------------------------------------------------------------


class TestBLRoundDifferential:
    @given(hypergraphs(), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_round_matches_reference(self, H, seed):
        W, _ = normalize(H)
        rng = np.random.default_rng(seed)
        marked_mask = np.zeros(W.universe, dtype=bool)
        active = W.vertices
        marked_mask[active[rng.random(active.size) < 0.5]] = True

        W_after, added, red, unmark = apply_bl_round(
            W, marked_mask, assume_normal=True
        )
        ref_after, ref_added, ref_red = reference_bl_round(
            W, {int(v) for v in np.flatnonzero(marked_mask)}
        )
        assert W_after == ref_after
        assert set(added.tolist()) == ref_added
        assert set(red.tolist()) == ref_red

    @given(hypergraphs(), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_assume_normal_agrees_with_general_path(self, H, seed):
        W, _ = normalize(H)
        rng = np.random.default_rng(seed)
        marked_mask = np.zeros(W.universe, dtype=bool)
        active = W.vertices
        marked_mask[active[rng.random(active.size) < 0.5]] = True
        fast = apply_bl_round(W, marked_mask, assume_normal=True)
        slow = apply_bl_round(W, marked_mask, assume_normal=False)
        assert fast[0] == slow[0]
        assert fast[1].tolist() == slow[1].tolist()
        assert set(fast[2].tolist()) == set(slow[2].tolist())
        assert np.array_equal(fast[3], slow[3])

    @given(hypergraphs(), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_collect_diff_is_exact(self, H, seed):
        W, _ = normalize(H)
        rng = np.random.default_rng(seed)
        marked_mask = np.zeros(W.universe, dtype=bool)
        active = W.vertices
        marked_mask[active[rng.random(active.size) < 0.5]] = True
        W_after, added, red, unmark, (rem, add) = apply_bl_round(
            W, marked_mask, assume_normal=True, collect_diff=True
        )
        before, after = set(W.edges), set(W_after.edges)
        assert set(rem) == before - after
        assert set(add) == after - before
        assert len(rem) == len(set(rem)) and len(add) == len(set(add))


# ----------------------------------------------------------------------
# cross-round Δ tracking
# ----------------------------------------------------------------------


class TestDeltaTracker:
    def test_bulk_init_matches_profile(self):
        for H, _ in random_instances(seed=11, trials=25):
            tracker = DeltaTracker.from_hypergraph(H)
            assert tracker.delta_by_size == degree_profile(H).delta_by_size
            assert tracker.delta() == degree_profile(H).delta()

    def test_incremental_updates_match_recomputation(self):
        """Drive the tracker with the exact round diffs over several BL
        rounds; after every round it must equal the from-scratch profile."""
        for H, rng in random_instances(seed=23, trials=15):
            W, _ = normalize(H)
            tracker = DeltaTracker.from_hypergraph(W)
            for _ in range(6):
                if W.num_vertices == 0 or W.num_edges == 0:
                    break
                marked_mask = np.zeros(W.universe, dtype=bool)
                active = W.vertices
                marked_mask[active[rng.random(active.size) < 0.4]] = True
                W_after, added, red, unmark, (rem, add) = apply_bl_round(
                    W, marked_mask, assume_normal=True, collect_diff=True
                )
                if W_after is not W:
                    if rem:
                        tracker.remove_edges(rem)
                    if add:
                        tracker.add_edges(add)
                W = W_after
                assert tracker.delta_by_size == degree_profile(W).delta_by_size


# ----------------------------------------------------------------------
# end-to-end MIS equivalence
# ----------------------------------------------------------------------


class TestEndToEndMIS:
    def test_bl_rounds_replay_against_reference(self):
        """Every round the solver takes must agree with the oracle round
        applied to the same marking, and the final set must be an MIS."""
        for H, rng in random_instances(seed=37, trials=12):
            seed = int(rng.integers(2**31))

            def check(record, W, W_after, marked_mask, added):
                ref_after, ref_added, _ = reference_bl_round(
                    W, {int(v) for v in np.flatnonzero(marked_mask)}
                )
                assert W_after == ref_after
                assert set(added.tolist()) == ref_added

            res = beame_luby(H, seed=seed, on_round=check)
            check_mis(H, res.independent_set)

    def test_same_seed_same_set(self):
        for H, rng in random_instances(seed=41, trials=10):
            seed = int(rng.integers(2**31))
            a = beame_luby(H, seed=seed).independent_set
            b = beame_luby(H, seed=seed).independent_set
            assert a.tolist() == b.tolist()

    @given(hypergraphs(), SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_bl_mis_on_arbitrary_instances(self, H, seed):
        check_mis(H, beame_luby(H, seed=seed).independent_set)
