"""The incremental update API: exact diffs, chaining, fast-path identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hypergraph import Hypergraph, apply_updates, chain_hash, feed_tracker
from repro.hypergraph import updates as updates_mod
from repro.hypergraph.degrees import DeltaTracker
from repro.hypergraph.edgestore import EdgeStore
from repro.hypergraph.updates import _fast_apply, _general_apply, _packed_keys
from repro.generators import churn_stream, sharded_hypergraph, uniform_hypergraph
from repro.util.rng import as_generator


def test_empty_batch_is_noop():
    H = uniform_hypergraph(20, 30, 3, seed=1)
    upd = apply_updates(H)
    assert upd.is_noop
    assert upd.num_changed == 0
    assert upd.dirty_vertices.size == 0
    assert upd.hypergraph.content_hash() == H.content_hash()
    assert upd.delta_fraction() == 0.0


def test_add_and_remove_report_exact_diff():
    H = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
    upd = apply_updates(H, add_edges=[(1, 2)], remove_edges=[(4, 5)])
    new = upd.hypergraph
    assert sorted(new.edges) == [(0, 1), (1, 2), (2, 3)]
    assert [H.edges[int(i)] for i in upd.removed] == [(4, 5)]
    assert [new.edges[int(i)] for i in upd.added] == [(1, 2)]
    assert sorted(upd.dirty_vertices.tolist()) == [1, 2, 4, 5]


def test_remove_and_readd_cancels_in_diff():
    H = Hypergraph(6, [(0, 1), (2, 3)])
    upd = apply_updates(H, add_edges=[(0, 1)], remove_edges=[(0, 1)])
    assert upd.is_noop
    assert sorted(upd.hypergraph.edges) == sorted(H.edges)


def test_emptying_update():
    H = Hypergraph(5, [(0, 1), (1, 2), (3, 4)])
    upd = apply_updates(H, remove_edges=list(H.edges))
    assert upd.hypergraph.num_edges == 0
    # Removals never deactivate: vertices stay active, edgeless.
    assert np.array_equal(upd.hypergraph.vertices, H.vertices)
    assert upd.removed.size == 3


def test_adding_activates_new_vertices():
    H = Hypergraph(10, [(0, 1)], vertices=[0, 1])
    upd = apply_updates(H, add_edges=[(7, 8)])
    assert sorted(upd.hypergraph.vertices.tolist()) == [0, 1, 7, 8]
    assert sorted(upd.dirty_vertices.tolist()) == [7, 8]


def test_strict_missing_removal_raises():
    H = Hypergraph(4, [(0, 1)])
    with pytest.raises(ValueError):
        apply_updates(H, remove_edges=[(2, 3)])


def test_lenient_missing_removal_is_counted():
    H = Hypergraph(4, [(0, 1)])
    upd = apply_updates(H, remove_edges=[(2, 3)], strict=False)
    assert upd.ignored_removals == 1
    assert upd.is_noop


def test_add_out_of_range_raises():
    H = Hypergraph(4, [(0, 1)])
    with pytest.raises(IndexError):
        apply_updates(H, add_edges=[(3, 4)])


def test_repeated_add_remove_round_trips():
    H = uniform_hypergraph(15, 20, 3, seed=3)
    edge = H.edges[0]
    state = H
    chain = None
    for _ in range(3):
        out = apply_updates(state, remove_edges=[edge], parent_chain=chain)
        state, chain = out.hypergraph, out.chain
        out = apply_updates(state, add_edges=[edge], parent_chain=chain)
        state, chain = out.hypergraph, out.chain
    assert sorted(state.edges) == sorted(H.edges)
    assert state.content_hash() == H.content_hash()


def test_chain_links_states():
    H = Hypergraph(6, [(0, 1)])
    upd1 = apply_updates(H, add_edges=[(2, 3)])
    assert upd1.parent_chain == H.content_hash()
    assert upd1.chain == chain_hash(H.content_hash(), upd1.content_hash)
    upd2 = apply_updates(upd1.hypergraph, add_edges=[(4, 5)], parent_chain=upd1.chain)
    assert upd2.chain == chain_hash(upd1.chain, upd2.content_hash)
    assert upd2.chain != upd1.chain


def test_chain_is_history_sensitive():
    # Same final state via different histories => different chains.
    H = Hypergraph(6, [(0, 1)])
    direct = apply_updates(H, add_edges=[(2, 3)])
    detour1 = apply_updates(H, add_edges=[(4, 5)])
    detour2 = apply_updates(
        detour1.hypergraph,
        add_edges=[(2, 3)],
        remove_edges=[(4, 5)],
        parent_chain=detour1.chain,
    )
    assert detour2.hypergraph.content_hash() == direct.hypergraph.content_hash()
    assert detour2.chain != direct.chain


def test_delta_fraction_definition():
    H = Hypergraph(8, [(0, 1), (2, 3), (4, 5)])
    upd = apply_updates(H, add_edges=[(6, 7)], remove_edges=[(0, 1)])
    # |E_old ∪ E_new| = 4, changed = 2.
    assert upd.delta_fraction() == pytest.approx(0.5)


def test_fast_path_matches_python_reference():
    rng = as_generator(77)
    for trial in range(60):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(2, min(5, n)))
        m = int(rng.integers(1, 2 * n))
        H = uniform_hypergraph(n, m, d, seed=int(rng.integers(2**31)))
        k = int(rng.integers(0, H.num_edges + 1))
        removes = (
            [H.edges[int(i)] for i in rng.choice(H.num_edges, size=k, replace=False)]
            if k
            else []
        )
        adds = [
            tuple(sorted(int(v) for v in rng.choice(n, size=d, replace=False)))
            for _ in range(int(rng.integers(0, 5)))
        ]
        upd = apply_updates(H, add_edges=adds, remove_edges=removes, strict=False)
        ref = (set(H.edges) - set(removes)) | set(adds)
        assert sorted(upd.hypergraph.edges) == sorted(ref), trial
        # The diff is exact: applying it to the old edge set lands on ref.
        replayed = set(H.edges)
        replayed -= {H.edges[int(i)] for i in upd.removed}
        replayed |= {upd.hypergraph.edges[int(i)] for i in upd.added}
        assert replayed == ref, trial


def test_wide_shapes_take_general_path():
    # width * log2(universe+3) > 62 => packed keys infeasible: an 8-wide
    # edge over a 300-vertex universe needs ~66 bits.
    universe = 300
    wide = tuple(range(8))
    other = tuple(range(100, 108))
    H = Hypergraph(universe, [wide, other])
    assert (
        _fast_apply(
            H.store,
            H.store.select(np.zeros(2, dtype=bool)),
            H.store.select(np.zeros(2, dtype=bool)),
            universe,
        )
        is None
    )
    fresh = tuple(range(200, 208))
    upd = apply_updates(H, add_edges=[fresh], remove_edges=[wide], strict=True)
    assert sorted(upd.hypergraph.edges) == sorted([other, fresh])
    assert upd.num_changed == 2


def test_feed_tracker_matches_from_hypergraph():
    H = uniform_hypergraph(18, 24, 3, seed=9)
    upd = apply_updates(
        H, add_edges=[(0, 1, 2), (3, 4, 5)], remove_edges=[H.edges[0], H.edges[5]]
    )
    tracker = DeltaTracker.from_hypergraph(H)
    feed_tracker(tracker, upd, H)
    fresh = DeltaTracker.from_hypergraph(upd.hypergraph)
    assert tracker.delta_by_size == fresh.delta_by_size
    assert tracker.delta() == fresh.delta()


def _checked_step(H, adds=(), removes=()):
    """One apply_updates step, checked against the general (lex-sort) path.

    The successor store must equal the general path's, with the same
    exact diff, and — when the shape packs — carry keys equal to a fresh
    packing of itself at the same ``(base, width)``.
    """
    upd = apply_updates(H, add_edges=adds, remove_edges=removes, strict=False)
    rem = EdgeStore.from_iterable(removes)
    add = EdgeStore.from_iterable(adds)
    store, removed, added, missing = _general_apply(H.store, rem, add)
    new = upd.hypergraph.store
    assert new == store
    assert np.array_equal(upd.removed, removed)
    assert np.array_equal(upd.added, added)
    assert upd.ignored_removals == missing.size
    if new._keys is not None:
        base, width, keys = new._keys
        assert base == H.universe + 3
        assert width >= (int(new.sizes().max()) if new.num_edges else 1)
        assert np.array_equal(keys, _packed_keys(new, base, width))
    return upd


def test_carried_keys_match_fresh_packing_over_a_churn_stream():
    H = sharded_hypergraph(6, 10, 14, 3, seed=41)
    batches = churn_stream(
        H, 60, seed=42, batch_edges=4, arrival_fraction=0.55,
        hot_fraction=0.8, adversarial_fraction=0.3,
    )
    for batch in batches:
        upd = _checked_step(H, batch.add_edges, batch.remove_edges)
        assert upd.hypergraph.store._keys is not None
        H = upd.hypergraph
    # The adversarial supersets grew the width past the start dimension.
    assert H.dimension > 3


def test_carried_keys_across_width_changes():
    H = Hypergraph(12, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    H = _checked_step(H, adds=[(1, 2, 3)]).hypergraph
    assert H.store._keys[1] == 3
    # Width growth: a superset arrival of size d+1.
    H = _checked_step(H, adds=[(0, 1, 2, 9)]).hypergraph
    assert H.store._keys[1] == 4
    # Width shrink: remove the only widest edge, then keep going at d.
    H = _checked_step(H, removes=[(0, 1, 2, 9)]).hypergraph
    assert H.dimension == 3
    H = _checked_step(H, adds=[(9, 10, 11)]).hypergraph
    assert H.store._keys[1] == 3
    # Add-only, remove-only, no-op, duplicate add and remove-then-re-add.
    H = _checked_step(H, adds=[(2, 5, 8), (0, 4, 8)]).hypergraph
    H = _checked_step(H, removes=[(3, 4, 5), (6, 7, 8)]).hypergraph
    upd = _checked_step(H)
    assert upd.is_noop and upd.hypergraph.store is H.store
    assert _checked_step(H, adds=[(0, 1, 2)]).is_noop
    assert _checked_step(H, adds=[(0, 1, 2)], removes=[(0, 1, 2)]).is_noop
    # Remove everything, then refill from empty.
    H = _checked_step(H, removes=list(H.edges)).hypergraph
    assert H.num_edges == 0
    H = _checked_step(H, adds=[(1, 5), (0, 11)]).hypergraph
    assert H.edges == ((0, 11), (1, 5))


def test_chained_step_packs_only_its_batch(monkeypatch):
    H = sharded_hypergraph(20, 10, 14, 3, seed=43)
    H = apply_updates(H, add_edges=[(0, 1, 2)]).hypergraph
    packed: list[int] = []
    real = updates_mod._packed_keys

    def counting(store, base, width):
        packed.append(store.num_edges)
        return real(store, base, width)

    monkeypatch.setattr(updates_mod, "_packed_keys", counting)
    removes = [H.edges[0], H.edges[7]]
    upd = _checked_step(H, adds=[(3, 4, 5), (10, 20, 30)], removes=removes)
    # One packing per request store, never the 281-edge state: its keys
    # came with it from the previous step.
    assert packed == [2, 2], packed
    assert upd.num_changed == 4


def test_unpackable_universe_carries_no_keys():
    # 3 * log2(2**21 + 3) > 62 bits: every batch takes the general path.
    universe = 1 << 21
    top = universe - 1
    edges = [(0, 1, 2), (5, 6, top), (7, 8, 9)]
    verts = sorted({v for e in edges for v in e} | {3, 4})
    H = Hypergraph(universe, edges, vertices=verts)
    for adds, removes in [
        ([(2, 3, 4)], []),
        ([], [(7, 8, 9)]),
        ([(0, 4, top)], [(0, 1, 2), (1, 2, 3)]),
        ([], []),
    ]:
        upd = _checked_step(H, adds, removes)
        assert upd.hypergraph.store._keys is None
        H = upd.hypergraph
    assert sorted(H.edges) == [(0, 4, top), (2, 3, 4), (5, 6, top)]
