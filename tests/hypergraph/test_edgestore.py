"""EdgeStore: canonicalisation, masked selection, trim bookkeeping, diff.

Every test here compares the vectorised array path against a direct
Python-tuple reimplementation of the same semantics — the pre-array
behaviour the store must reproduce bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hypergraph.edgestore import _PAD_LIMIT, EdgeStore
from repro.obs import metrics


def reference_canonical(edges) -> tuple[tuple[int, ...], ...]:
    """The tuple-path canonical form: sorted dedup within each edge, then
    the sorted set of edge tuples."""
    return tuple(sorted({tuple(sorted(set(e))) for e in edges}))


def random_edge_lists(seed: int, trials: int = 60):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(1, 20))
        m = int(rng.integers(0, 25))
        edges = []
        for _ in range(m):
            size = int(rng.integers(1, min(6, n) + 1))
            # Deliberately unsorted, possibly with repeated vertices.
            edges.append(tuple(rng.integers(0, n, size=size).tolist()))
        yield n, edges


class TestCanonicalisation:
    def test_matches_tuple_reference(self):
        for _, edges in random_edge_lists(seed=101):
            store = EdgeStore.from_iterable(edges)
            assert store.edge_tuples() == reference_canonical(edges)

    def test_prefix_sorts_before_extension(self):
        """Python tuple order: (0, 1) < (0, 1, 2).  The -1 sentinel padding
        must reproduce this."""
        store = EdgeStore.from_iterable([(0, 1, 2), (0, 1), (0, 2)])
        assert store.edge_tuples() == ((0, 1), (0, 1, 2), (0, 2))

    def test_duplicate_edges_merge(self):
        store = EdgeStore.from_iterable([(2, 1), (1, 2), (1, 2, 2)])
        assert store.edge_tuples() == ((1, 2),)

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            EdgeStore.from_iterable([(0, 1), ()])

    def test_empty_store(self):
        store = EdgeStore.empty()
        assert store.num_edges == 0
        assert store.edge_tuples() == ()
        assert EdgeStore.from_iterable([]) == store

    def test_fallback_beyond_pad_limit(self):
        """An edge wider than _PAD_LIMIT takes the tuple fallback; the
        result must be identical to the reference."""
        big = tuple(range(_PAD_LIMIT + 5))
        edges = [big, (3, 1), (1, 3), big, (0,)]
        store = EdgeStore.from_iterable(edges)
        assert store.edge_tuples() == reference_canonical(edges)

    def test_canonical_arrays_adopted_verbatim(self):
        base = EdgeStore.from_iterable([(0, 1), (2, 3)])
        trusted = EdgeStore.from_arrays(base.indptr, base.indices, canonical=True)
        assert trusted.indptr is base.indptr
        assert trusted.indices is base.indices


def _csr(edges):
    """Raw CSR arrays of an edge list, in the given order."""
    sizes = [len(e) for e in edges]
    indptr = np.zeros(len(edges) + 1, dtype=np.intp)
    np.cumsum(sizes, out=indptr[1:])
    return indptr, np.asarray([v for e in edges for v in e], dtype=np.intp)


def _sorts(edges) -> tuple[EdgeStore, float]:
    """``from_arrays(canonical=False)`` on *edges* and the sorts it ran."""
    with metrics.isolated_registry() as registry:
        store = EdgeStore.from_arrays(*_csr(edges), canonical=False)
        counters = registry.snapshot()["counters"]
    return store, counters.get("edgestore/canonicalisations", 0)


class TestAlreadyCanonical:
    """``from_arrays(canonical=False)`` adopts canonical input without a
    sort and sorts anything else to the same result as the tuple path."""

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1, 2), (0, 3), (1, 2, 3), (2, 4)],  # mixed sizes
            [(0, 1), (0, 1, 2), (0, 2)],  # a prefix before its extension
            [(0,), (1, 2), (3,)],  # size-1 edges
            [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],  # uniform
            [(5, 7)],
        ],
    )
    def test_canonical_input_is_adopted(self, edges):
        indptr, indices = _csr(edges)
        store = EdgeStore.from_arrays(indptr, indices, canonical=False)
        assert store.indptr is indptr and store.indices is indices
        assert store.edge_tuples() == reference_canonical(edges)
        assert _sorts(edges)[1] == 0

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (2, 3), (1, 2), (3, 4)],  # one swapped pair
            [(0, 1), (0, 1, 2), (0, 1, 2), (2, 3)],  # one duplicate edge
            [(0, 1, 2), (0, 1), (0, 2)],  # extension before its prefix
            [(0, 2), (0, 1)],  # first ids tie, second out of order
            [(0, 1), (2, 1)],  # one edge unsorted inside
            [(0, 1, 1), (2, 3)],  # a repeated id inside an edge
            [(4,), (4,)],  # duplicate size-1 edges
        ],
    )
    def test_near_canonical_input_is_sorted(self, edges):
        store, sorts = _sorts(edges)
        assert store.edge_tuples() == reference_canonical(edges)
        assert sorts == 1

    def test_random_inputs_match_tuple_path(self):
        rng = np.random.default_rng(303)
        adopted = 0
        for _, edges in random_edge_lists(seed=303, trials=200):
            if rng.random() < 0.5:  # make about half of them canonical
                edges = list(reference_canonical(edges))
            if edges and rng.random() < 0.3:
                i = int(rng.integers(len(edges)))
                edges.insert(i, edges[i])  # a duplicate next to its twin
            store, sorts = _sorts(edges)
            assert store.edge_tuples() == reference_canonical(edges)
            adopted += edges != [] and sorts == 0
        assert adopted > 20

    def test_wide_edges_take_the_sort(self):
        big = tuple(range(_PAD_LIMIT + 5))
        edges = [(0,), big, (1, 2)]
        store, _ = _sorts(edges)
        assert store.edge_tuples() == reference_canonical(edges)


class TestSelect:
    def test_matches_tuple_selection(self):
        rng = np.random.default_rng(7)
        for _, edges in random_edge_lists(seed=202):
            store = EdgeStore.from_iterable(edges)
            mask = rng.random(store.num_edges) < 0.5
            selected = store.select(mask)
            expected = tuple(
                t for t, keep in zip(store.edge_tuples(), mask) if keep
            )
            assert selected.edge_tuples() == expected
            # A subsequence of a canonical list is canonical.
            assert selected == EdgeStore.from_iterable(expected)

    def test_position_mask(self):
        store = EdgeStore.from_iterable([(0, 1), (2, 3, 4), (5,)])
        mask = np.array([True, False, True])
        assert store.position_mask(mask).tolist() == [1, 1, 0, 0, 0, 1]


class TestTrim:
    @staticmethod
    def _cases(seed: int):
        rng = np.random.default_rng(seed)
        for n, edges in random_edge_lists(seed=seed, trials=80):
            store = EdgeStore.from_iterable(edges)
            if store.num_edges == 0:
                continue
            mask = rng.random(n) < 0.35
            # Keep one vertex of every edge so no edge empties.
            for t in store.edge_tuples():
                if all(mask[v] for v in t):
                    mask[t[0]] = False
            yield store, mask

    def test_result_matches_tuple_path(self):
        for store, mask in self._cases(303):
            out, changed, any_change, changed_in, present = store.trim(mask)
            expected = reference_canonical(
                tuple(v for v in t if not mask[v]) for t in store.edge_tuples()
            )
            assert out.edge_tuples() == expected

    def test_bookkeeping_masks_are_exact(self):
        """The trim masks must reconstruct the exact edge diff:

        * ``changed_in`` flags precisely the input edges that shrank;
        * ``present`` flags precisely the output tuples that existed
          verbatim in the input;
        * an unchanged output edge always has an untouched group member.
        """
        for store, mask in self._cases(404):
            inputs = store.edge_tuples()
            out, changed, any_change, changed_in, present = store.trim(mask)
            outputs = out.edge_tuples()
            in_set = set(inputs)

            shrank = [any(mask[v] for v in t) for t in inputs]
            assert changed_in.tolist() == shrank
            assert any_change == any(shrank)

            assert present.tolist() == [t in in_set for t in outputs]
            # ~changed ⇒ the tuple survived untouched, so it was present.
            assert all(p for p, c in zip(present, changed) if not c)

            # Exact diff reconstruction (what the Δ tracker consumes):
            # removed = old tuples of shrunk inputs that no longer exist,
            # added = output tuples absent from the input.
            out_set = set(outputs)
            removed = {t for t, s in zip(inputs, shrank) if s} - out_set
            assert removed == in_set - out_set
            added = {t for t, p in zip(outputs, present) if not p}
            assert added == out_set - in_set

    def test_no_hit_returns_self(self):
        store = EdgeStore.from_iterable([(0, 1), (2, 3)])
        mask = np.zeros(4, dtype=bool)
        out, changed, any_change, changed_in, present = store.trim(mask)
        assert out is store
        assert not any_change
        assert not changed.any() and not changed_in.any()
        assert present.all()

    def test_empty_edge_raises(self):
        store = EdgeStore.from_iterable([(0, 1), (2,)])
        mask = np.zeros(3, dtype=bool)
        mask[2] = True
        with pytest.raises(ValueError, match="became empty"):
            store.trim(mask)

    def test_empty_store(self):
        out, changed, any_change, changed_in, present = EdgeStore.empty().trim(
            np.ones(5, dtype=bool)
        )
        assert out.num_edges == 0 and not any_change


class TestDiff:
    def test_matches_set_difference(self):
        rng = np.random.default_rng(9)
        for _, edges in random_edge_lists(seed=505):
            a = EdgeStore.from_iterable(edges)
            # Perturb: drop some edges, add some fresh ones.
            keep = rng.random(a.num_edges) < 0.6
            extra = [
                tuple(sorted(set(rng.integers(0, 30, size=3).tolist())))
                for _ in range(int(rng.integers(0, 4)))
            ]
            b = EdgeStore.from_iterable(
                [t for t, k in zip(a.edge_tuples(), keep) if k] + extra
            )
            removed_idx, added_idx = a.diff(b)
            a_set, b_set = set(a.edge_tuples()), set(b.edge_tuples())
            assert {a.edge(int(i)) for i in removed_idx} == a_set - b_set
            assert {b.edge(int(i)) for i in added_idx} == b_set - a_set

    def test_identical_stores(self):
        a = EdgeStore.from_iterable([(0, 1), (1, 2)])
        removed, added = a.diff(a)
        assert removed.size == 0 and added.size == 0

    def test_against_empty(self):
        a = EdgeStore.from_iterable([(0, 1), (1, 2)])
        removed, added = a.diff(EdgeStore.empty())
        assert removed.tolist() == [0, 1] and added.size == 0


class TestDunder:
    def test_eq_and_hash(self):
        a = EdgeStore.from_iterable([(1, 0), (2, 3)])
        b = EdgeStore.from_iterable([(0, 1), (3, 2)])
        assert a == b and hash(a) == hash(b)
        assert a != EdgeStore.from_iterable([(0, 1)])

    def test_sizes_cached(self):
        a = EdgeStore.from_iterable([(0, 1), (2, 3, 4)])
        assert a.sizes() is a.sizes()
        assert a.sizes().tolist() == [2, 3]
