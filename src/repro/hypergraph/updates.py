"""Incremental edge updates — the reusable batch-update API.

This module turns the diff machinery that already powers the algorithm
rounds (:meth:`EdgeStore.diff`, :meth:`EdgeStore.trim` reporting, the
:class:`~repro.hypergraph.degrees.DeltaTracker`) into a front-door API for
*streamed* hypergraphs: :func:`apply_updates` applies a batch of edge
arrivals/departures and returns the successor hypergraph together with an
**exact structural diff** (indices of the edges that actually changed, not
the request as submitted — duplicate adds and add/remove cancellations net
out) and a **content-hash chain** so every streamed state stays
cache-addressable and the update history is audit-checkable.

Semantics
---------
* Removals apply first, then additions.  A batch that removes and re-adds
  the same edge therefore leaves it present — and the *exact* diff reports
  it as unchanged.
* Adding an edge activates its vertices; removing an edge never
  deactivates anything (the universe and active set only grow, which keeps
  vertex ids stable across the stream — the same fixed-universe discipline
  the one-shot algorithms rely on).
* ``strict=True`` (default) raises on removing an edge that is not
  present; ``strict=False`` counts and ignores such removals
  (``updates/ignored_removals``), which is what adversarial churn streams
  want.

The diff is exact by construction.  On shapes whose edges pack into one
64-bit key per edge (``dimension · log2(universe) ≲ 62`` — every
practical streamed instance) the whole batch runs **sort-free**: the old
store is already lex-sorted, so packed keys are ascending, removals
resolve by binary search, additions splice in with one ``np.insert``,
and the structural diff falls out of the bookkeeping — O(Σ|e|) with no
O(m log m) re-sort anywhere.  The keys are carried across chained calls:
the successor store holds its predecessor's keys with the removed ones
dropped and the fresh ones inserted, so the next batch of a stream packs
only its own edges (a change of key width or universe recomputes them
once).  What stays O(m) per batch is memory traffic — copying the
successor's ``indices``/``indptr``/keys and the state's content hash —
not Python or a matrix fill.  Degenerate shapes fall back to the general
path (one canonical-store ``old.diff(new)`` comparison, a padded
lex-sort); both paths are differentially tested against each other.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.hypergraph.degrees import DeltaTracker
from repro.hypergraph.edgestore import EdgeStore
from repro.hypergraph.hypergraph import EdgeLike, Hypergraph
from repro.obs import metrics as obs_metrics

__all__ = ["UpdateResult", "apply_updates", "chain_hash", "feed_tracker"]


def chain_hash(parent_chain: str, state_hash: str) -> str:
    """Advance the stream's hash chain by one state.

    ``chain_0 = H_0.content_hash()`` and
    ``chain_{t+1} = sha256(chain_t ‖ H_{t+1}.content_hash())`` — two streams
    agree on a chain value iff they agree on the entire state history, while
    each state stays individually addressable by its own content hash.
    """
    h = hashlib.sha256()
    h.update(parent_chain.encode("ascii"))
    h.update(state_hash.encode("ascii"))
    return h.hexdigest()


#: Packed keys must fit an int64 with headroom for the sentinel offset.
_KEY_BITS = 62


def _packed_keys(store: EdgeStore, base: int, width: int) -> np.ndarray:
    """One int64 key per edge, ascending iff the store is lex-sorted.

    Each edge is padded to *width* positions with 0 and written as a
    base-*base* number with digits ``vertex + 2`` — padding compares
    below every vertex, so key order reproduces Python-tuple order
    (a prefix sorts before its extensions), exactly like the sentinel
    matrix in :meth:`EdgeStore.diff`.
    """
    m = store.num_edges
    if m == 0:
        return np.empty(0, dtype=np.int64)
    sizes = store.sizes()
    rows = np.repeat(np.arange(m, dtype=np.intp), sizes)
    cols = np.arange(store.indices.size, dtype=np.intp) - np.repeat(
        store.indptr[:-1], sizes
    )
    M = np.zeros((m, width), dtype=np.int64)
    M[rows, cols] = store.indices.astype(np.int64) + 2
    keys = M[:, 0].copy()
    for c in range(1, width):
        keys *= base
        keys += M[:, c]
    return keys


def _store_keys(store: EdgeStore, base: int, width: int) -> np.ndarray:
    """The store's packed keys at ``(base, width)``: carried, or computed once."""
    cached = store._keys
    if cached is not None and cached[0] == base and cached[1] == width:
        return cached[2]
    keys = _packed_keys(store, base, width)
    store._keys = (base, width, keys)
    return keys


def _fast_apply(
    old: EdgeStore, rem: EdgeStore, add: EdgeStore, universe: int
) -> tuple[EdgeStore, np.ndarray, np.ndarray, np.ndarray] | None:
    """Sort-free batch application via packed edge keys.

    Returns ``(new_store, removed, added, missing)`` — the successor
    store, the exact diff (cancellation already applied), and the indices
    of requested removals absent from *old* — or ``None`` when the shape
    cannot pack into 62 bits and the caller must take the lex-sort path.
    The successor store carries its own keys, so the next batch of a
    chain reads them instead of re-packing all of its edges.
    """
    width = 1
    for store in (old, rem, add):
        if store.num_edges:
            width = max(width, int(store.sizes().max()))
    base = universe + 3
    if width * math.log2(base) > _KEY_BITS:
        return None
    keys_old = _store_keys(old, base, width)

    if rem.num_edges:
        keys_rem = _packed_keys(rem, base, width)
        pos = np.searchsorted(keys_old, keys_rem)
        if keys_old.size:
            found = (pos < keys_old.size) & (
                keys_old[np.minimum(pos, keys_old.size - 1)] == keys_rem
            )
        else:
            found = np.zeros(keys_rem.size, dtype=bool)
        removed_all = pos[found].astype(np.intp)
        missing = np.flatnonzero(~found)
    else:
        removed_all = np.empty(0, dtype=np.intp)
        missing = np.empty(0, dtype=np.intp)

    keep = np.ones(old.num_edges, dtype=bool)
    keep[removed_all] = False
    mid = old.select(keep) if removed_all.size else old
    keys_mid = keys_old[keep] if removed_all.size else keys_old
    new_store, new_keys = mid, keys_mid

    if add.num_edges:
        keys_add = _packed_keys(add, base, width)
        pos2 = np.searchsorted(keys_mid, keys_add)
        if keys_mid.size:
            exists = (pos2 < keys_mid.size) & (
                keys_mid[np.minimum(pos2, keys_mid.size - 1)] == keys_add
            )
        else:
            exists = np.zeros(keys_add.size, dtype=bool)
        fresh_mask = ~exists
        fresh = add.select(fresh_mask)
        keys_fresh = keys_add[fresh_mask]
        ins = pos2[fresh_mask].astype(np.intp)
        if fresh.num_edges:
            fresh_sizes = fresh.sizes()
            new_sizes = np.insert(mid.sizes(), ins, fresh_sizes)
            new_indices = np.insert(
                mid.indices, np.repeat(mid.indptr[ins], fresh_sizes), fresh.indices
            )
            new_indptr = np.zeros(new_sizes.size + 1, dtype=np.intp)
            np.cumsum(new_sizes, out=new_indptr[1:])
            new_store = EdgeStore.from_arrays(new_indptr, new_indices, canonical=True)
            new_store._sizes = new_sizes
            new_keys = np.insert(keys_mid, ins, keys_fresh)
            added_idx = ins + np.arange(fresh.num_edges, dtype=np.intp)
        else:
            added_idx = np.empty(0, dtype=np.intp)
    else:
        keys_fresh = np.empty(0, dtype=np.int64)
        added_idx = np.empty(0, dtype=np.intp)
    new_store._keys = (base, width, new_keys)

    removed = removed_all
    added = added_idx
    if removed.size and added.size:
        # A removed-then-re-added edge is unchanged: cancel it out of both
        # sides so the reported diff is the true symmetric difference.
        cancel_rem = np.isin(keys_old[removed], keys_fresh)
        cancel_add = np.isin(keys_fresh, keys_old[removed])
        removed = removed[~cancel_rem]
        added = added[~cancel_add]
    return new_store, removed, added, missing


def _general_apply(
    old: EdgeStore, rem: EdgeStore, add: EdgeStore
) -> tuple[EdgeStore, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_fast_apply`'s result by full lex-sort canonicalisation and one
    store diff — the path for shapes whose keys do not pack (carries no keys)."""
    if rem.num_edges:
        surviving, missing = old.diff(rem)
        keep = np.zeros(old.num_edges, dtype=bool)
        keep[surviving] = True
        mid = old.select(keep)
    else:
        mid = old
        missing = np.empty(0, dtype=np.intp)
    if add.num_edges:
        merged_indptr = np.concatenate([mid.indptr, mid.indptr[-1] + add.indptr[1:]])
        merged_indices = np.concatenate([mid.indices, add.indices])
        new_store = EdgeStore.from_arrays(merged_indptr, merged_indices, canonical=False)
    else:
        new_store = mid
    removed, added = old.diff(new_store)
    return new_store, removed, added, missing


def _edge_ids_vertices(store: EdgeStore, edge_ids: np.ndarray) -> np.ndarray:
    """Sorted unique vertices of the given edges of *store*.

    Gathers only those edges' positions: O(Σ|e| over *edge_ids*), not a
    mask over the whole store.
    """
    if edge_ids.size == 0:
        return np.empty(0, dtype=np.intp)
    starts = store.indptr[edge_ids]
    sizes = store.indptr[edge_ids + 1] - starts
    offsets = np.cumsum(sizes) - sizes
    positions = np.repeat(starts - offsets, sizes) + np.arange(
        int(sizes.sum()), dtype=np.intp
    )
    return np.unique(store.indices[positions])


def _edge_ids_tuples(store: EdgeStore, edge_ids: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(store.edge(int(i)) for i in edge_ids)


@dataclass(frozen=True)
class UpdateResult:
    """Successor state plus the exact structural diff of one update batch.

    ``removed`` indexes into the *pre*-update edge store, ``added`` into the
    *post*-update store; both describe what actually changed after
    cancellation (a removed-then-re-added edge appears in neither).
    ``dirty_vertices`` is the union of the changed edges' vertices — the
    seed set for repair localization.
    """

    hypergraph: Hypergraph
    removed: np.ndarray = field(compare=False)
    added: np.ndarray = field(compare=False)
    dirty_vertices: np.ndarray = field(compare=False)
    ignored_removals: int
    parent_hash: str
    parent_chain: str
    chain: str

    @property
    def content_hash(self) -> str:
        """Content hash of the successor state (the cache key)."""
        return self.hypergraph.content_hash()

    @property
    def num_changed(self) -> int:
        """Number of edges that actually changed (after cancellation)."""
        return int(self.removed.size + self.added.size)

    @property
    def is_noop(self) -> bool:
        return self.num_changed == 0

    def delta_fraction(self) -> float:
        """Changed edges as a fraction of ``|E_old ∪ E_new|`` (0 for no-ops)."""
        union = self.hypergraph.num_edges + int(self.removed.size)
        return self.num_changed / union if union else 0.0


def apply_updates(
    H: Hypergraph,
    add_edges: Iterable[EdgeLike] = (),
    remove_edges: Iterable[EdgeLike] = (),
    *,
    parent_chain: str | None = None,
    strict: bool = True,
) -> UpdateResult:
    """Apply one batch of edge removals then additions to *H*.

    Parameters
    ----------
    add_edges, remove_edges:
        Iterables of vertex iterables; canonicalised on entry (sorted,
        deduplicated), so request order and within-edge vertex order never
        matter.  Removals are matched against *H* by canonical edge tuple.
    parent_chain:
        The stream's chain value for *H* (defaults to ``H.content_hash()``
        — i.e. *H* is treated as the genesis state).
    strict:
        Raise ``ValueError`` on removing an absent edge (default), or
        count-and-ignore it when ``False``.

    Returns an :class:`UpdateResult`; see the module docstring for the
    exact-diff and activation semantics.
    """
    old_store = H.store
    universe = H.universe

    rem_store = EdgeStore.from_iterable(remove_edges)
    add_store = EdgeStore.from_iterable(add_edges)
    if add_store.indices.size and (
        int(add_store.indices.min()) < 0 or int(add_store.indices.max()) >= universe
    ):
        raise IndexError("added edge contains a vertex outside the universe")

    fast = _fast_apply(old_store, rem_store, add_store, universe)
    new_store, removed, added, missing = (
        fast if fast is not None else _general_apply(old_store, rem_store, add_store)
    )

    ignored = 0
    if missing.size:
        if strict:
            raise ValueError(
                f"cannot remove absent edge {rem_store.edge(int(missing[0]))} "
                f"({missing.size} missing in total; pass strict=False to ignore)"
            )
        ignored = int(missing.size)
        obs_metrics.inc("updates/ignored_removals", ignored)

    new_vertices = np.asarray(H.vertices)
    if add_store.num_edges:
        # Activate only the genuinely new vertices — an O(batch) insert
        # into the sorted active array, not an O(n) set union.
        active = H.vertex_mask()
        novel = np.unique(add_store.indices[~active[add_store.indices]])
        if novel.size:
            new_vertices = np.insert(
                new_vertices, np.searchsorted(new_vertices, novel), novel
            )
    new_H = Hypergraph._from_arrays(universe, new_store, new_vertices)

    dirty = np.union1d(
        _edge_ids_vertices(old_store, removed), _edge_ids_vertices(new_store, added)
    )

    parent_hash = H.content_hash()
    chain_parent = parent_hash if parent_chain is None else parent_chain
    chain = chain_hash(chain_parent, new_H.content_hash())

    obs_metrics.inc("updates/batches")
    obs_metrics.inc("updates/edges_removed", int(removed.size))
    obs_metrics.inc("updates/edges_added", int(added.size))

    return UpdateResult(
        hypergraph=new_H,
        removed=removed,
        added=added,
        dirty_vertices=dirty,
        ignored_removals=ignored,
        parent_hash=parent_hash,
        parent_chain=chain_parent,
        chain=chain,
    )


def feed_tracker(tracker: DeltaTracker, result: UpdateResult, old: Hypergraph) -> None:
    """Advance a :class:`DeltaTracker` across one update batch.

    *old* must be the pre-update hypergraph the tracker currently models;
    after the call it models ``result.hypergraph``.  Cost is
    O(changed edges · 2^d) — the whole point of the exact diff.
    """
    tracker.remove_edges(_edge_ids_tuples(old.store, result.removed))
    tracker.add_edges(_edge_ids_tuples(result.hypergraph.store, result.added))
