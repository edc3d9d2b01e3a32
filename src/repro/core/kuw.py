"""The Karp–Upfal–Wigderson (KUW) parallel MIS algorithm.

Karp, Upfal and Wigderson (JCSS 1988) gave an ``O(√n)``-round MIS algorithm
for general hypergraphs in an oracle model; the paper (§1) notes it "can be
adapted to run in time ``O(√n)·(log n + log m)`` with high probability on
``mn`` processors".  This module implements that adaptation in its standard
random-permutation form:

Each round, over the remaining candidates ``C`` (vertices neither committed
to ``I`` nor permanently blocked):

1. **filter**: discard every currently blocked candidate — a ``v ∈ C``
   such that some edge ``e ∋ v`` has ``e \\ {v} ⊆ I`` (testable for all
   candidates at once with ``mn`` processors; blocked is permanent since
   ``I`` only grows);
2. draw a uniformly random permutation ``π`` of the surviving ``C``;
3. for every edge ``e``, compute the earliest prefix of ``π`` whose union
   with ``I`` contains ``e`` — a parallel max over the positions of
   ``e ∩ C`` (valid only when ``e \\ C ⊆ I``);
4. the longest *safe* prefix length is ``L = min_e t(e) − 1`` (``|C|``
   when no edge constrains); commit the first ``L`` vertices to ``I``.

Each round costs ``O(log(mn))`` depth with ``mn`` processors (steps 1/3/4
are max/min reductions).  The filter step is what separates this from the
naive Θ(n)-round random-greedy: after a short prefix, *all* vertices the
committed prefix blocks leave together (on a clique the whole instance
resolves in two rounds).  The random permutation makes the expected round
count ``O(√n)`` — the shape experiment E8 measures.

Correctness: a fully-contained edge would force ``t(e) ≤ L`` (contradiction
with step 4), so ``I`` stays independent; a vertex leaves ``C`` either into
``I`` or as a witnessed-blocked discard, so when ``C`` empties, ``I`` is
maximal.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import MISResult, RoundRecord
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels.bitstore import BitEdgeStore
from repro.kernels.dispatch import select_backend
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.pram.machine import Machine, NullMachine
from repro.util.itlog import log2_ceil
from repro.util.rng import SeedLike, stream

__all__ = ["karp_upfal_wigderson"]


def karp_upfal_wigderson(
    H: Hypergraph,
    seed: SeedLike = None,
    *,
    machine: Machine | None = None,
    trace: bool = True,
    tracer: Tracer | NullTracer | None = None,
) -> MISResult:
    """Run the KUW random-permutation MIS algorithm.

    Parameters
    ----------
    H:
        Input hypergraph (any dimension — this is the general-case tool).
    seed:
        RNG seed (one child stream per round).
    machine:
        PRAM cost accountant.
    trace:
        Record per-round statistics.
    tracer:
        Telemetry tracer (defaults to the ambient
        :func:`~repro.obs.tracer.current_tracer`); emits ``kuw/solve``
        and ``kuw/round`` spans and stamps ``extras["wall_ns"]``.
    """
    mach = machine if machine is not None else NullMachine()
    trc = tracer if tracer is not None else current_tracer()
    with trc.span(
        "kuw/solve", machine=mach, n=H.num_vertices, m=H.num_edges, dim=H.dimension
    ) as span:
        result = _kuw(H, seed, mach, trace, trc)
        if trc.enabled:
            span.set(rounds=result.num_rounds, mis_size=result.size)
    return result


def _kuw(
    H: Hypergraph,
    seed: SeedLike,
    mach: Machine,
    trace: bool,
    trc: Tracer | NullTracer,
) -> MISResult:
    rng_stream = stream(seed)

    universe = H.universe
    m = H.num_edges
    in_I = np.zeros(universe, dtype=bool)
    blocked = np.zeros(universe, dtype=bool)
    candidates = H.vertices.copy()
    records: list[RoundRecord] = []
    round_index = 0

    # The edge set never changes in KUW; the CSR arrays are the loop state.
    store = H.store
    indptr, indices = store.indptr, store.indices
    sizes = store.sizes()
    total = store.total_size

    # Shape dispatch: on dense-capable instances the per-round segmented
    # reductions are replaced by gathers through the padded incidence block
    # (see BitEdgeStore).  The loop — RNG draws, machine charges, records —
    # is shared, so the backends are bit-identical by construction.
    decision = select_backend(H)
    dense = BitEdgeStore.from_store(store, universe) if m and decision.dense else None

    while candidates.size:
        rng = next(rng_stream)
        c = candidates
        c_size_prefilter = int(c.size)
        record: RoundRecord | None = None
        exhausted = False

        with trc.span(
            "kuw/round", machine=mach, round=round_index, n=c_size_prefilter, m=m
        ) as rspan:
            # (1) Mass filter: drop every candidate already blocked by I — an
            # edge with all but one vertex in I blocks its missing vertex.  The
            # per-edge I-counts are one reduceat; the missing vertices are the
            # non-I positions of the nearly-complete edges (one per edge).
            blocked_now = 0
            if m:
                missing = None
                if dense is not None:
                    inI_block = dense.gather(in_I, False)
                    counts_I = inI_block.sum(axis=1)
                    nearly = counts_I == sizes - 1
                    if nearly.any():
                        sub = dense.block[nearly]
                        missing = sub[~inI_block[nearly] & (sub < universe)]
                else:
                    inI_pos = in_I[indices]
                    counts_I = np.add.reduceat(inI_pos.astype(np.intp), indptr[:-1])
                    nearly = counts_I == sizes - 1
                    if nearly.any():
                        pos = store.position_mask(nearly) & ~inI_pos
                        missing = indices[pos]
                if missing is not None:
                    in_C = np.zeros(universe, dtype=bool)
                    in_C[c] = True
                    newly = np.unique(missing[in_C[missing] & ~blocked[missing]])
                    if newly.size:
                        blocked[newly] = True
                        blocked_now = int(newly.size)
                        c = c[~blocked[c]]
                mach.charge(log2_ceil(max(H.dimension, 2)), total, total)
            if c.size == 0:
                if trace:
                    record = RoundRecord(
                        index=round_index,
                        phase="kuw",
                        n_before=c_size_prefilter,
                        m_before=m,
                        n_after=0,
                        m_after=m,
                        removed_red=blocked_now,
                        dimension=H.dimension,
                        extras={"prefix": 0},
                    )
                if trc.enabled:
                    rspan.set(n_after=0, added=0, removed_red=blocked_now)
                candidates = c
                exhausted = True
            else:
                perm = rng.permutation(c)
                # position[v] = 1-based rank of v in the permutation
                # (0 = not in C).
                position = np.zeros(universe, dtype=np.int64)
                position[perm] = np.arange(1, c.size + 1)

                # For each edge: t(e) = max position over e ∩ C, valid iff
                # every vertex of e is in I or C (otherwise e can never be
                # completed).  Vertices in I have position 0, so the per-edge
                # max-reduceat over positions is exactly the max over e ∩ C.
                L = int(c.size)  # safe prefix if unconstrained
                tightest_vertex = -1
                if m:
                    if dense is not None:
                        pos_block = dense.gather(position, 0)
                        # pad counts as "in I" so it never holds an edge open
                        open_edge = (
                            ~(dense.gather(in_I, True) | (pos_block > 0))
                        ).any(axis=1)
                        t_edge = pos_block.max(axis=1)
                    else:
                        pos_all = position[indices]
                        open_edge = (
                            np.add.reduceat(
                                (~(in_I[indices] | (pos_all > 0))).astype(np.intp),
                                indptr[:-1],
                            )
                            > 0
                        )  # a discarded vertex keeps the edge open forever
                        t_edge = np.maximum.reduceat(pos_all, indptr[:-1])
                    valid = ~open_edge
                    if (valid & (t_edge == 0)).any():
                        # e ⊆ I would violate independence; guarded by
                        # construction.
                        raise AssertionError(
                            "edge fully inside I — independence broken"
                        )
                    if valid.any():
                        t_min = int(t_edge[valid].min())
                        L = t_min - 1
                        # The permutation ranks are globally unique, so the
                        # vertex at the tightest position is edge-independent.
                        tightest_vertex = int(perm[t_min - 1])

                # PRAM charges: permutation (sort), per-edge max, global min.
                mach.sort(int(c.size))
                if total:
                    mach.charge(log2_ceil(max(H.dimension, 2)), total, total)
                mach.reduce(max(m, 1))
                mach.sync()

                committed = perm[:L]
                in_I[committed] = True
                discarded = 0
                if L < c.size:
                    if tightest_vertex < 0:
                        raise AssertionError(
                            "constrained prefix without a blocking vertex"
                        )
                    blocked[tightest_vertex] = True
                    discarded = 1
                new_candidates = c[~(in_I[c] | blocked[c])]
                obs_metrics.inc("solver/vertices_committed", int(L))

                if trace:
                    record = RoundRecord(
                        index=round_index,
                        phase="kuw",
                        n_before=c_size_prefilter,
                        m_before=m,
                        n_after=int(new_candidates.size),
                        m_after=m,
                        added=int(L),
                        removed_red=blocked_now + discarded,
                        dimension=H.dimension,
                        extras={"prefix": int(L)},
                    )
                if trc.enabled:
                    rspan.set(
                        n_after=int(new_candidates.size),
                        added=int(L),
                        removed_red=blocked_now + discarded,
                    )
                candidates = new_candidates

        if record is not None:
            if trc.enabled:
                record.extras["wall_ns"] = rspan.wall_ns
            records.append(record)
        if exhausted:
            break
        round_index += 1

    return MISResult(
        independent_set=np.flatnonzero(in_I),
        algorithm="kuw",
        n=H.num_vertices,
        m=H.num_edges,
        rounds=records,
        machine=mach.snapshot() if hasattr(mach, "snapshot") else None,
        meta={},
    )
