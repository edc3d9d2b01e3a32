"""Beame–Luby's permutation algorithm (paper §1).

The second algorithm of Beame and Luby (1990), "based on random
permutations which they conjectured to work in RNC for the general
problem"; Shachnai and Srinivasan (2004) made progress on its analysis.

One round, on the current hypergraph:

1. draw a uniformly random permutation ``π`` of the active vertices;
2. add to ``I`` every vertex that is **not the π-maximum of any edge** —
   i.e. ``v`` joins unless some edge ``e ∋ v`` has all other vertices
   before ``v`` in ``π`` (if such an edge exists, greedy-along-π would have
   rejected ``v``);
3. cleanup exactly as in BL: trim the added vertices out of all edges,
   discard superset edges, delete singleton edges with their vertices.

Independence of each batch: were ``e ⊆ I₀`` for the added set ``I₀``, the
π-maximum of ``e`` would be the π-max of an edge, hence excluded — a
contradiction.  Progress: the π-minimum vertex of the hypergraph is never
the π-max of an edge of size ≥ 2 (and a size-1 edge deletes its vertex in
cleanup), so every round colours at least one vertex.
"""

from __future__ import annotations

import numpy as np

from repro.core.greedy import pi_last
from repro.core.result import MISResult, RoundRecord
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.ops import normalize, trim_vertices
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.pram.machine import Machine, NullMachine
from repro.util.itlog import log2_ceil
from repro.util.rng import SeedLike, stream

__all__ = ["permutation_bl"]

DEFAULT_MAX_ROUNDS = 100_000


def permutation_bl(
    H: Hypergraph,
    seed: SeedLike = None,
    *,
    machine: Machine | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    trace: bool = True,
    tracer: Tracer | NullTracer | None = None,
) -> MISResult:
    """Run the permutation algorithm to completion.

    Parameters
    ----------
    H:
        Input hypergraph.
    seed:
        RNG seed (one child stream per round).
    machine:
        PRAM cost accountant; a round costs a sort (the permutation) plus
        per-edge max-reductions.
    max_rounds:
        Abort guard.
    trace:
        Record per-round statistics.
    tracer:
        Telemetry tracer (defaults to the ambient
        :func:`~repro.obs.tracer.current_tracer`); emits
        ``permutation/solve`` and ``permutation/round`` spans and stamps
        ``extras["wall_ns"]``.
    """
    mach = machine if machine is not None else NullMachine()
    trc = tracer if tracer is not None else current_tracer()
    with trc.span(
        "permutation/solve",
        machine=mach,
        n=H.num_vertices,
        m=H.num_edges,
        dim=H.dimension,
    ) as span:
        result = _permutation_bl(H, seed, mach, max_rounds, trace, trc)
        if trc.enabled:
            span.set(rounds=result.num_rounds, mis_size=result.size)
    return result


def _permutation_bl(
    H: Hypergraph,
    seed: SeedLike,
    mach: Machine,
    max_rounds: int,
    trace: bool,
    trc: Tracer | NullTracer,
) -> MISResult:
    rng_stream = stream(seed)
    W = H
    independent: list[int] = []
    records: list[RoundRecord] = []

    for round_index in range(max_rounds):
        if W.num_vertices == 0:
            break
        if W.num_edges == 0:
            n_left = W.num_vertices
            with trc.span(
                "permutation/round", machine=mach, round=round_index, n=n_left, m=0
            ) as rspan:
                independent.extend(W.vertices.tolist())
                mach.map(n_left)
                if trc.enabled:
                    rspan.set(n_after=0, m_after=0, added=n_left)
            obs_metrics.inc("solver/vertices_committed", n_left)
            if trace:
                record = RoundRecord(
                    index=round_index,
                    phase="permutation",
                    n_before=n_left,
                    m_before=0,
                    n_after=0,
                    m_after=0,
                    added=n_left,
                    dimension=0,
                )
                if trc.enabled:
                    record.extras["wall_ns"] = rspan.wall_ns
                records.append(record)
            break

        n_before, m_before = W.num_vertices, W.num_edges
        d_before = W.dimension
        with trc.span(
            "permutation/round",
            machine=mach,
            round=round_index,
            n=n_before,
            m=m_before,
            dim=d_before,
        ) as rspan:
            rng = next(rng_stream)
            active = W.vertices
            perm = rng.permutation(active)
            rank = np.zeros(W.universe, dtype=np.int64)
            rank[perm] = np.arange(1, active.size + 1)

            # A vertex is excluded iff it is the π-max of some edge; rank r
            # belongs to perm[r - 1].
            store = W.store
            excluded = np.zeros(W.universe, dtype=bool)
            excluded[perm[pi_last(store, rank[store.indices]) - 1]] = True
            add_mask = np.zeros(W.universe, dtype=bool)
            add_mask[active] = True
            add_mask &= ~excluded
            added = np.flatnonzero(add_mask)

            total = W.total_edge_size
            mach.sort(int(active.size))
            if total:
                mach.charge(log2_ceil(max(d_before, 2)), total, total)
            mach.map(n_before)
            mach.sync()

            W_after = W
            if added.size:
                independent.extend(added.tolist())
                W_after = trim_vertices(W_after, added)
            W_after, red = normalize(W_after)
            if trc.enabled:
                rspan.set(
                    n_after=W_after.num_vertices,
                    m_after=W_after.num_edges,
                    added=int(added.size),
                )
        obs_metrics.inc("solver/vertices_committed", int(added.size))

        if trace:
            record = RoundRecord(
                index=round_index,
                phase="permutation",
                n_before=n_before,
                m_before=m_before,
                n_after=W_after.num_vertices,
                m_after=W_after.num_edges,
                added=int(added.size),
                removed_red=int(red.size),
                dimension=d_before,
            )
            if trc.enabled:
                record.extras["wall_ns"] = rspan.wall_ns
            records.append(record)
        W = W_after
    else:
        raise RuntimeError(
            f"permutation algorithm failed to terminate within {max_rounds} rounds"
        )

    return MISResult(
        independent_set=np.asarray(independent, dtype=np.intp),
        algorithm="permutation",
        n=H.num_vertices,
        m=H.num_edges,
        rounds=records,
        machine=mach.snapshot() if hasattr(mach, "snapshot") else None,
        meta={},
    )
