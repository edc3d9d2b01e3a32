"""Mixed-dimension frontier Beame–Luby engine (dimensions above three).

The scalar engine (:mod:`repro.kernels.bl_scalar`) hard-codes the
dimension-3 cleanup algebra — 2-row pair keys, 3-row pair multiplicities,
one shrink class per round — so instances of dimension 4+ used to fall
back to the CSR reference loop.  This engine generalises the same
frontier idea to arbitrary (small) dimension: edges live as sorted
per-row vertex lists banked behind static per-vertex incidence lists, a
round touches only the rows incident to the marked set, and the cleanup
is the *exact* fixed point :func:`repro.hypergraph.ops.normalize_after_trim`
computes — trim, duplicate-row collapse, two-directional containment
restricted to the changed rows, then a single singleton/red pass.

Where the scalar engine maintains the Δ maxima with bespoke degree/pair
histograms (valid only for d ≤ 3), this engine reuses the CSR path's own
:class:`~repro.hypergraph.degrees.DeltaTracker`, feeding it the same
``(removed_edges, added_edges)`` diff the CSR loop derives from the store
masks.  The tracker is shared code, so the Δ floats — and therefore the
marking probabilities — are identical by construction, not by re-derived
arithmetic.

Bit-identity
------------
Same contract as the other engines: identical coins
(:class:`~repro.kernels.rng.RoundRngPlan`), identical per-round records,
machine charges, solver counters and metadata, pinned by
``tests/kernels`` and the ``repro.qa`` differential subjects.  With an
enabled tracer the engine emits the same per-round ``bl/round`` spans as
the CSR loop and stamps ``extras["wall_ns"]``.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.core.result import MISResult, RoundRecord
from repro.hypergraph.degrees import DeltaTracker
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.ops import normalize
from repro.kernels.rng import RoundRngPlan
from repro.obs import metrics as obs_metrics
from repro.pram.machine import Machine, NullMachine
from repro.util.rng import SeedLike

__all__ = ["beame_luby_frontier"]


def beame_luby_frontier(
    H: Hypergraph,
    seed: SeedLike,
    mach: Machine,
    recompute_probability: bool,
    marking_probability: float | None,
    max_rounds: int,
    trace: bool,
    trc=None,
) -> MISResult:
    """Run BL on the mixed-dimension frontier engine.  See module docstring.

    The caller (the dispatcher inside :func:`repro.core.bl.beame_luby`)
    guarantees the shape is within the dense envelope with
    ``H.dimension > 3`` (the engine itself is dimension-generic) and no
    ``on_round`` hook.
    """
    from repro.core.bl import _charge_round  # deferred: core.bl imports us

    tr_on = trc is not None and trc.enabled

    U = H.universe
    # Upfront cleanup — the same normal form the CSR loop establishes.
    W, pre_red = normalize(H)

    # -- frontier state -------------------------------------------------
    # edges[i]: sorted vertex list of row i, or None once the row dies.
    # adj[v]: static incidence list (row ids); rows that die or drop v are
    # filtered at query time — removed vertices are never queried again.
    edges: list[list[int] | None] = [list(e) for e in W.edges]
    adj: list[list[int]] = [[] for _ in range(U)]
    for i, ed in enumerate(edges):
        for v in ed:
            adj[v].append(i)
    active: list[int] = W.vertices.tolist()
    m_alive = len(edges)
    total_size = 0
    size_hist = [0] * (W.dimension + 1)
    for ed in edges:
        sz = len(ed)
        size_hist[sz] += 1
        total_size += sz
    dim_max = W.dimension

    # The Δ maxima are carried across rounds by the same restriction-based
    # tracker the CSR loop uses, fed the same edge diffs; built lazily on
    # the first edged round (the hypergraph is still W at that point).
    W0: Hypergraph | None = W
    tracker: DeltaTracker | None = None

    plan: RoundRngPlan | None = None
    independent: list[int] = []
    records: list[RoundRecord] = []
    p_fixed: float | None = marking_probability
    p_initial: float | None = None

    charge = None if type(mach) is NullMachine else _charge_round
    edged_rounds = 0
    draws_total = 0
    committed_total = 0
    retractions_total = 0
    edgeless_commit = False

    for round_index in range(max_rounds):
        n = len(active)
        if n == 0:
            break
        if m_alive == 0:
            rspan = (
                trc.span(
                    "bl/round", machine=mach, round=round_index, n=n, m=0
                ).__enter__()
                if tr_on
                else None
            )
            independent.extend(active)
            if charge is not None:
                mach.map(n)
            committed_total += n
            edgeless_commit = True
            if rspan is not None:
                rspan.set(n_after=0, m_after=0, added=n)
                rspan.__exit__(None, None, None)
            if trace:
                record = RoundRecord(
                    index=round_index,
                    phase="bl",
                    n_before=n,
                    m_before=0,
                    n_after=0,
                    m_after=0,
                    marked=n,
                    added=n,
                    dimension=0,
                )
                if rspan is not None:
                    record.extras["wall_ns"] = rspan.wall_ns
                records.append(record)
            break

        while dim_max > 0 and size_hist[dim_max] == 0:
            dim_max -= 1
        d = dim_max
        if tracker is None:
            tracker = DeltaTracker.from_hypergraph(W0)
            W0 = None
        delta = tracker.delta()
        if p_fixed is not None:
            p = p_fixed
        else:
            p = 1.0 if delta <= 0 else min(1.0, 1.0 / (2 ** (d + 1) * delta))
            if not recompute_probability:
                p_fixed = p
        if p_initial is None:
            p_initial = p

        m_before = m_alive
        total = total_size
        rspan = (
            trc.span(
                "bl/round", machine=mach, round=round_index, n=n, m=m_before, dim=d
            ).__enter__()
            if tr_on
            else None
        )

        # (2) mark — the exact bernoulli_coins draw for one chunk.
        edged_rounds += 1
        draws_total += n
        if plan is None:
            plan = RoundRngPlan(seed)
        coin = plan.generator(round_index).random(n) < p
        hits = coin.nonzero()[0]
        if hits.size:
            marked = [active[j] for j in hits.tolist()]
        else:
            marked = []
        marked_count = len(marked)

        # (3) retract fully marked edges.
        if marked_count:
            mset = set(marked)
            retracted: set[int] | None = None
            for v in marked:
                for e in adj[v]:
                    ed = edges[e]
                    if ed is None:
                        continue
                    full = True
                    for u in ed:
                        if u not in mset:
                            full = False
                            break
                    if full:
                        if retracted is None:
                            retracted = set()
                        retracted.update(ed)
            if retracted is None:
                added = marked
            else:
                added = [v for v in marked if v not in retracted]
        else:
            added = marked
        added_count = len(added)
        unmarked_count = marked_count - added_count

        if added_count == 0:
            # No survivors: a normal hypergraph is unchanged (same object
            # on the CSR path); only the trace and charges advance.
            if charge is not None:
                charge(mach, n, m_before, total, max(d, 1))
            retractions_total += unmarked_count
            if rspan is not None:
                rspan.set(
                    n_after=n,
                    m_after=m_before,
                    added=0,
                    unmarked=unmarked_count,
                    p=p,
                )
                rspan.__exit__(None, None, None)
            if trace:
                record = RoundRecord(
                    index=round_index,
                    phase="bl",
                    n_before=n,
                    m_before=m_before,
                    n_after=n,
                    m_after=m_before,
                    marked=marked_count,
                    unmarked=unmarked_count,
                    added=0,
                    removed_red=0,
                    dimension=d,
                    extras={"p": p, "delta": delta},
                )
                if rspan is not None:
                    record.extras["wall_ns"] = rspan.wall_ns
                records.append(record)
            continue

        independent.extend(added)
        added_set = set(added)

        # (4)–(5) commit + fused cleanup, mirroring normalize_after_trim.
        # Changed rows = alive rows still containing an added vertex; keep
        # their pre-trim vertex lists for the diff below.
        old_of: dict[int, list[int]] = {}
        for v in added:
            for e in adj[v]:
                ed = edges[e]
                if ed is not None and e not in old_of and v in ed:
                    old_of[e] = ed

        removed_edges: list[tuple[int, ...]] = []
        added_edges: list[tuple[int, ...]] = []
        red_list: list[int] = []
        dead: set[int] = set()
        pivots: list[int] = []
        pivot_present: list[bool] = []
        if old_of:
            # Trim + duplicate collapse.  Every changed row keeps ≥ 1
            # vertex (a row losing all vertices would have been fully
            # marked and retracted above).  A row trimming onto an
            # identical tuple collapses into it: onto an earlier changed
            # row this round, or onto an unchanged row — which then counts
            # as a changed pivot itself (EdgeStore.trim's dedup groups OR
            # their changed flags and keep the present bit).
            claimed: dict[tuple[int, ...], int] = {}
            for e in sorted(old_of):
                old = old_of[e]
                removed_edges.append(tuple(old))
                new = [u for u in old if u not in added_set]
                t = tuple(new)
                pivot = claimed.get(t)
                if pivot is not None:
                    edges[e] = None
                    continue
                dup = -1
                ln = len(new)
                for i in adj[new[0]]:
                    if i == e:
                        continue
                    ed2 = edges[i]
                    if (
                        ed2 is not None
                        and i not in old_of
                        and len(ed2) == ln
                        and ed2 == new
                    ):
                        dup = i
                        break
                if dup >= 0:
                    edges[e] = None
                    claimed[t] = dup
                    pivots.append(dup)
                    pivot_present.append(True)
                else:
                    edges[e] = new
                    claimed[t] = e
                    pivots.append(e)
                    pivot_present.append(False)

            # Containment, both directions, restricted to the changed
            # pivots — computed on the pre-drop state (all kills are
            # simultaneous, exactly the restricted Gram scan of
            # normalize_after_trim).  For pivot j, walking the incidence
            # lists of its vertices counts |e_j ∩ e_i| for every alive row
            # i sharing a vertex.
            for j in pivots:
                ej = edges[j]
                lj = len(ej)
                cnt: dict[int, int] = {}
                for v in ej:
                    for i in adj[v]:
                        if i == j:
                            continue
                        ei = edges[i]
                        if ei is not None and v in ei:
                            cnt[i] = cnt.get(i, 0) + 1
                for i, c in cnt.items():
                    li = len(edges[i])
                    if c == lj and li > lj:
                        dead.add(i)  # row i swallows changed pivot j
                    elif c == li and lj > li:
                        dead.add(j)  # changed pivot j swallows row i

            # Single singleton pass on the survivors: rows that shrank to
            # singletons colour their vertex red; every surviving row
            # touching a red vertex is vacuous (any *larger* red-touching
            # row is already dead — it properly contained the singleton).
            for j in pivots:
                if j in dead:
                    continue
                ej = edges[j]
                if len(ej) == 1:
                    red_list.append(ej[0])
            if red_list:
                for r in red_list:
                    for i in adj[r]:
                        ei = edges[i]
                        if ei is not None and i not in dead and r in ei:
                            dead.add(i)
        red_count = len(red_list)

        # Exact edge diff (same bookkeeping as the trim masks): removed =
        # old tuples of every changed row, plus the current tuples of dead
        # rows whose tuple pre-existed (unchanged rows, incl. absorbing
        # pivots); added = surviving changed pivots with a new tuple.
        for i in dead:
            if i not in old_of:
                removed_edges.append(tuple(edges[i]))
        for j, present in zip(pivots, pivot_present):
            if not present and j not in dead:
                added_edges.append(tuple(edges[j]))
        if removed_edges:
            tracker.remove_edges(removed_edges)
        if added_edges:
            tracker.add_edges(added_edges)

        # Size histogram / totals: changed rows leave at their old size;
        # surviving changed pivots re-enter at the trimmed size; dead rows
        # outside the changed set leave at their current size.
        if old_of:
            for old in old_of.values():
                sz = len(old)
                size_hist[sz] -= 1
                total_size -= sz
            changed_pivots = 0
            for j, present in zip(pivots, pivot_present):
                if present:
                    continue
                changed_pivots += 1
                if j not in dead:
                    sz = len(edges[j])
                    size_hist[sz] += 1
                    total_size += sz
            for i in dead:
                if i not in old_of:
                    sz = len(edges[i])
                    size_hist[sz] -= 1
                    total_size -= sz
            m_alive -= (len(old_of) - changed_pivots) + len(dead)
            for i in dead:
                edges[i] = None

        if red_list:
            removals = sorted(added_set.union(red_list))
        else:
            removals = added
        for v in removals:
            del active[bisect_left(active, v)]

        if charge is not None:
            charge(mach, n, m_before, total, max(d, 1))
        committed_total += added_count
        retractions_total += unmarked_count
        if rspan is not None:
            rspan.set(
                n_after=len(active),
                m_after=m_alive,
                added=added_count,
                unmarked=unmarked_count,
                p=p,
            )
            rspan.__exit__(None, None, None)
        if trace:
            record = RoundRecord(
                index=round_index,
                phase="bl",
                n_before=n,
                m_before=m_before,
                n_after=len(active),
                m_after=m_alive,
                marked=marked_count,
                unmarked=unmarked_count,
                added=added_count,
                removed_red=red_count,
                dimension=d,
                extras={"p": p, "delta": delta},
            )
            if rspan is not None:
                record.extras["wall_ns"] = rspan.wall_ns
            records.append(record)
    else:
        raise RuntimeError(
            f"BL failed to terminate within {max_rounds} rounds "
            f"(n={H.num_vertices}, m={H.num_edges}, dim={H.dimension})"
        )

    # Flush the counters the CSR path would have created, same totals.
    inc = obs_metrics.inc
    if edged_rounds:
        inc("backend/bernoulli_calls", edged_rounds)
        inc("backend/bernoulli_draws", draws_total)
        inc("solver/unmark_retractions", retractions_total)
    if edged_rounds or edgeless_commit:
        inc("solver/vertices_committed", committed_total)

    return MISResult(
        independent_set=np.asarray(independent, dtype=np.intp),
        algorithm="bl",
        n=H.num_vertices,
        m=H.num_edges,
        rounds=records,
        machine=mach.snapshot() if hasattr(mach, "snapshot") else None,
        meta={
            "p_initial": p_initial if p_initial is not None else 1.0,
            "recompute_probability": recompute_probability,
            "prenormalized_red": int(pre_red.size),
        },
    )
