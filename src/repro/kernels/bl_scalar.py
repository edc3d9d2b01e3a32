"""Scalar-frontier Beame–Luby engine — the ``bitset`` backend's round body.

This is the fastest exact BL engine for small-universe, low-dimension
instances.  It shares the upfront packed-incidence-block normalisation
with :mod:`repro.kernels.bl_dense` and the same
:class:`~repro.kernels.rng.RoundRngPlan` coin stream, but runs the round
body on scalar adjacency lists instead of vectorised array passes.

Why scalar beats vectorised here
--------------------------------
Profiling the BENCH_m01 instance (n=400, m=800, d=3) shows the dense
engine's cost is *call dispatch*, not element work: a BL round marks very
few vertices (p ≈ 1/(2^{d+1}Δ); observed mean < 2, max 9 marked per
round), so each round touches only the handful of edges incident to the
marked set — but the vectorised round body still pays ~40 NumPy-call
overheads on arrays whose median size is < 100.  The scalar body walks
exactly the touched edges via per-vertex incidence lists: a few dozen
dict/set operations per round, with NumPy kept only where it is genuinely
vectorised work (the per-round coin draw, which must be the exact
``Generator.random(n)`` fill anyway).

Bit-identity
------------
Same contract as the dense engine (see :mod:`repro.kernels.bl_dense`):
identical coins (``RoundRngPlan``), identical per-round records, machine
charges, solver counters and metadata.  The cleanup phases run in the
same logical order as ``normalize_after_trim`` — trim, singleton/red
pass, stale-pair clear, shrunken-row dedup, containment, Δ bookkeeping —
and every count (``Δ`` maxima, ``num3``, ``m_alive``) is maintained with
the same integer semantics, so the two engines (and the CSR path) are
interchangeable bit for bit.  The equivalence is pinned by
``tests/kernels`` and the ``repro.qa`` differential subjects.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.core.result import MISResult, RoundRecord
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels.bl_dense import _dense_normalize
from repro.kernels.rng import RoundRngPlan
from repro.obs import metrics as obs_metrics
from repro.pram.machine import Machine, NullMachine
from repro.util.rng import SeedLike

__all__ = ["beame_luby_scalar"]


def beame_luby_scalar(
    H: Hypergraph,
    seed: SeedLike,
    mach: Machine,
    recompute_probability: bool,
    marking_probability: float | None,
    max_rounds: int,
    trace: bool,
    trc=None,
) -> MISResult:
    """Run BL on the scalar-frontier engine.  See module docstring.

    The caller (the dispatcher inside :func:`repro.core.bl.beame_luby`)
    guarantees ``H.dimension ≤ 3``, ``H.universe`` within the dense
    envelope and no ``on_round`` hook; everything observable matches the
    CSR path bit for bit.  With an enabled tracer *trc* the engine emits
    the same per-round ``bl/round`` spans as the CSR loop and stamps
    ``extras["wall_ns"]``.
    """
    from repro.core.bl import _charge_round  # deferred: core.bl imports us

    tr_on = trc is not None and trc.enabled

    U = H.universe
    b, s, active_arr, pre_red = _dense_normalize(H)
    m0 = int(s.size)
    m_alive = m0
    num3 = int((s == 3).sum())

    # -- scalar state ---------------------------------------------------
    # edges[i]: sorted vertex list of row i, or None once the row dies.
    # adj[v]: static incidence list (row ids); rows that die or drop v are
    # filtered at query time — removed vertices are never queried again.
    sizes_l = s.tolist()
    edges: list[list[int] | None] = [
        row[:sz] for row, sz in zip(b.tolist(), sizes_l)
    ]
    adj: list[list[int]] = [[] for _ in range(U)]
    for i, ed in enumerate(edges):
        for v in ed:
            adj[v].append(i)
    active: list[int] = active_arr.tolist()

    # -- incremental Δ state (same integers as the dense engine) --------
    # Vertex degrees among 2-/3-rows and pair multiplicities among 3-rows,
    # each with a multiplicity histogram and a cached max that is walked
    # down lazily (degrees among 3-rows and pair counts only decrease;
    # deg2 increments bump the cache directly).
    deg2_arr = np.zeros(U + 1, dtype=np.int64)
    deg3_arr = np.zeros(U + 1, dtype=np.int64)
    pair3: dict[int, int] = {}
    p3hist = [0] * (m0 + 2)
    p3max = 0
    exists2: set[int] = set()
    if m_alive:
        two = s == 2
        if two.any():
            b2 = np.asarray(b[two, :2])
            np.add.at(deg2_arr, b2.ravel(), 1)
            exists2 = set((b2[:, 0] * U + b2[:, 1]).tolist())
        if num3:
            b3 = np.asarray(b[s == 3])
            np.add.at(deg3_arr, b3.ravel(), 1)
            keys = np.concatenate(
                [
                    b3[:, 0] * U + b3[:, 1],
                    b3[:, 0] * U + b3[:, 2],
                    b3[:, 1] * U + b3[:, 2],
                ]
            )
            uk, cnt = np.unique(keys, return_counts=True)
            pair3 = dict(zip(uk.tolist(), cnt.tolist()))
            p3hist = np.bincount(cnt, minlength=m0 + 2).tolist()
            p3max = int(cnt.max())
    deg2 = deg2_arr.tolist()
    deg3 = deg3_arr.tolist()
    d2hist = np.bincount(deg2_arr, minlength=m0 + 2).tolist()
    d3hist = np.bincount(deg3_arr, minlength=m0 + 2).tolist()
    deg2max = int(deg2_arr.max()) if m_alive else 0
    deg3max = int(deg3_arr.max()) if m_alive else 0

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

        # Δ(H) from the three maintained maxima (same floats as DeltaTracker).
        while deg2max > 0 and d2hist[deg2max] == 0:
            deg2max -= 1
        while deg3max > 0 and d3hist[deg3max] == 0:
            deg3max -= 1
        while p3max > 0 and p3hist[p3max] == 0:
            p3max -= 1
        delta = 0.0
        if deg2max:
            delta = deg2max ** 1.0
        if num3:
            v = deg3max ** 0.5
            if v > delta:
                delta = v
            v = p3max ** 1.0
            if v > delta:
                delta = v
        d = 3 if num3 else 2
        if p_fixed is not None:
            p = p_fixed
        else:
            p = 1.0 if delta <= 0 else min(1.0, 1.0 / (2 ** (d + 1) * delta))
            if not recompute_probability:
                p_fixed = p
        if p_initial is None:
            p_initial = p

        m_before = m_alive
        total = 3 * num3 + 2 * (m_alive - num3)
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
        # their pre-trim vertex lists for the Δ bookkeeping below.
        old_of: dict[int, list[int]] = {}
        for v in added:
            for e in adj[v]:
                ed = edges[e]
                if ed is not None and e not in old_of and v in ed:
                    old_of[e] = ed

        red_set: set[int] | None = None
        red_count = 0
        dead_set: set[int] = set()
        new2: list[tuple[int, int]] = []  # (row, pair key), ascending row id
        old2_pairs: list[list[int]] = []
        lost3: list[list[int]] = []  # pre-trim triples leaving the 3-class
        changed_old3 = 0
        if old_of:
            # Trim (rows processed in ascending id order, like the block
            # engine's cidx).  Every changed row keeps ≥ 1 vertex: a row
            # losing all vertices would have been fully marked and
            # retracted above.
            for e in sorted(old_of):
                old = old_of[e]
                new = [u for u in old if u not in added_set]
                edges[e] = new
                if len(old) == 3:
                    changed_old3 += 1
                    lost3.append(old)
                    if len(new) == 2:
                        new2.append((e, new[0] * U + new[1]))
                    else:
                        if red_set is None:
                            red_set = set()
                        red_set.add(new[0])
                else:
                    old2_pairs.append(old)
                    if red_set is None:
                        red_set = set()
                    red_set.add(new[0])

            # Rows that shrank to singletons colour their vertex red; every
            # edge touching a red vertex is vacuous (normalize_after_trim's
            # single singleton pass; the singleton row kills itself).
            if red_set is not None:
                red_count = len(red_set)
                for r in red_set:
                    for e in adj[r]:
                        ed = edges[e]
                        if ed is not None and r in ed:
                            dead_set.add(e)

            # 2-rows that shrank stop carrying their old pair (they are
            # singletons now — cleared before the dedup check below).
            for pair in old2_pairs:
                for v in pair:
                    o = deg2[v]
                    deg2[v] = o - 1
                    d2hist[o] -= 1
                    if o > 1:
                        d2hist[o - 1] += 1
                exists2.discard(pair[0] * U + pair[1])

            # 3-rows that shrank to 2-rows: dedup against the surviving
            # pairs (a collision kills the newcomer; the survivor counts as
            # changed, so its supersets fall below either way).
            Q: set[int] | None = None
            if new2:
                Q = set()
                surv: set[int] = set()
                for e, k in new2:
                    Q.add(k)
                    if k in exists2 or k in surv:
                        dead_set.add(e)
                    else:
                        surv.add(k)

            # Containment: an unchanged pair-superset of any changed 2-row
            # is redundant.  Unchanged 3-rows are exactly the rows still of
            # size 3 (every changed row shrank below 3).
            if Q is not None:
                for k in Q:
                    u, w = divmod(k, U)
                    for e in adj[u]:
                        ed = edges[e]
                        if ed is not None and len(ed) == 3 and u in ed and w in ed:
                            dead_set.add(e)

            # Δ bookkeeping for every row leaving the 3-row class (shrunk
            # or dropped) and every 2-row entering or leaving it.
            dead3_unchanged = 0
            for e in dead_set:
                if e in old_of:
                    continue
                ed = edges[e]
                if len(ed) == 3:
                    dead3_unchanged += 1
                    lost3.append(ed)
                else:
                    for v in ed:
                        o = deg2[v]
                        deg2[v] = o - 1
                        d2hist[o] -= 1
                        if o > 1:
                            d2hist[o - 1] += 1
                    exists2.discard(ed[0] * U + ed[1])
            # Unrolled over the three vertices / pair keys of each lost
            # triple: this is the hottest scalar path (every changed or
            # dropped 3-row pays it) and the loop overhead is measurable.
            for a, b2v, c in lost3:
                o = deg3[a]
                deg3[a] = o - 1
                d3hist[o] -= 1
                if o > 1:
                    d3hist[o - 1] += 1
                o = deg3[b2v]
                deg3[b2v] = o - 1
                d3hist[o] -= 1
                if o > 1:
                    d3hist[o - 1] += 1
                o = deg3[c]
                deg3[c] = o - 1
                d3hist[o] -= 1
                if o > 1:
                    d3hist[o - 1] += 1
                aU = a * U
                k = aU + b2v
                o = pair3[k]
                if o == 1:
                    del pair3[k]
                else:
                    pair3[k] = o - 1
                p3hist[o] -= 1
                if o > 1:
                    p3hist[o - 1] += 1
                k = aU + c
                o = pair3[k]
                if o == 1:
                    del pair3[k]
                else:
                    pair3[k] = o - 1
                p3hist[o] -= 1
                if o > 1:
                    p3hist[o - 1] += 1
                k = b2v * U + c
                o = pair3[k]
                if o == 1:
                    del pair3[k]
                else:
                    pair3[k] = o - 1
                p3hist[o] -= 1
                if o > 1:
                    p3hist[o - 1] += 1
            if new2:
                for e, k in new2:
                    if e not in dead_set:
                        exists2.add(k)
                        for v in edges[e]:
                            o = deg2[v]
                            deg2[v] = o + 1
                            if o:
                                d2hist[o] -= 1
                            no = o + 1
                            d2hist[no] += 1
                            if no > deg2max:
                                deg2max = no

            for e in dead_set:
                edges[e] = None
            m_alive -= len(dead_set)
            num3 -= changed_old3 + dead3_unchanged

        if red_set is not None:
            removals = sorted(added_set | red_set)
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
