"""Dense Beame–Luby engine for small-universe, low-dimension instances.

This is the ``bitset`` execution path behind :func:`repro.core.bl.beame_luby`
(selected by :mod:`repro.kernels.dispatch`): the same algorithm, the same
random bits, the same per-round records — produced from a dense state
instead of per-round CSR hypergraph successors.

Why it is fast
--------------
The CSR path rebuilds an immutable :class:`~repro.hypergraph.hypergraph.Hypergraph`
every round: trim → lex-sort/dedup → restricted Gram containment →
singleton pass → store diff → Δ-tracker update, each a chain of
segmented-array operations whose constant cost dwarfs the actual work once
``m`` collapses (the median BL round on the BENCH_m01 instance touches
< 100 edges).  For dimension ≤ 3 the whole round body reduces to a handful
of gathers over the packed incidence block of a :class:`~repro.kernels.bitstore.BitEdgeStore`:

* fully-marked detection is one gather + row-AND (the sentinel column
  participates as "marked", so 2-rows and 3-rows share one test);
* the trim is a masked write + row sort (removed slots sink to the pad);
* dedup and containment collapse to pair-key lookups: after a trim, only
  rows that *shrank* can equal or be contained in another row, and a
  shrunken row has ≤ 2 vertices — so one stamp array over pair keys
  replaces the Gram product;
* the Δ maxima reduce to three integers — the max vertex degree among
  2-rows, among 3-rows, and the max pair multiplicity among 3-rows —
  maintained incrementally (pair multiplicities via a histogram with a
  cached max; vertex degrees are cheap enough to ``max()`` per round).

Bit-identity
------------
The round randomness is reproduced exactly by
:class:`~repro.kernels.rng.RoundRngPlan` (the vectorised replication of
``stream → spawn_seeds → default_rng``), and every count that feeds a
:class:`~repro.core.result.RoundRecord` or the marking probability is
maintained with the same integer semantics as the CSR cleanup
(:func:`~repro.hypergraph.ops.normalize_after_trim`) and the
:class:`~repro.hypergraph.degrees.DeltaTracker`.  The equivalence is pinned
by ``tests/kernels`` and the ``repro.qa`` differential subjects; the
solver-observable counters (``solver/*``, ``backend/*``) are incremented
identically.  (The CSR-internal ``edgestore/*`` counters do not apply to
this path and are intentionally not simulated.)
"""

from __future__ import annotations

import numpy as np

from repro.core.result import MISResult, RoundRecord
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels.bitstore import BitEdgeStore
from repro.kernels.jit import NUMPY_KERNELS
from repro.kernels.rng import RoundRngPlan
from repro.obs import metrics as obs_metrics
from repro.pram.machine import Machine, NullMachine
from repro.util.rng import SeedLike

__all__ = ["beame_luby_dense", "BLOCK_MAX_DIMENSION", "BLOCK_MAX_UNIVERSE"]

#: Capability bounds of *this* block engine (the jit carrier): its pair
#: tables are dense ``U²`` arrays, so it is gated to small universes.  The
#: overall dense envelope — what :func:`repro.kernels.dispatch.dense_capable`
#: advertises — is wider: the scalar engine (d ≤ 3) and the frontier engine
#: (d > 3) key pairs through dicts and scale to much larger universes.
BLOCK_MAX_DIMENSION = 3
BLOCK_MAX_UNIVERSE = 2048


def _dense_normalize(
    H: Hypergraph,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Upfront cleanup matching :func:`repro.hypergraph.ops.normalize` for d ≤ 3.

    Returns ``(block, sizes, active, red)`` where *block* is the ``(m, 3)``
    padded incidence block of the surviving edges, *active* the surviving
    vertex ids and *red* the (sorted) vertices removed by singleton
    cleanup.  For dimension ≤ 3 one pass reaches the fixed point: proper
    containment is either "touches a singleton's vertex" (subsumed by the
    red discard) or "3-row contains a 2-row's pair", and dropping edges
    creates no new singletons or containments.
    """
    U = H.universe
    store = H.store
    sizes = store.sizes().astype(np.intp, copy=True)
    m = sizes.size
    block = np.full((m, 3), U, dtype=np.intp)
    if m:
        rows = np.repeat(np.arange(m, dtype=np.intp), sizes)
        cols = np.arange(store.indices.size, dtype=np.intp) - np.repeat(
            store.indptr[:-1], sizes
        )
        block[rows, cols] = store.indices

    active = np.asarray(H.vertices, dtype=np.intp)
    if m == 0:
        return block, sizes, active.copy(), np.empty(0, dtype=np.intp)

    dead = np.zeros(m, dtype=bool)
    singles = sizes == 1
    if singles.any():
        red = np.unique(block[singles, 0])
        red_ext = np.zeros(U + 1, dtype=bool)
        red_ext[red] = True
        dead |= red_ext[block].any(axis=1)
        active = active[~red_ext[active]]
    else:
        red = np.empty(0, dtype=np.intp)

    two = sizes == 2
    three = sizes == 3
    if two.any() and three.any():
        b2 = block[two]
        b3 = block[three]
        k01 = b3[:, 0] * U + b3[:, 1]
        k02 = b3[:, 0] * U + b3[:, 2]
        k12 = b3[:, 1] * U + b3[:, 2]
        if U <= BLOCK_MAX_UNIVERSE:
            pair_seen = np.zeros(U * U, dtype=np.int8)
            pair_seen[b2[:, 0] * U + b2[:, 1]] = 1
            sup = (pair_seen[k01] | pair_seen[k02] | pair_seen[k12]).astype(bool)
        else:
            # Large universes (scalar-engine shapes): the U² stamp table
            # would not fit, so the same membership test runs over sorted
            # pair keys.  Identical drop set, memory O(#pairs).
            k2 = np.unique(b2[:, 0] * U + b2[:, 1])
            sup = np.isin(k01, k2) | np.isin(k02, k2) | np.isin(k12, k2)
        idx3 = np.flatnonzero(three)
        dead[idx3[sup]] = True

    keep = ~dead
    return block[keep], sizes[keep], active, red


def beame_luby_dense(
    H: Hypergraph,
    seed: SeedLike,
    mach: Machine,
    recompute_probability: bool,
    marking_probability: float | None,
    max_rounds: int,
    trace: bool,
    kern=NUMPY_KERNELS,
    trc=None,
) -> MISResult:
    """Run BL on the dense engine.  See module docstring for the contract.

    *kern* is the row-kernel namespace from :func:`repro.kernels.jit.row_kernels`
    — the NumPy implementation by default, the numba-fused one for the
    ``jit`` backend; both compute identical integers.

    The caller (the dispatcher inside :func:`repro.core.bl.beame_luby`)
    guarantees ``H.dimension ≤ 3``, ``H.universe ≤ BLOCK_MAX_UNIVERSE``
    and no ``on_round`` hook; everything else (seed handling, machine
    charging, trace records, metadata) matches the CSR path bit for bit.
    With an enabled tracer *trc* the engine emits the same per-round
    ``bl/round`` spans as the CSR loop and stamps ``extras["wall_ns"]`` on
    every round record.
    """
    from repro.core.bl import _charge_round  # deferred: core.bl imports us

    tr_on = trc is not None and trc.enabled

    U = H.universe
    b, s, active, pre_red = _dense_normalize(H)
    m_alive = s.size
    num3 = int((s == 3).sum())

    # -- incremental Δ state -------------------------------------------
    # deg2/deg3: vertex degrees among 2-/3-rows (slot U absorbs nothing —
    # pads never reach these updates).  pair3: multiplicity of each vertex
    # pair among 3-rows, with a histogram over multiplicities and a cached
    # max.  exists2: 1 iff an alive 2-row carries the pair (dedup oracle).
    deg2 = np.zeros(U + 1, dtype=np.int64)
    deg3 = np.zeros(U + 1, dtype=np.int64)
    pair3 = np.zeros(U * U, dtype=np.int32)
    p3hist = np.zeros(m_alive + 2, dtype=np.int64)
    p3max = 0
    exists2 = np.zeros(U * U, dtype=np.int8)
    if m_alive:
        two = s == 2
        if two.any():
            b2 = np.asarray(b[two, :2])
            np.add.at(deg2, b2.ravel(), 1)
            exists2[b2[:, 0] * U + b2[:, 1]] = 1
        if num3:
            b3 = np.asarray(b[s == 3])
            np.add.at(deg3, b3.ravel(), 1)
            keys = np.concatenate(
                [
                    b3[:, 0] * U + b3[:, 1],
                    b3[:, 0] * U + b3[:, 2],
                    b3[:, 1] * U + b3[:, 2],
                ]
            )
            np.add.at(pair3, keys, 1)
            uk = np.unique(keys)
            np.add.at(p3hist, pair3[uk], 1)
            p3max = int(pair3[uk].max())

    # -- per-round scratch ---------------------------------------------
    mst = np.zeros(U + 1, dtype=np.int64)  # marked stamps (slot U = pad ≡ marked)
    ust = np.zeros(U + 1, dtype=np.int64)  # unmarked-vertex stamps
    ast = np.zeros(U + 1, dtype=np.int64)  # added/removed stamps
    rst = np.zeros(U + 1, dtype=np.int64)  # red stamps
    qst = np.zeros(U * U, dtype=np.int64)  # containment query-pair stamps
    stamp = 0

    plan: RoundRngPlan | None = None
    independent: list[int] = []
    records: list[RoundRecord] = []
    p_fixed: float | None = marking_probability
    p_initial: float | None = None

    # Observable side effects are accumulated locally and flushed once:
    # per-solve totals (and which counters exist at all) match the CSR
    # path exactly, without a registry lookup in every round.  Charging is
    # skipped entirely for the exact NullMachine (every charge is a no-op).
    charge = None if type(mach) is NullMachine else _charge_round
    edged_rounds = 0
    draws_total = 0
    committed_total = 0
    retractions_total = 0
    edgeless_commit = False

    # Local bindings for the hot loop.
    flatnonzero = np.flatnonzero
    subtract_at = np.subtract.at
    add_at = np.add.at
    npwhere = np.where
    row_all = kern.row_all
    row_hits = kern.row_hits
    row_any = kern.row_any
    #: column index pairs (01, 02, 12) of a 3-row — one fancy-index builds
    #: all three pair keys at once.
    PI = np.array([0, 0, 1], dtype=np.intp)
    PJ = np.array([1, 2, 2], dtype=np.intp)

    for round_index in range(max_rounds):
        n = int(active.size)
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
            independent.extend(active.tolist())
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
        delta = 0.0
        c21 = int(deg2.max())
        if c21:
            delta = c21 ** 1.0
        if num3:
            v = int(deg3.max()) ** 0.5
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
        marked = active[coin]
        marked_count = int(marked.size)

        # (3) retract fully marked edges.
        stamp += 1
        if marked_count:
            mst[marked] = stamp
            mst[U] = stamp
            fully = row_all(b, mst, stamp)
            if fully.any():
                ust[b[fully].ravel()] = stamp
                added = marked[ust[marked] != stamp]
            else:
                added = marked
        else:
            added = marked  # empty: no edge can be fully marked
        added_count = int(added.size)
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

        independent.extend(added.tolist())

        # (4)–(5) commit + fused cleanup, mirroring normalize_after_trim.
        ast[added] = stamp
        rem = row_hits(b, ast, stamp)
        changed = rem.any(axis=1)
        cidx = flatnonzero(changed)
        red_count = 0
        red_verts = None
        if cidx.size:
            dead = np.zeros(m_alive, dtype=bool)
            cvert = b[cidx]  # advanced indexing: already a copy
            cold = s[cidx]
            remc = rem[cidx]
            newsize = cold - remc.sum(axis=1)
            cw = npwhere(remc, U, cvert)
            cw.sort(axis=1)
            b[cidx] = cw
            s[cidx] = newsize

            # Rows that shrank to singletons colour their vertex red; every
            # edge touching a red vertex is vacuous (normalize_after_trim's
            # single singleton pass).
            is1 = newsize == 1
            if is1.any():
                red_verts = cw[is1, 0]
                rst[red_verts] = stamp
                red_count = len(set(red_verts.tolist()))
                dead |= row_any(b, rst, stamp)

            # 2-rows that shrank stop carrying their old pair (they are
            # singletons now — cleared before the dedup check below).
            o2 = cold == 2
            if o2.any():
                ov = cvert[o2]
                exists2[ov[:, 0] * U + ov[:, 1]] = 0
                subtract_at(deg2, ov[:, :2].ravel(), 1)

            # 3-rows that shrank to 2-rows: dedup against the surviving
            # pairs (a collision kills the newcomer; the survivor counts as
            # changed, so its supersets fall below either way).  The key
            # sets here are a handful of elements — Python sets beat a
            # vectorised unique at this size.
            have_q = False
            isn2 = (newsize == 2) & (cold == 3)
            if isn2.any():
                rows2 = cidx[isn2]
                w2 = cw[isn2]
                kn = (w2[:, 0] * U + w2[:, 1]).tolist()
                qst[kn] = stamp
                have_q = True
                surv: set[int] = set()
                losers = []
                for j, k in enumerate(kn):
                    if exists2[k] or k in surv:
                        losers.append(j)
                    else:
                        surv.add(k)
                if losers:
                    dead[rows2[losers]] = True

            # Containment: an unchanged pair-superset of any changed 2-row
            # is redundant.  Unchanged 3-rows are exactly the rows still of
            # size 3 (every changed row shrank below 3).
            s3 = s == 3
            if have_q:
                i3 = flatnonzero(s3)
                if i3.size:
                    b3 = b[i3]
                    hitq = (qst[b3[:, PI] * U + b3[:, PJ]] == stamp).any(axis=1)
                    dead[i3[hitq]] = True

            # Δ bookkeeping for every row leaving the 3-row class (shrunk
            # or dropped) and every 2-row entering or leaving it.
            c3 = cold == 3
            lost3 = cvert[c3]
            d3u = dead & s3
            dead3 = int(d3u.sum())
            if dead3:
                lost3 = np.concatenate([lost3, b[d3u]])
            if lost3.size:
                subtract_at(deg3, lost3.ravel(), 1)
                keys = (lost3[:, PI] * U + lost3[:, PJ]).ravel()
                ukk, cnts = np.unique(keys, return_counts=True)
                old = pair3[ukk]
                new = old - cnts.astype(np.int32)
                add_at(p3hist, old, -1)
                pos = new > 0
                if pos.any():
                    add_at(p3hist, new[pos], 1)
                pair3[ukk] = new
                while p3max > 0 and p3hist[p3max] == 0:
                    p3max -= 1

            d2u = dead & (s == 2) & ~changed
            if d2u.any():
                v2 = b[d2u, :2]
                exists2[v2[:, 0] * U + v2[:, 1]] = 0
                subtract_at(deg2, v2.ravel(), 1)

            if have_q:
                born2 = isn2 & ~dead[cidx]
                if born2.any():
                    bv = cw[born2, :2]
                    exists2[bv[:, 0] * U + bv[:, 1]] = 1
                    add_at(deg2, bv.ravel(), 1)

            if dead.any():
                keep = ~dead
                b = b[keep]
                s = s[keep]
                m_alive = int(s.size)
                num3 = int(s3.sum()) - dead3
            else:
                num3 = int(s3.sum())

        if red_verts is not None:
            ast[red_verts] = stamp
        active = active[ast[active] != stamp]

        if charge is not None:
            charge(mach, n, m_before, total, max(d, 1))
        committed_total += added_count
        retractions_total += unmarked_count
        if rspan is not None:
            rspan.set(
                n_after=int(active.size),
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
                n_after=int(active.size),
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
