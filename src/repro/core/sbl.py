"""The SBL (sampling Beame–Luby) algorithm — the paper's contribution
(Algorithm 1, Theorem 1).

Each outer round on the current hypergraph ``H``:

1. sample ``V′ ⊆ V`` by independent marking with probability
   ``p = n^{−1/log⁽³⁾n}``;
2. let ``H′ = (V′, E′)`` with ``E′ = {e ∈ E : e ⊆ V′}``; if
   ``dim(H′) > d = log⁽²⁾n/(4 log⁽³⁾n)`` the round **fails** (the paper
   restarts; we resample, counting failures — event B's probability is
   bounded by ``r·m·p^{d+1}``);
3. run BL on ``H′``; its MIS ``I′`` is colored blue, ``V′ \\ I′`` red —
   permanently;
4. commit: ``I ← I ∪ I′``; drop every edge containing a red vertex (it can
   never be fully blue); trim blue vertices out of the remaining edges;
   ``V ← V \\ V′``;
5. repeat while ``|V| ≥ 1/p²``; finish with KUW (or, below a size floor,
   the sequential greedy the paper calls "the algorithm that takes time
   linear in the number of vertices").

Correctness (paper §2.1) is independent of the parameter choices, so the
implementation stays correct even at small n where we must clamp the
asymptotic formulas (``effective_p``, ``effective_d`` — see
:mod:`repro.theory.parameters`).
"""

from __future__ import annotations

import numpy as np

from repro.core.bl import beame_luby
from repro.core.greedy import greedy_mis
from repro.core.kuw import karp_upfal_wigderson
from repro.core.result import MISResult, RoundRecord
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.ops import remove_edges_touching, trim_vertices
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.pram.machine import Machine, NullMachine
from repro.theory.parameters import SBLParameters, sbl_parameters
from repro.util.rng import SeedLike, bernoulli_coins, stream

__all__ = ["sbl", "SBLFailure"]


class SBLFailure(RuntimeError):
    """Raised when a round keeps sampling an over-dimension sub-hypergraph.

    Event B of the analysis; its probability per attempt is
    ``≤ m·p^{d+1}``, so hitting the retry cap signals parameters far
    outside the theorem's regime rather than bad luck.
    """


def sbl(
    H: Hypergraph,
    seed: SeedLike = None,
    *,
    machine: Machine | None = None,
    params: SBLParameters | None = None,
    p_override: float | None = None,
    d_cap_override: int | None = None,
    floor_override: int | None = None,
    max_failures_per_round: int = 50,
    finisher: str = "kuw",
    paranoid: bool = False,
    trace: bool = True,
    tracer: Tracer | NullTracer | None = None,
) -> MISResult:
    """Run SBL to completion.

    Parameters
    ----------
    H:
        Input hypergraph.  Theorem 1 assumes ``m ≤ n^β``; the
        implementation works on any input but the round/depth guarantees
        only apply in that regime (``meta["m_bound_ok"]`` records it).
    seed:
        RNG seed; outer round *i* and its BL invocation draw from
        independent child streams.
    machine:
        PRAM cost accountant shared across all phases.
    params:
        Pre-computed :class:`SBLParameters` (defaults to the §2.2 formulas
        for ``n = |V|`` with practical clamps).
    p_override, d_cap_override, floor_override:
        Direct overrides of the sampling probability, the dimension cap of
        the BL calls, and the while-loop exit threshold.  The §2.2 formulas
        are deeply asymptotic (at every feasible n the raw ``1/p²`` floor
        exceeds n itself), so experiments probing the *shape* of Theorem 1
        sweep these explicitly; correctness (§2.1) holds for any values.
    max_failures_per_round:
        Resampling budget for event-B failures before raising
        :class:`SBLFailure`.
    finisher:
        ``"kuw"`` (paper's choice) or ``"greedy"`` (the linear-time
        alternative the paper mentions) for the end-game.
    paranoid:
        Verify the §2.1 invariant at runtime: every inner result is
        checked to be an MIS of the hypergraph it was computed on before
        being committed.  Costs one validator pass per round; use in
        long unattended campaigns or when plugging in external inner
        solvers.
    trace:
        Record the per-round trace.
    tracer:
        Telemetry tracer (defaults to the ambient
        :func:`~repro.obs.tracer.current_tracer`).  An enabled tracer
        emits nested ``sbl/solve → sbl/outer_round →
        {sbl/sample, bl/solve, sbl/commit}`` spans plus the finisher's
        spans, and stamps ``extras["wall_ns"]`` on every outer-round
        record.

    Returns
    -------
    MISResult
        ``algorithm="sbl"``; the trace interleaves phases ``"sbl"`` (outer
        rounds), ``"bl"`` (inner rounds) and the finisher's phase.
    """
    if finisher not in ("kuw", "greedy"):
        raise ValueError(f"unknown finisher: {finisher!r}")
    mach = machine if machine is not None else NullMachine()
    prm = params if params is not None else sbl_parameters(max(H.num_vertices, 2))
    p = p_override if p_override is not None else prm.effective_p
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sampling probability out of range: {p}")
    d_cap = d_cap_override if d_cap_override is not None else prm.effective_d
    floor = floor_override if floor_override is not None else prm.effective_vertex_floor
    if d_cap < 1:
        raise ValueError(f"dimension cap must be >= 1: {d_cap}")
    trc = tracer if tracer is not None else current_tracer()
    with trc.span(
        "sbl/solve", machine=mach, n=H.num_vertices, m=H.num_edges, dim=H.dimension
    ) as span:
        result = _sbl(
            H, seed, mach, prm, p, d_cap, floor,
            max_failures_per_round, finisher, paranoid, trace, trc,
        )
        if trc.enabled:
            span.set(
                rounds=result.num_rounds,
                outer_rounds=result.meta.get("outer_rounds", 0),
                mis_size=result.size,
            )
    return result


def _sbl(
    H: Hypergraph,
    seed: SeedLike,
    mach: Machine,
    prm: SBLParameters,
    p: float,
    d_cap: int,
    floor: float,
    max_failures_per_round: int,
    finisher: str,
    paranoid: bool,
    trace: bool,
    trc: Tracer | NullTracer,
) -> MISResult:
    rng_stream = stream(seed)

    records: list[RoundRecord] = []
    independent: list[int] = []
    failures_total = 0
    W = H

    # Algorithm 1 line 3: if the input dimension is already within the BL
    # cap, a single BL run suffices (lines 25–27).
    if W.dimension <= d_cap:
        inner = beame_luby(
            W, next(rng_stream), machine=mach, trace=trace, tracer=trc
        )
        meta = {
            "params": prm,
            "direct_bl": True,
            "failures": 0,
            "m_bound_ok": H.num_edges <= prm.m_max,
        }
        return MISResult(
            independent_set=inner.independent_set,
            algorithm="sbl",
            n=H.num_vertices,
            m=H.num_edges,
            rounds=inner.rounds if trace else [],
            machine=mach.snapshot() if hasattr(mach, "snapshot") else None,
            meta=meta,
        )

    outer_index = 0
    while W.num_vertices >= floor and W.num_edges > 0:
        n_before, m_before = W.num_vertices, W.num_edges
        d_before = W.dimension

        with trc.span(
            "sbl/outer_round",
            machine=mach,
            round=outer_index,
            n=n_before,
            m=m_before,
            dim=d_before,
        ) as ospan:
            # (1)+(2): sample until the induced sub-hypergraph fits the cap.
            with trc.span("sbl/sample", machine=mach, round=outer_index) as sspan:
                failures_this_round = 0
                while True:
                    active = W.vertices
                    coin = bernoulli_coins(next(rng_stream), int(active.size), p)
                    mach.map(n_before)  # one coin per active vertex
                    sampled = active[coin]
                    if sampled.size == 0:
                        # Vacuous sample; cheap retry (counts as a failure for
                        # the budget — an empty V' makes no progress).
                        failures_this_round += 1
                    else:
                        Hp = W.induced(sampled)
                        mach.charge(1, W.total_edge_size, W.total_edge_size)
                        if Hp.dimension <= d_cap:
                            break
                        failures_this_round += 1
                    if failures_this_round > max_failures_per_round:
                        raise SBLFailure(
                            f"round {outer_index}: exceeded {max_failures_per_round} "
                            f"sampling failures (p={p:.4g}, d_cap={d_cap})"
                        )
                if trc.enabled:
                    sspan.set(
                        sampled=int(sampled.size),
                        sampled_dim=Hp.dimension,
                        failures=failures_this_round,
                    )
            failures_total += failures_this_round
            obs_metrics.inc("solver/sampling_failures", failures_this_round)

            # (3): BL on the sampled sub-hypergraph — routed through
            # select_backend like any solve: after dimension reduction these
            # are exactly the small shapes the dense engines cover.
            inner = beame_luby(
                Hp, next(rng_stream), machine=mach, trace=trace, tracer=trc
            )
            if paranoid:
                inner.verify(Hp)
            blue = inner.independent_set
            blue_mask = np.zeros(W.universe, dtype=bool)
            blue_mask[blue] = True
            red = sampled[~blue_mask[sampled]]

            # (4): commit the colouring.
            with trc.span("sbl/commit", machine=mach, round=outer_index) as cspan:
                independent.extend(blue.tolist())
                W2 = remove_edges_touching(W, red)
                # Trim blue vertices out of surviving edges, then drop all of
                # V'.  trim_vertices also removes the trimmed vertices from
                # the active set; red vertices must go too.
                W2 = trim_vertices(W2, blue)
                remaining = np.setdiff1d(W2.vertices, red, assume_unique=False)
                W2 = W2.replace(vertices=remaining)
                mach.map(W.total_edge_size)
                mach.sync()
                if trc.enabled:
                    cspan.set(added=int(blue.size), red=int(red.size))
            obs_metrics.inc("solver/vertices_committed", int(blue.size))
            if trc.enabled:
                ospan.set(n_after=W2.num_vertices, m_after=W2.num_edges)

        if trace:
            record = RoundRecord(
                index=outer_index,
                phase="sbl",
                n_before=n_before,
                m_before=m_before,
                n_after=W2.num_vertices,
                m_after=W2.num_edges,
                marked=int(sampled.size),
                added=int(blue.size),
                removed_red=int(red.size),
                dimension=d_before,
                extras={
                    "p": p,
                    "failures": failures_this_round,
                    "sampled_dim": Hp.dimension,
                    "bl_rounds": inner.num_rounds,
                },
            )
            if trc.enabled:
                record.extras["wall_ns"] = ospan.wall_ns
            records.append(record)
            records.extend(inner.rounds)
        W = W2
        outer_index += 1

    # (5): end-game on the small remainder.
    if W.num_vertices > 0:
        with trc.span(
            "sbl/finisher",
            machine=mach,
            finisher=finisher if W.num_edges else "edgeless",
            n=W.num_vertices,
            m=W.num_edges,
        ):
            if W.num_edges == 0:
                independent.extend(W.vertices.tolist())
                mach.map(W.num_vertices)
                obs_metrics.inc("solver/vertices_committed", W.num_vertices)
            elif finisher == "kuw":
                tail = karp_upfal_wigderson(
                    W, next(rng_stream), machine=mach, trace=trace, tracer=trc
                )
                if paranoid:
                    tail.verify(W)
                independent.extend(tail.independent_set.tolist())
                if trace:
                    records.extend(tail.rounds)
            else:
                tail = greedy_mis(W, next(rng_stream), tracer=trc)
                independent.extend(tail.independent_set.tolist())
                # Sequential fallback: worst case linear in the vertex count.
                mach.charge(W.num_vertices, W.total_edge_size + W.num_vertices, 1)
                if trace:
                    records.extend(tail.rounds)

    return MISResult(
        independent_set=np.asarray(independent, dtype=np.intp),
        algorithm="sbl",
        n=H.num_vertices,
        m=H.num_edges,
        rounds=records,
        machine=mach.snapshot() if hasattr(mach, "snapshot") else None,
        meta={
            "params": prm,
            "direct_bl": False,
            "failures": failures_total,
            "outer_rounds": outer_index,
            "m_bound_ok": H.num_edges <= prm.m_max,
            "finisher": finisher,
        },
    )
