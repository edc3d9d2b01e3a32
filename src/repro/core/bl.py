"""The Beame–Luby (BL) marking algorithm (paper Algorithm 2).

One round:

1. compute the maximum normalised degree ``Δ(H)`` and set the marking
   probability ``p = 1 / (2^{d+1} Δ(H))``;
2. mark each active vertex independently with probability p;
3. for every fully marked edge, unmark *all* its vertices;
4. commit the surviving marked vertices ``I′`` to the independent set;
5. cleanup: remove ``I′`` from the vertex set, trim ``e ← e \\ I′``,
   discard edges containing other edges, and delete singleton edges
   together with their vertices (those vertices are permanently red).

Algorithm 2 as printed computes Δ and p once, before the loop; in practice
(and in Kelsen's per-stage analysis) the probability is recomputed from the
current hypergraph each round, which is the default here
(``recompute_probability=True``).  The paper-literal behaviour is available
for comparison.

Theorem 2 (as re-proved in §3.1) gives, for dimension
``d ≤ log⁽²⁾n / (4 log⁽³⁾n)``, termination in ``O((log n)^{(d+4)!})``
rounds with probability ``1 − n^{−Θ(log n log⁽²⁾n)}``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.result import MISResult, RoundRecord
from repro.hypergraph.degrees import DeltaTracker, degree_profile
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.ops import normalize, normalize_after_trim, trim_vertices
from repro.kernels.bl_dense import beame_luby_dense
from repro.kernels.bl_frontier import beame_luby_frontier
from repro.kernels.bl_scalar import beame_luby_scalar
from repro.kernels.dispatch import select_backend
from repro.kernels.jit import row_kernels
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.pram.machine import Machine, NullMachine
from repro.util.itlog import log2_ceil
from repro.util.rng import SeedLike, bernoulli_coins, stream

__all__ = ["beame_luby", "bl_marking_probability", "apply_bl_round", "RoundCallback"]

#: Signature of the optional per-round instrumentation hook:
#: ``(record, H_before, H_after, marked_mask, added_ids) -> None``.
RoundCallback = Callable[[RoundRecord, Hypergraph, Hypergraph, np.ndarray, np.ndarray], None]

#: Hard default cap: Theorem 2's bound is polylog, so hitting this many
#: rounds on any reasonable instance indicates a bug, not bad luck.
DEFAULT_MAX_ROUNDS = 100_000


def bl_marking_probability(H: Hypergraph, profile=None) -> float:
    """``p = 1 / (2^{d+1} Δ(H))`` (Algorithm 2 line 2), clipped into (0, 1].

    For an edgeless hypergraph (Δ = 0) the probability is defined as 1 —
    every remaining vertex can be taken.
    """
    d = H.dimension
    prof = profile if profile is not None else degree_profile(H)
    delta = prof.delta()
    if delta <= 0:
        return 1.0
    return min(1.0, 1.0 / (2 ** (d + 1) * delta))


def apply_bl_round(
    W: Hypergraph,
    marked_mask: np.ndarray,
    *,
    assume_normal: bool = False,
    collect_diff: bool = False,
) -> tuple:
    """Apply one BL round body (steps 3–5) for a given marking.

    Deterministic given the marking, so it is the unit that the pure-Python
    reference implementation (:mod:`repro.core.reference`) is differentially
    tested against.

    Parameters
    ----------
    W:
        Current hypergraph.
    marked_mask:
        Boolean mask over the universe; marks outside the active vertex set
        are ignored.
    assume_normal:
        *W* is known superset-free with no singleton edges (true for every
        hypergraph a previous round produced); enables the fused
        incremental cleanup (:func:`~repro.hypergraph.ops.normalize_after_trim`),
        which restricts the containment scan to the edges the trim changed.
    collect_diff:
        Also return the exact edge diff of the round as a fifth element
        ``(removed_edges, added_edges)`` (tuples), consumed by the
        cross-round Δ tracker in :func:`beame_luby`.

    Returns
    -------
    (W_after, added, red, unmark_mask):
        The cleaned-up hypergraph, the vertex ids committed to the
        independent set, the vertices removed red by singleton cleanup, and
        the mask of vertices retracted by the unmarking step.  With
        ``collect_diff=True`` a fifth element ``(removed_edges, added_edges)``
        is appended.
    """
    if marked_mask.shape != (W.universe,):
        raise ValueError("marked_mask must cover the universe")
    marked = marked_mask & W.vertex_mask()
    unmark_mask = np.zeros(W.universe, dtype=bool)
    if W.num_edges:
        obs_metrics.inc("backend/matvec_calls")
        counts = W.incidence() @ marked.astype(np.int64)
        fully = counts == W.edge_sizes()
        if fully.any():
            # One scatter over the concatenated indices of fully-marked edges.
            store = W.store
            unmark_mask[store.indices[store.position_mask(fully)]] = True
    added = np.flatnonzero(marked & ~unmark_mask)
    if added.size == 0:
        # No survivors: on a normal hypergraph nothing can change; return
        # the same object so callers cache derived structures (profiles).
        if assume_normal:
            out = (W, added, np.empty(0, dtype=np.intp), unmark_mask)
            return out + (([], []),) if collect_diff else out
        W_after, red = normalize(W)
        if (
            red.size == 0
            and W_after.num_edges == W.num_edges
            and W_after.num_vertices == W.num_vertices
        ):
            W_after = W
        out = (W_after, added, red, unmark_mask)
        if collect_diff:
            removed_idx, added_idx = W.store.diff(W_after.store)
            out = out + (
                (
                    [W.store.edge(int(i)) for i in removed_idx],
                    [W_after.store.edge(int(i)) for i in added_idx],
                ),
            )
        return out
    if assume_normal and collect_diff:
        W_after, red, removed_edges, added_edges = normalize_after_trim(
            W, added, collect_diff=True
        )
        return W_after, added, red, unmark_mask, (removed_edges, added_edges)
    if assume_normal:
        W_after, red = normalize_after_trim(W, added)
    else:
        W_after, red = normalize(trim_vertices(W, added))
    out = (W_after, added, red, unmark_mask)
    if collect_diff:
        removed_idx, added_idx = W.store.diff(W_after.store)
        out = out + (
            (
                [W.store.edge(int(i)) for i in removed_idx],
                [W_after.store.edge(int(i)) for i in added_idx],
            ),
        )
    return out


def _charge_round(machine: Machine, n: int, m: int, total: int, d: int) -> None:
    """EREW charges for one BL round (see module docstring of repro.pram)."""
    # Δ recomputation: enumerate ≤ m·2^d subsets, tree-max them.
    subsets = m * (2 ** min(d, 20))
    machine.map(subsets)
    machine.reduce(subsets)
    # Marking: one coin per active vertex.
    machine.map(n)
    # Fully-marked test: per edge a tree-AND over its ≤ d vertices.
    if total:
        machine.charge(log2_ceil(max(d, 2)), total, total)
    # Unmark + commit + trim: constant passes over the edge lists.
    machine.map(total)
    machine.compact(n)
    # Cleanup (superset & singleton removal): pairwise subset tests with
    # m²·d processors at O(log d) depth — the poly(m,n) processor profile.
    if m > 1:
        machine.charge(log2_ceil(max(d, 2)) + 1, m * m * d, m * m * d)
    machine.sync()


def beame_luby(
    H: Hypergraph,
    seed: SeedLike = None,
    *,
    machine: Machine | None = None,
    recompute_probability: bool = True,
    marking_probability: float | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    trace: bool = True,
    on_round: RoundCallback | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> MISResult:
    """Run BL to completion and return the MIS with a per-round trace.

    Parameters
    ----------
    H:
        Input hypergraph.
    seed:
        RNG seed; round *i* draws from an independent child stream, so the
        run is reproducible regardless of round count.
    machine:
        PRAM cost accountant (default: no accounting).
    recompute_probability:
        Recompute ``p`` from the current hypergraph each round (default).
        ``False`` reproduces Algorithm 2 literally (p fixed up front).
    marking_probability:
        Override p entirely (used by experiments probing other choices).
    max_rounds:
        Abort with ``RuntimeError`` beyond this many rounds.
    trace:
        Record per-round statistics (cheap; disable for micro-benchmarks).
    on_round:
        Optional instrumentation hook called after every round.
    tracer:
        Telemetry tracer; defaults to the ambient
        :func:`~repro.obs.tracer.current_tracer` (a no-op unless a run
        installed one).  When enabled, the run emits ``bl/solve`` and
        ``bl/round`` spans and stamps ``extras["wall_ns"]`` on every
        round record.

    Returns
    -------
    MISResult
        With ``algorithm="bl"``; ``meta["p_initial"]`` records the first
        round's marking probability.
    """
    mach = machine if machine is not None else NullMachine()
    trc = tracer if tracer is not None else current_tracer()
    with trc.span(
        "bl/solve", machine=mach, n=H.num_vertices, m=H.num_edges, dim=H.dimension
    ) as span:
        # Shape dispatch: the dense engines cover the plain solve (and emit
        # the same per-round spans); a per-round hook, which is handed CSR
        # structures, pins CSR.
        blockers = ("on_round",) if on_round is not None else ()
        decision = select_backend(H, blockers=blockers)
        if decision.backend == "jit":
            result = beame_luby_dense(
                H, seed, mach, recompute_probability, marking_probability,
                max_rounds, trace, kern=row_kernels(True), trc=trc,
            )
        elif decision.dense and H.dimension > 3:
            result = beame_luby_frontier(
                H, seed, mach, recompute_probability, marking_probability,
                max_rounds, trace, trc=trc,
            )
        elif decision.dense:
            result = beame_luby_scalar(
                H, seed, mach, recompute_probability, marking_probability,
                max_rounds, trace, trc=trc,
            )
        else:
            result = _beame_luby(
                H, seed, mach, recompute_probability, marking_probability,
                max_rounds, trace, on_round, trc,
            )
        if trc.enabled:
            span.set(rounds=result.num_rounds, mis_size=result.size)
    return result


def _beame_luby(
    H: Hypergraph,
    seed: SeedLike,
    mach: Machine,
    recompute_probability: bool,
    marking_probability: float | None,
    max_rounds: int,
    trace: bool,
    on_round: RoundCallback | None,
    trc: Tracer | NullTracer,
) -> MISResult:
    rng_stream = stream(seed)

    # One upfront cleanup (supersets, singletons) establishes the normal
    # form every round preserves; rounds then use the fused incremental
    # cleanup.  Singleton-edge vertices removed here could never join the
    # independent set, so the result is unchanged.
    W, pre_red = normalize(H)

    independent: list[int] = []
    records: list[RoundRecord] = []
    p_fixed: float | None = marking_probability
    p_initial: float | None = None
    # The Δ maxima are carried across rounds by *restriction*: a round's
    # successor differs from W only in the edges the trim touched, so the
    # tracker updates from the store diff instead of recomputing the full
    # profile (the identity-only cache this replaces only ever helped on
    # no-progress rounds).
    tracker: DeltaTracker | None = None

    for round_index in range(max_rounds):
        if W.num_vertices == 0:
            break
        if W.num_edges == 0:
            # No constraints remain: everything left is independent.
            n_left = W.num_vertices
            with trc.span(
                "bl/round", machine=mach, round=round_index, n=n_left, m=0
            ) as rspan:
                independent.extend(W.vertices.tolist())
                mach.map(n_left)
                if trc.enabled:
                    rspan.set(n_after=0, m_after=0, added=n_left)
            obs_metrics.inc("solver/vertices_committed", n_left)
            if trace:
                record = RoundRecord(
                    index=round_index,
                    phase="bl",
                    n_before=n_left,
                    m_before=0,
                    n_after=0,
                    m_after=0,
                    marked=n_left,
                    added=n_left,
                    dimension=0,
                )
                if trc.enabled:
                    record.extras["wall_ns"] = rspan.wall_ns
                records.append(record)
            W = W.replace(edges=(), vertices=np.empty(0, dtype=np.intp))
            break

        if tracker is None:
            tracker = DeltaTracker.from_hypergraph(W)
        profile = tracker  # same .delta()/.delta_i() surface as DegreeProfile
        if p_fixed is not None:
            p = p_fixed
        else:
            p = bl_marking_probability(W, profile)
            if not recompute_probability:
                p_fixed = p
        if p_initial is None:
            p_initial = p

        n_before, m_before = W.num_vertices, W.num_edges
        d_before = W.dimension
        total = W.total_edge_size

        with trc.span(
            "bl/round",
            machine=mach,
            round=round_index,
            n=n_before,
            m=m_before,
            dim=d_before,
        ) as rspan:
            # (2) mark active vertices.
            active = W.vertices
            coin = bernoulli_coins(next(rng_stream), int(active.size), p)
            marked_mask = np.zeros(W.universe, dtype=bool)
            marked_mask[active[coin]] = True

            # (3)–(5) unmark fully marked edges, commit survivors, cleanup.
            W_after, added, red, unmark_mask, edge_diff = apply_bl_round(
                W, marked_mask, assume_normal=True, collect_diff=True
            )
            if added.size:
                independent.extend(added.tolist())

            _charge_round(mach, n_before, m_before, total, max(d_before, 1))
            unmarked_count = int((marked_mask & unmark_mask).sum())
            if trc.enabled:
                rspan.set(
                    n_after=W_after.num_vertices,
                    m_after=W_after.num_edges,
                    added=int(added.size),
                    unmarked=unmarked_count,
                    p=p,
                )
        obs_metrics.inc("solver/vertices_committed", int(added.size))
        obs_metrics.inc("solver/unmark_retractions", unmarked_count)

        record = RoundRecord(
            index=round_index,
            phase="bl",
            n_before=n_before,
            m_before=m_before,
            n_after=W_after.num_vertices,
            m_after=W_after.num_edges,
            marked=int(marked_mask.sum()),
            unmarked=unmarked_count,
            added=int(added.size),
            removed_red=int(red.size),
            dimension=d_before,
            extras={"p": p, "delta": profile.delta()},
        )
        if trc.enabled:
            record.extras["wall_ns"] = rspan.wall_ns
        if trace:
            records.append(record)
        if on_round is not None:
            on_round(record, W, W_after, marked_mask, added)
        if W_after is not W:
            removed_edges, added_edges = edge_diff
            if removed_edges:
                tracker.remove_edges(removed_edges)
            if added_edges:
                tracker.add_edges(added_edges)
        W = W_after
    else:
        raise RuntimeError(
            f"BL failed to terminate within {max_rounds} rounds "
            f"(n={H.num_vertices}, m={H.num_edges}, dim={H.dimension})"
        )

    result = MISResult(
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
    return result
