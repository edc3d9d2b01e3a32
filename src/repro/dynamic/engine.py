"""Incremental MIS maintenance: localize, repair, splice, certify.

The engine keeps ``(H_t, I_t)`` — the current hypergraph and a maximal
independent set of it — and applies update batches through
:func:`repro.hypergraph.updates.apply_updates`.  Per batch it either
**repairs** (re-solve only the affected components and splice the patch
into the frozen remainder) or **recomputes** from scratch, routed by the
measured crossover in :mod:`repro.dynamic.costmodel`.

Why repair is exact, not approximate
------------------------------------
All solving — initial, repair, recompute — is greedy along one global
*priority order*: a permutation of the universe derived from the engine
seed.  Greedy along a fixed priority is component-decomposable (a
vertex's accept/reject decision depends only on earlier-priority vertices
of its own component), so the maintained invariant

    ``I_t  ==  greedy_mis(H_t, order=priority)``

survives repair *exactly*: components of ``H_t`` containing no dirty
vertex have identical vertex and edge sets as in ``H_{t-1}`` (an incident
edge that changed would make its endpoints dirty), hence the frozen
restriction of ``I_{t-1}`` is already the greedy answer there, and the
re-solved affected components supply the rest.  Repair therefore returns
**bit-identical** output to recompute-from-scratch — the property the
stream fuzzer pins per seed across kernel backends.  The greedy solve is
:func:`repro.core.greedy.greedy_rounds`, one numpy kernel for every
patch shape.

Every update still ends in an explicit certificate pass
(:func:`repro.hypergraph.validate.check_mis` on the *updated* hypergraph)
unless ``validate=False`` — trust the theorem, verify the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.greedy import greedy_mis
from repro.core.result import RoundRecord
from repro.dynamic.costmodel import decide_strategy
from repro.hypergraph.components import component_labels, incidence_labels
from repro.hypergraph.edgestore import EdgeStore
from repro.hypergraph.hypergraph import EdgeLike, Hypergraph
from repro.hypergraph.updates import UpdateResult, apply_updates
from repro.hypergraph.validate import check_mis
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.util.rng import SeedLike, as_generator

__all__ = ["DynamicMIS", "UpdateOutcome"]

_STRATEGIES = ("auto", "repair", "recompute")


def _local_labels(cand: np.ndarray, sub_store) -> np.ndarray:
    """Connected-component labels of the *compacted* candidate region.

    ``cand`` (sorted vertex ids) and ``sub_store`` (the edges lying inside
    it) are remapped to ``0..k-1`` before the vertex–edge CC pass, so the
    cost is proportional to the candidate region — not the instance.
    Label values are arbitrary but distinct per component.
    """
    if not sub_store.num_edges:
        return np.arange(cand.size, dtype=np.intp)
    local = np.searchsorted(cand, sub_store.indices)
    return incidence_labels(cand.size, sub_store.indptr, local).astype(np.intp)


def _take_edges(store: EdgeStore, rows: np.ndarray) -> EdgeStore:
    """The edges *rows* (ascending) of *store*, gathering only their positions.

    Equal to ``store.select(mask)`` for the mask with these rows set, but
    it touches ``O(Σ|e| over rows)`` instead of every position — the right
    call for a small region of a large store.
    """
    sizes = store.sizes()[rows]
    indptr = np.zeros(rows.size + 1, dtype=np.intp)
    np.cumsum(sizes, out=indptr[1:])
    shift = np.repeat(store.indptr[rows] - indptr[:-1], sizes)
    out = EdgeStore(indptr, store.indices[shift + np.arange(indptr[-1])])
    out._sizes = sizes
    return out


@dataclass(frozen=True)
class UpdateOutcome:
    """What one :meth:`DynamicMIS.apply` did, and the state it produced."""

    update: UpdateResult
    strategy: str  # "repair" | "recompute" | "noop"
    reason: str
    mis: np.ndarray = field(compare=False)
    dirty_fraction: float
    patch_vertices: int
    frozen_vertices: int
    certified: bool
    chain: str
    rounds: tuple[RoundRecord, ...] = ()

    @property
    def mis_size(self) -> int:
        return int(self.mis.size)


class DynamicMIS:
    """Maintain an MIS of a hypergraph under streamed edge updates.

    Parameters
    ----------
    H:
        Initial hypergraph.
    seed:
        Derives the global priority permutation (and nothing else) —
        the whole stream is deterministic in ``(H, seed, updates)``.
    strategy:
        ``"auto"`` (dispatch via the crossover model), or force
        ``"repair"`` / ``"recompute"`` — the benchmark harness races the
        forced modes against each other.
    validate:
        Run the :func:`check_mis` certificate after every update
        (default).  Disable only when an external pass certifies.
    """

    def __init__(
        self,
        H: Hypergraph,
        seed: SeedLike = 0,
        *,
        strategy: str = "auto",
        validate: bool = True,
    ):
        if strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}: {strategy!r}")
        self._strategy = strategy
        self._validate = validate
        self._seed = seed
        perm = as_generator((seed, "dynamic-priority")).permutation(H.universe)
        rank = np.empty(H.universe, dtype=np.intp)
        rank[perm] = np.arange(H.universe, dtype=np.intp)
        self._rank = rank
        self._H = H
        self._chain = H.content_hash()
        self._mis = greedy_mis(H, order=self._priority_order(H.vertices)).independent_set
        # Component labels are maintained incrementally across updates so
        # repair localization never pays a full-instance labeling pass:
        # an update can only change the components that contain dirty
        # vertices, so those get relabeled locally (fresh ids) and the
        # rest keep their labels.  Recompute refreshes from scratch.
        self._labels = component_labels(H)
        self._next_label = int(self._labels.max()) + 1 if self._labels.size else 0
        self._steps = 0
        if validate:
            check_mis(H, self._mis)

    # ------------------------------------------------------------------
    # state accessors
    # ------------------------------------------------------------------
    @property
    def hypergraph(self) -> Hypergraph:
        return self._H

    @property
    def independent_set(self) -> np.ndarray:
        view = self._mis.view()
        view.flags.writeable = False
        return view

    @property
    def chain(self) -> str:
        """Hash-chain value of the current state (see :func:`chain_hash`)."""
        return self._chain

    @property
    def steps(self) -> int:
        """Number of update batches applied."""
        return self._steps

    def certify(self) -> bool:
        """Re-run the certificate on the current state (raises on violation)."""
        check_mis(self._H, self._mis)
        return True

    def recompute_reference(self) -> np.ndarray:
        """The pinned recompute: full greedy-by-priority on the current state.

        The engine's invariant says this always equals
        :attr:`independent_set` bit for bit — the stream fuzzer's
        metamorphic oracle.
        """
        return greedy_mis(
            self._H, order=self._priority_order(self._H.vertices)
        ).independent_set

    def _priority_order(self, vertices: np.ndarray) -> np.ndarray:
        v = np.asarray(vertices, dtype=np.intp)
        return v[np.argsort(self._rank[v])]

    # ------------------------------------------------------------------
    # the update step
    # ------------------------------------------------------------------
    def apply(
        self,
        add_edges: Iterable[EdgeLike] = (),
        remove_edges: Iterable[EdgeLike] = (),
        *,
        strict: bool = True,
        trace: bool = False,
        tracer: Tracer | NullTracer | None = None,
    ) -> UpdateOutcome:
        """Apply one update batch and restore the MIS invariant.

        With ``trace=True`` the inner solve records its
        :class:`RoundRecord`\\ s on the outcome (the streamed analogue of
        the one-shot solvers' ``keep_rounds``).  Raises the certificate
        violation if validation fails — the engine state is then **not**
        advanced.
        """
        trc = tracer if tracer is not None else current_tracer()
        H_old = self._H
        with trc.span(
            "dynamic/update",
            step=self._steps,
            n=H_old.num_vertices,
            m=H_old.num_edges,
        ) as span:
            upd = apply_updates(
                H_old,
                add_edges,
                remove_edges,
                parent_chain=self._chain,
                strict=strict,
            )
            H_new = upd.hypergraph
            obs_metrics.inc("dynamic/updates")
            n_active = H_new.num_vertices
            dirty_fraction = (
                upd.dirty_vertices.size / n_active if n_active else 0.0
            )
            obs_metrics.set_gauge("dynamic/dirty_fraction", dirty_fraction)
            delta_fraction = upd.delta_fraction()

            rounds: tuple[RoundRecord, ...] = ()
            new_labels, next_label = self._labels, self._next_label
            if upd.is_noop:
                strategy, reason = "noop", "empty structural diff"
                new_mis = self._mis
                patch_vertices = 0
                frozen = int(self._mis.size)
            else:
                decision = decide_strategy(
                    delta_fraction, H_new.dimension, H_new.universe
                )
                if self._strategy == "auto":
                    strategy, reason, mode = (
                        decision.strategy,
                        decision.reason,
                        decision.mode,
                    )
                else:
                    strategy, mode = self._strategy, "forced"
                    reason = f"forced {strategy} (engine strategy override)"
                obs_metrics.inc(
                    f"dynamic/decision/{decision.bucket}:{decision.band}/{strategy}"
                )
                obs_metrics.inc(f"dynamic/decision_mode/{mode}")
                if strategy == "repair":
                    (
                        new_mis,
                        patch_vertices,
                        frozen,
                        rounds,
                        new_labels,
                        next_label,
                    ) = self._repair(H_new, upd, trc, trace)
                else:
                    (
                        new_mis,
                        patch_vertices,
                        frozen,
                        rounds,
                        new_labels,
                        next_label,
                    ) = self._recompute(H_new, trc, trace)

            certified = False
            if self._validate:
                check_mis(H_new, new_mis)
                certified = True

            self._H = H_new
            self._mis = new_mis
            self._labels = new_labels
            self._next_label = next_label
            self._chain = upd.chain
            self._steps += 1
            if trc.enabled:
                span.set(
                    strategy=strategy,
                    mis_size=int(new_mis.size),
                    changed_edges=upd.num_changed,
                    delta_fraction=round(delta_fraction, 6),
                    dirty_fraction=round(dirty_fraction, 6),
                )
        return UpdateOutcome(
            update=upd,
            strategy=strategy,
            reason=reason,
            mis=new_mis,
            dirty_fraction=dirty_fraction,
            patch_vertices=patch_vertices,
            frozen_vertices=frozen,
            certified=certified,
            chain=upd.chain,
            rounds=rounds,
        )

    def _repair(
        self,
        H_new: Hypergraph,
        upd: UpdateResult,
        trc: Tracer | NullTracer,
        trace: bool,
    ) -> tuple[np.ndarray, int, int, tuple[RoundRecord, ...], np.ndarray, int]:
        """Localize → re-solve affected components → splice.

        Localization is two-stage, and both stages are local.  The cached
        labels of the *previous* state bound the blast radius: any path
        from a dirty vertex in ``H_new`` crosses either an added edge
        (whose endpoints are all dirty) or a surviving old edge (which
        stays inside its old component), so the new components containing
        dirty vertices live inside the union of old components containing
        dirty vertices plus the newly activated vertices.  Running CC on
        that candidate region alone then yields the exact affected
        components of ``H_new``; candidate pieces that split away from
        every dirty vertex keep their old incident edges untouched and are
        frozen along with the rest.
        """
        with trc.span("dynamic/repair", changed=upd.num_changed) as span:
            universe = H_new.universe
            dirty = upd.dirty_vertices
            old_dirty = np.unique(self._labels[dirty])
            old_dirty = old_dirty[old_dirty >= 0]
            cand_mask = (
                np.isin(self._labels, old_dirty)
                if old_dirty.size
                else np.zeros(universe, dtype=bool)
            )
            cand_mask[dirty] = True
            cand = np.flatnonzero(cand_mask)
            store = H_new.store
            if store.num_edges:
                first = store.indices[store.indptr[:-1]]
                cand_store = _take_edges(store, np.flatnonzero(cand_mask[first]))
            else:
                cand_store = store
            local = _local_labels(cand, cand_store)
            dirty_local = np.unique(local[np.searchsorted(cand, dirty)])
            sub_vertices = cand[np.isin(local, dirty_local)]
            affected = np.zeros(universe, dtype=bool)
            affected[sub_vertices] = True
            if cand_store.num_edges:
                sub_first = cand_store.indices[cand_store.indptr[:-1]]
                sub_store = cand_store.select(affected[sub_first])
            else:
                sub_store = cand_store
            sub_H = Hypergraph._from_arrays(universe, sub_store, sub_vertices)
            result = greedy_mis(
                sub_H,
                order=self._priority_order(sub_vertices),
                trace=trace,
                tracer=trc,
            )
            frozen = self._mis[~affected[self._mis]]
            # The patch lies inside `affected`, so it is disjoint from the
            # frozen members: a universe mask splices them in sorted order
            # without re-sorting the frozen remainder.
            in_I = np.zeros(universe, dtype=bool)
            in_I[frozen] = True
            in_I[result.independent_set] = True
            merged = np.flatnonzero(in_I)
            # Candidate vertices get fresh label ids (unique vs. every id
            # handed out so far); the untouched remainder keeps its own.
            new_labels = self._labels.copy()
            new_labels[cand] = self._next_label + local
            next_label = self._next_label + (int(local.max()) + 1 if cand.size else 0)
            obs_metrics.inc("dynamic/repairs")
            obs_metrics.inc("dynamic/patch_vertices", sub_H.num_vertices)
            if trc.enabled:
                span.set(
                    patch_n=sub_H.num_vertices,
                    patch_m=sub_H.num_edges,
                    frozen=int(frozen.size),
                    components=int(dirty_local.size),
                )
        return (
            merged,
            sub_H.num_vertices,
            int(frozen.size),
            tuple(result.rounds),
            new_labels,
            next_label,
        )

    def _recompute(
        self, H_new: Hypergraph, trc: Tracer | NullTracer, trace: bool
    ) -> tuple[np.ndarray, int, int, tuple[RoundRecord, ...], np.ndarray, int]:
        with trc.span("dynamic/recompute", n=H_new.num_vertices, m=H_new.num_edges):
            result = greedy_mis(
                H_new,
                order=self._priority_order(H_new.vertices),
                trace=trace,
                tracer=trc,
            )
            obs_metrics.inc("dynamic/recomputes")
            new_labels = component_labels(H_new)
            next_label = int(new_labels.max()) + 1 if new_labels.size else 0
        return (
            result.independent_set,
            H_new.num_vertices,
            0,
            tuple(result.rounds),
            new_labels,
            next_label,
        )
