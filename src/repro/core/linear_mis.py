"""MIS for *linear* hypergraphs (``|e ∩ e'| ≤ 1``).

Luczak and Szymanska (J. Algorithms 1997) proved that MIS of linear
hypergraphs is in RNC (paper §1 survey).  Their algorithm is a
marking/unmarking scheme of the Beame–Luby family whose analysis exploits
linearity: distinct edges share at most one vertex, so the events "edge e
is fully marked" are nearly independent and the degree-migration problem
that dominates Kelsen's analysis collapses.

Following DESIGN.md's substitution rule, this module implements the
linear-hypergraph front-end as a *verified specialisation* of our BL
engine: it checks linearity (raising otherwise), then runs BL with a
marking probability adapted to the linear structure
(``p = 1/(2·max_normalised_degree)`` — linearity removes the ``2^d``
safety factor BL needs against correlated edges: the unmark-probability
computation of Lemma 2 loses its union-bound blow-up when any two edges
through a vertex set share only that set).  Experiment E14 measures the
resulting polylog round counts on random linear instances.
"""

from __future__ import annotations

import itertools

from repro.core.bl import beame_luby
from repro.core.result import MISResult
from repro.hypergraph.degrees import degree_profile
from repro.hypergraph.hypergraph import Hypergraph
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.pram.machine import Machine
from repro.util.rng import SeedLike

__all__ = ["is_linear", "linear_hypergraph_mis"]


def is_linear(H: Hypergraph) -> bool:
    """Check ``|e ∩ e'| ≤ 1`` for all pairs of distinct edges.

    Pairwise sharing is detected through pair occupancy: two distinct
    edges intersect in ≥ 2 vertices iff some vertex *pair* lies in two
    edges — O(Σ_e |e|²) with a set, no m² loop.
    """
    seen: set[tuple[int, int]] = set()
    for e in H.edges:
        for pair in itertools.combinations(e, 2):
            if pair in seen:
                return False
            seen.add(pair)
    return True


def linear_hypergraph_mis(
    H: Hypergraph,
    seed: SeedLike = None,
    *,
    machine: Machine | None = None,
    trace: bool = True,
    tracer: Tracer | NullTracer | None = None,
) -> MISResult:
    """MIS of a linear hypergraph via the specialised BL engine.

    Raises
    ------
    ValueError
        If *H* is not linear.
    """
    if not is_linear(H):
        raise ValueError("input is not a linear hypergraph (some |e ∩ e'| ≥ 2)")
    trc = tracer if tracer is not None else current_tracer()
    with trc.span(
        "linear/solve", machine=machine, n=H.num_vertices, m=H.num_edges,
        dim=H.dimension,
    ) as span:
        profile = degree_profile(H)
        delta = profile.delta()
        p = min(1.0, 1.0 / (2.0 * delta)) if delta > 0 else 1.0
        inner = beame_luby(
            H,
            seed,
            machine=machine,
            marking_probability=p,
            trace=trace,
            tracer=trc,
        )
        if trc.enabled:
            span.set(p=p, rounds=inner.num_rounds, mis_size=inner.size)
    return MISResult(
        independent_set=inner.independent_set,
        algorithm="linear",
        n=H.num_vertices,
        m=H.num_edges,
        rounds=inner.rounds,
        machine=inner.machine,
        meta={"p": p, **inner.meta},
    )
