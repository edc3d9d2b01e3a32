"""Sequential greedy MIS — the linear-time baseline, decided in rounds.

The paper's end-game alternative ("the algorithm that takes time linear in
the number of vertices"): scan the vertices in some order π and add each
one unless it would complete an edge.  The total cost is
``O(n + Σ_e |e|)``.

The scan has a local rule that lets it run in rounds.  An edge can only
reject its π-last vertex, and only once all its other vertices are
accepted; a rejected non-last vertex makes the edge harmless for good.  So
a vertex's fate depends only on the earlier vertices of the edges it
closes, and :class:`GreedyRounds` decides, per round, every vertex whose
dependencies are decided — one numpy pass per level of dependency depth.
The output is the scan's, bit for bit: each round applies the scan's own
accept/reject rule to vertices whose inputs are final.  Fischer & Noever
(2018) show the depth is Θ(log n) for graphs under a random order; an
adversarial order (a path in identity order) has depth n, so once a round
decides too few vertices (:data:`TAIL_MIN`, :data:`TAIL_DIVISOR`) the rest
go to the plain scan (:meth:`GreedyRounds.tail`).

Also the ground truth for differential tests: for a fixed order the greedy
MIS is unique, and *every* MIS algorithm's output must pass the same
:func:`~repro.hypergraph.validate.check_mis` validator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.result import MISResult, RoundRecord
from repro.hypergraph.edgestore import EdgeStore
from repro.hypergraph.hypergraph import Hypergraph

# Not called here any more: perfbench's layer ledger wraps this name by
# module path, so it stays importable until the benchmark drops that point.
from repro.kernels.dispatch import select_backend  # noqa: F401
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.pram.machine import Machine
from repro.util.rng import SeedLike, as_generator

__all__ = ["greedy_mis", "greedy_rounds", "GreedyRounds", "pi_last"]

#: A round that decides fewer than ``TAIL_MIN`` vertices, or less than
#: ``1/TAIL_DIVISOR`` of those still undecided, ends the rounds: the rest
#: are finished by one scan over their live edges.  A round costs a dozen
#: array passes over the live edges however little it decides, and deep
#: orders would otherwise pay that once per level: a path in identity order
#: has depth n, and 200 paths of 300 vertices ranked by position along
#: their path decide 200 vertices a round for 300 rounds.
TAIL_MIN = 64
TAIL_DIVISOR = 32

#: Vertex states, valued so that one sum over an edge's members classifies
#: the edge: the sum is exactly 1 when the π-last member is the only one
#: still undecided, and at least ``_REJECTED`` once a member is rejected.
_ACCEPTED, _UNDECIDED, _REJECTED = 0.0, 1.0, 2.0**32


def pi_last(store: EdgeStore, ranked: np.ndarray) -> np.ndarray:
    """Each edge's π-last member, as its rank.

    *ranked* holds the rank of the vertex at every position of
    ``store.indices``; ranks must be distinct within an edge, so the
    maximum names exactly one member.
    """
    return np.maximum.reduceat(ranked, store.indptr[:-1])


class GreedyRounds:
    """Greedy along a scan order, one dependency level per :meth:`round`.

    Local ids are scan positions, so a vertex's local id is also its rank.
    The state is the vertex status plus, per tracked edge, its π-last
    vertex and its members not yet seen accepted (the last one included).
    An edge is *live* while no member is rejected; a live edge's last
    vertex is undecided.

    Parameters
    ----------
    store:
        The edges; every member must appear in *scan*.
    scan:
        The scan order: distinct vertex ids.
    """

    def __init__(self, store: EdgeStore, scan: np.ndarray):
        n = int(scan.size)
        self.scan = scan
        self.status = np.full(n, _UNDECIDED)
        self.undecided = np.arange(n, dtype=np.intp)
        self.rounds = 0
        self.tail_size = 0
        pos = np.empty(int(scan.max()) + 1 if n else 0, dtype=np.intp)
        pos[scan] = np.arange(n, dtype=np.intp)
        #: Tracked positions, in edge order: member (local id) and edge slot.
        self.member = pos[store.indices]
        self.edge = np.repeat(np.arange(store.num_edges, dtype=np.intp), store.sizes())
        #: π-last local id of each tracked edge.
        self.last = pi_last(store, self.member)

    def round(self) -> int:
        """Decide every vertex whose closing edges are settled; return how many.

        An edge whose non-last members are all accepted rejects its last
        vertex; an edge with a rejected member is dead; an undecided vertex
        with no live closing edge is accepted.
        """
        status, last = self.status, self.last
        seen = status[self.member]
        # A live edge's last member is undecided, so it counts itself.
        total = np.bincount(self.edge, weights=seen, minlength=last.size)
        waiting = seen == _UNDECIDED
        del seen  # the position arrays dominate memory on large instances
        alive = total < _REJECTED
        blocked = np.zeros(status.size, dtype=bool)
        blocked[np.compress(alive, last)] = True
        before = self.undecided
        status[np.compress(~blocked[before], before)] = _ACCEPTED
        status[np.compress(total == _UNDECIDED, last)] = _REJECTED
        self.undecided = np.compress(status[before] == _UNDECIDED, before)

        # Dead edges and accepted members never matter again: drop them
        # once that shrinks the arrays by a quarter.  Until then they ride
        # along harmlessly (a dead edge keeps its rejected member, so its
        # sum stays at least _REJECTED).
        keep = alive & (status[last] == _UNDECIDED)
        kept = np.flatnonzero(keep[self.edge] & waiting)
        del waiting
        if kept.size * 4 < self.member.size * 3:
            self.last = np.compress(keep, last)
            self.member = self.member[kept]
            self.edge = (np.cumsum(keep) - 1)[self.edge[kept]]
        self.rounds += 1
        return int(before.size - self.undecided.size)

    def tail(self) -> None:
        """Finish the undecided vertices with the sequential scan.

        Per live edge, count the members not yet accepted; scanning in
        rank order, a vertex is rejected iff one of its edges has it as the
        only such member left.
        """
        status = self.status
        member, edge = self.member, self.edge
        seen = status[member]
        alive = np.bincount(edge, weights=seen, minlength=self.last.size) < _REJECTED
        waiting = np.flatnonzero(alive[edge] & (seen == _UNDECIDED))
        member, edge = member[waiting], edge[waiting]
        order = np.argsort(member)
        member = member[order]
        edge_of = edge[order].tolist()
        open_count = np.bincount(edge, minlength=self.last.size).tolist()
        todo = self.undecided
        lo = np.searchsorted(member, todo, side="left").tolist()
        hi = np.searchsorted(member, todo, side="right").tolist()
        accepted = []
        for v, a, b in zip(todo.tolist(), lo, hi):
            incident = edge_of[a:b]
            if any(open_count[i] == 1 for i in incident):
                continue
            accepted.append(v)
            for i in incident:
                open_count[i] -= 1
        status[todo] = _REJECTED
        status[accepted] = _ACCEPTED
        self.tail_size = int(todo.size)
        self.undecided = todo[:0]

    def independent_set(self) -> np.ndarray:
        """The accepted vertex ids, in scan order."""
        return self.scan[self.status == _ACCEPTED]


def greedy_rounds(store: EdgeStore, scan: np.ndarray) -> GreedyRounds:
    """Greedy along *scan*: rounds while they pay, then the scan for the rest."""
    state = GreedyRounds(store, scan)
    while state.undecided.size:
        todo = state.undecided.size
        decided = state.round()
        if state.undecided.size and (
            decided < TAIL_MIN or decided * TAIL_DIVISOR < todo
        ):
            state.tail()
    return state


def greedy_mis(
    H: Hypergraph,
    seed: SeedLike = None,
    *,
    order: Sequence[int] | np.ndarray | None = None,
    machine: Machine | None = None,
    trace: bool = False,
    tracer: Tracer | NullTracer | None = None,
) -> MISResult:
    """Greedy MIS along a vertex order.

    Parameters
    ----------
    H:
        Input hypergraph.
    seed:
        Used only when *order* is ``None``: the scan order is a uniformly
        random permutation of the active vertices.
    order:
        Explicit scan order (must enumerate exactly the active vertices).
    machine:
        Optional PRAM accountant.  Charged as the paper's sequential
        baseline: one processor doing ``n + Σ|e|`` steps, depth = work,
        whatever number of rounds :func:`greedy_rounds` took.
    trace:
        Record one :class:`RoundRecord` summarising the scan.
    tracer:
        Telemetry tracer (defaults to the ambient
        :func:`~repro.obs.tracer.current_tracer`); emits a single
        ``greedy/solve`` span covering the whole solve, with the number
        of dependency rounds and the size of the scanned tail.

    Notes
    -----
    The result is the set the sequential scan returns: *v* is rejected
    iff some edge ``e ∋ v`` has all of ``e \\ {v}`` accepted before *v*
    is reached.  Size-1 edges always reject their vertex.
    """
    active = H.vertices
    if order is None:
        # np.asarray would alias the read-only view and numpy's shuffle
        # fast path for arrays of size <= 1 operates in place, so an
        # explicit copy is required (found by `repro fuzz`, pinned by
        # tests/regressions/greedy-empty-universe.npz).
        scan = as_generator(seed).permutation(active.copy())
    else:
        scan = np.asarray(
            list(order) if not isinstance(order, np.ndarray) else order, dtype=np.intp
        )
        if not np.array_equal(np.sort(scan), active):
            raise ValueError("order must enumerate exactly the active vertices")

    trc = tracer if tracer is not None else current_tracer()
    with trc.span(
        "greedy/solve",
        machine=machine,
        n=H.num_vertices,
        m=H.num_edges,
        dim=H.dimension,
    ) as span:
        state = greedy_rounds(H.store, scan)
        in_I = np.zeros(H.universe, dtype=bool)
        in_I[state.independent_set()] = True
        members = np.flatnonzero(in_I)
        added = int(members.size)

        if machine is not None:
            cost = H.num_vertices + H.total_edge_size
            machine.charge(cost, cost, 1)
        if trc.enabled:
            span.set(
                mis_size=added,
                rejected=int(active.size) - added,
                rounds=state.rounds,
                tail=state.tail_size,
            )
    obs_metrics.inc("solver/vertices_committed", added)

    records: list[RoundRecord] = []
    if trace:
        record = RoundRecord(
            index=0,
            phase="greedy",
            n_before=int(active.size),
            m_before=H.num_edges,
            n_after=0,
            m_after=0,
            added=added,
            removed_red=int(active.size) - added,
            dimension=H.dimension,
        )
        if trc.enabled:
            record.extras["wall_ns"] = span.wall_ns
        records.append(record)
    return MISResult(
        independent_set=members,
        algorithm="greedy",
        n=H.num_vertices,
        m=H.num_edges,
        rounds=records,
        machine=machine.snapshot() if hasattr(machine, "snapshot") else None,
        meta={"order": "explicit" if order is not None else "random"},
    )
