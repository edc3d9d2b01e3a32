"""Independence / maximality validation.

The correctness contract of every MIS algorithm in :mod:`repro.core` is
checked against these validators, which implement the definitions directly:

* a set ``I`` is **independent** in ``H`` iff no edge is contained in ``I``;
* an independent ``I`` is **maximal** iff for every vertex ``v ∉ I`` the set
  ``I ∪ {v}`` is dependent.

Violations are reported as rich exception objects carrying a concrete
witness (the offending edge or the extendable vertex), which the
failure-injection experiment (E13) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "IndependenceViolation",
    "MaximalityViolation",
    "is_independent",
    "is_maximal_independent",
    "check_mis",
    "find_independence_witness",
    "find_maximality_witness",
]


@dataclass
class IndependenceViolation(Exception):
    """Raised by :func:`check_mis` when an edge lies fully inside the set."""

    edge: tuple[int, ...]

    def __str__(self) -> str:
        return f"set contains edge {self.edge}"


@dataclass
class MaximalityViolation(Exception):
    """Raised by :func:`check_mis` when some vertex could be added."""

    vertex: int

    def __str__(self) -> str:
        return f"vertex {self.vertex} can be added without creating an edge"


def _member_mask(H: Hypergraph, members: Iterable[int] | np.ndarray) -> np.ndarray:
    idx = np.asarray(
        list(members) if not isinstance(members, np.ndarray) else members,
        dtype=np.intp,
    )
    mask = np.zeros(H.universe, dtype=bool)
    if idx.size:
        if idx.min() < 0 or idx.max() >= H.universe:
            raise IndexError("member outside universe")
        mask[idx] = True
    return mask


def _member_counts(H: Hypergraph, mask: np.ndarray) -> np.ndarray:
    """Per-edge count of member vertices — one sparse matvec."""
    if H.num_edges == 0:
        return np.empty(0, dtype=np.int64)
    return H.incidence() @ mask.astype(np.int64)


def _contained_edge(H: Hypergraph, counts: np.ndarray) -> tuple[int, ...] | None:
    """The lowest edge whose vertices are all members, from member *counts*."""
    inside = np.flatnonzero(counts == H.edge_sizes())
    return H.store.edge(int(inside[0])) if inside.size else None


def _free_vertex(H: Hypergraph, mask: np.ndarray, counts: np.ndarray) -> int | None:
    """The lowest active non-member vertex no edge blocks, from member *counts*.

    Vertex ``v`` is blocked iff some edge ``e ∋ v`` has all its *other*
    vertices in ``I``; per edge this means ``|e ∩ I| = |e| − 1`` and the
    one missing vertex is ``v``.
    """
    covered = mask.copy()
    if counts.size:
        near = np.flatnonzero(counts == H.edge_sizes() - 1)
        if near.size:
            # A near-complete edge has exactly one non-member vertex — the
            # vertex it blocks — so the sum of its non-member ids *is* that
            # vertex: one more matvec instead of a per-position gather.
            outside = np.where(mask, 0, np.arange(H.universe, dtype=np.int64))
            covered[(H.incidence() @ outside)[near]] = True
        # An edge of size 1 ({v}) blocks v whenever v ∉ I (counts==0==size-1).
    active = H.vertices
    free = np.flatnonzero(~covered[active])
    return int(active[free[0]]) if free.size else None


def find_independence_witness(
    H: Hypergraph, members: Iterable[int] | np.ndarray
) -> tuple[int, ...] | None:
    """Return the lowest edge fully contained in *members*, or ``None``.

    One sparse matvec over the incidence matrix.
    """
    mask = _member_mask(H, members)
    return _contained_edge(H, _member_counts(H, mask))


def is_independent(H: Hypergraph, members: Iterable[int] | np.ndarray) -> bool:
    """Does *members* contain no edge of *H*?"""
    return find_independence_witness(H, members) is None


def find_maximality_witness(
    H: Hypergraph, members: Iterable[int] | np.ndarray
) -> int | None:
    """Return the lowest addable vertex of ``V \\ I``, or ``None``.

    Vectorised: per-edge member counts, then the one non-member vertex of
    each near-complete edge — two sparse matvecs in all.
    """
    mask = _member_mask(H, members)
    return _free_vertex(H, mask, _member_counts(H, mask))


def _first_violation(
    H: Hypergraph, members: Iterable[int] | np.ndarray
) -> IndependenceViolation | MaximalityViolation | None:
    """Both witnesses off one member mask and one count pass, independence first."""
    mask = _member_mask(H, members)
    counts = _member_counts(H, mask)
    edge = _contained_edge(H, counts)
    if edge is not None:
        return IndependenceViolation(edge)
    v = _free_vertex(H, mask, counts)
    return None if v is None else MaximalityViolation(v)


def is_maximal_independent(H: Hypergraph, members: Iterable[int] | np.ndarray) -> bool:
    """Is *members* a maximal independent set of *H*?"""
    return _first_violation(H, members) is None


def check_mis(H: Hypergraph, members: Iterable[int] | np.ndarray) -> None:
    """Assert that *members* is an MIS of *H*; raise a witnessed violation otherwise.

    One pass: the member mask and the per-edge member counts are built
    once and both witnesses are read off them — the same witnesses
    :func:`find_independence_witness` and :func:`find_maximality_witness`
    return.

    Raises
    ------
    IndependenceViolation
        If some edge lies fully inside the set (the lowest such edge).
    MaximalityViolation
        If some vertex outside the set could be added (the lowest such).
    """
    violation = _first_violation(H, members)
    if violation is not None:
        raise violation
