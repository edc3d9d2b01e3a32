"""Core MIS algorithms.

The paper's contribution and its surrounding cast:

* :func:`~repro.core.sbl.sbl` — the **SBL** algorithm (Algorithm 1,
  Theorem 1): dimension reduction by sampling + BL + KUW end-game.
* :func:`~repro.core.bl.beame_luby` — the **BL** marking algorithm
  (Algorithm 2), the subroutine Theorem 2 re-analyses for super-constant
  dimension.
* :func:`~repro.core.kuw.karp_upfal_wigderson` — the **KUW**
  ``O(√n)``-round general-hypergraph algorithm used as the end-game and as
  the baseline SBL must beat.
* :func:`~repro.core.greedy.greedy_mis` — the sequential linear-time
  baseline (and differential-testing ground truth).
* :func:`~repro.core.permutation.permutation_bl` — Beame–Luby's
  permutation algorithm (conjectured RNC; §1).
* :func:`~repro.core.luby.luby_mis` — Luby's graph-MIS algorithm, the
  d = 2 reference point.
* :func:`~repro.core.linear_mis.linear_hypergraph_mis` — the linear-
  hypergraph specialisation (Luczak–Szymanska's RNC class).

All algorithms return :class:`~repro.core.result.MISResult` and accept the
same ``(seed, machine, trace)`` plumbing.
"""

from repro.core.bl import apply_bl_round, beame_luby, bl_marking_probability
from repro.core.decompose import solve_by_components
from repro.core.greedy import greedy_mis
from repro.core.kuw import karp_upfal_wigderson
from repro.core.linear_mis import is_linear, linear_hypergraph_mis
from repro.core.luby import luby_mis
from repro.core.permutation import permutation_bl
from repro.core.result import MISResult, RoundRecord
from repro.core.sbl import SBLFailure, sbl

__all__ = [
    "sbl",
    "SBLFailure",
    "beame_luby",
    "bl_marking_probability",
    "apply_bl_round",
    "solve_by_components",
    "karp_upfal_wigderson",
    "greedy_mis",
    "permutation_bl",
    "luby_mis",
    "linear_hypergraph_mis",
    "is_linear",
    "MISResult",
    "RoundRecord",
]
