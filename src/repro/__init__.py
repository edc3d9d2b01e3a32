"""repro — parallel maximal independent sets of hypergraphs.

A production-grade reproduction of

    Bercea, Goyal, Harris, Srinivasan,
    "On Computing Maximal Independent Sets of Hypergraphs in Parallel",
    SPAA 2014 (arXiv:1405.1133).

Quickstart
----------
>>> from repro import Hypergraph, sbl
>>> H = Hypergraph(6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
>>> result = sbl(H, seed=7)
>>> result.verify(H)        # raises if not a maximal independent set
>>> sorted(result.independent_set.tolist())  # doctest: +SKIP
[0, 1, 3, 4]

Package map
-----------
* :mod:`repro.hypergraph` — the hypergraph substrate (structure, update
  ops, Kelsen degree structures, validators, IO).
* :mod:`repro.core` — the algorithms: SBL, BL, KUW, greedy,
  permutation-BL, Luby, linear-hypergraph MIS.
* :mod:`repro.pram` — the EREW PRAM cost model.
* :mod:`repro.generators` — random / structured / linear instance
  generators.
* :mod:`repro.theory` — the paper's closed-form parameters, recurrences,
  concentration bounds, and inequality checks.
* :mod:`repro.analysis` — experiment runners and table rendering behind
  the ``benchmarks/`` suite.
"""

from repro.core import (
    MISResult,
    RoundRecord,
    SBLFailure,
    beame_luby,
    greedy_mis,
    is_linear,
    karp_upfal_wigderson,
    linear_hypergraph_mis,
    luby_mis,
    permutation_bl,
    sbl,
)
from repro.hypergraph import (
    Hypergraph,
    check_mis,
    is_independent,
    is_maximal_independent,
)
from repro.pram import CountingMachine, NullMachine

__version__ = "1.0.0"

__all__ = [
    "Hypergraph",
    "sbl",
    "SBLFailure",
    "beame_luby",
    "karp_upfal_wigderson",
    "greedy_mis",
    "permutation_bl",
    "luby_mis",
    "linear_hypergraph_mis",
    "is_linear",
    "MISResult",
    "RoundRecord",
    "check_mis",
    "is_independent",
    "is_maximal_independent",
    "CountingMachine",
    "NullMachine",
    "__version__",
]
