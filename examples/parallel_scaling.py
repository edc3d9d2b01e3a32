#!/usr/bin/env python
"""PRAM scaling study: depth, work and Brent-simulated time.

Two views of "parallel" for the same algorithms:

1. **EREW-PRAM accounting** — the model the paper's theorems live in:
   depth (parallel time with unlimited processors) and total work.
2. **Brent's theorem** — simulated wall-clock on P processors:
   ``T_P = work/P + depth``.

Real parallel execution runs whole solves side by side, not the steps of
one round: see ``repro campaign --workers`` and docs/parallel.md.

Run with::

    python examples/parallel_scaling.py
"""

from __future__ import annotations

from repro import (
    CountingMachine,
    beame_luby,
    karp_upfal_wigderson,
    permutation_bl,
    sbl,
)
from repro.analysis.tables import render_table
from repro.generators import uniform_hypergraph


def pram_view() -> None:
    rows = []
    for n in (200, 400, 800):
        H = uniform_hypergraph(n, 2 * n, 3, seed=0)
        for name, run in [
            ("bl", lambda h, m: beame_luby(h, seed=1, machine=m)),
            ("kuw", lambda h, m: karp_upfal_wigderson(h, seed=1, machine=m)),
            ("permutation", lambda h, m: permutation_bl(h, seed=1, machine=m)),
            ("sbl", lambda h, m: sbl(h, seed=1, machine=m, p_override=0.3,
                                     d_cap_override=3, floor_override=16)),
        ]:
            mach = CountingMachine()
            res = run(H, mach)
            res.verify(H)
            rows.append(
                [n, name, res.num_rounds, mach.depth, mach.work,
                 round(mach.brent_time(16)), round(mach.brent_time(1024))]
            )
    print(render_table(
        ["n", "algorithm", "rounds", "depth", "work", "T(16 cpu)", "T(1024 cpu)"],
        rows, title="EREW-PRAM accounting + Brent-simulated time",
    ))


def main() -> None:
    pram_view()


if __name__ == "__main__":
    main()
