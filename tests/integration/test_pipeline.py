"""Integration tests: full pipelines across modules.

These exercise generator → algorithm → validator → analysis chains the way
the examples and benchmarks do, including the serialisation round trip
through an algorithm run.
"""

from __future__ import annotations

import numpy as np

from repro import (
    CountingMachine,
    Hypergraph,
    beame_luby,
    check_mis,
    greedy_mis,
    karp_upfal_wigderson,
    permutation_bl,
    sbl,
)
from repro.analysis.instrument import fit_power_law
from repro.generators import (
    bounded_edges_instance,
    mixed_dimension_hypergraph,
    uniform_hypergraph,
)
from repro.hypergraph.hio import dumps, loads


class TestEndToEnd:
    def test_generate_solve_verify_all_algorithms(self):
        H = mixed_dimension_hypergraph(120, 240, [2, 3, 4], seed=0)
        for fn in (beame_luby, karp_upfal_wigderson, greedy_mis, permutation_bl):
            res = fn(H, seed=1)
            check_mis(H, res.independent_set)
        res = sbl(H, seed=1, p_override=0.3, d_cap_override=4, floor_override=16)
        check_mis(H, res.independent_set)

    def test_serialise_then_solve(self, tmp_path):
        H = uniform_hypergraph(60, 90, 3, seed=0)
        path = tmp_path / "instance.txt"
        path.write_text(dumps(H))
        H2 = loads(path.read_text())
        a = beame_luby(H, seed=5)
        b = beame_luby(H2, seed=5)
        assert np.array_equal(a.independent_set, b.independent_set)

    def test_sbl_with_shared_machine_accumulates_all_phases(self):
        H = bounded_edges_instance(512, seed=0, beta_fraction=5.0)
        mach = CountingMachine()
        res = sbl(
            H, seed=0, machine=mach, p_override=0.15, d_cap_override=4,
            floor_override=64,
        )
        check_mis(H, res.independent_set)
        phases = {r.phase for r in res.rounds}
        # sampling phase ran and the end-game too
        assert "sbl" in phases
        assert ("kuw" in phases) or res.meta["outer_rounds"] > 0
        assert mach.depth > 0

    def test_scaling_pipeline(self):
        """Mini version of E8: generate, run, fit the exponent."""
        ns, rounds = [], []
        for n in (64, 128, 256):
            H = uniform_hypergraph(n, 2 * n, 3, seed=0)
            res = karp_upfal_wigderson(H, seed=0)
            check_mis(H, res.independent_set)
            ns.append(n)
            rounds.append(res.num_rounds)
        a, _ = fit_power_law(ns, rounds)
        assert a < 0.8

    def test_sbl_composes_with_initial_singletons_and_supersets(self):
        """SBL on an un-normalised input (singletons, nested edges)."""
        H = Hypergraph(
            12,
            [(0,), (0, 1), (1, 2, 3), (1, 2, 3, 4), (5, 6), (6, 7, 8), (9, 10, 11)],
        )
        res = sbl(H, seed=2, p_override=0.4, d_cap_override=3, floor_override=4)
        check_mis(H, res.independent_set)
        assert 0 not in res.independent_set

    def test_large_instance_smoke(self):
        H = uniform_hypergraph(2000, 4000, 3, seed=1)
        res = karp_upfal_wigderson(H, seed=1)
        check_mis(H, res.independent_set)

    def test_result_summaries_tabulate(self):
        from repro.analysis.tables import render_table

        H = uniform_hypergraph(50, 80, 3, seed=0)
        rows = []
        for fn in (beame_luby, greedy_mis):
            s = fn(H, seed=0).summary()
            rows.append([s["algorithm"], s["mis_size"], s["rounds"]])
        out = render_table(["algo", "|I|", "rounds"], rows)
        assert "bl" in out and "greedy" in out
