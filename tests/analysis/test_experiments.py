"""Smoke + verdict tests for the experiment runners E1–E18.

Each experiment must (a) run at quick scale, (b) produce a well-formed
table, and (c) reach the verdict the paper predicts (recorded in extras).
The heavy runners are exercised at quick scale only; benchmarks re-run
them under pytest-benchmark.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis import EXPERIMENTS, ExperimentResult, run_experiment


def _well_formed(res: ExperimentResult) -> None:
    assert res.headers
    assert res.rows
    for row in res.rows:
        assert len(row) == len(res.headers)
    md = res.to_markdown()
    assert res.experiment_id in md


class TestRegistry:
    def test_all_fourteen_registered(self):
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 19)}

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("E99")

    def test_case_insensitive(self):
        res = run_experiment("e9")
        assert res.experiment_id == "E9"


class TestQuickVerdicts:
    """One test per experiment: well-formed + paper-predicted verdict."""

    def test_e1_round_bound(self):
        res = run_experiment("E1", seed=0)
        _well_formed(res)
        assert res.extras["all_within"]

    def test_e2_depth_comparison(self):
        res = run_experiment("E2", seed=0)
        _well_formed(res)
        # KUW must stay within its √n envelope shape
        assert res.extras["kuw_exponent"] < 0.7

    def test_e3_bl_polylog(self):
        res = run_experiment("E3", seed=0)
        _well_formed(res)
        # normalised rounds/log²n column bounded by a small constant
        assert all(row[4] < 4.0 for row in res.rows)

    def test_e4_colored_fraction(self):
        res = run_experiment("E4", seed=0)
        _well_formed(res)
        assert res.extras["failure_rate"] <= res.extras["bound"] + 0.05

    def test_e5_sampled_dimension(self):
        res = run_experiment("E5", seed=0)
        _well_formed(res)
        assert res.extras["all_within"]

    def test_e6_unmark_probability(self):
        res = run_experiment("E6", seed=0)
        _well_formed(res)
        assert res.extras["all_below"]

    def test_e7_migration(self):
        res = run_experiment("E7", seed=0)
        _well_formed(res)
        assert res.extras["holds"]
        # Kim–Vu term strictly below Kelsen term in log2 for every row
        for row in res.rows:
            assert row[3] < row[4]

    def test_e8_kuw_sqrt(self):
        res = run_experiment("E8", seed=0)
        _well_formed(res)
        assert res.extras["within_envelope"]
        assert res.extras["exponent"] < 0.7

    def test_e9_parameters(self):
        res = run_experiment("E9", seed=0)
        _well_formed(res)
        # the asymptotic columns must flip from no to yes down the table
        beats = [row[6] for row in res.rows]
        assert beats[0] is False and beats[-1] is True

    def test_e10_matrix(self):
        res = run_experiment("E10", seed=0)
        _well_formed(res)
        algos = {row[1] for row in res.rows}
        assert {"greedy", "bl", "permutation", "kuw", "sbl", "luby"} <= algos

    def test_e11_recurrence_fix(self):
        res = run_experiment("E11", seed=0)
        _well_formed(res)
        assert all(res.extras["paper_ok"].values())
        # original F fails in every row
        assert all(row[5] is False for row in res.rows)

    def test_e12_necessity(self):
        res = run_experiment("E12", seed=0)
        _well_formed(res)
        verdict = {row[0]: row[1] for row in res.rows}
        assert verdict["F(j)=j·F(j−1)+5"] is True
        assert verdict["F(j)=j·F(j−1)+4"] is False

    def test_e13_invariants(self):
        res = run_experiment("E13", seed=0)
        _well_formed(res)
        assert res.extras["caught_all"]

    def test_e14_linear(self):
        res = run_experiment("E14", seed=0)
        _well_formed(res)
        assert res.extras["exponent"] < 0.4

    def test_e15_polynomial_tails(self):
        res = run_experiment("E15", seed=0)
        _well_formed(res)
        assert res.extras["never_exceeded"]
        # the deepest migration row shows the KV < Kelsen gap
        deep = [row for row in res.rows if row[2] - row[1] >= 3]
        assert deep and all(row[7] < row[8] for row in deep)

    def test_e16_potential_decay(self):
        res = run_experiment("E16", seed=0)
        _well_formed(res)
        assert res.extras["growth_ok"]
        # v2 hits zero well below the q_d budget
        for row in res.rows:
            assert row[3] is not None and math.log2(max(row[3], 1)) < row[6]

    def test_e17_permutation_conjecture(self):
        res = run_experiment("E17", seed=0)
        _well_formed(res)
        assert res.extras["worst_exponent"] < 0.3

    def test_e18_greedy_depth(self):
        res = run_experiment("E18", seed=0)
        _well_formed(res)
        assert len(res.rows) == 27  # 3 dimensions x 3 densities x 3 sizes
        for d, _, n, mean, worst, log_n, _ in res.rows:
            assert 1 <= mean <= worst < n
        # Logarithmic, not polynomial: a few rounds per doubling at most.
        assert res.extras["max_slope"] < 2.0
        assert res.extras["worst_ratio"] < 2.0


class TestDeterminism:
    def test_same_seed_same_rows(self):
        a = run_experiment("E1", seed=3)
        b = run_experiment("E1", seed=3)
        assert a.rows == b.rows
