"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.hypergraph.hio import load


@pytest.fixture
def instance(tmp_path):
    path = tmp_path / "inst.txt"
    rc = main(["generate", "uniform", "--n", "40", "--m", "60", "--d", "3",
               "--seed", "1", "-o", str(path)])
    assert rc == 0
    return path


class TestGenerate:
    def test_writes_parsable_instance(self, instance):
        H = load(instance)
        assert H.num_vertices == 40
        assert H.num_edges == 60

    def test_stdout_output(self, capsys):
        rc = main(["generate", "graph", "--n", "10", "--avg-degree", "2", "-o", "-"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("universe 10")

    @pytest.mark.parametrize("family,extra", [
        ("mixed", ["--m", "20", "--dims", "2,4"]),
        ("linear", ["--m", "10", "--d", "3"]),
        ("bounded", []),
    ])
    def test_families(self, tmp_path, family, extra):
        path = tmp_path / "x.txt"
        rc = main(["generate", family, "--n", "50", *extra, "--seed", "0",
                   "-o", str(path)])
        assert rc == 0
        assert load(path).num_vertices >= 1

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for p in (a, b):
            main(["generate", "uniform", "--n", "20", "--m", "15", "--seed", "9",
                  "-o", str(p)])
        assert a.read_text() == b.read_text()


class TestInfo:
    def test_prints_stats(self, instance, capsys):
        assert main(["info", str(instance)]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "40" in out
        assert "Δ" in out

    def test_high_dimension_skips_delta(self, tmp_path, capsys):
        # dimension 13 exceeds the enumerable-Δ display cutoff
        path = tmp_path / "big.txt"
        path.write_text("universe 20\n" + " ".join(str(v) for v in range(13)) + "\n")
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Δ" not in out
        assert "13" in out  # dimension shown

    def test_edgeless_instance(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("universe 5\n")
        assert main(["info", str(path)]) == 0
        assert "edges" in capsys.readouterr().out


class TestSolve:
    @pytest.mark.parametrize("algo", ["sbl", "bl", "kuw", "greedy", "permutation"])
    def test_algorithms(self, instance, capsys, algo):
        assert main(["solve", str(instance), "--algorithm", algo, "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mis_size"] == len(doc["independent_set"])
        assert doc["n"] == 40

    def test_costs_flag(self, instance, capsys):
        assert main(["solve", str(instance), "--algorithm", "bl", "--costs"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pram"]["depth"] > 0

    def test_pretty(self, instance, capsys):
        assert main(["solve", str(instance), "--pretty"]) == 0
        assert "\n  " in capsys.readouterr().out

    def test_luby_on_graph(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        main(["generate", "graph", "--n", "30", "--avg-degree", "3", "-o", str(path)])
        assert main(["solve", str(path), "--algorithm", "luby"]) == 0

    def test_linear_on_linear(self, tmp_path, capsys):
        path = tmp_path / "l.txt"
        main(["generate", "linear", "--n", "40", "--m", "15", "--d", "3",
              "-o", str(path)])
        assert main(["solve", str(path), "--algorithm", "linear"]) == 0


class TestCheck:
    def test_valid_set(self, instance, capsys):
        # get a valid MIS from solve, feed it to check
        main(["solve", str(instance), "--algorithm", "greedy", "--seed", "0"])
        doc = json.loads(capsys.readouterr().out)
        ids = ",".join(str(v) for v in doc["independent_set"])
        assert main(["check", str(instance), "--set", ids]) == 0
        assert "valid" in capsys.readouterr().out

    def test_not_maximal(self, instance, capsys):
        assert main(["check", str(instance), "--set", ""]) == 2
        assert "NOT maximal" in capsys.readouterr().out

    def test_not_independent(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("universe 3\n0 1\n")
        assert main(["check", str(path), "--set", "0,1"]) == 1
        assert "NOT independent" in capsys.readouterr().out


class TestCampaign:
    def test_summary_table(self, capsys):
        rc = main(["campaign", "--sizes", "30", "--algorithms", "greedy,kuw",
                   "--repeats", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign summary" in out and "greedy" in out and "kuw" in out

    def test_csv_export(self, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        rc = main(["campaign", "--sizes", "30", "--algorithms", "greedy",
                   "--repeats", "1", "--csv", str(path)])
        assert rc == 0
        assert path.read_text().startswith("instance,algorithm")

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            main(["campaign", "--algorithms", "quantum"])


class TestSaveTrace:
    def test_trace_file_loadable(self, instance, tmp_path, capsys):
        from repro.analysis.traces import load_result

        path = tmp_path / "trace.json"
        rc = main(["solve", str(instance), "--algorithm", "bl",
                   "--save-trace", str(path)])
        assert rc == 0
        back = load_result(path)
        assert back.algorithm == "bl"
        assert back.num_rounds > 0


class TestTelemetry:
    def test_solve_streams_versioned_events(self, instance, tmp_path, capsys):
        from repro.obs.events import read_events

        path = tmp_path / "run.jsonl"
        rc = main(["solve", str(instance), "--algorithm", "sbl", "--seed", "2",
                   "--telemetry", str(path)])
        assert rc == 0
        events = read_events(path)
        assert events[0]["type"] == "run"
        assert events[0]["algorithm"] == "sbl"
        names = {e["name"] for e in events if e["type"] == "span"}
        assert "sbl/solve" in names
        assert any(e["type"] == "metrics" for e in events)
        # telemetry must not leak the pram block into stdout without --costs
        doc = json.loads(capsys.readouterr().out)
        assert "pram" not in doc

    def test_solve_telemetry_with_costs(self, instance, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        rc = main(["solve", str(instance), "--algorithm", "bl", "--costs",
                   "--telemetry", str(path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pram"]["depth"] > 0

    def test_experiment_telemetry(self, tmp_path, capsys):
        from repro.obs.events import read_events

        path = tmp_path / "exp.jsonl"
        rc = main(["experiment", "E12", "--telemetry", str(path)])
        assert rc == 0
        events = read_events(path)
        assert events[0]["type"] == "run"
        assert events[0]["experiment"] == "E12"

    def test_trace_summary(self, instance, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        main(["solve", str(instance), "--algorithm", "bl", "--telemetry", str(path)])
        capsys.readouterr()
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bl/solve" in out and "per-phase rollup" in out

    def test_trace_compare(self, instance, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["solve", str(instance), "--algorithm", "bl", "--seed", "1",
              "--telemetry", str(a)])
        main(["solve", str(instance), "--algorithm", "bl", "--seed", "2",
              "--telemetry", str(b)])
        capsys.readouterr()
        assert main(["trace", "compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "Δ wall" in out and "bl/solve" in out

    def test_trace_compare_disjoint_spans_fails_cleanly(
        self, instance, tmp_path, capsys
    ):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["solve", str(instance), "--algorithm", "bl", "--telemetry", str(a)])
        main(["solve", str(instance), "--algorithm", "kuw", "--telemetry", str(b)])
        capsys.readouterr()
        assert main(["trace", "compare", str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert "no span names" in err

    def test_trace_diff(self, instance, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["solve", str(instance), "--algorithm", "bl", "--seed", "1",
              "--telemetry", str(a)])
        main(["solve", str(instance), "--algorithm", "bl", "--seed", "2",
              "--telemetry", str(b)])
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Δself ms" in out and "bl/solve" in out

    def test_trace_diff_disjoint_fails_cleanly(self, instance, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["solve", str(instance), "--algorithm", "bl", "--telemetry", str(a)])
        main(["solve", str(instance), "--algorithm", "kuw", "--telemetry", str(b)])
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 1
        assert "no span paths" in capsys.readouterr().err

    def test_solve_profile_and_trace_flame(self, instance, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        speedscope = tmp_path / "prof.json"
        rc = main(["solve", str(instance), "--algorithm", "bl",
                   "--telemetry", str(path), "--profile", "300"])
        assert rc == 0
        capsys.readouterr()
        assert main(["trace", "flame", str(path),
                     "--speedscope", str(speedscope)]) == 0
        out = capsys.readouterr().out
        assert "samples by span" in out
        assert json.loads(speedscope.read_text())["profiles"]

    def test_trace_flame_without_profile_fails_cleanly(
        self, instance, tmp_path, capsys
    ):
        path = tmp_path / "run.jsonl"
        main(["solve", str(instance), "--algorithm", "bl", "--telemetry", str(path)])
        capsys.readouterr()
        assert main(["trace", "flame", str(path)]) == 1
        assert "no profile events" in capsys.readouterr().err

    def test_campaign_heartbeat_and_metrics_out(self, tmp_path, capsys):
        from repro.obs.export import parse_openmetrics

        prom = tmp_path / "campaign.prom"
        rc = main(["campaign", "--sizes", "40", "--repeats", "2",
                   "--heartbeat", "0.05", "--metrics-out", str(prom)])
        assert rc == 0
        doc = parse_openmetrics(prom.read_text())
        assert doc.value("repro_exec_cells_done_total", command="campaign") == 6.0
        assert doc.value("repro_exec_cells_total", command="campaign") == 6.0
        assert doc.value("repro_exec_eta_s", command="campaign") == 0.0

    def test_metrics_out_without_heartbeat_writes_final_snapshot(
        self, tmp_path, capsys
    ):
        from repro.obs.export import parse_openmetrics

        prom = tmp_path / "campaign.prom"
        rc = main(["campaign", "--sizes", "40", "--repeats", "1",
                   "--metrics-out", str(prom)])
        assert rc == 0
        doc = parse_openmetrics(prom.read_text())
        assert doc.value("repro_exec_cells_done_total", command="campaign") == 3.0


class TestExperiment:
    def test_theory_experiment(self, capsys):
        assert main(["experiment", "E12"]) == 0
        assert "necessity" in capsys.readouterr().out

    def test_ablation(self, capsys):
        assert main(["experiment", "A5"]) == 0
        assert "EREW" in capsys.readouterr().out

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError):
            main(["experiment", "E99"])


class TestFuzz:
    def test_run_case_budget_clean(self, tmp_path, capsys):
        rc = main(["fuzz", "run", "--budget", "12", "--seed", "0",
                   "-o", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "12 cases" in out and "clean" in out
        assert list(tmp_path.glob("*.npz")) == []

    def test_run_time_budget(self, tmp_path, capsys):
        rc = main(["fuzz", "run", "--budget", "500ms", "--seed", "0",
                   "-o", str(tmp_path)])
        assert rc == 0
        assert "budget=0.5s" in capsys.readouterr().out

    def test_run_solver_subset(self, tmp_path, capsys):
        rc = main(["fuzz", "run", "--budget", "6", "--seed", "3",
                   "--solvers", "sbl,greedy", "-o", str(tmp_path)])
        assert rc == 0

    def test_run_writes_telemetry(self, tmp_path):
        from repro.obs.events import read_events

        stream = tmp_path / "fuzz.jsonl"
        rc = main(["fuzz", "run", "--budget", "4", "--seed", "0",
                   "-o", str(tmp_path), "--telemetry", str(stream)])
        assert rc == 0
        events = read_events(stream)
        assert events[0]["type"] == "run"
        assert events[0]["command"] == "fuzz-run"
        names = {e["name"] for e in events if e["type"] == "span"}
        assert "fuzz/run" in names and "fuzz/case" in names

    def test_replay_committed_corpus(self, capsys):
        from pathlib import Path

        corpus = Path(__file__).parent / "regressions"
        rc = main(["fuzz", "replay", str(corpus)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reproducers clean" in out
        assert "FAIL" not in out

    def test_replay_empty_dir_fails(self, tmp_path, capsys):
        assert main(["fuzz", "replay", str(tmp_path)]) == 1

    def test_shrink_healthy_instance_refuses(self, instance, tmp_path, capsys):
        rc = main(["fuzz", "shrink", str(instance), "-o", str(tmp_path)])
        assert rc == 1
        assert "nothing to shrink" in capsys.readouterr().out


class TestStream:
    def test_generated_instance_json(self, capsys):
        rc = main(["stream", "--blocks", "4", "--block-n", "10", "--block-m", "14",
                   "--d", "3", "--steps", "8", "--batch", "3", "--seed", "5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["steps"] == 8
        assert doc["strategy"] == "auto"
        assert doc["repairs"] + doc["recomputes"] + doc["noops"] == 8
        assert doc["certified"] is True
        assert len(doc["chain"]) == 64

    def test_deterministic_chain(self, capsys):
        argv = ["stream", "--blocks", "3", "--block-n", "8", "--steps", "5",
                "--seed", "9"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_forced_strategy_matches_auto(self, capsys):
        base = ["stream", "--blocks", "3", "--block-n", "8", "--steps", "6",
                "--seed", "4"]
        assert main(base) == 0
        auto = json.loads(capsys.readouterr().out)
        assert main([*base, "--strategy", "recompute"]) == 0
        forced = json.loads(capsys.readouterr().out)
        assert forced["recomputes"] + forced["noops"] == 6
        # Bit-identity: same final state and hash chain either way.
        assert forced["mis_size"] == auto["mis_size"]
        assert forced["chain"] == auto["chain"]

    def test_instance_file_input(self, instance, capsys):
        rc = main(["stream", str(instance), "--steps", "4", "--seed", "2"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["certified"] is True

    def test_telemetry_and_metrics(self, tmp_path, capsys):
        from repro.obs.events import read_events

        stream = tmp_path / "stream.jsonl"
        prom = tmp_path / "stream.prom"
        rc = main(["stream", "--blocks", "3", "--block-n", "8", "--steps", "6",
                   "--seed", "3", "--telemetry", str(stream),
                   "--metrics-out", str(prom)])
        assert rc == 0
        events = read_events(stream)
        assert events[0]["command"] == "stream"
        names = {e["name"] for e in events if e["type"] == "span"}
        assert "dynamic/update" in names
        assert names & {"dynamic/repair", "dynamic/recompute"}
        text = prom.read_text()
        assert "repro_dynamic_updates_total" in text


class TestCachedParser:
    """``main`` reuses one parser per process: calls must not see each
    other's flags, and a rejected argument must not break the next call."""

    def _solve(self, capsys, *argv) -> str:
        assert main(["solve", *argv]) == 0
        return capsys.readouterr().out

    def test_parser_is_built_once(self):
        from repro import cli

        assert cli._parser() is cli._parser()

    def test_calls_are_independent(self, instance, capsys):
        plain = self._solve(capsys, str(instance))
        flagged = self._solve(
            capsys, str(instance), "--pretty", "--costs", "--algorithm", "kuw", "--seed", "4"
        )
        other = self._solve(capsys, str(instance), "--algorithm", "greedy")
        assert self._solve(capsys, str(instance)) == plain
        assert "\n  " in flagged and json.loads(flagged)["pram"]["depth"] > 0
        assert json.loads(flagged)["algorithm"] == "kuw"
        for out in (plain, other):
            assert out.count("\n") == 1 and "pram" not in json.loads(out)
        assert json.loads(plain)["algorithm"] == "sbl"
        assert json.loads(other)["algorithm"] == "greedy"

    def test_bad_argument_leaves_parser_usable(self, instance, capsys):
        plain = self._solve(capsys, str(instance), "--seed", "2")
        for argv in (
            ["solve", str(instance), "--algorithm", "quantum"],
            ["solve"],
            ["solve", str(instance), "--seed", "x", "--pretty"],
            ["no-such-command"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()
        assert self._solve(capsys, str(instance), "--seed", "2") == plain
