"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestDatasetsCommand:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("yeast", "imdb", "uspatent"):
            assert name in out

    def test_backend_flag_is_gone(self, capsys):
        for argv in (["--backend", "set", "datasets"], ["--backend=set", "datasets"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
        assert "unrecognized arguments: --backend=set" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "--backend" not in capsys.readouterr().out


class TestScheduleCommand:
    def test_schedule_values(self, capsys):
        assert main(["schedule", "--scans", "3"]) == 0
        out = capsys.readouterr().out
        assert "1.0000" in out and "0.2500" in out

    def test_schedule_stops_near_half(self, capsys):
        main(["schedule", "--scans", "50"])
        out = capsys.readouterr().out
        assert "0.49" in out


class TestQueryCommand:
    def test_dsql_on_yeast(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "yeast",
                "--scale",
                "0.2",
                "--queries",
                "3",
                "--edges",
                "3",
                "--k",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ms/query" in out and "DSQL" in out

    def test_com_baseline(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "yeast",
                "--scale",
                "0.2",
                "--queries",
                "2",
                "--edges",
                "2",
                "--k",
                "5",
                "--solver",
                "COM",
            ]
        )
        assert code == 0
        assert "COM" in capsys.readouterr().out

    def test_variant_solver(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "yeast",
                "--scale",
                "0.2",
                "--queries",
                "2",
                "--edges",
                "2",
                "--k",
                "5",
                "--solver",
                "DSQL1",
                "--no-phase2",
            ]
        )
        assert code == 0

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["query", "--dataset", "nope"])

    def test_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            main(["query", "--dataset", "yeast", "--solver", "XX"])

    def test_cache_summary_line(self, capsys):
        code = main(
            ["query", "--dataset", "yeast", "--scale", "0.2",
             "--queries", "3", "--edges", "3", "--k", "5"]
        )
        assert code == 0
        assert "query cache:" in capsys.readouterr().out

    def test_parallel_strategy(self, capsys):
        code = main(
            ["query", "--dataset", "yeast", "--scale", "0.2",
             "--queries", "3", "--edges", "3", "--k", "5",
             "--strategy", "thread", "--jobs", "2"]
        )
        assert code == 0
        assert "DSQL" in capsys.readouterr().out

    def test_objective_edge_smoke(self, capsys):
        code = main(
            ["query", "--dataset", "yeast", "--scale", "0.2",
             "--queries", "2", "--edges", "3", "--k", "5",
             "--objective", "edge"]
        )
        assert code == 0
        assert "DSQL" in capsys.readouterr().out

    def test_unknown_objective_rejected(self):
        with pytest.raises(SystemExit):
            main(["query", "--dataset", "yeast", "--objective", "treewidth"])

    def test_baseline_rejects_objective(self):
        with pytest.raises(SystemExit):
            main(
                ["query", "--dataset", "yeast", "--solver", "COM",
                 "--objective", "edge"]
            )

    def test_time_budget_accepted(self, capsys):
        code = main(
            ["query", "--dataset", "yeast", "--scale", "0.2",
             "--queries", "2", "--edges", "2", "--k", "5",
             "--time-budget-ms", "60000"]
        )
        assert code == 0

    def test_baseline_rejects_parallel_flags(self):
        with pytest.raises(SystemExit):
            main(
                ["query", "--dataset", "yeast", "--solver", "COM",
                 "--strategy", "thread"]
            )
        with pytest.raises(SystemExit):
            main(
                ["query", "--dataset", "yeast", "--solver", "FIRSTK",
                 "--time-budget-ms", "10"]
            )


class TestExperimentCommand:
    def _run(self, name, capsys, extra=()):
        code = main(
            [
                "experiment",
                name,
                "--dataset",
                "yeast",
                "--scale",
                "0.2",
                "--queries",
                "2",
                "--edges",
                "3",
                "--k",
                "5",
                *extra,
            ]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_table2(self, capsys):
        out = self._run("table2", capsys)
        assert "embeddings" in out and "ms/query" in out

    def test_table3(self, capsys):
        out = self._run("table3", capsys)
        assert "first-k" in out and "DSQL" in out

    def test_table4(self, capsys):
        out = self._run("table4", capsys)
        assert "SWAP1" in out and "Greedy" in out and "generation" in out

    def test_fig6k(self, capsys):
        out = self._run("fig6k", capsys)
        assert "DSQL cov" in out and "COM cov" in out

    def test_fig9(self, capsys):
        out = self._run("fig9", capsys)
        assert "DSQL0" in out and "DSQLh" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])

    def test_table3_accepts_executor_flags(self, capsys):
        out = self._run("table3", capsys, extra=["--strategy", "thread", "--jobs", "2"])
        assert "DSQL" in out

    def test_other_experiments_reject_executor_flags(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table2", "--dataset", "yeast", "--jobs", "2"])
        with pytest.raises(SystemExit):
            main(["experiment", "fig9", "--dataset", "yeast", "--time-budget-ms", "5"])


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        from repro import __version__

        assert __version__ in out

    def test_module_invocation_prints_version(self):
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(root / "src"), "PATH": ""},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("repro ")


class TestServeCommand:
    def test_serve_without_graphs_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["serve"])
        assert info.value.code != 0

    def test_bad_graph_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--graph", "no-equals-sign"])

    def test_missing_graph_file_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--graph", "g=/no/such/file.txt"])

    @pytest.mark.parametrize("entry", ["[0, 1, 2]", "[0]"])
    def test_graph_file_with_a_non_pair_edge_is_a_usage_error(self, entry, tmp_path, capsys):
        """Was (defect seventeen): a traceback out of ``for u, v in edges``,
        where every other malformed file is a ``parser.error``."""
        path = tmp_path / "bad.json"
        path.write_text('{"labels": ["a", "b", "c"], "edges": [[0, 1], %s]}' % entry)
        with pytest.raises(SystemExit) as info:
            main(["serve", "--graph", f"g={path}"])
        assert info.value.code == 2
        assert "edges must be (u, v) pairs" in capsys.readouterr().err

    def test_bad_dataset_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--dataset", "yeast@huge"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--dataset", "not-a-dataset"])


class TestServePlanCacheFile:
    def test_plan_cache_file_requires_single_worker(self):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "serve",
                    "--dataset",
                    "yeast@0.1",
                    "--workers",
                    "2",
                    "--plan-cache-file",
                    "/tmp/plans.json",
                ]
            )
        assert info.value.code != 0

    def test_compression_flag_parses_on_query(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "yeast",
                "--scale",
                "0.2",
                "--queries",
                "2",
                "--k",
                "3",
                "--compression",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage" in out
