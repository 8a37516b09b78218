"""Command-line interface: exit codes, output shapes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semrank
from semrank.cli import main
from semrank.fileio import load_dataset, load_graph

# Small dataset flags shared by most invocations to keep the suite fast.
_DATA = ["--num-points", "30", "--clusters", "3", "--seed", "7"]
_SMALL = [*_DATA, "--pool-size", "10", "--k", "3", "--graph-k", "3"]
# sweep-lambda never builds a graph, so it takes no graph flags.
_SWEEP = [*_DATA, "--pool-size", "10", "--k", "3"]


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_writes_a_loadable_dataset(self, tmp_path, capsys):
        out = tmp_path / "data.tsv"
        code, _, err = _run(["generate", *_DATA, "--out", str(out)], capsys)
        assert code == 0
        assert err == ""
        dataset = load_dataset(out)
        assert len(dataset.points) == 30
        assert set(dataset.labels.tolist()) == {0, 1, 2}

    def test_out_flag_is_required(self, capsys):
        code, _, err = _run(["generate", *_DATA], capsys)
        assert code == 1
        assert "semrank generate: error:" in err


class TestCompress:
    def test_csv_to_stdout(self, capsys):
        code, out, err = _run(
            ["compress", *_DATA, "--pool-size", "10", "--k", "3"], capsys
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "method,relevance,diversity,items"
        method, _, _, items = lines[1].split(",")
        assert method == "semantic_compression"
        assert len(items.split(";")) == 3

    def test_reads_a_saved_dataset(self, tmp_path, capsys):
        data = tmp_path / "data.tsv"
        assert main(["generate", *_DATA, "--out", str(data)]) == 0
        capsys.readouterr()
        code, out, _ = _run(
            ["compress", "--data", str(data), *_DATA, "--pool-size", "10", "--k", "3"],
            capsys,
        )
        assert code == 0
        assert "semantic_compression" in out

    def test_selection_size_beyond_pool_is_a_runtime_error(self, capsys):
        code, _, err = _run(
            ["compress", *_DATA, "--pool-size", "5", "--k", "10"], capsys
        )
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--pool-size", "5", "--k", "10"], "k must lie in [1, pool_size], got 10"),
            (["--pool-size", "5", "--k", "0"], "k must lie in [1, pool_size], got 0"),
            ([], "pool_size must lie in [1, num_points], got 50"),
            (["--pool-size", "0"], "pool_size must lie in [1, num_points], got 0"),
        ],
    )
    def test_config_is_validated_before_the_pool(self, flags, message, capsys):
        code, out, err = _run(["compress", *_DATA, *flags], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_loaded_pool_beyond_the_file_is_a_config_error(self, tmp_path, capsys):
        data = tmp_path / "data.tsv"
        assert main(["generate", *_DATA, "--out", str(data)]) == 0
        code, out, err = _run(["compress", "--data", str(data), "--pool-size", "40"], capsys)
        assert (code, out, err) == (2, "", "error: pool_size must lie in [1, num_points], got 40\n")


class TestBuildGraphAndPpr:
    def test_graph_round_trips_and_ppr_ranks(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.tsv"
        code, _, _ = _run(
            ["build-graph", *_DATA, "--graph-k", "3", "--out", str(graph_path)], capsys
        )
        assert code == 0
        graph = load_graph(graph_path)
        assert len(graph.nodes) == 30

        code, out, err = _run(
            ["ppr", "--graph", str(graph_path), "--seeds", "p00,p01"], capsys
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "node,score"
        scores = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(scores) == 30
        assert abs(sum(scores) - 1.0) < 1e-5
        assert scores == sorted(scores, reverse=True)

    def test_ppr_json_format(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.tsv"
        assert main(["build-graph", *_DATA, "--out", str(graph_path)]) == 0
        capsys.readouterr()
        code, out, _ = _run(
            ["ppr", "--graph", str(graph_path), "--seeds", "p00", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert {"node", "score"} == set(payload[0])

    def test_missing_graph_file_is_a_runtime_error(self, tmp_path, capsys):
        code, _, err = _run(
            ["ppr", "--graph", str(tmp_path / "nope.tsv"), "--seeds", "p00"], capsys
        )
        assert code == 2
        assert err.startswith("error: ")

    def test_unknown_seed_is_a_runtime_error(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.tsv"
        assert main(["build-graph", *_DATA, "--out", str(graph_path)]) == 0
        capsys.readouterr()
        code, _, err = _run(
            ["ppr", "--graph", str(graph_path), "--seeds", "zz"], capsys
        )
        assert code == 2
        assert "seed node 'zz' is not in the graph" in err


class TestRetrieve:
    def test_hybrid_row_with_default_beta(self, capsys):
        code, out, _ = _run(["retrieve", *_SMALL], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("hybrid,")

    def test_beta_one_tags_pure_graph_ranking(self, capsys):
        code, out, _ = _run(["retrieve", *_SMALL, "--beta", "1.0"], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("graph_ppr,")


class TestLoadedData:
    @pytest.mark.parametrize("command", ["compress", "retrieve"])
    def test_pool_size_and_echo_follow_the_loaded_file(self, command, tmp_path, capsys):
        # 250 points exceed the --num-points default of 200, which must not
        # bound the pool or appear in the echo when --data is given.
        data = tmp_path / "data.tsv"
        generate = ["generate", "--num-points", "250", "--dim", "3", "--clusters", "4"]
        assert main([*generate, "--out", str(data)]) == 0
        capsys.readouterr()
        code, out, err = _run(
            [command, "--data", str(data), "--pool-size", "220", "--k", "5", "--format", "json"],
            capsys,
        )
        assert (code, err) == (0, "")
        echoed = json.loads(out)["config"]
        assert echoed["pool_size"] == 220
        assert echoed["dataset"]["num_points"] == 250
        assert echoed["dataset"]["dim"] == 3
        assert echoed["dataset"]["num_clusters"] == 4


class TestExperiment:
    def test_reports_all_three_methods(self, capsys):
        code, out, err = _run(["experiment", *_SMALL], capsys)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "method,relevance,diversity,items"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "topk_ann",
            "semantic_compression",
            "graph_ppr",
        ]

    def test_identical_flags_give_identical_bytes(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, _, _ = _run(
                [
                    "experiment",
                    *_SMALL,
                    "--out",
                    str(tmp_path / f"{name}.csv"),
                    "--plot",
                    str(tmp_path / f"{name}.svg"),
                ],
                capsys,
            )
            assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
        assert (tmp_path / "a.svg").read_bytes().startswith(b"<svg ")

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = _run(["experiment", *_SMALL, "--format", "json", "--out", str(out)], capsys)
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert {entry["method"] for entry in payload["results"]} == {
            "topk_ann",
            "semantic_compression",
            "graph_ppr",
        }

    def test_dash_out_means_stdout(self, capsys):
        code, out, _ = _run(["experiment", *_SMALL, "--out", "-"], capsys)
        assert code == 0
        assert out.startswith("method,relevance,diversity,items\n")


class TestSweepLambda:
    def test_csv_has_one_row_per_weight(self, capsys):
        code, out, _ = _run(
            ["sweep-lambda", *_SWEEP, "--lambdas", "0,0.5,2", "--runs", "2"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lambda,relevance,diversity"
        assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "0.5", "2.0"]

    def test_repeated_weights_match_the_single_weight_row(self, capsys):
        args = ["sweep-lambda", *_SWEEP, "--runs", "2", "--lambdas"]
        code, out, _ = _run([*args, "0.25,0.25,1"], capsys)
        assert code == 0
        _, single, _ = _run([*args, "0.25"], capsys)
        rows = out.splitlines()[1:]
        assert rows[0] == rows[1] == single.splitlines()[1]


class TestOnePath:
    """Each single-method command reports the row ``experiment`` reports
    for that method under the same flags."""

    def _row(self, argv, method, capsys):
        code, out, err = _run(argv, capsys)
        assert (code, err) == (0, "")
        rows = [line for line in out.splitlines()[1:] if line.startswith(f"{method},")]
        assert len(rows) == 1
        return rows[0]

    @pytest.mark.parametrize("lam", ["0", "0.25", "2"])
    def test_compress_row_is_the_experiment_row(self, lam, capsys):
        flags = [*_DATA, "--pool-size", "12", "--k", "4", "--lambda", lam]
        method = "semantic_compression"
        assert self._row(["compress", *flags], method, capsys) == self._row(["experiment", *flags], method, capsys)

    @pytest.mark.parametrize("mode", ["none", "sparse", "dense"])
    def test_retrieve_row_is_the_experiment_row(self, mode, capsys):
        flags = [*_SMALL, "--beta", "1.0", "--alpha", "0.3", "--symbolic-mode", mode, "--threshold", "0.6"]
        method = "graph_ppr"
        assert self._row(["retrieve", *flags], method, capsys) == self._row(["experiment", *flags], method, capsys)


class TestExitCodes:
    def test_no_arguments_is_a_usage_error(self, capsys):
        code, _, err = _run([], capsys)
        assert code == 1
        assert "semrank: error:" in err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        code, _, err = _run(["experiment", "--bogus"], capsys)
        assert code == 1
        assert "error:" in err

    def test_bad_choice_is_a_usage_error(self, capsys):
        code, _, err = _run(["experiment", "--symbolic-mode", "ultra"], capsys)
        assert code == 1
        assert "invalid choice" in err

    def test_impossible_placement_is_a_runtime_error(self, tmp_path, capsys):
        code, _, err = _run(
            [
                "generate",
                "--num-points",
                "40",
                "--clusters",
                "40",
                "--out",
                str(tmp_path / "data.tsv"),
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: could not place centroid")

    def test_non_finite_cluster_std_is_a_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "data.tsv"
        code, _, err = _run(["generate", *_DATA, "--cluster-std", "nan", "--out", str(out)], capsys)
        assert code == 2
        assert err == "error: cluster_std must be finite, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_a_failed_plot_leaves_no_report(self, tmp_path, capsys, to_file):
        report = tmp_path / "r.csv"
        flags = ["--dim", "3", "--num-points", "40", "--pool-size", "10", "--plot", str(tmp_path / "p.svg")]
        code, out, err = _run(["experiment", *flags, *(["--out", str(report)] if to_file else [])], capsys)
        assert code == 2
        assert err == "error: plotting requires a 2-dimensional dataset; regenerate with dim=2\n"
        assert out == ""
        assert not report.exists()
        assert not (tmp_path / "p.svg").exists()

    def test_stage_raising_key_error_is_a_runtime_error(self, monkeypatch, capsys):
        import semrank.experiments

        def broken(config, dataset):
            raise KeyError("p99")

        monkeypatch.setattr(semrank.experiments, "build_experiment_graph", broken)
        code, out, err = _run(["experiment", *_SMALL], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: experiment stage 'graph_build' failed: 'p99'\n"

    def test_exception_without_message_names_its_type(self, monkeypatch, capsys):
        import semrank.cli

        def broken(*args, **kwargs):
            raise LookupError

        monkeypatch.setattr(semrank.cli, "generate_clusters", broken)
        code, _, err = _run(["compress", *_DATA], capsys)
        assert code == 2
        assert err == "error: LookupError\n"

    @pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
    def test_interrupts_and_exits_propagate(self, monkeypatch, capsys, exc_type):
        import semrank.cli

        def interrupted(*args, **kwargs):
            raise exc_type

        monkeypatch.setattr(semrank.cli, "generate_clusters", interrupted)
        with pytest.raises(exc_type):
            main(["compress", *_DATA])


class TestImport:
    def test_cli_import_leaves_scipy_out(self):
        # A fresh interpreter: this test process may have scipy loaded already.
        # It runs two commands after the import, since a module can also be
        # loaded on first use (the first np.unique of some inputs loads
        # numpy.ma); numpy.matrixlib is always loaded, so match whole names.
        src = str(Path(semrank.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        runs = [
            ["experiment", "--num-points", "60", "--out", os.devnull],
            ["retrieve", "--num-points", "60", "--symbolic-mode", "dense", "--threshold", "0.5", "--out", os.devnull],
        ]
        probe = (
            "import sys, semrank.cli\n"
            f"for argv in {runs!r}:\n"
            "    assert semrank.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in ('scipy', 'numpy.ma'))))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        assert proc.stdout.strip() == "[]"
