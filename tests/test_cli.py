"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data import load_csv


class TestParser:
    def test_all_subcommands_parse(self):
        parser = build_parser()
        parser.parse_args(["generate", "out.csv", "--n-points", "100"])
        parser.parse_args(["cluster", "in.csv", "-k", "3", "-l", "4"])
        parser.parse_args(["cluster", "in.csv", "-k", "3", "-l", "4",
                           "--restarts", "3", "--n-jobs", "2"])
        parser.parse_args(["clique", "in.csv", "--tau-percent", "0.5"])
        parser.parse_args(["experiment", "table1"])
        parser.parse_args(["list"])

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestEndToEnd:
    def test_generate_then_cluster(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        rc = main(["generate", str(out), "--n-points", "400",
                   "--n-dims", "8", "--n-clusters", "2",
                   "--cluster-dims", "3", "3", "--seed", "5"])
        assert rc == 0
        ds = load_csv(out)
        assert ds.n_points == 400

        rc = main(["cluster", str(out), "-k", "2", "-l", "3", "--seed", "5"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "PROCLUS result" in captured
        assert "adjusted Rand index" in captured

    def test_clique_command(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        main(["generate", str(out), "--n-points", "300", "--n-dims", "6",
              "--n-clusters", "2", "--cluster-dims", "2", "2", "--seed", "3"])
        rc = main(["clique", str(out), "--tau-percent", "2.0",
                   "--max-dim", "2"])
        assert rc == 0
        assert "CLIQUE result" in capsys.readouterr().out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig7" in out

    def test_experiment_command(self, capsys):
        rc = main(["experiment", "theorem31", "--n-points", "1000"])
        assert rc == 0
        assert "Theorem 3.1" in capsys.readouterr().out

    def test_cluster_without_labels_skips_confusion(self, tmp_path, capsys):
        import numpy as np
        from repro.data import Dataset, save_csv
        rng = np.random.default_rng(0)
        ds = Dataset(points=rng.uniform(0, 100, size=(200, 5)))
        path = tmp_path / "blind.csv"
        save_csv(ds, path)
        rc = main(["cluster", str(path), "-k", "2", "-l", "2", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PROCLUS result" in out
        assert "adjusted Rand" not in out

    def test_generate_named_workload(self, tmp_path, capsys):
        out = tmp_path / "cf.csv"
        rc = main(["generate", str(out), "--workload",
                   "collaborative-filtering", "--seed", "4"])
        assert rc == 0
        ds = load_csv(out)
        assert ds.n_dims == 16  # product categories
        assert ds.n_clusters == 4

    def test_sweep_command(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        main(["generate", str(out), "--n-points", "500", "--n-dims", "8",
              "--n-clusters", "2", "--cluster-dims", "3", "3",
              "--seed", "5"])
        rc = main(["sweep", str(out), "-k", "2",
                   "--l-values", "2", "3", "--k-values", "2", "3",
                   "--seed", "5"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "sweep over l" in text
        assert "picked l" in text
        assert "sweep over k" in text

    def test_orclus_command(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        main(["generate", str(out), "--n-points", "400", "--n-dims", "8",
              "--n-clusters", "2", "--cluster-dims", "3", "3",
              "--seed", "6"])
        rc = main(["orclus", str(out), "-k", "2", "-l", "3", "--seed", "6"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "ORCLUS" in text
        assert "adjusted Rand index" in text

    def test_cluster_with_restarts_and_n_jobs(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        main(["generate", str(out), "--n-points", "400", "--n-dims", "8",
              "--n-clusters", "2", "--cluster-dims", "3", "3", "--seed", "5"])
        capsys.readouterr()
        rc = main(["cluster", str(out), "-k", "2", "-l", "3", "--seed", "5",
                   "--restarts", "2", "--n-jobs", "2"])
        assert rc == 0
        parallel_out = capsys.readouterr().out
        assert "PROCLUS result" in parallel_out
        # bit-identity holds through the CLI: the serial run prints the
        # same summary (modulo the parallelism diagnostics, not printed)
        rc = main(["cluster", str(out), "-k", "2", "-l", "3", "--seed", "5",
                   "--restarts", "2"])
        assert rc == 0
        assert capsys.readouterr().out == parallel_out

    def test_cluster_rejects_bad_n_jobs(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        main(["generate", str(out), "--n-points", "200", "--n-dims", "6",
              "--n-clusters", "2", "--cluster-dims", "2", "2", "--seed", "5"])
        capsys.readouterr()
        rc = main(["cluster", str(out), "-k", "2", "-l", "2", "--seed", "5",
                   "--n-jobs", "0"])
        assert rc == 2
        assert "n_jobs" in capsys.readouterr().err

    def test_run_rejects_malformed_keyword_despite_sanitizing(self, tmp_path,
                                                             capsys):
        # `run` sanitizes (and so degrades) by default; a malformed
        # keyword must still be a usage error, not a k-medoids fallback
        out = tmp_path / "data.csv"
        main(["generate", str(out), "--n-points", "300", "--n-dims", "6",
              "--n-clusters", "3", "--cluster-dims", "3", "3", "3",
              "--seed", "5"])
        capsys.readouterr()
        rc = main(["run", str(out), "-k", "3", "-l", "3", "--seed", "5",
                   "--min-deviation", "1.5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "min_deviation" in captured.err
        assert "fallback" not in captured.out

    def test_experiment_n_jobs_unsupported_is_typed_error(self, capsys):
        # theorem31 takes no n_jobs parameter -> ParameterError, exit 2
        rc = main(["experiment", "theorem31", "--n-points", "1000",
                   "--n-jobs", "2"])
        assert rc == 2
        assert "does not support --n-jobs" in capsys.readouterr().err

    def test_experiment_n_jobs_supported(self, capsys):
        rc = main(["experiment", "ablation-mindev", "--n-points", "600",
                   "--n-jobs", "2"])
        assert rc == 0
        assert "min_deviation" in capsys.readouterr().out

    def test_stability_command(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        main(["generate", str(out), "--n-points", "400", "--n-dims", "8",
              "--n-clusters", "2", "--cluster-dims", "3", "3",
              "--seed", "7"])
        rc = main(["stability", str(out), "-k", "2", "-l", "3",
                   "--n-runs", "2", "--seed", "7"])
        assert rc == 0
        assert "stability over 2 runs" in capsys.readouterr().out


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    from repro import proclus
    from repro.core.serialization import save_result
    from repro.data import generate

    ds = generate(300, 6, 2, cluster_dim_counts=[3, 3], seed=3)
    path = tmp_path_factory.mktemp("model") / "model.npz"
    return save_result(proclus(ds.points, 2, 3, seed=3), path)


class TestBadCsvInput:
    """Malformed input CSVs exit 2 with a one-line message, no traceback."""

    @pytest.mark.parametrize("body, match", [
        ("x0,x1\n1,2\n1,a\n", "could not convert string 'a'"),
        ("x0,x1\n1,2\n3\n", "requires 2 columns but 1 were found"),
        (None, "cannot read"),
    ], ids=["bad-cell", "ragged-row", "missing-file"])
    @pytest.mark.parametrize("command", ["cluster", "predict"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, saved_model,
                                   command, body, match):
        csv = tmp_path / "bad.csv"
        if body is not None:
            csv.write_text(body)
        argv = (["cluster", str(csv), "-k", "1", "-l", "2"]
                if command == "cluster"
                else ["predict", str(saved_model), str(csv)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert match in err and str(csv) in err
