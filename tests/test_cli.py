import csv
import json

import numpy as np
import pytest

from parkde.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main


@pytest.fixture
def subset_dir(tmp_path):
    rng = np.random.default_rng(31)
    d = tmp_path / "subsets"
    d.mkdir()
    for m in range(2):
        values = rng.normal(0.0, 1.0, 120)
        (d / f"subset_{m}.txt").write_text("\n".join(repr(float(v)) for v in values))
    return d


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestFit:
    def test_fixed_bandwidth(self, subset_dir, tmp_path, capsys):
        out = tmp_path / "density.csv"
        code = main([
            "fit", "--subsets", str(subset_dir), "--bandwidth", "0.4",
            "--out", str(out), "--grid-lo", "-4", "--grid-hi", "4",
            "--grid-points", "201",
        ])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["x", "value"]
        assert len(rows) == 202
        xs = np.array([float(r[0]) for r in rows[1:]])
        vals = np.array([float(r[1]) for r in rows[1:]])
        assert (vals >= 0).all()
        # normalized density integrates to one on its own grid
        assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-3)
        captured = capsys.readouterr()
        assert "lambda_hat" in captured.out

    def test_auto_bandwidth_and_comma_list(self, subset_dir, tmp_path):
        out = tmp_path / "density.csv"
        assert main([
            "fit", "--subsets", str(subset_dir), "--bandwidth", "auto",
            "--out", str(out),
        ]) == EXIT_OK
        assert main([
            "fit", "--subsets", str(subset_dir), "--bandwidth", "0.3,0.5",
            "--out", str(out),
        ]) == EXIT_OK

    def test_bad_bandwidth_is_config_error(self, subset_dir, tmp_path):
        out = tmp_path / "density.csv"
        assert main([
            "fit", "--subsets", str(subset_dir), "--bandwidth", "abc",
            "--out", str(out),
        ]) == EXIT_CONFIG
        assert main([
            "fit", "--subsets", str(subset_dir), "--bandwidth", "0.3,0.4,0.5",
            "--out", str(out),
        ]) == EXIT_CONFIG
        assert main([
            "fit", "--subsets", str(subset_dir), "--bandwidth", "-0.2",
            "--out", str(out),
        ]) == EXIT_CONFIG

    def test_missing_subset_dir(self, tmp_path):
        code = main([
            "fit", "--subsets", str(tmp_path / "nope"), "--bandwidth", "0.4",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert code == EXIT_IO

    def test_empty_subset_dir(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        code = main([
            "fit", "--subsets", str(d), "--bandwidth", "0.4",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert code == EXIT_CONFIG

    def test_non_numeric_subset_file(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "a.txt").write_text("1.0 2.0 banana")
        code = main([
            "fit", "--subsets", str(d), "--bandwidth", "0.4",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert code == EXIT_CONFIG


class TestOptimize:
    def test_trace_output(self, subset_dir, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main([
            "optimize", "--subsets", str(subset_dir), "--max-iters", "3",
            "--out", str(out), "--grid-lo", "-4", "--grid-hi", "4",
            "--grid-points", "401",
        ])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["iter", "h_1", "h_2", "amise_hat"]
        assert len(rows) >= 2
        for r in rows[1:]:
            assert float(r[1]) > 0 and float(r[2]) > 0
        captured = capsys.readouterr()
        assert "h = " in captured.out

    def test_defaults_match_library(self, subset_dir, tmp_path):
        from parkde.bandwidth import optimize_bandwidth
        from parkde.cli import _load_subsets
        from parkde.quadrature import Grid

        out = tmp_path / "trace.csv"
        code = main([
            "optimize", "--subsets", str(subset_dir), "--out", str(out),
            "--grid-lo", "-4", "--grid-hi", "4", "--grid-points", "401",
        ])
        assert code == EXIT_OK
        res = optimize_bandwidth(_load_subsets(str(subset_dir)), grid=Grid(-4, 4, 401))
        rows = read_rows(out)
        assert len(rows) == 1 + len(res.trace)
        np.testing.assert_array_equal([float(v) for v in rows[-1][1:3]], res.h)

    def test_grid_points_reach_optimizer(self, subset_dir, monkeypatch):
        import parkde.cli as cli

        seen = []
        real = cli.optimize_bandwidth

        def spy(subsets, kernel=None, opts=None, grid=None):
            seen.append(grid)
            return real(subsets, kernel, opts, grid=grid)

        monkeypatch.setattr(cli, "optimize_bandwidth", spy)
        assert main(["optimize", "--subsets", str(subset_dir), "--grid-points", "101"]) == EXIT_OK
        assert seen[0].n_points == 101

    @pytest.mark.parametrize("command", ["fit", "optimize"])
    def test_lone_grid_bound_is_config_error(self, command, subset_dir, tmp_path):
        argv = [command, "--subsets", str(subset_dir), "--grid-lo", "-3"]
        if command == "fit":
            argv += ["--bandwidth", "0.4", "--out", str(tmp_path / "o.csv")]
        assert main(argv) == EXIT_CONFIG
        assert not (tmp_path / "o.csv").exists()

    def test_epanechnikov_rejected(self, subset_dir, tmp_path):
        code = main([
            "optimize", "--subsets", str(subset_dir),
            "--kernel", "epanechnikov",
        ])
        assert code == EXIT_CONFIG


class TestMiseSweep:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "mise-sweep", "--family", "normal", "-M", "2", "--n", "80",
            "--replications", "6", "--sweep-count", "5", "--seed", "3",
            "--grid-lo", "-4", "--grid-hi", "4", "--grid-points", "201",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == ["h", "mise", "stderr"]
        assert len(rows) == 6
        captured = capsys.readouterr()
        assert "argmin_h" in captured.out

    def test_multiple_n_rejected(self, tmp_path):
        code = main([
            "mise-sweep", "--family", "normal", "--n", "80", "120",
            "--replications", "6", "--sweep-count", "5", "--seed", "3",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_CONFIG

    def test_lone_grid_bound_is_config_error(self, tmp_path):
        code = main([
            "mise-sweep", "--family", "normal", "-M", "2", "--n", "80",
            "--replications", "6", "--sweep-count", "5", "--seed", "3",
            "--grid-hi", "4", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_CONFIG

    def test_removed_policy_flags_rejected(self, capsys):
        for flag in (["--h-policy", "fixed"], ["--h-fixed", "0.3"]):
            with pytest.raises(SystemExit) as exc:
                main(["mise-sweep", "--seed", "3", *flag])
            assert exc.value.code == 2

    def test_seed_flag_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mise-sweep", "--family", "normal"])
        assert exc.value.code == 2


class TestExperimentAndReport:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = {
            "family": "normal",
            "M": 2,
            "n_per_subset": [60, 120],
            "replications": 6,
            "outer_repeats": 2,
            "sweep_count": 5,
            "grid_lo": -4.0,
            "grid_hi": 4.0,
            "grid_points": 201,
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["experiment", "--config", str(cfg_path), "--seed", "5"])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "mise_vs_n.csv").exists()
        assert (tmp_path / "out" / "ratio.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()
        capsys.readouterr()

        code = main(["report", "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "log-log slope" in text
        assert "ratio" in text

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "family": "normal", "M": 2, "n_per_subset": [60],
            "replications": 6, "outer_repeats": 2, "sweep_count": 5,
            "grid_lo": -4.0, "grid_hi": 4.0, "grid_points": 201,
            "output_dir": str(tmp_path / "a"),
        }))
        code = main([
            "experiment", "--config", str(cfg_path), "--seed", "5",
            "--output-dir", str(tmp_path / "b"),
        ])
        assert code == EXIT_OK
        assert (tmp_path / "b" / "manifest.json").exists()
        assert not (tmp_path / "a").exists()

    def test_bad_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "normal", "bogus": 1}))
        assert main(["experiment", "--config", str(cfg_path), "--seed", "1"]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main([
            "experiment", "--config", str(tmp_path / "none.json"), "--seed", "1",
        ]) == EXIT_IO

    def test_report_missing_dir(self, tmp_path):
        assert main(["report", "--output-dir", str(tmp_path / "missing")]) == EXIT_IO
