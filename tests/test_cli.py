import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from parkde.bandwidth import normal_reference_h
from parkde.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from parkde.estimators import SubsetSample


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

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_nonfinite_or_nonpositive_bandwidth_is_config_error(
        self, value, subset_dir, tmp_path, capsys
    ):
        out = tmp_path / "density.csv"
        code = main(["fit", "--subsets", str(subset_dir), "--bandwidth", value, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"bandwidth must be positive and finite, got {float(value)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("bounds", [["--grid-lo", "-3", "--grid-hi=inf"],
                                        ["--grid-lo=-1e308", "--grid-hi=1e308"]])
    def test_infinite_grid_is_config_error(self, bounds, subset_dir, tmp_path, capsys):
        # argparse takes a value that starts with "-" only in the --flag=value form
        argv = ["fit", "--subsets", str(subset_dir), "--bandwidth", "0.4",
                "--out", str(tmp_path / "o.csv"), *bounds]
        assert main(argv) == EXIT_CONFIG
        assert "finite width" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_auto_window_is_pinned(self, subset_dir, tmp_path):
        # the pooled range padded by 5 (max h + sd), which perfbench's reference freezes
        out = tmp_path / "density.csv"
        assert main([
            "fit", "--subsets", str(subset_dir), "--bandwidth", "auto", "--out", str(out),
        ]) == EXIT_OK
        subsets = [
            SubsetSample(np.loadtxt(p)) for p in sorted(subset_dir.iterdir())
        ]
        pooled = np.concatenate([s.values for s in subsets])
        margin = 5.0 * normal_reference_h(subsets).max() + 5.0 * np.std(pooled)
        want = np.linspace(pooled.min() - margin, pooled.max() + margin, 2001)
        xs = np.array([float(r[0]) for r in read_rows(out)[1:]])
        np.testing.assert_array_equal(xs, want)

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

    def test_overflowing_product_is_numerical_failure(self, tmp_path, capsys):
        # valid input: 128 tight subsets whose KDE peaks multiply past 1e308
        rng = np.random.default_rng(7)
        d = tmp_path / "tight"
        d.mkdir()
        for m in range(128):
            values = rng.normal(0.0, 1e-3, 200)
            (d / f"subset_{m:03d}.txt").write_text("\n".join(repr(float(v)) for v in values))
        out = tmp_path / "o.csv"
        with np.errstate(over="ignore"):
            code = main(["fit", "--subsets", str(d), "--bandwidth", "auto", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "overflowed" in capsys.readouterr().err
        assert not out.exists()

    def test_underflowing_product_prints_a_plain_mass(self, tmp_path, capsys):
        # two shards 100 standard deviations apart: at h = 1 the product has
        # no mass
        rng = np.random.default_rng(12)
        d = tmp_path / "apart"
        d.mkdir()
        for m, mu in enumerate((-50.0, 50.0)):
            values = rng.normal(mu, 1.0, 200)
            (d / f"subset_{m}.txt").write_text("\n".join(repr(float(v)) for v in values))
        out = tmp_path / "o.csv"
        code = main(["fit", "--subsets", str(d), "--bandwidth", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert "product mass 0.0 underflowed" in err
        assert "np.float64" not in err
        assert not out.exists()


class TestOptimize:
    def test_trace_output(self, subset_dir, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main([
            "optimize", "--subsets", str(subset_dir),
            "--out", str(out), "--grid-lo", "-4", "--grid-hi", "4",
            "--grid-points", "401",
        ])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == [
            "iter", "h_1", "h_2", "amise_hat", "grad_norm", "step", "backtracks", "stop",
            "steps", "fallbacks",
        ]
        assert len(rows) == 2
        r = rows[1]
        assert r[0] == "1" and float(r[1]) > 0 and float(r[2]) > 0
        assert float(r[4]) > 0 and float(r[5]) >= 0 and int(r[6]) >= 0
        assert r[7] in ("step<tol", "zero-gradient", "step-cap", "line-search-failed")
        assert 0 <= int(r[9]) <= int(r[8]) and int(r[8]) >= 1
        captured = capsys.readouterr()
        assert "h = " in captured.out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_many_agreeing_subsets_converge(self, tmp_path, capsys):
        # valid input: 300 subsets of N(0, 1) draws, whose product's mass is
        # about 1.7e-159, so 1 / lambda squared would overflow
        rng = np.random.default_rng(0)
        d = tmp_path / "many"
        d.mkdir()
        for m in range(300):
            values = rng.normal(0.0, 1.0, 500)
            (d / f"subset_{m:03d}.txt").write_text("\n".join(repr(float(v)) for v in values))
        code = main(["optimize", "--subsets", str(d), "--grid-lo", "-5", "--grid-hi", "5",
                     "--grid-points", "801"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        h = np.array([float(v) for v in captured.out.split("\n")[0][len("h = "):].split(", ")])
        assert h.shape == (300,) and np.all(np.isfinite(h)) and np.all(h > 0)
        assert "converged = True" in captured.out

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

    def test_default_grid_points_is_the_library_default(self):
        from parkde.bandwidth import OPTIMIZE_GRID_POINTS
        from parkde.cli import _build_parser

        args = _build_parser().parse_args(["optimize", "--subsets", "d"])
        assert args.grid_points == OPTIMIZE_GRID_POINTS

    def test_max_iters_flag_is_gone(self, subset_dir, capsys):
        # the surrogate is fitted once; the old fit count is an unknown flag
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--subsets", str(subset_dir), "--max-iters", "3"])
        assert exc.value.code == EXIT_CONFIG
        assert "--max-iters" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--tol", "-1"], ["--tol", "0"], ["--tol", "nan"], ["--tol", "inf"]],
    )
    def test_invalid_options_are_config_errors(self, subset_dir, flags, capsys):
        code = main(["optimize", "--subsets", str(subset_dir), "--grid-points", "101", *flags])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_grid_points_reach_optimizer(self, subset_dir, monkeypatch):
        import parkde.cli as cli

        seen = []
        real = cli.optimize_bandwidth

        def spy(subsets, grid=None, tol=None):
            seen.append(grid)
            return real(subsets, grid=grid, tol=tol)

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

    def test_epanechnikov_rejected(self, subset_dir, capsys):
        # the optimizer always fits Gaussian KDEs; --kernel is an unknown flag
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--subsets", str(subset_dir), "--kernel", "epanechnikov"])
        assert exc.value.code == EXIT_CONFIG
        assert "--kernel" in capsys.readouterr().err


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

    def test_closed_form_overflow_is_numerical_failure(self, tmp_path, capsys):
        code = main([
            "mise-sweep", "--family", "gamma", "--alpha", "1e300", "--theta", "1",
            "-M", "4", "--n", "200", "--replications", "4", "--seed", "1",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_closed_form_overflow_names_alpha_and_M(self, tmp_path, capsys):
        code = main([
            "mise-sweep", "--family", "gamma", "--alpha", "1e300", "--theta", "1",
            "-M", "4", "--n", "200", "--replications", "4", "--seed", "1",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "h_opt_gamma overflows a float for alpha=1e+300, M=4" in err

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--family", "gamma", "--alpha", "nan"], "alpha"),
            (["--family", "gamma", "--theta", "inf"], "theta"),
            (["--family", "normal", "--mu", "nan"], "mu"),
            (["--family", "normal", "--sigma", "inf"], "sigma"),
        ],
    )
    def test_non_finite_model_parameter_is_config_error(self, tmp_path, capsys, flags, name):
        code = main([
            "mise-sweep", *flags, "-M", "2", "--n", "100", "--replications", "3",
            "--sweep-count", "5", "--grid-lo", "0.1", "--grid-hi", "30",
            "--grid-points", "201", "--seed", "1", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{name} must be finite" in err
        assert "Warning" not in err
        assert not (tmp_path / "s.csv").exists()

    def test_removed_policy_flags_rejected(self, capsys):
        for flag in (["--h-policy", "fixed"], ["--h-fixed", "0.3"]):
            with pytest.raises(SystemExit) as exc:
                main(["mise-sweep", "--seed", "3", *flag])
            assert exc.value.code == 2

    def test_seed_flag_required(self, capsys):
        assert main(["mise-sweep", "--family", "normal"]) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err

    def test_config_seed_takes_effect(self, tmp_path):
        flags = ["--family", "normal", "-M", "2", "--n", "60", "--replications", "4",
                 "--sweep-count", "5", "--grid-lo", "-4", "--grid-hi", "4",
                 "--grid-points", "101"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 3}))
        by_flag, by_file = tmp_path / "flag.csv", tmp_path / "file.csv"
        assert main(["mise-sweep", *flags, "--seed", "3", "--out", str(by_flag)]) == EXIT_OK
        assert main(["mise-sweep", *flags, "--config", str(cfg_path),
                     "--out", str(by_file)]) == EXIT_OK
        assert by_file.read_text() == by_flag.read_text()

    def test_experiment_only_flags_rejected(self, tmp_path, capsys):
        # a sweep has one outer repeat and writes only --out
        for flag in (["--outer-repeats", "7"], ["--output-dir", str(tmp_path / "nowhere")]):
            with pytest.raises(SystemExit) as exc:
                main(["mise-sweep", "--seed", "3", "--n", "60", *flag])
            assert exc.value.code == 2
            assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "nowhere").exists()

    def test_experiment_only_config_keys_rejected(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        for key, value in (("outer_repeats", 7), ("output_dir", str(tmp_path / "nowhere"))):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"n_per_subset": [60], key: value}))
            code = main(["mise-sweep", "--config", str(cfg_path), "--seed", "1", "--out", str(out)])
            assert code == EXIT_CONFIG
            assert repr(key) in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "nowhere").exists()

    def test_unknown_config_family_is_config_error(self, tmp_path, capsys):
        # argparse's choices guard only --family; a config's family is checked by the model
        out = tmp_path / "s.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "Normal", "n_per_subset": [60]}))
        code = main(["mise-sweep", "--config", str(cfg_path), "--seed", "1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "unknown model family 'Normal'" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_sweep_bandwidth_is_config_error(self, tmp_path, capsys):
        code = main([
            "mise-sweep", "--family", "normal", "-M", "2", "--n", "60",
            "--replications", "4", "--sweep-count", "5", "--sweep-lo", "-1", "--seed", "3",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_CONFIG
        assert "bandwidth must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


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

    @pytest.mark.parametrize("argv, message", [
        (["--grid-lo", "-4", "--grid-hi=inf", "--seed", "1"], "finite width"),
        (["--sweep-lo", "0", "--seed", "1"], "bandwidth must be positive and finite"),
        (["--sweep-hi=inf", "--seed", "1"], "bandwidth must be positive and finite"),
        (["--seed=-1"], "seed must be a non-negative integer"),
        (["--config", "{dir}/cfg.json"], "seed must be a non-negative integer"),
        ([], "--seed"),
    ])
    def test_bad_grid_sweep_or_seed_is_config_error(self, tmp_path, capsys, argv, message):
        # each fails when the config is built, before the output directory
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": 5.5}))
        argv = [a.format(dir=tmp_path) for a in argv]
        code = main([
            "experiment", "--family", "normal", "-M", "2", "--n", "60",
            "--replications", "3", "--outer-repeats", "1", "--sweep-count", "5",
            "--output-dir", str(tmp_path / "out"), *argv,
        ])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, code, message", [
        (["--family", "normal", "--n", "0"], EXIT_CONFIG,
         "n_per_subset entries must be >= 1, got [0]"),
        (["--family", "gamma", "--alpha", "1.2", "--n", "100"], EXIT_NUMERICAL,
         "gamma closed form needs alpha > 1 + 3/(2M)"),
        (["--family", "gamma", "--mu", "5", "--sigma", "9", "--n", "100"], EXIT_CONFIG,
         "family 'gamma' does not use config key 'mu'"),
        (["--family", "normal", "--theta", "2", "--n", "100"], EXIT_CONFIG,
         "family 'normal' does not use config key 'theta'"),
    ], ids=["n zero", "gamma outside closed form", "gamma with mu", "normal with theta"])
    def test_failing_closed_form_or_unused_key_makes_no_directory(
        self, tmp_path, capsys, argv, code, message
    ):
        assert main([
            "experiment", "-M", "2", *argv, "--replications", "3", "--outer-repeats", "1",
            "--sweep-count", "5", "--seed", "1", "--output-dir", str(tmp_path / "o1"),
        ]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o1").exists()

    def test_bad_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "normal", "bogus": 1}))
        assert main(["experiment", "--config", str(cfg_path), "--seed", "1"]) == EXIT_CONFIG

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_fewer_than_one_worker_is_config_error(self, tmp_path, workers):
        code = main([
            "experiment", "--family", "normal", "-M", "2", "--n", "60",
            "--replications", "6", "--sweep-count", "5", "--seed", "1",
            "--workers", workers, "--output-dir", str(tmp_path / "out"),
        ])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_fewer_than_one_outer_repeat_is_config_error(self, tmp_path, repeats):
        # no repeat would leave nan in ratio.csv
        code = main([
            "experiment", "--family", "normal", "-M", "2", "--n", "60",
            "--replications", "6", "--sweep-count", "5", "--seed", "1",
            "--outer-repeats", repeats, "--output-dir", str(tmp_path / "out"),
        ])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_one_replication_is_config_error(self, tmp_path):
        # a standard error needs two replications
        code = main([
            "experiment", "--family", "normal", "--n", "60", "--replications", "1",
            "--outer-repeats", "1", "--seed", "1", "--output-dir", str(tmp_path / "o1"),
        ])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "o1").exists()

    def test_fewer_than_five_sweep_values_is_config_error(self, tmp_path, capsys):
        # the sweep's argmin needs 5 bandwidths; fail before the output directory
        code = main([
            "experiment", "--family", "normal", "-M", "2", "--n", "60",
            "--replications", "3", "--outer-repeats", "1", "--sweep-count", "3",
            "--seed", "1", "--output-dir", str(tmp_path / "o1"),
        ])
        assert code == EXIT_CONFIG
        assert "sweep_count must be >= 5" in capsys.readouterr().err
        assert not (tmp_path / "o1").exists()

    def test_empty_sample_size_list_is_config_error(self, tmp_path):
        # no sample size would leave CSVs holding only their headers
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "family": "normal", "M": 2, "n_per_subset": [], "replications": 6,
            "sweep_count": 5, "output_dir": str(tmp_path / "out"),
        }))
        assert main(["experiment", "--config", str(cfg_path), "--seed", "1"]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("workers", 1.5),
            ("replications", 3.5),
            ("grid_points", 201.5),
            ("n_per_subset", [100.5]),
            ("M", 2.0),  # an integral float is rejected too
            ("sweep_count", 5.0),
            ("outer_repeats", 1.5),
        ],
    )
    def test_non_integer_count_is_config_error(self, tmp_path, capsys, key, value):
        cfg = {"family": "normal", "M": 2, "n_per_subset": [100], "replications": 3,
               "outer_repeats": 1, "sweep_count": 5, "grid_points": 201,
               "output_dir": str(tmp_path / "out"), key: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(cfg_path), "--seed", "1"]) == EXIT_CONFIG
        assert f"{key} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path):
        assert main([
            "experiment", "--config", str(tmp_path / "none.json"), "--seed", "1",
        ]) == EXIT_IO

    def test_report_missing_dir(self, tmp_path):
        assert main(["report", "--output-dir", str(tmp_path / "missing")]) == EXIT_IO


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    """Run the parkde command in a fresh process: (exit code, stderr)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "parkde.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stderr


class TestExitCodeMapping:
    """`main` alone turns an exception into an exit code and a one-line
    message; no failure below reaches the user as a traceback."""

    @pytest.mark.parametrize("command", ["fit", "optimize", "mise-sweep", "experiment"])
    def test_unwritable_output_is_io_error_naming_the_path(self, command, subset_dir, tmp_path):
        missing = tmp_path / "missing" / "out.csv"
        taken = tmp_path / "taken"  # a regular file where a directory is wanted
        taken.write_text("")
        argv, out = {
            "fit": (["fit", "--subsets", str(subset_dir), "--bandwidth", "0.4",
                     "--grid-points", "101", "--out", str(missing)], missing),
            "optimize": (["optimize", "--subsets", str(subset_dir), "--grid-points", "101",
                          "--out", str(missing)], missing),
            "mise-sweep": (["mise-sweep", "--family", "normal", "-M", "2", "--n", "40",
                            "--replications", "3", "--sweep-count", "5", "--grid-points", "101",
                            "--seed", "1", "--out", str(missing)], missing),
            "experiment": (["experiment", "--family", "normal", "-M", "2", "--n", "40",
                            "--replications", "3", "--outer-repeats", "1", "--sweep-count", "5",
                            "--seed", "1", "--output-dir", str(taken)], taken),
        }[command]
        code, err = run_cli(*argv)
        assert code == EXIT_IO
        assert err.startswith("I/O error:") and str(out) in err
        assert "Traceback" not in err

    def test_undecodable_subset_file_is_config_error_naming_the_file(self, tmp_path):
        d = tmp_path / "bytes"
        d.mkdir()
        (d / "a.txt").write_bytes(b"\xff\xfe 1.0 2.0")
        code, err = run_cli("fit", "--subsets", str(d), "--bandwidth", "0.4",
                            "--out", str(tmp_path / "o.csv"))
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and str(d / "a.txt") in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("table, text, column", [
        ("mise_vs_n.csv", "model,M,n,h,mise,stderr,degenerate_count\n"
                          "normal,2,60,0.3,0.01,0.001,0\n", "policy"),
        ("mise_vs_n.csv", "model,M,n,policy,h,mise,stderr,degenerate_count\n"
                          "normal,2,60,h_opt\n", "mise"),
        ("ratio.csv", "model,M,n,h_opt,h_argmin,ratio\n"
                      "normal,2,60,0.3,0.31,0.97\n", "ratio_stderr"),
    ], ids=["header without policy", "short row", "ratio without stderr"])
    def test_malformed_report_table_is_config_error(self, tmp_path, table, text, column):
        good = {
            "mise_vs_n.csv": "model,M,n,policy,h,mise,stderr,degenerate_count\n"
                             "normal,2,60,h_opt,0.3,0.01,0.001,0\n",
            "ratio.csv": "model,M,n,h_opt,h_argmin,ratio,ratio_stderr\n"
                         "normal,2,60,0.3,0.31,0.97,0.01\n",
        }
        for name, content in {**good, table: text}.items():
            (tmp_path / name).write_text(content)
        code, err = run_cli("report", "--output-dir", str(tmp_path))
        assert code == EXIT_CONFIG
        assert err.startswith("config error:")
        assert str(tmp_path / table) in err and repr(column) in err
        assert "Traceback" not in err
