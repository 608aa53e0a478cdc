import json
import math
import os

import numpy as np
import pytest

from parkde.estimators import AnalyticModel
from parkde.harness import (
    DegenerateMajority,
    ExperimentConfig,
    closed_form_h,
    default_model_grid,
    estimate_mise,
    ise,
    run_experiment,
    sample_model,
    sweep_bandwidth,
)
from parkde.quadrature import Grid, integrate

NORMAL4 = AnalyticModel.normal(0.0, 1.0, 4)


class TestSampleModel:
    def test_same_seed_is_bitwise_identical(self):
        a = sample_model(NORMAL4, 4, 100, seed=5)
        b = sample_model(NORMAL4, 4, 100, seed=5)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_subsets_are_distinct_streams(self):
        subs = sample_model(NORMAL4, 4, 100, seed=5)
        assert not np.array_equal(subs[0].values, subs[1].values)

    def test_pooled_mean_near_zero(self):
        subs = sample_model(NORMAL4, 4, 1000, seed=11)
        pooled = np.concatenate([s.values for s in subs])
        # ~4 sigma CLT band around the true mean
        assert abs(pooled.mean()) < 4.0 / math.sqrt(4000)

    def test_gamma_samples_positive(self):
        m = AnalyticModel.gamma(3.0, 3.0, 2)
        subs = sample_model(m, 2, 500, seed=1)
        for s in subs:
            assert (s.values > 0).all()

    def test_requires_seed_and_samples(self):
        with pytest.raises(ValueError):
            sample_model(NORMAL4, 4, 0, seed=1)
        with pytest.raises(ValueError):
            sample_model(NORMAL4, 4, 10, seed=None)


class TestIse:
    def test_identical_densities_give_zero(self):
        g = Grid(-5, 5, 1001)
        f = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        assert ise(f, f, g) == 0.0

    def test_unit_offset_on_unit_window(self):
        g = Grid(0.0, 1.0, 1001)
        f = lambda x: np.exp(-x)
        shifted = lambda x: f(x) + 1.0
        assert ise(f, shifted, g) == pytest.approx(1.0, abs=1e-12)

    def test_shifted_normal_closed_form(self):
        # int (phi(x) - phi(x - d))^2 dx = (1 - exp(-d^2/4)) / sqrt(pi)
        d = 0.1
        g = Grid(-9, 9, 20001)
        phi = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        expected = (1.0 - math.exp(-d * d / 4.0)) / math.sqrt(math.pi)
        assert ise(phi, lambda x: phi(x - d), g) == pytest.approx(expected, rel=1e-8)


class TestEstimateMise:
    def test_basic_properties(self):
        g = Grid(-4, 4, 401)
        est = estimate_mise(NORMAL4, 400, 0.4, replications=20, seed=3, grid=g)
        assert est.mise > 0
        assert est.stderr >= 0
        assert est.degenerate_count == 0

    def test_determinism_across_worker_counts(self):
        g = Grid(-4, 4, 401)
        a = estimate_mise(NORMAL4, 300, 0.4, replications=12, seed=9, grid=g, workers=1)
        b = estimate_mise(NORMAL4, 300, 0.4, replications=12, seed=9, grid=g, workers=3)
        assert a == b

    def test_stderr_shrinks_with_replications(self):
        g = Grid(-4, 4, 401)
        small = estimate_mise(NORMAL4, 300, 0.4, replications=25, seed=4, grid=g)
        large = estimate_mise(NORMAL4, 300, 0.4, replications=100, seed=4, grid=g)
        ratio = small.stderr / large.stderr
        # 1/sqrt(R) scaling gives 2, statistically fuzzy
        assert 1.3 < ratio < 3.0

    def test_requires_two_replications(self):
        with pytest.raises(ValueError):
            estimate_mise(NORMAL4, 100, 0.3, replications=1, seed=0, grid=Grid(-4, 4, 101))

    def test_mise_tracks_leading_theory_at_optimum(self):
        from parkde.amise import amise_product
        from parkde.bandwidth import h_opt_normal

        m = AnalyticModel.normal(0.0, 1.0, 1)
        n = 2000
        h = h_opt_normal(n, 1, 1.0)
        g = Grid(-5, 5, 1001)
        est = estimate_mise(m, n, h, replications=120, seed=21, grid=g)
        theory = amise_product(m, [n], [h], g)
        # the leading-order formula overshoots the exact finite-sample MISE
        # for normal data, so the band is asymmetric around 1
        assert 0.6 < est.mise / theory < 1.2


class TestSweep:
    def test_curve_shape_and_argmin(self):
        g = Grid(-4, 4, 301)
        hs = np.linspace(0.15, 0.7, 9)
        curve = sweep_bandwidth(NORMAL4, 400, hs, replications=30, seed=6, grid=g)
        assert len(curve.rows) == 9
        got_h = [r[0] for r in curve.rows]
        assert got_h == sorted(got_h)
        for _, mise, se in curve.rows:
            assert mise > 0 and se >= 0
        assert hs.min() <= curve.argmin_h <= hs.max()
        assert curve.argmin_mise == min(r[1] for r in curve.rows)

    def test_undersmoothing_hurts(self):
        g = Grid(-4, 4, 301)
        hs = [0.02, 0.2, 0.3, 0.4, 0.55]
        curve = sweep_bandwidth(NORMAL4, 400, hs, replications=25, seed=7, grid=g)
        by_h = {round(r[0], 3): r[1] for r in curve.rows}
        assert by_h[0.02] > min(by_h.values()) * 3

    def test_deterministic_and_worker_invariant(self):
        g = Grid(-4, 4, 301)
        hs = np.linspace(0.2, 0.5, 5)
        c1 = sweep_bandwidth(NORMAL4, 200, hs, replications=10, seed=8, grid=g, workers=1)
        c2 = sweep_bandwidth(NORMAL4, 200, hs, replications=10, seed=8, grid=g, workers=2)
        assert c1.rows == c2.rows
        assert c1.argmin_h == c2.argmin_h

    def test_mise_estimate_is_a_sweep_column(self):
        g = Grid(-4, 4, 201)
        hs = np.linspace(0.2, 0.5, 7)
        curve = sweep_bandwidth(NORMAL4, 150, hs, replications=8, seed=12, grid=g, outer=1)
        for h, mise, se in (curve.rows[0], curve.rows[3]):
            est = estimate_mise(NORMAL4, 150, h, replications=8, seed=12, grid=g, outer=1)
            assert (est.mise, est.stderr) == (mise, se)

    def test_needs_five_values(self):
        with pytest.raises(ValueError):
            sweep_bandwidth(NORMAL4, 200, [0.2, 0.3], 10, 0, Grid(-4, 4, 101))


class TestConfig:
    def test_defaults_and_validation(self):
        cfg = ExperimentConfig(seed=1)
        assert cfg.replications == 200
        assert cfg.outer_repeats == 20
        with pytest.raises(ValueError):
            ExperimentConfig(replications=0)
        with pytest.raises(ValueError):
            ExperimentConfig(sweep_lo=2.0, sweep_hi=1.0)

    def test_grid_bounds_come_as_a_pair(self):
        with pytest.raises(ValueError):
            ExperimentConfig(grid_lo=-3.0)
        with pytest.raises(ValueError):
            ExperimentConfig(grid_hi=3.0)
        assert ExperimentConfig(grid_lo=-3.0, grid_hi=3.0, grid_points=11).grid() == Grid(-3.0, 3.0, 11)

    def test_from_json_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "normal", "bogus_key": 1}))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(str(path))

    def test_from_json_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "gamma", "M": 2, "seed": 7}))
        cfg = ExperimentConfig.from_json(str(path))
        assert cfg.family == "gamma"
        assert cfg.M == 2
        assert cfg.model().alpha == 3.0

    def test_default_grids(self):
        g = default_model_grid(AnalyticModel.normal(0.0, 1.0, 4))
        assert g.lo == -6.0 and g.hi == 6.0
        gg = default_model_grid(AnalyticModel.gamma(3.0, 3.0, 4))
        assert gg.lo > 0 and gg.hi > 20


def test_closed_form_h_policies():
    m = AnalyticModel.normal(0.0, 1.0, 4)
    assert closed_form_h(m, 1000) == pytest.approx(0.3319678, abs=1e-6)
    assert closed_form_h(m, 1000, baseline=True) == pytest.approx(0.2660650, abs=1e-6)
    mg = AnalyticModel.gamma(3.0, 3.0, 4)
    assert closed_form_h(mg, 1000) > closed_form_h(mg, 4000)


class TestRunExperiment:
    def small_cfg(self, tmp_path, **kw):
        base = dict(
            family="normal",
            M=2,
            n_per_subset=[100, 200],
            replications=10,
            outer_repeats=2,
            sweep_count=5,
            seed=17,
            grid_lo=-4.0,
            grid_hi=4.0,
            grid_points=201,
            output_dir=str(tmp_path / "out"),
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_outputs_and_determinism(self, tmp_path):
        cfg = self.small_cfg(tmp_path)
        paths = run_experiment(cfg)
        first = {k: open(p, "rb").read() for k, p in paths.items() if k != "manifest"}
        with open(paths["manifest"]) as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 17
        assert manifest["config"]["M"] == 2

        rows = open(paths["mise_vs_n"]).read().strip().splitlines()
        assert rows[0] == "model,M,n,policy,h,mise,stderr,degenerate_count"
        assert len(rows) == 1 + 2 * 2  # two n values, two policies
        rrows = open(paths["ratio"]).read().strip().splitlines()
        assert rrows[0] == "model,M,n,h_opt,h_argmin,ratio,ratio_stderr"

        # rerun with a different worker count: byte-identical CSVs
        cfg2 = self.small_cfg(tmp_path, output_dir=str(tmp_path / "out2"), workers=2)
        paths2 = run_experiment(cfg2)
        second = {k: open(p, "rb").read() for k, p in paths2.items() if k != "manifest"}
        assert first == second

    def test_requires_seed(self, tmp_path):
        cfg = self.small_cfg(tmp_path)
        cfg.seed = None
        with pytest.raises(ValueError):
            run_experiment(cfg)

    def test_partial_outputs_removed_on_failure(self, tmp_path, monkeypatch):
        cfg = self.small_cfg(tmp_path)
        import parkde.harness as harness

        def boom(*a, **kw):
            raise RuntimeError("forced failure")

        monkeypatch.setattr(harness, "sweep_bandwidth", boom)
        with pytest.raises(RuntimeError):
            run_experiment(cfg)
        out = tmp_path / "out"
        assert not (out / "mise_vs_n.csv").exists()
        assert not (out / "ratio.csv").exists()
        assert not (out / "manifest.json").exists()
