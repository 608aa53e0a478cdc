import csv
import json
import math
import multiprocessing
import os
import re
import signal

import numpy as np
import pytest

import parkde.harness as harness
from parkde.estimators import AnalyticModel, _kernel_table, _product, kde_rows
from parkde.harness import (
    DegenerateMajority,
    ExperimentConfig,
    _curve,
    _replication,
    _truth,
    closed_form_h,
    estimate_mise,
    run_experiment,
    sample_model,
    sweep_bandwidth,
)
from parkde.kernels import from_name
from parkde.quadrature import Grid, integrate_values, simpson_weights

NORMAL4 = AnalyticModel.normal(0.0, 1.0, 4)


@pytest.fixture(autouse=True)
def cold_replication_caches():
    """Every test starts with the kernel-table, truth and Simpson-weight
    caches empty, so counts taken from them do not depend on which tests ran
    before."""
    _kernel_table.cache_clear()
    _truth.cache_clear()
    simpson_weights.cache_clear()


@pytest.fixture(autouse=True)
def no_kept_pool():
    """Every test starts and ends without the harness's kept executor, so a
    pool class that a test sets never serves another test."""
    harness._drop_pool()
    yield
    harness._drop_pool()


class TestSampleModel:
    def test_same_seed_is_bitwise_identical(self):
        a = sample_model(NORMAL4, 100, seed=5)
        b = sample_model(NORMAL4, 100, seed=5)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_subsets_are_distinct_streams(self):
        subs = sample_model(NORMAL4, 100, seed=5)
        assert not np.array_equal(subs[0].values, subs[1].values)

    def test_pooled_mean_near_zero(self):
        subs = sample_model(NORMAL4, 1000, seed=11)
        pooled = np.concatenate([s.values for s in subs])
        # ~4 sigma CLT band around the true mean
        assert abs(pooled.mean()) < 4.0 / math.sqrt(4000)

    def test_gamma_samples_positive(self):
        m = AnalyticModel.gamma(3.0, 3.0, 2)
        subs = sample_model(m, 500, seed=1)
        for s in subs:
            assert (s.values > 0).all()

    def test_requires_seed_and_samples(self):
        with pytest.raises(ValueError):
            sample_model(NORMAL4, 0, seed=1)
        with pytest.raises(ValueError):
            sample_model(NORMAL4, 10, seed=None)

    @pytest.mark.parametrize("seed", [5.5, 5.0, -1, None, "5"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        g = Grid(-4, 4, 101)
        calls = (
            lambda: sample_model(NORMAL4, 10, seed),
            lambda: estimate_mise(NORMAL4, 10, 0.3, 2, seed, g),
            lambda: sweep_bandwidth(NORMAL4, 10, [0.2, 0.25, 0.3, 0.35, 0.4], 2, seed, g),
        )
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"seed must be a non-negative integer, got {seed!r}"

    @pytest.mark.parametrize("model", [NORMAL4, AnalyticModel.gamma(3.0, 3.0, 4)])
    def test_n_draws_are_the_first_n_draws_of_a_larger_n(self, model):
        # n is not part of a stream's key, so `_replication` may draw a key
        # once at its largest n and slice every smaller n from it
        big = sample_model(model, 4000, 9, outer=2, rep=5)
        for n in (1, 250, 1000, 3999):
            small = sample_model(model, n, 9, outer=2, rep=5)
            assert all(np.array_equal(s.values, b.values[:n]) for s, b in zip(small, big))

    def test_numpy_integer_seed_draws_the_int_seeds_samples(self):
        a = sample_model(NORMAL4, 10, np.uint32(5))
        b = sample_model(NORMAL4, 10, 5)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))


def per_row_replication(model, n, h_rows, seed, outer, rep, grid):
    """One replication at one n the long way: per row, one KDE call per
    subset, one product and one integral."""
    kernel = from_name("gaussian")
    samples = sample_model(model, n, seed, outer, rep)
    truth = model.posterior(grid.points)
    weights = simpson_weights(grid.n_points, grid.spacing)
    out = []
    for h_row in h_rows:
        rows = np.stack([kde_rows([s], [[h]], kernel, grid)[0, 0, 0] for s, h in zip(samples, h_row)])
        _, (values,), (err,) = _product(rows[:, None], weights)
        out.append(None if err else integrate_values((values - truth) ** 2, grid.spacing))
    return out


class TestReplication:
    @pytest.mark.parametrize("model,grid", [
        (NORMAL4, Grid(-4, 4, 401)),
        (AnalyticModel.gamma(3.0, 3.0, 4), Grid(*AnalyticModel.gamma(3.0, 3.0, 4).window(), 401)),
    ])
    def test_equals_one_product_per_row(self, model, grid):
        # rows of common and per-subset bandwidths, a row below 4 grid spacings
        # (exact-sum fallback) and a row so narrow that the product underflows
        dx = grid.spacing
        h_rows = [(15 * dx,) * 4, (3 * dx,) * 4, (10 * dx, 20 * dx, 30 * dx, 40 * dx),
                  (1e-4 * dx,) * 4]
        # one key at three sizes, the largest not first: each size's rows
        # come from the first n draws of the key's one draw at n = 50
        sizes = ((20, h_rows), (50, h_rows[:2]), (35, h_rows[2:]))
        for rep in range(3):
            got = _replication((model, sizes, 31, 0, rep, grid))
            assert got[0][3] is None
            assert all(v is not None for v in got[0][:3])
            assert got == [per_row_replication(model, n, rows, 31, 0, rep, grid)
                           for n, rows in sizes]

    def test_builds_its_fixed_arrays_once_per_model_and_grid(self):
        grid = Grid(-4, 4, 401)
        h_rows = [(0.3,) * 4, (0.5,) * 4]
        for rep in range(3):
            _replication((NORMAL4, ((50, h_rows),), 7, 0, rep, grid))
        truth = _truth.cache_info()
        assert (truth.misses, truth.hits) == (1, 2)
        weights = simpson_weights.cache_info()
        assert (weights.misses, weights.hits) == (1, 2)
        tables = _kernel_table.cache_info()
        assert (tables.misses, tables.hits) == (2, 2 * 4 * 3 - 2)

    def test_a_default_sweep_job_builds_each_kernel_table_once(self):
        # a default experiment's sweep job: 25 bandwidths at each of its five
        # n, 125 tables, all of which the next replication finds cached
        cfg = ExperimentConfig(seed=1)
        sizes = tuple((n, [(h,) * 4 for h in cfg.sweep(n)[1]]) for n in cfg.n_per_subset)
        for rep in range(2):
            _replication((NORMAL4, sizes, 7, 1, rep, Grid(-4, 4, 801)))
        tables = _kernel_table.cache_info()
        assert (tables.misses, tables.hits) == (125, 2 * 4 * 125 - 125)

    def test_fixed_arrays_are_read_only(self):
        grid = Grid(-4, 4, 401)
        for array in (_truth(NORMAL4, grid), simpson_weights(grid.n_points, grid.spacing)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        np.testing.assert_array_equal(_truth(NORMAL4, grid), NORMAL4.posterior(grid.points))

    @pytest.mark.parametrize("model,grid", [
        (NORMAL4, Grid(-4, 4, 401)),
        # a narrow window, so draws fall outside the binned window
        (NORMAL4, Grid(-1, 1.5, 201)),
        (AnalyticModel.gamma(3.0, 3.0, 4), Grid(*AnalyticModel.gamma(3.0, 3.0, 4).window(), 401)),
    ])
    def test_warm_caches_give_the_cold_result(self, model, grid):
        dx = grid.spacing
        h_rows = [(15 * dx,) * 4, (10 * dx, 20 * dx, 30 * dx, 40 * dx)]
        jobs = [(model, ((200, h_rows),), 5, 0, rep, grid) for rep in range(3)]
        warm = [_replication(job) for job in jobs]
        assert warm == [_replication(job) for job in jobs]
        for job, want in zip(jobs, warm):
            _kernel_table.cache_clear()
            _truth.cache_clear()
            simpson_weights.cache_clear()
            got = _replication(job)
            assert got == want
            assert all(type(v) is np.float64 for v in got[0])


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
        # the refined argmin lies next to the sweep's lowest MISE
        i = min(range(len(curve.rows)), key=lambda k: curve.rows[k][1])
        assert got_h[max(i - 1, 0)] <= curve.argmin_h <= got_h[min(i + 1, len(got_h) - 1)]

    def test_curve_applies_the_degenerate_majority_rule(self):
        # sweep rows follow estimate_mise's rule: a column with degenerate
        # replications warns, and one with a majority of them raises
        hs = np.linspace(0.1, 0.5, 5)
        ok = [0.1, 0.2, 0.3, 0.4, 0.5]
        with pytest.warns(UserWarning):
            curve = _curve(hs, [[None, 0.2, 0.3, 0.4, 0.5]] + [ok] * 4)
        assert curve.degenerate_count == 1
        assert curve.rows[0][1] == pytest.approx(0.35)
        with pytest.warns(UserWarning), pytest.raises(DegenerateMajority):
            _curve(hs, [[None, None, None, 0.4, 0.5]] + [ok] * 4)

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


@pytest.mark.parametrize("bad", [0.0, -0.3, math.nan, math.inf])
def test_bandwidths_must_be_positive_and_finite(bad):
    g = Grid(-4, 4, 101)
    match = "bandwidth must be positive and finite"
    with pytest.raises(ValueError, match=match):
        estimate_mise(NORMAL4, 50, bad, replications=4, seed=0, grid=g)
    with pytest.raises(ValueError, match=match):
        estimate_mise(NORMAL4, 50, [0.3, 0.3, bad, 0.3], replications=4, seed=0, grid=g)
    with pytest.raises(ValueError, match=match):
        sweep_bandwidth(NORMAL4, 50, [0.1, 0.2, 0.3, 0.4, bad], 4, 0, g, workers=2)


class TestConfig:
    def test_defaults_and_validation(self):
        cfg = ExperimentConfig(seed=1)
        assert cfg.replications == 200
        assert cfg.outer_repeats == 20
        with pytest.raises(ValueError):
            ExperimentConfig(replications=0)
        with pytest.raises(ValueError):
            ExperimentConfig(sweep_lo=2.0, sweep_hi=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(outer_repeats=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n_per_subset=[])

    @pytest.mark.parametrize("ns", [[0], [250, 0], [100, -5, 200]])
    def test_sample_sizes_below_one_rejected(self, ns):
        with pytest.raises(ValueError, match=r"n_per_subset entries must be >= 1, got \["):
            ExperimentConfig(n_per_subset=ns)

    @pytest.mark.parametrize("ns, repeated", [
        ([200, 100, 200], [200]), ([50, 50, 80, 80, 80, 10], [50, 80])])
    def test_repeated_sample_sizes_rejected(self, ns, repeated):
        # a repeated size would recompute the same keys' rows and count them
        # twice in the decay-rate fit
        with pytest.raises(ValueError, match=re.escape(f"repeats sample sizes {repeated}")):
            ExperimentConfig(n_per_subset=ns)

    def test_one_replication_rejected(self):
        # _ise_columns needs two for a standard error; fail before any output
        with pytest.raises(ValueError, match="replications must be >= 2"):
            ExperimentConfig(replications=1)

    def test_grid_bounds_come_as_a_pair(self):
        with pytest.raises(ValueError):
            ExperimentConfig(grid_lo=-3.0)
        with pytest.raises(ValueError):
            ExperimentConfig(grid_hi=3.0)
        assert ExperimentConfig(grid_lo=-3.0, grid_hi=3.0, grid_points=11).grid() == Grid(-3.0, 3.0, 11)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown model family 'Normal'"):
            ExperimentConfig(family="Normal")

    @pytest.mark.parametrize("family, key, value", [
        ("gamma", "mu", 5.0), ("gamma", "sigma", 9.0),
        ("normal", "alpha", 2.0), ("normal", "theta", 1.0),
    ])
    def test_other_familys_parameters_keep_their_defaults(self, family, key, value):
        with pytest.raises(ValueError, match=f"family '{family}' does not use config key '{key}'"):
            ExperimentConfig(family=family, **{key: value})
        # the defaults themselves, given explicitly, are accepted
        ExperimentConfig(family=family, **{key: getattr(ExperimentConfig, key)})

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
        g = Grid.from_bounds(None, None, 801, AnalyticModel.normal(0.0, 1.0, 4).window())
        assert g.lo == -6.0 and g.hi == 6.0
        gg = Grid.from_bounds(None, None, 801, AnalyticModel.gamma(3.0, 3.0, 4).window())
        assert gg.lo > 0 and gg.hi > 20

    def test_default_windows_are_pinned(self):
        # mu +- 6 sigma and (1e-9, alpha theta + 12 sqrt(alpha) theta), exactly
        assert ExperimentConfig().grid() == Grid(-6.0, 6.0, 801)
        assert ExperimentConfig(mu=0.5, sigma=2.0).grid() == Grid(0.5 - 12.0, 0.5 + 12.0, 801)
        hi = 3.0 * 3.0 + 12.0 * math.sqrt(3.0) * 3.0
        assert ExperimentConfig(family="gamma").grid() == Grid(1e-9, hi, 801)

    def test_sweep_spans_lo_to_hi_times_the_closed_form(self):
        cfg = ExperimentConfig(sweep_lo=0.5, sweep_hi=2.0, sweep_count=7)
        h_opt, hs = cfg.sweep(500)
        assert h_opt == closed_form_h(cfg.model(), 500)
        assert hs.size == 7 and hs[0] == 0.5 * h_opt and hs[-1] == 2.0 * h_opt
        np.testing.assert_allclose(np.diff(hs), 0.25 * h_opt, rtol=1e-12)


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
        out = tmp_path / "out"
        written_before_failure = []

        def boom(*a, **kw):
            written_before_failure.append((out / "mise_vs_n.csv").exists())
            raise RuntimeError("forced failure")

        monkeypatch.setattr(harness, "_curve", boom)
        with pytest.raises(RuntimeError):
            run_experiment(cfg)
        assert written_before_failure == [True]
        assert not (out / "mise_vs_n.csv").exists()
        assert not (out / "ratio.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_two_experiments_start_one_pool(self, tmp_path, monkeypatch):
        starts = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        run_experiment(self.small_cfg(tmp_path, workers=2))
        run_experiment(self.small_cfg(tmp_path, workers=2, seed=18))
        assert starts == [2]

    def test_repeated_pooled_experiments_equal_one_worker(self, tmp_path):
        def outputs(workers, seed, out):
            paths = run_experiment(self.small_cfg(
                tmp_path, workers=workers, seed=seed, output_dir=str(tmp_path / out)))
            with open(paths["manifest"]) as fh:
                degenerate = json.load(fh)["degenerate"]
            csvs = []
            for k in ("mise_vs_n", "ratio"):
                with open(paths[k], "rb") as fh:
                    csvs.append(fh.read())
            return csvs, degenerate

        # three experiments in one process on one kept pool, against one worker
        for seed in (17, 18, 17):
            assert outputs(2, seed, f"pooled{seed}") == outputs(1, seed, f"serial{seed}")

    @pytest.mark.parametrize("ns", [[100, 200], [200, 60, 100]], ids=["sorted", "unsorted"])
    @pytest.mark.parametrize("family", ["normal", "gamma"])
    def test_csvs_equal_one_call_at_a_time(self, tmp_path, family, ns):
        cfg = self.small_cfg(tmp_path, family=family, n_per_subset=ns, grid_lo=None, grid_hi=None)
        paths = run_experiment(cfg)
        model, grid = cfg.model(), cfg.grid()
        with open(paths["mise_vs_n"], newline="") as fh:
            mise_rows = list(csv.DictReader(fh))
        with open(paths["ratio"], newline="") as fh:
            ratio_rows = list(csv.DictReader(fh))
        for row in mise_rows:
            n, h = int(row["n"]), float(row["h"])
            est = estimate_mise(model, n, h, cfg.replications, cfg.seed, grid)
            assert row["h"] == repr(closed_form_h(model, n, row["policy"] == "h_opt_baseline"))
            assert (row["mise"], row["stderr"]) == (repr(est.mise), repr(est.stderr))
            assert int(row["degenerate_count"]) == est.degenerate_count
        for row in ratio_rows:
            n = int(row["n"])
            h_opt = closed_form_h(model, n)
            hs = np.linspace(cfg.sweep_lo * h_opt, cfg.sweep_hi * h_opt, cfg.sweep_count)
            argmins = [
                sweep_bandwidth(model, n, hs, cfg.replications, cfg.seed, grid, outer=1 + r).argmin_h
                for r in range(cfg.outer_repeats)
            ]
            ratios = [h_opt / a for a in argmins]
            assert row["h_argmin"] == repr(float(np.median(argmins)))
            assert row["ratio"] == repr(float(np.median(ratios)))

    def test_each_key_is_drawn_once_per_experiment(self, tmp_path, monkeypatch):
        real = harness.sample_model
        calls = []

        def counting(model, n, seed, outer=0, rep=0):
            calls.append((outer, rep, n))
            return real(model, n, seed, outer, rep)

        monkeypatch.setattr(harness, "sample_model", counting)
        run_experiment(self.small_cfg(tmp_path, n_per_subset=[200, 60, 100], replications=3,
                                      outer_repeats=2))
        # one call per (outer, rep) key, at the largest n: 9, not 3 x 9
        assert sorted(calls) == [(outer, rep, 200) for outer in range(3) for rep in range(3)]

    def test_manifest_lists_degenerate_replications(self, tmp_path, monkeypatch):
        real = harness._replication
        chosen = {(0, 3), (0, 7), (2, 5)}  # (outer, rep)

        def degenerate_some(job):
            _, sizes, _, outer, rep, _ = job
            if (outer, rep) in chosen:
                return [[None] * len(h_rows) for _, h_rows in sizes]
            return real(job)

        monkeypatch.setattr(harness, "_replication", degenerate_some)
        with pytest.warns(UserWarning):
            paths = run_experiment(self.small_cfg(tmp_path))
        with open(paths["manifest"]) as fh:
            entries = json.load(fh)["degenerate"]
        with open(paths["mise_vs_n"], newline="") as fh:
            mise_rows = list(csv.DictReader(fh))
        assert all(set(e) == {"n", "outer", "rep", "h"} for e in entries)
        assert {(e["outer"], e["rep"]) for e in entries} == chosen
        policy_entries = [e for e in entries if e["outer"] == 0]
        assert len(policy_entries) == sum(int(r["degenerate_count"]) for r in mise_rows)
        for r in mise_rows:
            hits = [e for e in policy_entries if e["n"] == int(r["n"]) and repr(e["h"]) == r["h"]]
            assert len(hits) == int(r["degenerate_count"]) == 2
        # the outer-2 sweep: each of its 5 rows at both n
        assert len([e for e in entries if e["outer"] == 2]) == 2 * 5

    def test_outputs_equal_at_any_worker_count(self, tmp_path):
        # jobs of 2 x 2 rows (the policies at both n) and 2 x 5 rows (a
        # sweep at both n), dispatched heaviest first; single draws and narrow sweep bandwidths give some
        # degenerate replications, in no column a majority
        cfg = dict(M=4, n_per_subset=[1, 2], sweep_lo=0.1, sweep_hi=1.0, seed=3,
                   grid_lo=-5.0, grid_hi=5.0, grid_points=401)
        outputs = []
        for workers in (1, 2, 3):
            out = str(tmp_path / f"w{workers}")
            with pytest.warns(UserWarning):
                paths = run_experiment(self.small_cfg(tmp_path, output_dir=out, workers=workers, **cfg))
            with open(paths["manifest"]) as fh:
                degenerate = json.load(fh)["degenerate"]
            csvs = [open(paths[k], "rb").read() for k in ("mise_vs_n", "ratio")]
            outputs.append((csvs, degenerate))
        assert outputs[0][1]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_rejects_fewer_than_one_worker(self, tmp_path):
        with pytest.raises(ValueError):
            self.small_cfg(tmp_path, workers=0)


class SerialPool:
    """A pool that runs its jobs in this process and records its events."""

    events = []

    def __init__(self, max_workers):
        self.events.append(("start", type(self).__name__, max_workers))

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)

    def shutdown(self, wait=True):
        self.events.append(("shutdown", type(self).__name__, wait))


def test_pool_never_outnumbers_jobs(monkeypatch):
    monkeypatch.setattr(SerialPool, "events", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    g = Grid(-4, 4, 101)
    serial = estimate_mise(NORMAL4, 50, 0.5, replications=3, seed=1, grid=g)
    pooled = estimate_mise(NORMAL4, 50, 0.5, replications=3, seed=1, grid=g, workers=8)
    assert SerialPool.events == [("start", "SerialPool", 3)]
    assert pooled == serial


def test_a_new_key_or_pid_starts_its_own_pool(monkeypatch):
    class OtherPool(SerialPool):
        pass

    events = []
    monkeypatch.setattr(SerialPool, "events", events)
    g = Grid(-4, 4, 101)

    def call(workers=2):
        return estimate_mise(NORMAL4, 50, 0.5, replications=3, seed=1, grid=g, workers=workers)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    want = call(1)
    assert call() == call() == want
    assert events == [("start", "SerialPool", 2)]
    # another worker count or class: the old pool is shut down, waiting for
    # its workers, before the new one starts
    assert call(3) == want
    monkeypatch.setattr(harness, "ProcessPoolExecutor", OtherPool)
    assert call(3) == want
    assert events[1:] == [("shutdown", "SerialPool", True), ("start", "SerialPool", 3),
                          ("shutdown", "SerialPool", True), ("start", "OtherPool", 3)]
    # a forked child (another pid) starts its own pool and neither reuses
    # nor shuts down its parent's, which the parent then reuses
    parent = os.getpid()
    del events[:]
    monkeypatch.setattr(harness.os, "getpid", lambda: parent + 1)
    assert call(3) == want
    monkeypatch.setattr(harness.os, "getpid", lambda: parent)
    assert call(3) == want
    assert events == [("start", "OtherPool", 3)]
    assert sorted(harness._pools) == [parent, parent + 1]
    del harness._pools[parent + 1]


def test_a_killed_worker_breaks_one_call_and_the_next_starts_afresh():
    from concurrent.futures.process import BrokenProcessPool

    g = Grid(-4, 4, 101)
    args = (NORMAL4, 50, [0.3, 0.4, 0.5, 0.6, 0.7], 6, 1, g)
    want = sweep_bandwidth(*args)
    assert sweep_bandwidth(*args, workers=2) == want
    workers = multiprocessing.active_children()
    assert len(workers) == 2
    os.kill(workers[0].pid, signal.SIGKILL)
    with pytest.raises(BrokenProcessPool):
        sweep_bandwidth(*args, workers=2)
    assert harness._pools == {}
    assert sweep_bandwidth(*args, workers=2) == want
    assert workers[0] not in multiprocessing.active_children()
