import math
import tracemalloc

import numpy as np
import pytest

from parkde import estimators
from parkde.bandwidth import GammaDomain
from parkde.estimators import (
    AnalyticModel,
    DegenerateProduct,
    SubsetSample,
    _kernel_table,
    fit_subset_kde,
    grid_rows,
    kde_rows,
    normalize,
)
from parkde.kernels import Kernel, from_name
from parkde.quadrature import Grid, integrate, integrate_values

GAUSS = from_name("gaussian")


@pytest.fixture(autouse=True)
def cold_kernel_tables():
    """Every test starts with the kernel-table cache empty, so counts taken
    from it do not depend on which tests ran before."""
    _kernel_table.cache_clear()


# Bound on max |kde_rows - exact| / max |exact| by (kernel, derivative) and
# h / spacing, for 4000 N(0, 1) draws plus draws beyond the grid, G in
# {201, 401, 2001}. Over five seeds the largest errors were 1.4e-3, 2.3e-2
# and 1.6e-2 at 4 spacings and 1.6e-4, 2.9e-3 and 2.6e-3 at 10; the error
# falls as (spacing / h)^2, so a ratio between rows takes the row below it.
ON_GRID_BOUND = {
    ("gaussian", 0): {4: 1.95e-3, 10: 2.85e-4},
    ("gaussian", 2): {4: 2.55e-2, 10: 4.35e-3},
    ("epanechnikov", 0): {4: 2.4e-2, 10: 3.75e-3},
}


def on_grid_bound(kernel, deriv, ratio):
    rows = ON_GRID_BOUND[(kernel, deriv)]
    return rows[max(r for r in rows if r <= ratio)]


def kde_of(values, h, kernel=GAUSS):
    return fit_subset_kde(SubsetSample(np.asarray(values, dtype=float)), h, kernel)


def exact_product(post, x):
    """The normalized product at x from its components' exact sums."""
    return np.prod([k(x) for k in post.components], axis=0) / post.lambda_hat


class TestSubsetSample:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            SubsetSample(np.array([]))
        with pytest.raises(ValueError):
            SubsetSample(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            SubsetSample(np.ones((2, 2)))

    def test_size(self):
        assert SubsetSample(np.arange(5.0)).size == 5


class TestSubsetKde:
    def test_two_point_value(self):
        # mean of phi(1) and phi(-1)
        kde = kde_of([-1.0, 1.0], 1.0)
        assert kde(0.0) == pytest.approx(0.2419707, abs=5e-8)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(0)
        kde = kde_of(rng.normal(0, 1, 300), 0.25)
        assert integrate(kde, Grid(-8, 8, 4001)) == pytest.approx(1.0, abs=1e-8)

    def test_epanechnikov_values(self):
        kde = kde_of([0.0], 2.0, from_name("epanechnikov"))
        assert kde(0.0) == pytest.approx(0.375, rel=1e-12)
        assert kde(3.0) == 0.0

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(1)
        kde = kde_of(rng.normal(0, 1, 50), 0.4)
        eps = 1e-5
        for x in (-0.8, 0.1, 1.5):
            fd1 = (kde(x + eps) - kde(x - eps)) / (2 * eps)
            fd2 = (kde(x + eps) - 2 * kde(x) + kde(x - eps)) / eps**2
            assert kde(x, 1) == pytest.approx(fd1, abs=1e-8)
            assert kde(x, 2) == pytest.approx(fd2, abs=1e-5)

    def test_on_grid_orders_share_one_binning(self):
        rng = np.random.default_rng(2)
        kde = kde_of(rng.normal(0, 1, 80), 0.3)
        g = Grid(-2, 2, 201)  # h = 15 spacings: binned
        p, pdd = kde_rows([kde.sample], [[kde.bandwidth]], kde.kernel, g, (0, 2))[0, 0]
        np.testing.assert_array_equal(
            p, kde_rows([kde.sample], [[kde.bandwidth]], kde.kernel, g)[0, 0, 0]
        )
        np.testing.assert_array_equal(
            pdd, kde_rows([kde.sample], [[kde.bandwidth]], kde.kernel, g, (2,))[0, 0, 0]
        )

    @pytest.mark.parametrize("order", ["ascending", "shuffled"])
    def test_kde_rows_match_one_bandwidth_calls(self, order):
        rng = np.random.default_rng(8)
        g = Grid(-4, 4, 401)
        # draws inside, beyond and on the edge of the grid, and half a spacing
        # beyond the extension of the h = 0.3 row, which puts weight into its
        # outermost bins
        edge = (math.ceil(GAUSS.reach * 0.3 / g.spacing) + 0.5) * g.spacing
        outside = [-9.0, -4.3, 4.0, 4.6, -4.0 - edge, 4.0 + edge]
        sample = SubsetSample(np.concatenate([rng.normal(0, 1, 2000), outside]))
        # 3 and 3.9 spacings and a reach beyond the grid fall back; the rest bin
        hs = [0.06, 0.078, 0.08, 0.13, 0.3, 0.7, 1e9]
        if order == "shuffled":
            hs = [hs[i] for i in rng.permutation(len(hs))]
        (rows,) = kde_rows([sample], [hs], GAUSS, g, (0, 2))
        assert rows.shape == (len(hs), 2, g.n_points)
        for h, row in zip(hs, rows):
            np.testing.assert_array_equal(row, kde_rows([sample], [[h]], GAUSS, g, (0, 2))[0, 0])

    def test_kde_rows_of_many_samples_match_one_sample_calls(self):
        rng = np.random.default_rng(9)
        g = Grid(-4, 4, 401)
        # draws beyond the grid, beyond the h = 0.7 row's extension of 5.6 on
        # each side, and half a spacing beyond the h = 0.3 row's extension
        edge = (math.ceil(GAUSS.reach * 0.3 / g.spacing) + 0.5) * g.spacing
        outside = [-12.0, -4.3, 4.6, 12.0, -4.0 - edge, 4.0 + edge]
        # subsets 0 and 2 have one size and share h = 0.3, so one kernel table;
        # subset 1 is smaller, so its h = 0.3 row needs a table of its own
        samples = [
            SubsetSample(np.concatenate([rng.normal(mu, 1, n), outside]))
            for mu, n in ((0.0, 1500), (0.5, 300), (-0.3, 1500))
        ]
        # a bandwidth per (subset, column): 3 and 3.9 spacings and a reach
        # beyond the grid fall back to the exact sum; the rest are binned
        hs = [[0.3, 0.06, 0.13], [0.13, 0.3, 1e9], [0.7, 0.3, 0.078]]
        rows = kde_rows(samples, hs, GAUSS, g, (0, 2))
        assert rows.shape == (3, 3, 2, g.n_points)
        for sample, h_row, got in zip(samples, hs, rows):
            for h, row in zip(h_row, got):
                want = kde_rows([sample], [[h]], GAUSS, g, (0, 2))[0, 0]
                np.testing.assert_array_equal(row, want)
        with pytest.raises(ValueError, match="bandwidths must have shape"):
            kde_rows(samples, hs[:2], GAUSS, g)

    def test_a_second_call_builds_no_kernel_table(self):
        g = Grid(-4.0, 4.0, 401)
        rng = np.random.default_rng(8)
        hs = [[0.2, 0.4], [0.2, 0.4]]
        draws = [SubsetSample(rng.normal(size=300)) for _ in range(4)]
        kde_rows(draws[:2], hs, GAUSS, g, derivs=(0, 2))
        # one entry per h for the one sample size, holding both orders
        assert _kernel_table.cache_info().misses == 2
        kde_rows(draws[2:], hs, GAUSS, g, derivs=(0, 2))
        assert _kernel_table.cache_info().misses == 2
        kde_rows([SubsetSample(rng.normal(size=301))], [[0.2]], GAUSS, g)
        assert _kernel_table.cache_info().misses == 3

    def test_kernel_tables_are_read_only_and_never_handed_out(self):
        g = Grid(-4.0, 4.0, 401)
        sample = SubsetSample(np.random.default_rng(9).normal(size=300))
        rows = kde_rows([sample], [[0.3]], GAUSS, g)
        table = _kernel_table(GAUSS, 0.3, 300, (0,), g.spacing)
        assert not table.flags.writeable
        assert rows.flags.writeable and not np.shares_memory(rows, table)
        want = rows.copy()
        rows[:] = -1.0
        np.testing.assert_array_equal(kde_rows([sample], [[0.3]], GAUSS, g), want)

    @pytest.mark.parametrize("lo, hi", [(-6.0, 6.0), (-0.5, 1.0)])
    def test_warm_kernel_tables_give_the_cold_rows(self, lo, hi):
        # (-0.5, 1.0) leaves draws outside the binned window
        g = Grid(lo, hi, 301)
        rng = np.random.default_rng(10)
        samples = [SubsetSample(rng.normal(size=400)) for _ in range(3)]
        hs = [[0.15, 0.3], [0.2, 0.3], [0.15, 0.4]]
        for kernel, derivs in ((GAUSS, (0, 1, 2)), (from_name("epanechnikov"), (0,))):
            _kernel_table.cache_clear()
            cold = kde_rows(samples, hs, kernel, g, derivs)
            built = _kernel_table.cache_info().misses
            warm = kde_rows(samples, hs, kernel, g, derivs)
            assert _kernel_table.cache_info().misses == built
            np.testing.assert_array_equal(warm, cold)

    def test_kernel_table_orders_share_one_kernel_evaluation(self):
        # K, K' and K'' from one exp equal the one-order tables bit for bit
        g = Grid(-4.0, 4.0, 401)
        both = _kernel_table(GAUSS, 0.3, 300, (0, 1, 2), g.spacing)
        L = math.ceil(GAUSS.reach * 0.3 / g.spacing)
        t = np.arange(-L, L + 1) * (g.spacing / 0.3)
        for k, d in enumerate((0, 1, 2)):
            np.testing.assert_array_equal(both[k], _kernel_table(GAUSS, 0.3, 300, (d,), g.spacing)[0])
            (one,) = GAUSS.derivs(t, (d,))
            np.testing.assert_array_equal(both[k], one / (300 * 0.3 ** (d + 1)))

    def test_on_grid_falls_back_to_the_exact_sum(self):
        values = np.random.default_rng(6).normal(0, 1, 500)
        g = Grid(-4, 4, 801)
        # 3.9 grid spacings per bandwidth, and a kernel reaching far beyond the grid
        for h in (0.039, 1e9):
            kde = kde_of(values, h)
            rows = kde_rows([kde.sample], [[kde.bandwidth]], kde.kernel, g, (0, 2))[0, 0]
            np.testing.assert_array_equal(rows[0], kde(g.points, 0))
            np.testing.assert_array_equal(rows[1], kde(g.points, 2))
        kde = kde_of(values, 0.04)  # 4 spacings: binned
        assert not np.array_equal(
            kde_rows([kde.sample], [[kde.bandwidth]], kde.kernel, g)[0, 0, 0], kde(g.points)
        )

    @pytest.mark.parametrize("kernel,deriv", list(ON_GRID_BOUND))
    @pytest.mark.parametrize("G", [201, 401, 2001])
    @pytest.mark.parametrize("ratio", [4, 6, 10, 20, 50])
    def test_on_grid_error_against_exact_sum(self, kernel, deriv, G, ratio):
        g = Grid(-4, 4, G)
        h = ratio * g.spacing
        rng = np.random.default_rng(G + ratio)
        # draws beyond the grid: within the binning extension, beyond it, on the edge
        outside = [-4.0 - 3.0 * h, -4.0 - 20.0 * h, 4.0 + 9.0 * h, 4.0]
        kde = kde_of(np.concatenate([rng.normal(0, 1, 4000), outside]), h, from_name(kernel))
        exact = kde(g.points, deriv)
        binned = kde_rows([kde.sample], [[kde.bandwidth]], kde.kernel, g, (deriv,))[0, 0, 0]
        err = np.abs(binned - exact).max() / np.abs(exact).max()
        assert err <= on_grid_bound(kernel, deriv, ratio)

    def test_exact_sum_memory_is_bounded(self):
        kde = kde_of(np.random.default_rng(7).normal(0, 1, 200_000), 0.1)
        x = np.linspace(-6, 6, 2001)
        tracemalloc.start()
        try:
            vals = kde(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20  # the 2001 x 200,000 pair matrix is 3.2 GB
        assert integrate_values(vals, x[1] - x[0]) == pytest.approx(1.0, abs=1e-6)

    def test_exact_fallback_takes_every_order_from_one_derivs_call_per_block(self, monkeypatch):
        # 500 draws in blocks of 65536 // 801 = 81 draws: 7 blocks
        monkeypatch.setattr(estimators, "_BLOCK_PAIRS", 2**16)
        sample = SubsetSample(np.random.default_rng(11).normal(0, 1, 500))
        g = Grid(-4, 4, 801)
        calls = []
        derivs = Kernel.derivs

        def counting_derivs(kernel, t, orders):
            calls.append(tuple(orders))
            return derivs(kernel, t, orders)

        monkeypatch.setattr(Kernel, "derivs", counting_derivs)
        for h in (0.039, 1e9):  # 3.9 spacings, and a reach beyond the grid
            calls.clear()
            rows = kde_rows([sample], [[h]], GAUSS, g, (0, 1, 2))[0, 0]
            assert calls == [(0, 1, 2)] * 7
            kde = fit_subset_kde(sample, h, GAUSS)
            for k, d in enumerate((0, 1, 2)):
                (one,) = kde_rows([sample], [[h]], GAUSS, g, (d,))[0, 0]
                np.testing.assert_array_equal(rows[k], one)
                np.testing.assert_array_equal(rows[k], kde(g.points, d))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-110, 1e150])
    def test_every_path_names_h_where_the_weight_scale_fails(self, scale):
        # h = scale / 10: n h^3 underflows to 0 at 1e-110 and overflows at
        # 1e150, while n h, for the values, stays a float
        h = scale / 10
        kde = kde_of(np.random.default_rng(12).normal(0, scale, 300), h)
        x = np.linspace(-4 * scale, 4 * scale, 801)  # h = 10 spacings: binned
        assert np.isfinite(kde(x)).all()
        want = (f"kernel weights are not finite at bandwidth h={h!r}: n h^(d+1) over- or "
                f"underflows a float for n=300, d in (2,)")
        calls = [
            lambda: kde(x, 2),
            lambda: kde_rows([kde.sample], [[h]], GAUSS, Grid(x[0], x[-1], 801), (2,)),
            lambda: kde_rows([kde.sample], [[h]], GAUSS, Grid(x[0], x[-1], 11), (2,)),
        ]
        for call in calls:
            with pytest.raises(FloatingPointError) as exc:
                call()
            assert str(exc.value) == want

    @pytest.mark.parametrize("kernel,deriv,message", [
        ("epanechnikov", 2, "kernel family 'epanechnikov' has no analytic derivatives"),
        ("gaussian", 3, "derivative order must be in 0..2, got 3"),
    ], ids=["epanechnikov-2", "gaussian-3"])
    def test_every_path_rejects_a_derivative_alike(self, kernel, deriv, message):
        # `Kernel.derivs` is the one check, on the binned path, the exact
        # fallback and the exact sum alike
        g = Grid(-2, 2, 101)
        kde = kde_of([0.0, 1.0], 0.5, from_name(kernel))
        calls = [
            lambda: kde_rows([kde.sample], [[0.5]], kde.kernel, g, (0, deriv)),  # 12.5 spacings
            lambda: kde_rows([kde.sample], [[0.1]], kde.kernel, g, (0, deriv)),  # 2.5 spacings
            lambda: kde(0.0, deriv),
        ]
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    def test_fit_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            kde_of([0.0], 0.0)
        with pytest.raises(ValueError):
            kde_of([0.0], math.inf)


def per_sample_rows(samples, bandwidths, kernel, grid, derivs):
    """Binned `kde_rows` the long way: each (sample, bandwidth) binned on
    its own over the grid extended by its own L points, and each order's
    table built by its own `Kernel.derivs` call. Every bandwidth must be binned."""
    dx, G = grid.spacing, grid.n_points
    out = np.empty((len(samples), len(bandwidths[0]), len(derivs), G))
    for m, (sample, h_row) in enumerate(zip(samples, bandwidths)):
        n = sample.size
        for r, h in enumerate(h_row):
            L = math.ceil(kernel.reach * h / dx)
            assert h >= 4 * dx and L <= G
            u = (sample.values - grid.lo) / dx
            u = u[(u >= -1.0 - L) & (u < G + L)]
            j = np.floor(u)
            u = u - j
            j = j.astype(np.intp) + L + 1
            bins = np.bincount(j, weights=1.0 - u, minlength=G + 2 * L + 2)
            bins[1:] += np.bincount(j, weights=u, minlength=G + 2 * L + 1)
            t = np.arange(-L, L + 1) * (dx / h)
            for k, d in enumerate(derivs):
                (table,) = kernel.derivs(t, (d,))
                table = table / (n * h ** (d + 1))
                out[m, r, k] = np.convolve(bins[1:-1], table, mode="valid")
    return out


class TestGroupedBinning:
    """`kde_rows` bins a group of samples in one pass and still gives each
    sample's rows bit for bit."""

    GRID = Grid(-1.0, 1.5, 201)

    def samples(self, sizes, seed=20):
        """The first sample has a draw outside every bandwidth's extended
        window, and the others lie inside the grid."""
        rng = np.random.default_rng(seed)
        wide = rng.normal(0.0, 3.0, sizes[0])
        wide[0] = 40.0
        return [SubsetSample(wide)] + [
            SubsetSample(rng.uniform(-1.0, 1.5, n)) for n in sizes[1:]
        ]

    @pytest.mark.parametrize("sizes", [(4000, 1, 7, 250), (7, 250, 4000, 1), (250,), (4000,)])
    @pytest.mark.parametrize("kernel,derivs", [(GAUSS, (0, 1, 2)), (GAUSS, (2, 0)),
                                               (from_name("epanechnikov"), (0,))])
    def test_groups_equal_per_sample_binning(self, sizes, kernel, derivs):
        samples = self.samples(sizes)
        dx = self.GRID.spacing
        hs = [[4 * dx, 0.1 + 0.02 * m, 0.3] for m in range(len(samples))]
        np.testing.assert_array_equal(kde_rows(samples, hs, kernel, self.GRID, derivs),
                                      per_sample_rows(samples, hs, kernel, self.GRID, derivs))

    def test_a_small_group_limit_splits_the_samples(self, monkeypatch):
        sizes = (4000, 1, 7, 250, 300, 300, 300, 7)
        samples = self.samples(sizes)
        hs = [[0.1 + 0.01 * m, 0.25] for m in range(len(samples))]
        want = per_sample_rows(samples, hs, GAUSS, self.GRID, (0, 2))
        calls = []
        bincount = np.bincount

        def counting_bincount(x, *args, **kwargs):
            calls.append(len(x))
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting_bincount)
        np.testing.assert_array_equal(kde_rows(samples, hs, GAUSS, self.GRID, (0, 2)), want)
        assert len(calls) == 2
        monkeypatch.setattr(estimators, "_GROUP_DRAWS", 600)
        calls.clear()
        np.testing.assert_array_equal(kde_rows(samples, hs, GAUSS, self.GRID, (0, 2)), want)
        # groups (4000), (1, 7, 250, 300), (300, 300) and (7); the wide first
        # sample's draws outside the window are dropped before binning
        assert max(calls) <= 600 + max(sizes)
        assert calls[0] == calls[1] < 4000
        assert calls[2:] == [558, 558, 600, 600, 7, 7]


class TestProduct:
    def test_product_is_componentwise_product(self):
        rng = np.random.default_rng(3)
        kdes = [kde_of(rng.normal(0, 1, 40), 0.35) for _ in range(3)]
        g = Grid(-5, 5, 1001)
        post = normalize(kdes, g)
        rows = kde_rows([k.sample for k in kdes], [[0.35]] * 3, GAUSS, g)[:, 0, 0]
        np.testing.assert_allclose(post.values * post.lambda_hat, rows[0] * rows[1] * rows[2],
                                   rtol=1e-13)
        x = np.linspace(-1.5, 1.5, 11)
        expected = kdes[0](x) * kdes[1](x) * kdes[2](x)
        np.testing.assert_allclose(exact_product(post, x) * post.lambda_hat, expected, rtol=1e-13)
        assert exact_product(post, x[5]) * post.lambda_hat == pytest.approx(expected[5], rel=1e-13)
        assert exact_product(post, np.array([])).shape == (0,)

    def test_normalized_product_integrates_to_one(self):
        rng = np.random.default_rng(4)
        g = Grid(-6, 6, 3001)
        kdes = [kde_of(rng.normal(0, 1, 150), 0.3) for _ in range(4)]
        post = normalize(kdes, g)
        assert integrate_values(post.values, g.spacing) == pytest.approx(1.0, abs=1e-9)
        # c = 1 / lambda normalizes the exact sums too, up to the binning
        # error of the grid rows lambda comes from (4.8e-6 here)
        assert integrate_values(exact_product(post, g.points), g.spacing) == pytest.approx(
            1.0, abs=2e-5)

    def test_stored_grid_values_match_posterior(self):
        # values come from the binned grid rows, the exact product from the exact sums
        rng = np.random.default_rng(5)
        g = Grid(-6, 6, 1201)  # h = 30 spacings
        post = normalize([kde_of(rng.normal(0, 1, 150), 0.3) for _ in range(4)], g)
        err = np.abs(post.values - exact_product(post, g.points)).max() / post.values.max()
        assert err <= on_grid_bound("gaussian", 0, 30)

    def test_grid_rows_rejects_a_mixed_source(self):
        g = Grid(-4, 4, 101)
        kde = kde_of([0.0, 1.0], 0.5)
        epan = kde_of([0.0, 1.0], 0.5, from_name("epanechnikov"))
        model = AnalyticModel.normal(0.0, 1.0, 2)
        for source in ([kde, model.subset], [model.subset, kde], [kde, epan]):
            with pytest.raises(ValueError, match="subset KDEs of one kernel or callables"):
                grid_rows(source, g)
        with pytest.raises(ValueError, match="subset KDEs of one kernel or callables"):
            normalize([kde, model.subset], g)

    def test_disjoint_supports_are_degenerate(self):
        g = Grid(-50, 50, 2001)
        kdes = [kde_of([-40.0], 0.05), kde_of([40.0], 0.05)]
        with pytest.raises(DegenerateProduct):
            normalize(kdes, g)

    def test_subsets_twenty_bandwidths_apart_are_degenerate(self):
        # grid rows are exactly zero beyond the kernel's reach of 8 h, so the
        # product vanishes; the exact sums would give a mass near 1e-43
        g = Grid(-5, 5, 1001)  # h = 10 spacings
        kdes = [kde_of([-1.0], 0.1), kde_of([1.0], 0.1)]
        with pytest.raises(DegenerateProduct):
            normalize(kdes, g)


class TestAnalyticModel:
    def test_normal_posterior_shrinks_by_sqrt_m(self):
        m = AnalyticModel.normal(0.0, 1.0, 4)
        # product of M identical normals is a normal with sd sigma/sqrt(M)
        x = np.linspace(-2, 2, 9)
        sd = 0.5
        expected = np.exp(-0.5 * (x / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        np.testing.assert_allclose(m.posterior(x), expected, rtol=1e-12)

    def test_normal_lambda_closed_form(self):
        # the mass normalize forms for M copies of the subset density, against
        # int N(0, s)^M = (2 pi s^2)^((1 - M) / 2) / sqrt(M)
        for M in (1, 2, 4, 8):
            m = AnalyticModel.normal(0.0, 1.3, M)
            post = normalize([m.subset] * M, Grid(-9, 9, 8001))
            lam = (2.0 * math.pi * 1.3**2) ** ((1 - M) / 2.0) / math.sqrt(M)
            assert post.lambda_hat == pytest.approx(lam, rel=1e-9)
            assert 1.0 / post.lambda_hat == pytest.approx(1.0 / lam, rel=1e-9)

    def test_gamma_lambda_against_quadrature(self):
        # the posterior is p1^M / lambda, so p1(x)^M / posterior(x) is lambda
        m = AnalyticModel.gamma(3.0, 3.0, 4)
        post = normalize([m.subset] * 4, Grid(1e-9, 60.0, 20001))
        lam = m.subset(5.0) ** 4 / m.posterior(5.0)
        assert post.lambda_hat == pytest.approx(lam, rel=1e-8)

    def test_gamma_posterior_is_normalized_product(self):
        m = AnalyticModel.gamma(3.0, 2.0, 3)
        lam = integrate(lambda x: m.subset(x) ** 3, Grid(1e-9, 60.0, 20001))
        x = np.linspace(0.5, 12.0, 40)
        np.testing.assert_allclose(m.posterior(x), m.subset(x) ** 3 / lam, rtol=1e-9)

    def test_subset_derivatives_match_finite_differences(self):
        for m in (AnalyticModel.normal(0.0, 1.0, 3), AnalyticModel.gamma(3.0, 3.0, 2)):
            x0 = 1.7
            eps = 1e-5
            fd1 = (m.subset(x0 + eps) - m.subset(x0 - eps)) / (2 * eps)
            fd2 = (m.subset(x0 + eps) - 2 * m.subset(x0) + m.subset(x0 - eps)) / eps**2
            assert m.subset(x0, 1) == pytest.approx(fd1, rel=1e-7)
            assert m.subset(x0, 2) == pytest.approx(fd2, rel=1e-4)

    def test_gamma_pdf_rejects_negative_argument(self):
        m = AnalyticModel.gamma(3.0, 1.0, 1)
        with pytest.raises(ValueError):
            m.subset(-0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnalyticModel.normal(0.0, -1.0, 2)
        with pytest.raises(ValueError):
            AnalyticModel.gamma(0.9, 1.0, 2)
        with pytest.raises(ValueError):
            AnalyticModel("cauchy", 2)
        with pytest.raises(ValueError):
            AnalyticModel.normal(0.0, 1.0, 0)

    @pytest.mark.parametrize(
        "family, params",
        [("normal", {"mu": math.nan}), ("normal", {"sigma": math.inf}),
         ("gamma", {"alpha": math.nan}), ("gamma", {"theta": math.inf}),
         ("gamma", {"mu": -math.inf})],
    )
    def test_non_finite_parameters_are_rejected(self, family, params):
        (name,) = params
        with pytest.raises(ValueError, match=f"{name} must be finite") as exc:
            AnalyticModel(family, 4, **params)
        assert not isinstance(exc.value, GammaDomain)

    def test_M_must_be_an_integer(self):
        with pytest.raises(ValueError, match="M must be an integer"):
            AnalyticModel.normal(0.0, 1.0, 2.0)
        assert AnalyticModel.normal(0.0, 1.0, np.int64(2)) == AnalyticModel.normal(0.0, 1.0, 2)

    def test_sampling_determinism_and_support(self):
        m = AnalyticModel.gamma(3.0, 3.0, 1)
        a = m.sample_subset(np.random.default_rng(9), 500)
        b = m.sample_subset(np.random.default_rng(9), 500)
        np.testing.assert_array_equal(a, b)
        assert (a > 0).all()

    def test_density_methods_agree(self):
        m = AnalyticModel.normal(0.0, 1.0, 2)
        assert m.subset(0.3) == pytest.approx(math.exp(-0.045) / math.sqrt(2 * math.pi), rel=1e-15)
        # M = 2 unit normals multiply to a mass of 1 / (2 sqrt(pi))
        assert m.posterior(0.3) == pytest.approx(
            m.subset(0.3) ** 2 * 2.0 * math.sqrt(math.pi), rel=1e-12
        )
