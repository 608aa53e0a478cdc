import math

import numpy as np
import pytest

from parkde.estimators import (
    AnalyticModel,
    DegenerateProduct,
    SubsetSample,
    eval_product,
    fit_subset_kde,
    normalize,
)
from parkde.kernels import from_name
from parkde.quadrature import Grid, integrate, integrate_values

GAUSS = from_name("gaussian")


def kde_of(values, h, kernel=GAUSS):
    return fit_subset_kde(SubsetSample(np.asarray(values, dtype=float)), h, kernel)


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

    def test_value_and_curvature_consistent(self):
        rng = np.random.default_rng(2)
        kde = kde_of(rng.normal(0, 1, 80), 0.3)
        x = np.linspace(-2, 2, 21)
        p, pdd = kde.value_and_curvature(x)
        np.testing.assert_allclose(p, kde(x, 0), rtol=1e-13)
        np.testing.assert_allclose(pdd, kde(x, 2), rtol=1e-12, atol=1e-14)

    def test_nonsmooth_kernel_rejects_derivatives(self):
        kde = kde_of([0.0, 1.0], 0.5, from_name("epanechnikov"))
        with pytest.raises(ValueError):
            kde(0.0, 2)
        with pytest.raises(ValueError):
            kde.value_and_curvature(np.array([0.0]))

    def test_fit_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            kde_of([0.0], 0.0)
        with pytest.raises(ValueError):
            kde_of([0.0], math.inf)


class TestProduct:
    def test_product_is_componentwise_product(self):
        rng = np.random.default_rng(3)
        kdes = [kde_of(rng.normal(0, 1, 40), 0.35) for _ in range(3)]
        x = np.linspace(-1.5, 1.5, 11)
        expected = kdes[0](x) * kdes[1](x) * kdes[2](x)
        np.testing.assert_allclose(eval_product(kdes, x), expected, rtol=1e-13)

    def test_normalized_product_integrates_to_one(self):
        rng = np.random.default_rng(4)
        g = Grid(-6, 6, 3001)
        kdes = [kde_of(rng.normal(0, 1, 150), 0.3) for _ in range(4)]
        post = normalize(kdes, g)
        vals = post.posterior(g.points)
        assert integrate_values(vals, g.spacing) == pytest.approx(1.0, abs=1e-9)
        assert post.c_hat == pytest.approx(1.0 / post.lambda_hat)
        assert post.n_subsets == 4

    def test_stored_grid_values_match_posterior(self):
        rng = np.random.default_rng(5)
        g = Grid(-6, 6, 1201)
        post = normalize([kde_of(rng.normal(0, 1, 150), 0.3) for _ in range(4)], g)
        np.testing.assert_allclose(post.values, post.posterior(g.points), rtol=1e-15, atol=0)

    def test_disjoint_supports_are_degenerate(self):
        g = Grid(-50, 50, 2001)
        kdes = [kde_of([-40.0], 0.05), kde_of([40.0], 0.05)]
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
        for M in (1, 2, 4, 8):
            m = AnalyticModel.normal(0.0, 1.3, M)
            g = Grid(-9, 9, 8001)
            lam_quad = integrate(lambda x: m.subset(x) ** M, g)
            assert m.lam == pytest.approx(lam_quad, rel=1e-9)
            assert m.c == pytest.approx(1.0 / lam_quad, rel=1e-9)

    def test_gamma_lambda_against_quadrature(self):
        m = AnalyticModel.gamma(3.0, 3.0, 4)
        g = Grid(1e-9, 60.0, 20001)
        lam_quad = integrate(lambda x: m.subset(x) ** 4, g)
        assert m.lam == pytest.approx(lam_quad, rel=1e-8)

    def test_gamma_posterior_is_normalized_product(self):
        m = AnalyticModel.gamma(3.0, 2.0, 3)
        x = np.linspace(0.5, 12.0, 40)
        np.testing.assert_allclose(
            m.posterior(x), m.c * m.product(x), rtol=1e-9
        )

    def test_product_derivatives_match_finite_differences(self):
        for m in (AnalyticModel.normal(0.0, 1.0, 3), AnalyticModel.gamma(3.0, 3.0, 2)):
            x0 = 1.7
            eps = 1e-5
            fd1 = (m.product(x0 + eps) - m.product(x0 - eps)) / (2 * eps)
            fd2 = (m.product(x0 + eps) - 2 * m.product(x0) + m.product(x0 - eps)) / eps**2
            assert m.product(x0, 1) == pytest.approx(fd1, rel=1e-7)
            assert m.product(x0, 2) == pytest.approx(fd2, rel=1e-4)

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

    def test_sampling_determinism_and_support(self):
        m = AnalyticModel.gamma(3.0, 3.0, 1)
        a = m.sample_subset(np.random.default_rng(9), 500)
        b = m.sample_subset(np.random.default_rng(9), 500)
        np.testing.assert_array_equal(a, b)
        assert (a > 0).all()

    def test_density_methods_agree(self):
        m = AnalyticModel.normal(0.0, 1.0, 2)
        assert m.subset(0.3) == pytest.approx(math.exp(-0.045) / math.sqrt(2 * math.pi), rel=1e-15)
        assert m.product(0.3) == m.subset(0.3) ** 2
        assert m.posterior(0.3) == pytest.approx(m.c * m.product(0.3), rel=1e-12)
