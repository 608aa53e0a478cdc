import math

import numpy as np
import pytest

from parkde import amise
from parkde.amise import (
    AmiseCoefficients,
    _coefficients,
    _log_h_derivatives,
    _prod_except,
    amise_bar,
    amise_hat,
    amise_product,
    bias_leading,
    empirical_coefficients,
    variance_leading,
)
from parkde.bandwidth import ab_constants, h_opt_normal
from parkde.estimators import (
    AnalyticModel,
    DegenerateProduct,
    SubsetSample,
    fit_subset_kde,
    grid_rows,
    normalize,
)
from parkde.kernels import from_name
from parkde.quadrature import Grid, argmin_scalar, gradient_fd, integrate_values, simpson_weights

GAUSS = from_name("gaussian")
SQRT_PI = math.sqrt(math.pi)


@pytest.fixture(autouse=True)
def cold_model_cache():
    """Every test starts with the model cache empty, so counts taken from it
    do not depend on which tests ran before."""
    amise._model_integrals.cache_clear()


def make_posterior(seed, M, n, h, lo=-5.0, hi=5.0, pts=2001):
    model = AnalyticModel.normal(0.0, 1.0, M)
    rng = np.random.default_rng(seed)
    kdes = [
        fit_subset_kde(SubsetSample(model.sample_subset(rng, n)), h, GAUSS)
        for _ in range(M)
    ]
    return normalize(kdes, Grid(lo, hi, pts))


def test_bias_leading_single_normal():
    m = AnalyticModel.normal(0.0, 1.0, 1)
    got = bias_leading(m, [0.2], 0.0)
    # (1/2) h^2 phi''(0) with phi''(0) = -phi(0)
    assert got == pytest.approx(-0.0079788, abs=5e-7)


def test_bias_leading_two_identical_normals():
    m = AnalyticModel.normal(0.0, 1.0, 2)
    got = bias_leading(m, [0.2, 0.2], 0.0)
    assert got == pytest.approx(-0.0063662, abs=5e-7)


def test_bias_leading_vanishes_off_support():
    m = AnalyticModel.normal(0.0, 1.0, 3)
    assert bias_leading(m, [0.1] * 3, 40.0) == pytest.approx(0.0, abs=1e-200)


def test_variance_leading_single_normal():
    m = AnalyticModel.normal(0.0, 1.0, 1)
    got = variance_leading(m, [1000], [0.25], 0.0)
    assert got == pytest.approx(4.5016e-4, rel=1e-4)


def test_variance_leading_halves_with_double_n():
    m = AnalyticModel.normal(0.0, 1.0, 2)
    v1 = variance_leading(m, [500, 500], [0.3, 0.3], 0.4)
    v2 = variance_leading(m, [1000, 1000], [0.3, 0.3], 0.4)
    assert v1 == pytest.approx(2.0 * v2, rel=1e-12)


def test_amise_product_single_normal_closed_form():
    n, h = 1000, 0.26606
    m = AnalyticModel.normal(0.0, 1.0, 1)
    got = amise_product(m, [n], [h], Grid(-8, 8, 4001))
    curvature = 3.0 / (8.0 * SQRT_PI)
    expected = h**4 / 4.0 * curvature + GAUSS.roughness / (n * h)
    assert got == pytest.approx(expected, rel=1e-6)


def test_amise_product_homogeneity():
    m = AnalyticModel.normal(0.0, 1.0, 2)
    g = Grid(-8, 8, 2001)
    n = [400, 400]
    bias_1 = amise_product(m, [10**15] * 2, [0.1, 0.1], g)  # variance negligible
    bias_2 = amise_product(m, [10**15] * 2, [0.2, 0.2], g)
    assert bias_2 == pytest.approx(16.0 * bias_1, rel=1e-6)
    full = amise_product(m, n, [0.1, 0.1], g)
    assert full > bias_1


def test_amise_bar_reduces_to_amise_product_for_single_subset():
    m = AnalyticModel.normal(0.0, 1.0, 1)
    g = Grid(-8, 8, 4001)
    for h in (0.1, 0.3):
        a = amise_bar(m, [2000], [h], g)
        b = amise_product(m, [2000], [h], g)
        assert a == pytest.approx(b, abs=1e-8)


def test_amise_bar_blows_up_as_h_vanishes():
    m = AnalyticModel.normal(0.0, 1.0, 3)
    g = Grid(-6, 6, 2001)
    small = amise_bar(m, [500] * 3, [1e-4] * 3, g)
    mid = amise_bar(m, [500] * 3, [0.3] * 3, g)
    assert small > 100 * mid


def four_term_amise_bar(model, N, h, grid):
    """The normalized estimator's error functional as the integral of its
    four terms: squared mean bias times posterior energy, integrated squared
    bias, c^2-scaled variance, and the bias cross term."""
    x, dx = grid.points, grid.spacing
    post = normalize([model.subset] * model.M, grid)
    c, p = 1.0 / post.lambda_hat, post.values
    B = c * bias_leading(model, h, x)
    V = variance_leading(model, N, h, x)
    int_B = integrate_values(B, dx)
    return (
        int_B**2 * integrate_values(p * p, dx)
        + integrate_values(B * B, dx)
        + c * c * integrate_values(V, dx)
        - 2.0 * int_B * integrate_values(B * p, dx)
    )


@pytest.mark.parametrize("family", ["normal", "gamma"])
@pytest.mark.parametrize("M", [2, 4, 32])
@pytest.mark.parametrize("points", [2001, 2000])
def test_amise_bar_matches_four_term_functional(family, M, points):
    if family == "normal":
        model, grid = AnalyticModel.normal(0.3, 1.2, M), Grid(-5.0, 5.6, points)
    else:
        model, grid = AnalyticModel.gamma(3.0, 3.0, M), Grid(1e-9, 45.0, points)
    rng = np.random.default_rng(M)
    h = rng.uniform(0.1, 0.5, M)
    N = rng.integers(100, 5000, M)
    assert amise_bar(model, N, h, grid) == pytest.approx(
        four_term_amise_bar(model, N, h, grid), rel=1e-10
    )


def _model_and_grid(family, M, points=2001):
    if family == "normal":
        model = AnalyticModel.normal(0.3, 1.2, M)
    else:
        model = AnalyticModel.gamma(3.0, 3.0, M)
    return model, Grid(*model.window(), points)


@pytest.mark.parametrize("family", ["normal", "gamma"])
@pytest.mark.parametrize("M", [1, 2, 4, 32, 64])
@pytest.mark.parametrize("points", [2001, 2000])
def test_model_integrals_match_its_subset_densities(family, M, points):
    # a model's one row with multiplicity M against M rows of multiplicity 1
    model, grid = _model_and_grid(family, M, points)
    N = 100.0 + 37.0 * np.arange(M)
    b, d = amise._model_integrals(model, grid)
    rows = _coefficients([model.subset] * M, N, grid)
    beta, nu = np.full((M, M), b), d / N
    if M == 1:
        np.testing.assert_array_equal(beta, rows.beta)
        np.testing.assert_array_equal(nu, rows.nu)
    np.testing.assert_allclose(beta, rows.beta, rtol=1e-12, atol=0)
    np.testing.assert_allclose(nu, rows.nu, rtol=1e-12, atol=0)


def _three_term_beta(P, Pdd, grid):
    """beta's symmetric part from its three cancelling terms,
    c^2 (k2 / 2)^2 (I_i I_j S + U_ij - I_i T_j - I_j T_i) with I_i = int q_i,
    T_i = int q_i p, U_ij = int q_i q_j and S = int p^2, in long double."""
    P, Pdd = P.astype(np.longdouble), Pdd.astype(np.longdouble)
    w = simpson_weights(grid.n_points, grid.spacing).astype(np.longdouble)
    prod = np.prod(P, axis=0)
    lam = prod @ w
    p = prod / lam
    Q = Pdd * np.stack([np.prod(np.delete(P, m, axis=0), axis=0) for m in range(len(P))])
    I, T, S, U = Q @ w, (Q * p) @ w, (p * p) @ w, (Q * w) @ Q.T
    IT = np.outer(I, T)
    return (GAUSS.k2 / 2 / lam) ** 2 * (np.outer(I, I) * S + U - IT - IT.T)


@pytest.mark.parametrize("M", [32, 64])
def test_beta_matches_a_long_double_three_term_beta(M):
    model, grid = _model_and_grid("normal", M)
    densities = [model.subset] * M
    P, Pdd = grid_rows(densities, grid, (0, 2))
    beta = _coefficients(densities, np.ones(M), grid).beta
    reference = _three_term_beta(P, Pdd, grid)
    assert np.max(np.abs(beta - reference) / np.abs(reference)) <= 1e-13


@pytest.mark.parametrize("M", [8, 32])
def test_kde_beta_is_a_symmetric_positive_semidefinite_gram_matrix(M):
    post = make_posterior(seed=M, M=M, n=500, h=h_opt_normal(500, M, 1.0), pts=801)
    beta = empirical_coefficients(post).beta
    np.testing.assert_array_equal(beta, beta.T)
    eigenvalues = np.linalg.eigvalsh(beta)
    assert eigenvalues[0] >= -1e-14 * eigenvalues[-1]


def test_amise_bar_validates_bandwidths():
    m = AnalyticModel.normal(0.0, 1.0, 2)
    g = Grid(-6, 6, 401)
    with pytest.raises(ValueError, match="need 2 sample sizes and bandwidths"):
        amise_bar(m, [500] * 2, [0.3], g)
    for bad in (0.0, -0.3, math.inf, math.nan):
        with pytest.raises(ValueError, match="bandwidths must be positive and finite") as exc:
            amise_bar(m, [500] * 2, [0.3, bad], g)
        assert str(exc.value).endswith(str(np.array([0.3, bad])))
    # a negative h and a negative N give a positive variance term
    with pytest.raises(ValueError, match="bandwidths must be positive and finite"):
        amise_bar(m, [500, -500], [0.3, -0.3], g)
    with pytest.raises(ValueError, match=r"sample sizes must be positive and finite, got \[500"):
        amise_bar(m, [500, math.inf], [0.3, math.inf], g)


def test_amise_bar_rejects_non_finite_curvature():
    def density(x, deriv=0):
        return np.exp(-0.5 * x * x) if deriv == 0 else np.full_like(x, np.inf)

    with pytest.raises(ValueError):
        amise_bar([density, density], [500] * 2, [0.3, 0.3], Grid(-6, 6, 401))


@pytest.mark.parametrize(
    "P",
    [
        np.array([[0.5, 2.0, 3.0]]),
        np.array([[0.5, 2.0, 3.0], [0.0, 0.0, 0.0], [1.5, 0.25, 4.0], [2.0, 3.0, 0.5]]),
    ],
    ids=["one row", "zero row"],
)
def test_prod_except_matches_direct_products(P):
    L = _prod_except(P)
    for m in range(len(P)):
        np.testing.assert_allclose(L[m], np.prod(np.delete(P, m, axis=0), axis=0), rtol=1e-15)


def test_model_integrals_are_built_once_per_model_and_grid(monkeypatch):
    amise._model_integrals.cache_clear()
    calls = []

    def counting_grid_rows(source, grid, derivs=(0,)):
        calls.append(source)
        return grid_rows(source, grid, derivs)

    monkeypatch.setattr(amise, "grid_rows", counting_grid_rows)
    model, grid = _model_and_grid("gamma", 4)
    for h in (0.2, 0.3, 0.4):
        amise_bar(model, [500] * 4, [h] * 4, grid)
        amise_bar(model, [900] * 4, [h] * 4, grid)
    ab_constants(model, grid)
    assert len(calls) == 1
    # another grid is another entry
    amise_bar(model, [500] * 4, [0.3] * 4, Grid(*model.window(), 2000))
    assert len(calls) == 2
    # density callables and KDEs are put on the grid on every call
    for _ in range(2):
        amise_bar([model.subset] * 4, [500] * 4, [0.3] * 4, grid)
    assert len(calls) == 4
    post = make_posterior(seed=1, M=3, n=200, h=0.4, pts=401)
    for _ in range(2):
        empirical_coefficients(post)
    assert len(calls) == 6
    assert amise._model_integrals.cache_info().currsize == 2


@pytest.mark.parametrize("family", ["normal", "gamma"])
@pytest.mark.parametrize("M", [1, 2, 32])
def test_memoized_amise_bar_equals_a_cold_build(family, M):
    model, grid = _model_and_grid(family, M)
    N1 = 100.0 + 37.0 * np.arange(M)
    N2 = 5000.0 - 11.0 * np.arange(M)
    h = np.linspace(0.1, 0.6, M)
    cold1 = amise_bar(model, N1, h, grid)
    amise._model_integrals.cache_clear()
    cold2 = amise_bar(model, N2, h, grid)
    warm1 = amise_bar(model, N1, h, grid)
    warm2 = amise_bar(model, N2, h, grid)
    # two N vectors share one entry, built once
    info = amise._model_integrals.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    assert (warm1, warm2) == (cold1, cold2)
    assert warm1 != warm2


def test_a_model_that_raises_raises_on_every_call():
    amise._model_integrals.cache_clear()
    # lambda = int phi^1024 is about 1e-407, below the smallest double
    model, grid = _model_and_grid("normal", 1024)
    for _ in range(2):
        with pytest.raises(DegenerateProduct):
            amise_bar(model, [500] * 1024, [0.3] * 1024, grid)
    info = amise._model_integrals.cache_info()
    assert (info.currsize, info.misses) == (0, 2)


def test_a_search_integrates_a_model_once_for_any_N(monkeypatch):
    builds, integrals = [], amise._integrals

    def counting_integrals(source, k, grid):
        builds.append(source)
        return integrals(source, k, grid)

    monkeypatch.setattr(amise, "_integrals", counting_integrals)
    model, grid = _model_and_grid("gamma", 4)

    def search(N, grid):
        return argmin_scalar(lambda h: amise_bar(model, N, np.full(4, h), grid), 0.02, 4.0, 1e-7)

    h_list, _ = search([500] * 4, grid)
    # equal N as a tuple, an ndarray, ints or floats gives the same search
    for N in ((500,) * 4, np.full(4, 500), np.full(4, 500.0), [500.0] * 4):
        assert search(N, grid)[0] == h_list
    # another N builds nothing
    assert search([900] * 4, grid)[0] != h_list
    assert len(builds) == 1
    info = amise._model_integrals.cache_info()
    assert (info.currsize, info.misses) == (1, 1) and info.hits > 100
    # another grid is another entry
    search([500] * 4, Grid(*model.window(), 2000))
    assert len(builds) == 2
    # density callables are built on every call
    for _ in range(2):
        amise_bar([model.subset] * 4, [500] * 4, [0.3] * 4, grid)
    assert len(builds) == 4


@pytest.mark.parametrize("family", ["normal", "gamma"])
@pytest.mark.parametrize("M", [1, 2, 32])
@pytest.mark.parametrize(
    "sizes",
    [
        lambda M: [400 + 37 * m for m in range(M)],
        lambda M: [400.0 + 37.0 * m for m in range(M)],
        lambda M: 400 + 37 * np.arange(M),
        lambda M: 400.0 + 37.0 * np.arange(M),
    ],
    ids=["int list", "float list", "int array", "float array"],
)
def test_cached_amise_bar_equals_a_cold_call(family, M, sizes):
    model, grid = _model_and_grid(family, M)
    N = sizes(M)
    for h in (np.full(M, 0.3), np.linspace(0.1, 0.6, M)):
        amise._model_integrals.cache_clear()
        cold = amise_bar(model, N, h, grid)  # integrates into the cache
        assert amise_bar(model, N, h, grid) == cold  # from the cache
        assert cold == amise_bar(model, 400.0 + 37.0 * np.arange(M), h, grid)
        rows = amise_hat(_coefficients([model.subset] * M, N, grid), h)
        assert cold == pytest.approx(rows, rel=1e-12, abs=0)


def test_a_models_entry_is_two_floats():
    model, grid = _model_and_grid("normal", 3)
    assert isinstance(amise_bar(model, [400, 500, 600], [0.3] * 3, grid), float)
    entry = amise._model_integrals(model, grid)
    assert amise._model_integrals.cache_info().hits == 1
    assert len(entry) == 2 and all(type(v) is float for v in entry)
    b, d = entry
    assert ab_constants(model, grid) == (3 * b, d)


@pytest.mark.parametrize(
    "N",
    [[500] * 3, [500, 500, 0], [500, -500, 500, 500], [[500] * 4], ["many"] * 4,
     [500, 500, 0, 500], [500, math.inf, 500, 500], [500, 500, math.nan, 500]],
    ids=["short", "zero", "negative", "two-dimensional", "not a number", "zero of four",
         "infinite", "nan"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_bad_sample_size_raises_on_every_call(N):
    model, grid = _model_and_grid("normal", 4)
    # the model's entry is cached by a good call; a bad N adds nothing to it
    amise_bar(model, [500] * 4, [0.3] * 4, grid)
    messages = set()
    for _ in range(2):
        with pytest.raises(ValueError) as bad:
            amise_bar(model, N, [0.3] * 4, grid)
        messages.add(str(bad.value))
    (message,) = messages
    assert "500" in message or "many" in message
    info = amise._model_integrals.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    # the callables' coefficient builder rejects it too, without a warning
    with pytest.raises(ValueError):
        _coefficients([model.subset] * 4, N, grid)


def test_empirical_coefficients_match_plugin_error_functional():
    # the surrogate must equal the error functional evaluated with the
    # fitted KDEs as densities, for any h, on the shared grid
    post = make_posterior(seed=7, M=3, n=400, h=0.35)
    coeffs = empirical_coefficients(post)
    N = [kde.sample.size for kde in post.components]
    for h in ([0.2, 0.3, 0.25], [0.5, 0.1, 0.4]):
        direct = amise_bar(post.components, N, h, post.grid)
        assert amise_hat(coeffs, h) == pytest.approx(direct, rel=1e-6)


def test_empirical_coefficients_reject_another_grid():
    post = make_posterior(seed=3, M=2, n=100, h=0.4, pts=801)
    assert empirical_coefficients(post, Grid(-5.0, 5.0, 801)).M == 2
    with pytest.raises(ValueError):
        empirical_coefficients(post, Grid(-5.0, 5.0, 401))


def test_empirical_coefficients_require_smooth_kernel():
    epan = from_name("epanechnikov")
    kdes = [
        fit_subset_kde(SubsetSample(np.random.default_rng(0).normal(0, 1, 50)), 0.4, epan)
    ]
    post = normalize(kdes, Grid(-5, 5, 501))
    with pytest.raises(ValueError):
        empirical_coefficients(post)


def test_empirical_minimizer_approaches_closed_form_with_n():
    # restricted to a common bandwidth, the surrogate argmin tightens
    # around the analytic optimum as the sample grows
    M = 4
    gaps = {}
    for n in (1000, 8000):
        rel = []
        for seed in range(8):
            post = make_posterior(seed=seed, M=M, n=n, h=h_opt_normal(n, M, 1.0))
            coeffs = empirical_coefficients(post)
            h_min, _ = argmin_scalar(
                lambda h: amise_hat(coeffs, np.full(M, h)), 0.05, 1.0, tol=1e-7
            )
            target = h_opt_normal(n, M, 1.0)
            rel.append(abs(h_min - target) / target)
        gaps[n] = float(np.median(rel))
    assert gaps[8000] < gaps[1000]
    assert gaps[8000] < 0.15


class TestSurrogate:
    def coeffs(self, beta, nu):
        beta = np.atleast_2d(np.asarray(beta, dtype=float))
        nu = np.atleast_1d(np.asarray(nu, dtype=float))
        return AmiseCoefficients(beta, nu)

    def grad_h(self, co, h):
        h = np.asarray(h, dtype=float)
        return _log_h_derivatives(co.beta, co.nu, h)[0] / h

    def test_scalar_example(self):
        assert amise_hat(self.coeffs(1.0, 4.0), [1.0]) == pytest.approx(5.0)

    def test_identity_example(self):
        co = self.coeffs(np.eye(2), [1.0, 1.0])
        assert amise_hat(co, [1.0, 1.0]) == pytest.approx(4.0)

    def test_scalar_minimizer(self):
        co = self.coeffs(1.0, 4.0)
        h, _ = argmin_scalar(lambda h: amise_hat(co, [h]), 0.1, 5.0, tol=1e-9)
        assert h == pytest.approx(1.0, abs=1e-7)

    def test_grad_examples(self):
        co = self.coeffs(1.0, 4.0)
        assert self.grad_h(co, [1.0])[0] == pytest.approx(0.0, abs=1e-12)
        assert self.grad_h(co, [2.0])[0] == pytest.approx(31.0)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            M = int(rng.integers(1, 9))
            beta = rng.normal(0, 1, (M, M))
            nu = rng.uniform(0.5, 2.0, M)
            h = rng.uniform(0.5, 2.0, M)
            co = AmiseCoefficients(beta, nu)
            g = self.grad_h(co, h)
            fd = gradient_fd(lambda v: amise_hat(co, v), h, 1e-6)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-5)

    def test_hessian_matches_central_differences_of_gradient(self):
        # the Hessian the optimizer takes, in u = log h, against central
        # differences of its gradient in u; beta is Gaussian, so asymmetric
        # and mostly indefinite. Worst relative error over these 200
        # problems: 1.4e-8 (step 1e-6; 2.0e-8 at 1e-5)
        rng = np.random.default_rng(77)
        eps, worst, indefinite = 1e-6, 0.0, 0
        for _ in range(200):
            M = int(rng.integers(1, 9))
            beta = rng.normal(0.0, 1.0, (M, M))
            nu = rng.uniform(0.5, 2.0, M)
            h = rng.uniform(0.5, 2.0, M)
            _, hess = _log_h_derivatives(beta, nu, h)
            fd = np.empty((M, M))
            for j in range(M):
                du = np.zeros(M)
                du[j] = eps
                up = _log_h_derivatives(beta, nu, h * np.exp(du))[0]
                down = _log_h_derivatives(beta, nu, h * np.exp(-du))[0]
                fd[:, j] = (up - down) / (2.0 * eps)
            worst = max(worst, float(np.max(np.abs(hess - fd) / np.maximum(np.abs(fd), 1.0))))
            indefinite += bool(np.linalg.eigvalsh(hess).min() < 0.0)
        assert indefinite >= 100
        assert worst < 1e-6, f"max rel err {worst:.2e}"

    def test_homogeneity(self):
        M = 3
        rng = np.random.default_rng(5)
        beta = rng.normal(0, 1, (M, M))
        nu = rng.uniform(0.5, 2.0, M)
        h = rng.uniform(0.5, 1.5, M)
        only_nu = AmiseCoefficients(np.zeros((M, M)), nu)
        assert amise_hat(only_nu, 2.0 * h) == pytest.approx(
            amise_hat(only_nu, h) / 2.0, rel=1e-12
        )
        tiny = np.full(M, 1e-12)
        only_beta = AmiseCoefficients(beta, nu)
        quartic = amise_hat(only_beta, 2.0 * h) - amise_hat(only_nu, 2.0 * h)
        base = amise_hat(only_beta, h) - amise_hat(only_nu, h)
        assert quartic == pytest.approx(16.0 * base, rel=1e-9)

    def test_symmetrization_invariance(self):
        rng = np.random.default_rng(6)
        beta = rng.normal(0, 1, (4, 4))
        nu = rng.uniform(0.5, 2.0, 4)
        h = rng.uniform(0.5, 1.5, 4)
        a = AmiseCoefficients(beta, nu)
        b = AmiseCoefficients((beta + beta.T) / 2.0, nu)
        assert amise_hat(a, h) == pytest.approx(amise_hat(b, h), rel=1e-12)

    def test_rejects_nonpositive_bandwidths(self):
        co = self.coeffs(1.0, 4.0)
        for h in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                amise_hat(co, [h])

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            AmiseCoefficients(np.eye(2), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            AmiseCoefficients(np.eye(3), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            AmiseCoefficients(np.full((1, 1), np.nan), np.array([1.0]))
        with pytest.raises(ValueError):
            AmiseCoefficients(np.eye(1), np.array(1.0))

    def test_m_is_the_length_of_nu(self):
        assert AmiseCoefficients(np.eye(3), np.ones(3)).M == 3
        with pytest.raises(TypeError):
            AmiseCoefficients(np.eye(3), np.ones(3), 3)

