import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parkde.bandwidth as bandwidth
import parkde.estimators as estimators
from parkde.amise import (
    AmiseCoefficients,
    _log_h_derivatives,
    amise_bar,
    amise_hat,
    empirical_coefficients,
)
from parkde.bandwidth import (
    GammaDomain,
    _newton,
    ab_constants,
    h_opt_gamma,
    h_opt_normal,
    h_opt_symmetric,
    normal_reference_h,
    optimize_bandwidth,
    parzen_h_m1,
)
from parkde.estimators import AnalyticModel, SubsetSample, fit_subset_kde, normalize
from parkde.harness import closed_form_h
from parkde.kernels import from_name
from parkde.quadrature import Grid, argmin_scalar

SQRT_PI = math.sqrt(math.pi)
GAUSS = from_name("gaussian")


def test_parzen_single_estimator_bandwidth():
    curvature = 3.0 / (8.0 * SQRT_PI)
    h = parzen_h_m1(1000, GAUSS.k2, GAUSS.roughness, curvature)
    # (4/3)^(1/5) 1000^(-1/5) = 0.26606500 to 8 digits
    assert h == pytest.approx(0.2660650, abs=5e-8)
    assert h == pytest.approx((4.0 / 3.0) ** 0.2 * 1000 ** (-0.2), rel=1e-10)


def test_parzen_scaling_properties():
    curvature = 3.0 / (8.0 * SQRT_PI)
    h = parzen_h_m1(1000, 1.0, GAUSS.roughness, curvature)
    assert parzen_h_m1(16000, 1.0, GAUSS.roughness, curvature) == pytest.approx(
        h * 16 ** (-0.2), rel=1e-12
    )
    assert parzen_h_m1(1000, 2.0, GAUSS.roughness, curvature) == pytest.approx(
        h * 2 ** (-0.4), rel=1e-12
    )
    with pytest.raises(ValueError):
        parzen_h_m1(1000, 1.0, GAUSS.roughness, 0.0)


def test_h_opt_symmetric_examples():
    assert h_opt_symmetric(1, 1.0, 1.0) == pytest.approx(4 ** (-0.2), rel=1e-12)
    assert h_opt_symmetric(1, 1.0, 1.0) == pytest.approx(0.7578583, abs=5e-8)
    assert h_opt_symmetric(77, 3.0, 3.0) == h_opt_symmetric(77, 5.0, 5.0)
    with pytest.raises(ValueError):
        h_opt_symmetric(10, -1.0, 1.0)


def test_h_opt_symmetric_is_argmin_of_bias_variance_tradeoff():
    rng = np.random.default_rng(12)
    for _ in range(10):
        A = float(rng.uniform(0.01, 5.0))
        B = float(rng.uniform(0.01, 5.0))
        n = int(rng.integers(50, 5000))
        closed = h_opt_symmetric(n, A, B)
        numeric, _ = argmin_scalar(
            lambda h: A * h**4 + B / (n * h), closed / 20, closed * 20, tol=1e-10
        )
        assert closed == pytest.approx(numeric, abs=1e-8)


def test_ab_constants_normal_closed_forms():
    for M in (1, 2, 4, 8):
        m = AnalyticModel.normal(0.0, 1.0, M)
        A, B = ab_constants(m, Grid(-9, 9, 8001))
        assert A == pytest.approx(3.0 / (32.0 * SQRT_PI * math.sqrt(M)), rel=1e-6)
        assert B == pytest.approx(M / (2.0 * SQRT_PI * math.sqrt(2 * M - 1)), rel=1e-6)


def test_ab_constants_m1_values():
    m = AnalyticModel.normal(0.0, 1.0, 1)
    A, B = ab_constants(m, Grid(-9, 9, 8001))
    assert A == pytest.approx(3.0 / (32.0 * SQRT_PI), rel=1e-5)
    assert B == pytest.approx(0.2820948, abs=5e-7)


@pytest.mark.parametrize(
    "model, grid",
    [
        (AnalyticModel.normal(0.0, 1.0, 4), Grid(-9, 9, 4001)),
        (AnalyticModel.gamma(3.0, 3.0, 8), Grid(1e-9, 45.0, 4000)),
    ],
)
def test_ab_constants_give_amise_bar_at_a_common_bandwidth(model, grid):
    A, B = ab_constants(model, grid)
    M, n = model.M, 700
    for h in (0.2, 0.6):
        assert amise_bar(model, [n] * M, np.full(M, h), grid) == pytest.approx(
            M * (A * h**4 + B / (n * h)), rel=1e-12
        )


def test_h_opt_normal_examples():
    assert h_opt_normal(1000, 1, 1.0) == pytest.approx(0.2660650, abs=5e-8)
    assert h_opt_normal(1000, 4, 1.0) == pytest.approx(
        (1024.0 / 63.0) ** 0.1 * 0.2511886, abs=5e-5
    )
    assert h_opt_normal(1000, 4, 2.0) == pytest.approx(
        2.0 * h_opt_normal(1000, 4, 1.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        h_opt_normal(1000, 4, 0.0)


def test_h_opt_normal_matches_symmetric_closed_form():
    # the generic A/B minimizer and the normal-specific formula must agree
    for M in range(1, 17):
        for n in (100, 1000, 10000):
            for sigma in (0.5, 1.0, 2.0):
                A = 3.0 / (32.0 * SQRT_PI * math.sqrt(M) * sigma**5)
                B = M / (2.0 * SQRT_PI * math.sqrt(2 * M - 1))
                assert h_opt_symmetric(n, A, B) == pytest.approx(
                    h_opt_normal(n, M, sigma), rel=1e-10
                )


def test_h_opt_normal_asymptotic_coefficient():
    # h scales like (8/9)^(1/10) (n/M)^(-1/5) for large M, with an O(1/M)
    # coefficient error
    limit = (8.0 / 9.0) ** 0.1
    for M in (8, 16, 32, 64):
        got = h_opt_normal(1000, M, 1.0) * (1000.0 / M) ** 0.2
        assert abs(got - limit) < 1.0 / M


def test_h_opt_baseline_ignores_m():
    # the baseline policy is the single-subset (M=1) rule for every M
    b4 = closed_form_h(AnalyticModel.normal(0.0, 1.0, 4), 1000, baseline=True)
    b8 = closed_form_h(AnalyticModel.normal(0.0, 1.0, 8), 1000, baseline=True)
    assert b4 == pytest.approx(0.2660650, abs=5e-8)
    assert b4 == b8 == h_opt_normal(1000, 1, 1.0)


def test_closed_forms_decrease_in_n():
    for fn in (
        lambda n: h_opt_normal(n, 4, 1.0),
        lambda n: h_opt_gamma(n, 4, 3.0, 3.0),
    ):
        values = [fn(n) for n in (100, 1000, 10000)]
        assert values[0] > values[1] > values[2] > 0


def test_h_opt_gamma_n_scaling():
    h = h_opt_gamma(1000, 4, 3.0, 3.0)
    assert h_opt_gamma(16000, 4, 3.0, 3.0) == pytest.approx(
        h * 16 ** (-0.2), rel=1e-12
    )


def test_h_opt_gamma_theta_scaling():
    h = h_opt_gamma(1000, 2, 3.0, 1.0)
    assert h_opt_gamma(1000, 2, 3.0, 3.0) == pytest.approx(3.0 * h, rel=1e-12)


def test_h_opt_gamma_domain_errors():
    with pytest.raises(GammaDomain):
        h_opt_gamma(1000, 1, 1.05, 1.0)  # needs alpha > 1 + 3/(2M)
    with pytest.raises(GammaDomain):
        h_opt_gamma(1000, 2, 3.0, -1.0)


@pytest.mark.parametrize("alpha", [1.3e154, 1e200, 1e300, 1e306])
def test_h_opt_gamma_names_float_overflow(alpha):
    # alpha**2 in the bias constant overflows above about 1.3e154, and
    # lgamma above about 2.5e305
    with pytest.raises(GammaDomain, match=re.escape(f"overflows a float for alpha={alpha!r}, M=4")):
        h_opt_gamma(200, 4, alpha, 1.0)
    assert math.isfinite(h_opt_gamma(200, 4, 1e150, 1.0))


@pytest.mark.parametrize("M", [2, 4])
def test_h_opt_gamma_against_error_functional_argmin(M):
    # independent route: minimize the normalized-estimator error functional
    # by quadrature and golden section over a symmetric bandwidth
    n = 1000
    model = AnalyticModel.gamma(3.0, 3.0, M)
    grid = Grid(1e-9, 45.0, 6001)

    def objective(h):
        return amise_bar(model, [n] * M, np.full(M, h), grid)

    closed = h_opt_gamma(n, M, 3.0, 3.0)
    numeric, _ = argmin_scalar(objective, 0.2, 4.0, tol=1e-7)
    assert closed == pytest.approx(numeric, rel=1e-3)


def grad_h(coeffs, h):
    """The surrogate's gradient in h: the optimizer's gradient in log h over h."""
    return _log_h_derivatives(coeffs.beta, coeffs.nu, h)[0] / h


def reference_optimize(subsets, grid):
    """The projected gradient descent that solved the pilot surrogate before
    Newton's method: the fit normalizes the KDEs, then takes
    `empirical_coefficients`, every trial point goes through the validating
    `amise_hat`, and each gradient is `grad_h` at an accepted point.
    Returns (h, converged, objective)."""
    M = len(subsets)
    h0 = normal_reference_h(subsets)
    tol = 1e-4 * float(np.linalg.norm(h0))
    h_floor = 1e-3 * float(h0.max()) / M
    kdes = [fit_subset_kde(s, hv, GAUSS) for s, hv in zip(subsets, h0)]
    coeffs = empirical_coefficients(normalize(kdes, grid), grid)
    x, converged = h0.copy(), False
    f = amise_hat(coeffs, x)
    for _ in range(400):
        g = grad_h(coeffs, x)
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            converged = True
            break
        t = 0.1 * float(np.linalg.norm(x)) / gnorm
        for _ in range(60):
            cand = np.maximum(x - t * g, h_floor)
            fc = amise_hat(coeffs, cand)
            if fc <= f - 1e-4 * float(g @ (x - cand)):
                f = fc
                break
            t *= 0.5
        else:
            break
        step = float(np.linalg.norm(cand - x))
        x = cand
        if step < tol:
            converged = True
            break
    return x, converged, amise_hat(coeffs, x)


STOPS = ("step<tol", "zero-gradient", "step-cap", "line-search-failed")


class TestOptimizeBandwidth:
    def normal_subsets(self, M, n, seed):
        model = AnalyticModel.normal(0.0, 1.0, M)
        rng = np.random.default_rng(seed)
        return [SubsetSample(model.sample_subset(rng, n)) for _ in range(M)]

    def test_single_subset_lands_near_classical_bandwidth(self):
        # the curvature integral of a fitted KDE carries an upward
        # self-interaction bias of order 1/(n h^5), so the surrogate fitted
        # at the normal-reference pilot puts its minimizer 5-10% below the
        # classical target; assert the honest band
        rels = []
        for seed in range(5):
            subs = self.normal_subsets(1, 5000, seed)
            res = optimize_bandwidth(subs, grid=Grid(-4.5, 4.5, 1201))
            sigma = float(np.std(subs[0].values, ddof=1))
            target = (4.0 / 3.0) ** 0.2 * sigma * 5000 ** (-0.2)
            rels.append(abs(float(res.h[0]) - target) / target)
        assert float(np.median(rels)) < 0.25

    def test_default_run_converges_on_pilot_surrogate(self):
        subs = self.normal_subsets(4, 500, 3)
        grid = Grid(-4, 4, 401)
        res = optimize_bandwidth(subs, grid=grid)
        pooled = np.concatenate([s.values for s in subs])
        h0 = h_opt_normal(500, 4, float(np.std(pooled, ddof=1)))
        kdes = [fit_subset_kde(s, h0, GAUSS) for s in subs]
        coeffs = empirical_coefficients(normalize(kdes, grid), grid)
        assert res.converged and res.iterations == 1
        assert res.objective == pytest.approx(amise_hat(coeffs, res.h), rel=1e-12)

    def test_iterates_are_positive_and_trace_is_one_row(self):
        subs = self.normal_subsets(3, 200, 1)
        res = optimize_bandwidth(subs, grid=Grid(-4, 4, 401))
        assert (res.h > 0).all()
        assert res.iterations == len(res.trace) == 1
        it, h, obj, *_ = res.trace[0]
        assert it == 1 and obj == res.objective and np.isfinite(obj)
        np.testing.assert_array_equal(h, res.h)

    def test_inner_descent_monotone_on_frozen_surrogate(self):
        rng = np.random.default_rng(8)
        M = 3
        beta = rng.normal(0, 1, (M, M))
        beta = beta @ beta.T  # make the quartic part positive semidefinite
        nu = rng.uniform(0.5, 2.0, M)
        co = AmiseCoefficients(beta, nu)
        h0 = rng.uniform(0.5, 1.5, M)
        h1, *_ = _newton(co, h0)
        assert amise_hat(co, h1) <= amise_hat(co, h0) + 1e-15

    @pytest.mark.parametrize("M", [1, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_public_fit_and_descent_loop(self, seed, M):
        # Newton's method lands where the gradient descent it replaced did,
        # to within that descent's own stopping error, and never higher
        subs = self.normal_subsets(M, 250, seed)
        grid = Grid(-4, 4, 201)
        res = optimize_bandwidth(subs, grid=grid)
        h, converged, obj = reference_optimize(subs, grid)
        np.testing.assert_allclose(res.h, h, rtol=1e-3)
        assert res.objective <= obj * (1.0 + 1e-12)
        assert res.converged and converged and res.iterations == 1
        (row,) = res.trace
        assert row[0] == 1 and row[2] == res.objective
        np.testing.assert_array_equal(row[1], res.h)

    def test_each_fit_evaluates_every_kde_once(self, monkeypatch):
        calls = []
        real = estimators.kde_rows

        def counting(samples, bandwidths, kernel, grid, *args, **kwargs):
            calls.append((samples, np.shape(bandwidths), grid))
            return real(samples, bandwidths, kernel, grid, *args, **kwargs)

        monkeypatch.setattr(estimators, "kde_rows", counting)
        subs = self.normal_subsets(3, 200, 1)
        grid = Grid(-4, 4, 401)
        res = optimize_bandwidth(subs, grid=grid)
        assert res.iterations == 1
        # one call, on the fit's grid, with one bandwidth for each subset
        ((samples, shape, g),) = calls
        assert g == grid and shape == (3, 1)
        assert len(samples) == 3 and all(a is b for a, b in zip(samples, subs))

    def test_trace_records_why_each_descent_stopped(self):
        subs = self.normal_subsets(3, 200, 1)
        res = optimize_bandwidth(subs, grid=Grid(-4, 4, 401))
        tol = 1e-4 * float(np.linalg.norm(normal_reference_h(subs)))
        (row,) = res.trace
        _, _, _, gnorm, step, backtracks, stop, steps, fallbacks = row
        assert stop == "step<tol" and 0.0 < step < tol
        assert math.isfinite(gnorm) and gnorm > 0.0
        assert isinstance(backtracks, int) and backtracks >= 0
        assert isinstance(steps, int) and 1 <= steps <= 400
        assert isinstance(fallbacks, int) and 0 <= fallbacks <= steps
        assert res.converged

    def test_descent_stop_reasons(self):
        # 4 b h^3 - nu / h^2 vanishes at h = 1 for b = 1/4, nu = 1
        flat = AmiseCoefficients(np.array([[0.25]]), np.array([1.0]))
        h, f, record = _newton(flat, np.array([1.0]))
        assert (h[0], f, record) == (1.0, 1.25, (0.0, 0.0, 0, "zero-gradient", 0, 0))

        rng = np.random.default_rng(8)
        beta = rng.normal(0, 1, (3, 3))
        co = AmiseCoefficients(beta @ beta.T, rng.uniform(0.5, 2.0, 3))
        h0 = rng.uniform(0.5, 1.5, 3)
        h, f, (gnorm, step, backtracks, stop, steps, _) = _newton(co, h0, max_steps=2)
        assert stop == "step-cap" and steps == 2 and step > 0.0 and gnorm > 0.0
        assert f == amise_hat(co, h) < amise_hat(co, h0)
        _, _, record = _newton(co, h0, max_steps=0)
        assert math.isnan(record[0]) and record[1:] == (0.0, 0, "step-cap", 0, 0)
        _, _, record = _newton(co, h0, tol=1e-3)
        assert record[3] == "step<tol" and record[1] < 1e-3

        # the gradient overflows at h = 1e110, so every trial point is nan
        with np.errstate(all="ignore"):
            h, f, record = _newton(co, np.full(3, 1e110))
        assert record[2:4] == (60, "line-search-failed") and f == math.inf
        np.testing.assert_array_equal(h, np.full(3, 1e110))

    def test_indefinite_hessian_takes_the_gradient_direction(self):
        # beta is positive definite, but far from balance (h_1 << h_2) the
        # negative off-diagonal entry makes the Hessian in log h indefinite
        co = AmiseCoefficients(np.array([[1.0, -0.9], [-0.9, 1.0]]), np.array([1e-3, 1e-3]))
        h0 = np.array([0.05, 2.0])
        h, f, (_, _, _, stop, steps, fallbacks) = _newton(co, h0, tol=1e-6)
        assert fallbacks >= 1 and steps > fallbacks
        assert stop == "step<tol" and f < amise_hat(co, h0)
        assert float(np.linalg.norm(grad_h(co, h))) < 1e-3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": -1.0},
            {"tol": math.nan},
            {"tol": math.inf},
            {"tol": -math.inf},
        ],
    )
    def test_options_reject_invalid_values(self, kwargs):
        subs = self.normal_subsets(2, 100, 2)
        with pytest.raises(ValueError):
            optimize_bandwidth(subs, grid=Grid(-4, 4, 101), **kwargs)

    def test_refit_loop_is_gone(self):
        # the optimizer fits its surrogate once; there is no fit count to set
        subs = self.normal_subsets(2, 100, 2)
        with pytest.raises(TypeError):
            optimize_bandwidth(subs, max_outer_iters=1)

    def test_requires_smooth_kernel(self):
        # the surrogate needs KDE curvatures, so the optimizer always fits
        # Gaussian KDEs and takes no kernel
        subs = self.normal_subsets(2, 100, 2)
        with pytest.raises(TypeError):
            optimize_bandwidth(subs, kernel=from_name("epanechnikov"))

    def test_requires_subsets(self):
        with pytest.raises(ValueError):
            optimize_bandwidth([])


def _perturbed_coefficients(M, seed, nu_exp, scale_exp):
    """beta = B B^T plus negative off-diagonal entries (some of them large
    enough that Cholesky rejects the Hessian in log h), nu log-uniform
    around 10^nu_exp and h0 log-uniform around 10^scale_exp, within
    [1e-4, 1e4]. A diagonal load of 1 bounds the perturbation (|E_ij| <=
    1/M), so the quartic term stays nonnegative for h > 0."""
    rng = np.random.default_rng(seed)
    B = rng.normal(0.0, rng.uniform(0.0, 1.0), (M, M))
    E = -rng.uniform(0.0, 1.0 / M, (M, M))
    np.fill_diagonal(E, 1.0)
    nu = 10.0 ** np.clip(nu_exp + rng.uniform(-1.0, 1.0, M), -3.0, 3.0)
    h0 = 10.0 ** np.clip(scale_exp + rng.uniform(-1.0, 1.0, M), -4.0, 4.0)
    return AmiseCoefficients(B @ B.T + E, nu), h0


@settings(max_examples=150, deadline=None)
@given(
    M=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
    nu_exp=st.floats(-3.0, 3.0),
    scale_exp=st.floats(-4.0, 4.0),
)
def test_newton_iterates_stay_finite_positive_and_descend(M, seed, nu_exp, scale_exp):
    co, h0 = _perturbed_coefficients(M, seed, nu_exp, scale_exp)
    trials = []

    def recording(beta, nu, h):
        trials.append(h.copy())
        return real(beta, nu, h)

    real = bandwidth._surrogate
    tol = 1e-4 * float(np.linalg.norm(h0))
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="raise"):
        mp.setattr(bandwidth, "_surrogate", recording)
        h, f, (gnorm, step, backtracks, stop, steps, fallbacks) = _newton(co, h0, tol)
    # every trial point, and so every iterate, is finite and positive
    for x in trials:
        assert np.isfinite(x).all() and (x > 0).all()
    assert np.isfinite(h).all() and (h > 0).all()
    assert f == amise_hat(co, h) <= amise_hat(co, h0)
    assert stop in STOPS
    assert 0 <= fallbacks <= steps <= 400
