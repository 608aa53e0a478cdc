"""Acceptance checks for the bandwidth selection library.

Each test prints a single verdict line so the suite output doubles as an
acceptance report. Statistical checks use fixed seeds and the stated
tolerances; they are calibrated to run single-threaded in a few minutes.
"""

import math

import numpy as np

from parkde.amise import (
    AmiseCoefficients,
    _log_h_derivatives,
    amise_bar,
    amise_hat,
    empirical_coefficients,
)
from parkde.bandwidth import (
    h_opt_gamma,
    h_opt_normal,
    h_opt_symmetric,
    optimize_bandwidth,
    parzen_h_m1,
)
from parkde.estimators import (
    AnalyticModel,
    SubsetSample,
    fit_subset_kde,
    normalize,
)
from parkde.harness import (
    ExperimentConfig,
    estimate_mise,
    run_experiment,
    sweep_bandwidth,
)
from parkde.kernels import from_name
from parkde.quadrature import Grid, argmin_scalar, gradient_fd

SQRT_PI = math.sqrt(math.pi)
GAUSS = from_name("gaussian")


def verdict(label: str, ok: bool, detail: str) -> None:
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {label} failed: {detail}"


def test_01_closed_form_consistency():
    # generic symmetric minimizer with the normal-model constants must
    # reproduce the normal-specific formula to 1e-10 relative
    worst = 0.0
    for M in range(1, 17):
        A_sigma1 = 3.0 / (32.0 * SQRT_PI * math.sqrt(M))
        B = M / (2.0 * SQRT_PI * math.sqrt(2 * M - 1))
        for n in (100, 1000, 10000):
            for sigma in (0.5, 1.0, 2.0):
                a = h_opt_symmetric(n, A_sigma1 / sigma**5, B)
                b = h_opt_normal(n, M, sigma)
                worst = max(worst, abs(a - b) / b)
    verdict("01 closed-form consistency", worst < 1e-10, f"max rel err {worst:.2e}")


def test_02_single_subset_reduction():
    worst_formula = 0.0
    worst_parzen = 0.0
    for n in (100, 1000, 10000):
        for sigma in (0.5, 1.0, 2.0):
            target = (4.0 / 3.0) ** 0.2 * sigma * n ** (-0.2)
            got = h_opt_normal(n, 1, sigma)
            worst_formula = max(worst_formula, abs(got - target) / target)
            curvature = 3.0 / (8.0 * SQRT_PI * sigma**5)
            pz = parzen_h_m1(n, GAUSS.k2, GAUSS.roughness, curvature)
            worst_parzen = max(worst_parzen, abs(pz - target) / target)
    ok = worst_formula < 1e-12 and worst_parzen < 1e-10
    verdict(
        "02 single-subset reduction",
        ok,
        f"formula err {worst_formula:.2e}, plug-in err {worst_parzen:.2e}",
    )


def test_03_asymptotic_coefficient():
    # h ~ (8/9)^(1/10) (n/M)^(-1/5) with an O(1/M) coefficient error; the
    # normalizer is (n/M)^(1/5), not (nM)^(1/5), which diverges in M
    limit = (8.0 / 9.0) ** 0.1
    gaps = {}
    for M in (8, 16, 32, 64):
        got = h_opt_normal(1000, M, 1.0) * (1000.0 / M) ** 0.2
        gaps[M] = abs(got - limit)
    ok = all(gap < 1.0 / M for M, gap in gaps.items())
    detail = ", ".join(f"M={M}: {g:.4f} vs 1/M={1.0 / M:.4f}" for M, g in gaps.items())
    verdict("03 asymptotic coefficient", ok, detail)


def test_04_gamma_closed_form_vs_oracle():
    n, alpha, theta = 1000, 3.0, 3.0
    grid = Grid(1e-9, 45.0, 6001)
    rels = {}
    for M in (2, 4):
        model = AnalyticModel.gamma(alpha, theta, M)

        def objective(h):
            return amise_bar(model, [n] * M, np.full(M, h), grid)

        closed = h_opt_gamma(n, M, alpha, theta)
        numeric, _ = argmin_scalar(objective, 0.2, 4.0, tol=1e-7)
        rels[M] = abs(closed - numeric) / numeric
    ok = all(r < 1e-3 for r in rels.values())
    verdict(
        "04 gamma closed form vs oracle",
        ok,
        ", ".join(f"M={M}: rel {r:.2e}" for M, r in rels.items()),
    )


def test_05_pointwise_bias_and_variance_oracles():
    # KDE at x=0 under Normal(0,1), Gaussian kernel. The bias at bandwidth
    # h is ~ (h^2/2) k2 p''(0), so halving h shrinks it by 4x up to higher
    # order terms. The variance admits p(0) R(K) / (n h) plus an explicit
    # remainder of -(E p_hat(0))^2 / n; at h=0.2 that remainder is ~27% of
    # the leading term, so it is added back before normalizing.
    n = 10_000
    phi0 = 1.0 / math.sqrt(2.0 * math.pi)

    def kde_at_zero(h, reps, seed):
        out = np.empty(reps)
        for r in range(reps):
            y = np.random.default_rng([seed, r]).normal(0.0, 1.0, n)
            out[r] = np.exp(-0.5 * (y / h) ** 2).sum() / (n * h * math.sqrt(2 * math.pi))
        return out

    big = kde_at_zero(0.4, 400, 1001)
    small = kde_at_zero(0.2, 800, 1002)
    bias_ratio = (big.mean() - phi0) / (small.mean() - phi0)
    bias_ok = 3.0 < bias_ratio < 5.0

    var = small.var(ddof=1)
    normalized = (var + small.mean() ** 2 / n) * n * 0.2 / (phi0 * GAUSS.roughness)
    var_ok = 0.9 < normalized < 1.1
    verdict(
        "05 pointwise bias/variance oracles",
        bias_ok and var_ok,
        f"bias ratio {bias_ratio:.3f} (want 4 +/- 25%), "
        f"normalized variance {normalized:.3f} (want [0.9, 1.1])",
    )


def test_06_autocorrelation_kernel_moments():
    results = {}
    for name, lo, hi in (("gaussian", -12.0, 12.0), ("epanechnikov", -2.0, 2.0)):
        g = Grid(lo, hi, 16001)
        z = g.points
        k2 = from_name(name).autocorrelation(z)
        mass = float(np.trapezoid(k2, z))
        first = float(np.trapezoid(z * k2, z))
        results[name] = (abs(mass - 1.0), abs(first))
    ok = all(m < 1e-6 and f < 1e-6 for m, f in results.values())
    detail = ", ".join(
        f"{k}: |mass-1| {m:.1e}, |first moment| {f:.1e}"
        for k, (m, f) in results.items()
    )
    verdict("06 autocorrelation kernel moments", ok, detail)


def test_07_mise_decay_rate():
    # at these sample sizes the measured MISE sits at 0.4-0.56 of its
    # leading-order value and the deficit shrinks with n, so the fitted
    # slope lands near -0.67 rather than the asymptotic -0.8
    M = 4
    model = AnalyticModel.normal(0.0, 1.0, M)
    grid = Grid(-4.0, 4.0, 401)
    ns = (250, 500, 1000, 2000, 4000)
    mises = []
    for n in ns:
        h = h_opt_normal(n, M, 1.0)
        est = estimate_mise(model, n, h, replications=200, seed=42, grid=grid)
        mises.append(est.mise)
    slope = float(np.polyfit(np.log(ns), np.log(mises), 1)[0])
    ok = -0.88 <= slope <= -0.72
    verdict("07 mise decay rate", ok, f"log-log slope {slope:.3f} (want [-0.88, -0.72])")


def test_08_product_bandwidth_beats_single_subset_rule():
    grid = Grid(-4.0, 4.0, 401)
    ns = (250, 500, 1000, 2000, 4000)
    losses = []
    for M in (4, 8):
        model = AnalyticModel.normal(0.0, 1.0, M)
        for n in ns:
            h_opt = h_opt_normal(n, M, 1.0)
            h_base = h_opt_normal(n, 1, 1.0)
            # identical seed/outer keys pair the sample streams, so the
            # two policies see the same data
            a = estimate_mise(model, n, h_opt, replications=200, seed=7, grid=grid)
            b = estimate_mise(model, n, h_base, replications=200, seed=7, grid=grid)
            if a.mise > b.mise:
                losses.append((M, n, a.mise, b.mise))
    ok = not losses
    detail = "tuned h no worse at every (M, n)" if ok else f"baseline won at {losses}"
    verdict("08 tuned bandwidth superiority", ok, detail)


def test_09_closed_form_tracks_mise_argmin():
    M, n = 4, 2000
    model = AnalyticModel.normal(0.0, 1.0, M)
    grid = Grid(-4.0, 4.0, 301)
    h_opt = h_opt_normal(n, M, 1.0)
    hs = np.linspace(0.5 * h_opt, 2.0 * h_opt, 17)
    ratios = []
    for r in range(20):
        curve = sweep_bandwidth(model, n, hs, replications=30, seed=99, grid=grid, outer=1 + r)
        ratios.append(h_opt / curve.argmin_h)
    med = float(np.median(ratios))
    ok = 0.85 <= med <= 1.15
    verdict("09 closed form vs mise argmin", ok, f"median ratio {med:.4f} (want [0.85, 1.15])")


def test_10_iterative_plugin_recovers_closed_form():
    # the plug-in fits its surrogate once, from the subset KDEs at the
    # normal-reference start h0, and descends on that fixed pilot fit; the
    # gradient check is taken on the surrogate the optimizer minimized
    # last, fitted at the previous trace row (or at h0 after a single fit)
    M, n = 4, 2000
    model = AnalyticModel.normal(0.0, 1.0, M)
    grid = Grid(-4.0, 4.0, 801)
    rels = []
    grad_ok = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        subs = [SubsetSample(model.sample_subset(rng, n)) for _ in range(M)]
        res = optimize_bandwidth(subs, grid=grid)
        pooled = np.concatenate([s.values for s in subs])
        sigma = float(np.std(pooled, ddof=1))
        target = h_opt_normal(n, M, sigma)
        rels.append(float(np.median(np.abs(res.h - target) / target)))

        h0 = np.full(M, h_opt_normal(n, M, sigma))
        h_fit = res.trace[-2][1] if len(res.trace) > 1 else h0
        kdes = [fit_subset_kde(s, float(hv), GAUSS) for s, hv in zip(subs, h_fit)]
        coeffs = empirical_coefficients(normalize(kdes, grid))
        # the gradient in h is the optimizer's gradient in log h over h
        g_u, _ = _log_h_derivatives(coeffs.beta, coeffs.nu, res.h)
        gnorm = float(np.linalg.norm(g_u / res.h))
        tol = 1e-4 * float(np.linalg.norm(h0))
        grad_ok.append(gnorm < 10.0 * tol)
    med = float(np.median(rels))
    ok = med < 0.15 and all(grad_ok)
    verdict(
        "10 iterative plug-in recovery",
        ok,
        f"median relative distance {med:.3f} (want < 0.15), "
        f"gradient small in {sum(grad_ok)}/20 runs",
    )


def test_11_surrogate_gradient_oracle():
    # the gradient the optimizer takes, in log h, held to finite differences
    # of the surrogate in h through the chain rule: d/dh = (d/du) / h
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        M = int(rng.integers(1, 9))
        beta = rng.normal(0.0, 1.0, (M, M))
        nu = rng.uniform(0.5, 2.0, M)
        h = rng.uniform(0.5, 2.0, M)
        co = AmiseCoefficients(beta, nu)
        g = _log_h_derivatives(co.beta, co.nu, h)[0] / h
        fd = gradient_fd(lambda v: amise_hat(co, v), h, 1e-6)
        scale = np.maximum(np.abs(fd), 1.0)
        worst = max(worst, float(np.max(np.abs(g - fd) / scale)))
    verdict("11 surrogate gradient oracle", worst < 1e-5, f"max rel err {worst:.2e}")


def test_12_determinism_across_worker_counts(tmp_path):
    def run(out, workers):
        cfg = ExperimentConfig(
            family="normal",
            M=2,
            n_per_subset=[100, 200],
            replications=10,
            outer_repeats=2,
            sweep_count=5,
            seed=2024,
            grid_lo=-4.0,
            grid_hi=4.0,
            grid_points=201,
            output_dir=str(out),
            workers=workers,
        )
        paths = run_experiment(cfg)
        return {k: open(p, "rb").read() for k, p in paths.items() if k != "manifest"}

    first = run(tmp_path / "w1", 1)
    second = run(tmp_path / "w2", 2)
    third = run(tmp_path / "w1b", 1)
    ok = first == second == third
    verdict("12 determinism across worker counts", ok, "byte-identical CSVs")
