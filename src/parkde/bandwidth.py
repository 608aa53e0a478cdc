"""Closed-form optimal bandwidths and the plug-in bandwidth optimizer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .amise import AmiseCoefficients, amise_hat, amise_hat_grad, empirical_coefficients
from .estimators import AnalyticModel, SubsetSample, fit_subset_kde, normalize
from .kernels import Kernel, from_name
from .quadrature import Grid, default_grid, integrate_values

_SQRT_PI = math.sqrt(math.pi)


class GammaDomain(ValueError):
    """Gamma closed form requested outside its validity region."""


def parzen_h_m1(n: int, k2: float, kernel_roughness: float, curvature: float) -> float:
    """Classical single-estimator optimal bandwidth.

    curvature is int (p'')^2 for the target density; for N(mu, sigma) it is
    3 / (8 sqrt(pi) sigma^5), which reduces the formula to
    (4/3)^(1/5) sigma n^(-1/5).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if curvature <= 0:
        raise ValueError("curvature must be positive")
    return (
        n ** (-0.2)
        * k2 ** (-0.4)
        * kernel_roughness**0.2
        * curvature ** (-0.2)
    )


def h_opt_symmetric(n: int, A: float, B: float) -> float:
    """Minimizer of A h^4 + B / (n h): h = (4n)^(-1/5) (B/A)^(1/5)."""
    if A <= 0 or B <= 0:
        raise ValueError("A and B must be positive")
    return (4.0 * n) ** (-0.2) * (B / A) ** 0.2


def ab_constants(
    model: AnalyticModel, grid: Grid, kernel: Kernel | None = None
) -> tuple[float, float]:
    """Symmetric-case constants A(M), B(M) by quadrature over the subset density."""
    kernel = kernel or from_name("gaussian")
    x = grid.points
    dx = grid.spacing
    M = model.M
    p1 = np.asarray(model.subset(x, 0), dtype=float)
    p1dd = np.asarray(model.subset(x, 2), dtype=float)
    post = normalize([model.subset] * M, grid)
    c = post.c_hat
    q = p1dd * p1 ** (M - 1)
    i1 = integrate_values(q, dx)
    i2 = integrate_values(q * q, dx)
    i3 = integrate_values(post.values**2, dx)
    i4 = integrate_values(p1dd * p1 ** (2 * M - 1), dx)
    A = M * c**2 * kernel.k2**2 / 4.0 * (i1**2 * i3 + i2 - 2.0 * c * i1 * i4)
    B = c**2 * integrate_values(p1 ** (2 * M - 1), dx) * kernel.roughness
    return A, B


def h_opt_normal(n: int, M: int, sigma: float) -> float:
    """Optimal common bandwidth for M identical normal subset posteriors."""
    if n < 1 or M < 1:
        raise ValueError("n and M must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return (16.0 / 9.0 * M**3 / (2.0 * M - 1.0)) ** 0.1 * sigma * n ** (-0.2)


def h_opt_baseline(n: int, M: int, sigma: float) -> np.ndarray:
    """Per-subset (M=1) bandwidth replicated across subsets; suboptimal for M > 1."""
    h = h_opt_normal(n, 1, sigma)
    return np.full(M, h)


def h_opt_gamma(n: int, M: int, alpha: float, theta: float) -> float:
    """Optimal common bandwidth for M identical gamma subset posteriors.

    Exact closed form for the symmetric-case minimizer with p1 = Gamma(alpha,
    scale theta); evaluated via log-gamma so moderate M and alpha do not
    overflow. Valid for alpha > 1 + 3 / (2M).
    """
    if n < 1 or M < 1:
        raise ValueError("n and M must be >= 1")
    if theta <= 0:
        raise GammaDomain("theta must be positive")
    a1 = alpha - 1.0
    q = 2.0 * M * a1
    # denominator polynomial of the bias constant A(M)
    Q = (
        8.0 * M**3 * alpha
        - 8.0 * M**3
        + 3.0 * M**2 * alpha**2
        - 28.0 * M**2 * alpha
        + 16.0 * M**2
        + 8.0 * M * alpha
        + 16.0 * M
        - 12.0
    )
    if a1 <= 0 or q - 3.0 <= 0 or q - alpha + 1.0 <= 0:
        raise GammaDomain(
            f"gamma closed form needs alpha > 1 + 3/(2M); got alpha={alpha}, M={M}"
        )
    if M * a1 - 1.0 <= 0 or Q <= 0:
        raise GammaDomain(
            f"bias constant not positive for alpha={alpha}, M={M}"
        )
    log_h5 = (
        5.0 * math.log(theta)
        - 0.5 * math.log(math.pi)
        - math.log(n)
        + M * a1 * math.log(4.0 * M**2)
        - (2.0 * M - 1.0) * a1 * math.log(2.0 * M - 1.0)
        + math.log(a1)
        + 2.0 * math.log(M * a1 - 1.0)
        + math.log(q - 3.0)
        + math.log(q - 1.0)
        + gammaln(alpha)
        + gammaln(q - alpha + 1.0)
        - gammaln(q + 1.0)
        - math.log(Q)
    )
    return math.exp(0.2 * log_h5)


def normal_reference_h(subsets: Sequence[SubsetSample]) -> np.ndarray:
    """Normal-case closed form per subset, the pooled sample standard
    deviation standing in for sigma.

    The optimizer's start and `parkde fit --bandwidth auto`.
    """
    pooled = np.concatenate([s.values for s in subsets])
    sigma_hat = float(np.std(pooled, ddof=1)) if pooled.size > 1 else 1.0
    return np.array([h_opt_normal(s.size, len(subsets), sigma_hat) for s in subsets])


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the plug-in bandwidth search.

    max_outer_iters counts surrogate fits. The default of 1 fits the plug-in
    surrogate once, at the normal-reference start, and keeps that pilot fit
    fixed; values above 1 refit it from the KDEs at each new iterate until
    two successive iterates lie within tol. Each fit is followed by up to
    descent_steps_per_iter gradient steps, which stop early once an accepted
    step is shorter than tol. tol and h_floor default to 1e-4 * ||h0|| and
    1e-3 * max(h0) / M, derived from the initialization when left as None.
    """

    max_outer_iters: int = 1
    descent_steps_per_iter: int = 400
    step_rule: str = "backtracking"  # "backtracking" | "fixed"
    init_step: float | None = None
    tol: float | None = None
    h_floor: float | None = None
    armijo: float = 1e-4
    shrink: float = 0.5


@dataclass
class OptimizeResult:
    """Outcome of `optimize_bandwidth`.

    converged is True when the last descent stopped on an accepted step
    shorter than tol, so h is a stationary point of the last fitted
    surrogate. trace holds one (iteration, h, amise_hat) row per fit.
    """

    h: np.ndarray
    converged: bool
    iterations: int
    objective: float | None
    trace: list[tuple[int, np.ndarray, float]] = field(default_factory=list)


def _descent(
    coeffs: AmiseCoefficients,
    h: np.ndarray,
    opts: OptimizerOptions,
    h_floor: float,
    tol: float = 0.0,
) -> tuple[np.ndarray, bool]:
    """Projected gradient steps on the surrogate, monotone by backtracking.

    Returns the last iterate and whether the descent stopped on an accepted
    step shorter than tol.
    """
    h = h.copy()
    f = amise_hat(coeffs, h)
    for _ in range(opts.descent_steps_per_iter):
        g = amise_hat_grad(coeffs, h)
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            return h, True
        t = opts.init_step if opts.init_step else 0.1 * float(np.linalg.norm(h)) / gnorm
        if opts.step_rule == "fixed":
            cand = np.maximum(h - t * g, h_floor)
            f = amise_hat(coeffs, cand)
        else:
            for _ in range(60):
                cand = np.maximum(h - t * g, h_floor)
                fc = amise_hat(coeffs, cand)
                if fc <= f - opts.armijo * float(g @ (h - cand)):
                    f = fc
                    break
                t *= opts.shrink
            else:
                return h, False
        step = float(np.linalg.norm(cand - h))
        h = cand
        if step < tol:
            return h, True
    return h, False


def optimize_bandwidth(
    subsets: Sequence[SubsetSample],
    kernel: Kernel | None = None,
    opts: OptimizerOptions | None = None,
    grid: Grid | None = None,
) -> OptimizeResult:
    """Locate a near-optimal bandwidth vector from subset samples alone.

    Initializes each component with the normal-case closed form (pooled
    sample standard deviation standing in for sigma) and fits the plug-in
    surrogate coefficients from the subset KDEs at that start. By default
    this pilot fit stays fixed, as in direct plug-in selectors, and the
    result is the surrogate's minimizer found by gradient descent.
    Refitting at the current iterate (max_outer_iters > 1) estimates the
    curvature functionals at the bandwidth being optimized; for M=4
    subsets of n=2000 that feedback settles on asymmetric points about a
    third away from the closed-form optimum.
    """
    kernel = kernel or from_name("gaussian")
    if not kernel.smooth:
        raise ValueError("the plug-in optimizer needs a gaussian kernel")
    opts = opts or OptimizerOptions()
    subsets = list(subsets)
    M = len(subsets)
    if M < 1:
        raise ValueError("need at least one subset")

    h0 = normal_reference_h(subsets)
    tol = opts.tol if opts.tol is not None else 1e-4 * float(np.linalg.norm(h0))
    h_floor = (
        opts.h_floor if opts.h_floor is not None else 1e-3 * float(h0.max()) / M
    )
    if grid is None:
        grid = default_grid(np.concatenate([s.values for s in subsets]), h0)

    h = h0.copy()
    trace: list[tuple[int, np.ndarray, float]] = []
    converged = False
    obj = None
    it = 0
    for it in range(1, opts.max_outer_iters + 1):
        kdes = [fit_subset_kde(s, hv, kernel) for s, hv in zip(subsets, h)]
        post = normalize(kdes, grid)
        coeffs = empirical_coefficients(post, grid)
        h_next, converged = _descent(coeffs, h, opts, h_floor, tol)
        obj = amise_hat(coeffs, h_next)
        trace.append((it, h_next.copy(), obj))
        moved = float(np.linalg.norm(h - h_next))
        h = h_next
        if moved < tol:
            break
    return OptimizeResult(h=h, converged=converged, iterations=it, objective=obj, trace=trace)
