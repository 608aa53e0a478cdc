"""Closed-form optimal bandwidths and the plug-in bandwidth optimizer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .amise import (
    AmiseCoefficients,
    _check_h,
    _source_coefficients,
    _surrogate,
    _surrogate_grad,
)
from .estimators import AnalyticModel, SubsetSample, fit_subset_kde
from .kernels import Kernel, from_name
from .quadrature import Grid, default_grid


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
    """Symmetric-case constants A(M), B(M) of M A h^4 + M B / (n h).

    Feeds the coefficient builder the model's subset densities with unit
    sample sizes: A is the sum of beta over M and B the mean of nu.
    """
    coeffs = _source_coefficients(model, np.ones(model.M), grid, kernel)
    return float(coeffs.beta.sum()) / model.M, float(coeffs.nu.mean())


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
    overflow. Valid for alpha > 1 + 3 / (2M); raises GammaDomain where the
    closed form's terms overflow a float (alpha above about 1.3e154).
    """
    if n < 1 or M < 1:
        raise ValueError("n and M must be >= 1")
    if theta <= 0:
        raise GammaDomain("theta must be positive")
    a1 = alpha - 1.0
    q = 2.0 * M * a1
    if a1 <= 0 or q - 3.0 <= 0 or q - alpha + 1.0 <= 0:
        raise GammaDomain(
            f"gamma closed form needs alpha > 1 + 3/(2M); got alpha={alpha}, M={M}"
        )
    try:
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
            + math.lgamma(alpha)
            + math.lgamma(q - alpha + 1.0)
            - math.lgamma(q + 1.0)
            - math.log(Q)
        )
    except OverflowError:  # alpha**2 or lgamma past the float range
        log_h5 = math.inf
    if not math.isfinite(log_h5):
        raise GammaDomain(
            f"gamma closed form h_opt_gamma overflows a float for alpha={alpha}, M={M}"
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
    two successive iterates lie within tol, and 0 returns the start. Each fit
    is followed by up to descent_steps_per_iter gradient steps, which stop
    early once an accepted step is shorter than tol. tol defaults to
    1e-4 * ||h0||, derived from the initialization when left as None.
    """

    max_outer_iters: int = 1
    descent_steps_per_iter: int = 400
    tol: float | None = None

    def __post_init__(self):
        if self.max_outer_iters < 0 or self.descent_steps_per_iter < 0:
            raise ValueError(
                "max_outer_iters and descent_steps_per_iter must be >= 0, got "
                f"{self.max_outer_iters} and {self.descent_steps_per_iter}"
            )
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")


# stop reasons of a descent that ends at a stationary point of its surrogate
_CONVERGED = ("step<tol", "zero-gradient")


@dataclass
class OptimizeResult:
    """Outcome of `optimize_bandwidth`.

    converged is True when the last descent stopped at a stationary point of
    the last fitted surrogate: on an accepted step shorter than tol, or on a
    zero gradient. trace holds one row per fit: (iteration, h, amise_hat,
    grad_norm, step, backtracks, stop). grad_norm is the norm of the last
    gradient taken (nan if none was), step the length of the last accepted
    step (0.0 if none was), backtracks the number of step halvings over the
    whole descent, and stop why it ended: "step<tol", "zero-gradient",
    "step-cap" (descent_steps_per_iter steps taken) or "line-search-failed".
    """

    h: np.ndarray
    converged: bool
    iterations: int
    objective: float | None
    trace: list[tuple[int, np.ndarray, float, float, float, int, str]] = field(
        default_factory=list
    )


def _descent(
    coeffs: AmiseCoefficients,
    h: np.ndarray,
    opts: OptimizerOptions,
    h_floor: float,
    tol: float = 0.0,
) -> tuple[np.ndarray, float, tuple[float, float, int, str]]:
    """Projected gradient steps on the surrogate, monotone by backtracking.

    Returns the last iterate, its surrogate value and the descent's record
    (grad_norm, step, backtracks, stop) as described on `OptimizeResult`.
    Every iterate is at least h_floor > 0, so h is checked once and the
    surrogate's unchecked formulas run in the loop.
    """
    h = _check_h(coeffs, h).copy()
    beta, nu = coeffs.beta, coeffs.nu
    sym = beta + beta.T
    f = _surrogate(beta, nu, h)
    gnorm, step, backtracks, stop = math.nan, 0.0, 0, "step-cap"
    for _ in range(opts.descent_steps_per_iter):
        g = _surrogate_grad(sym, nu, h)
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            stop = "zero-gradient"
            break
        t = 0.1 * float(np.linalg.norm(h)) / gnorm
        for halvings in range(60):
            cand = np.maximum(h - t * g, h_floor)
            fc = _surrogate(beta, nu, cand)
            d = h - cand
            if fc <= f - 1e-4 * float(g @ d):
                break
            t *= 0.5
        else:
            backtracks += 60
            stop = "line-search-failed"
            break
        backtracks += halvings
        f = fc
        step = float(np.linalg.norm(d))
        h = cand
        if step < tol:
            stop = "step<tol"
            break
    return h, f, (gnorm, step, backtracks, stop)


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
    third away from the closed-form optimum. Each fit evaluates every KDE
    on the grid once, for its values and curvatures together, and forms the
    posterior from the same values.
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
    h_floor = 1e-3 * float(h0.max()) / M
    if grid is None:
        grid = default_grid(np.concatenate([s.values for s in subsets]), h0)

    N = [s.size for s in subsets]
    h = h0.copy()
    trace: list[tuple[int, np.ndarray, float, float, float, int, str]] = []
    obj = None
    it = 0
    for it in range(1, opts.max_outer_iters + 1):
        kdes = [fit_subset_kde(s, hv, kernel) for s, hv in zip(subsets, h)]
        coeffs = _source_coefficients(kdes, N, grid, kernel)
        h_next, obj, record = _descent(coeffs, h, opts, h_floor, tol)
        trace.append((it, h_next.copy(), obj, *record))
        moved = float(np.linalg.norm(h - h_next))
        h = h_next
        if moved < tol:
            break
    converged = bool(trace) and trace[-1][-1] in _CONVERGED
    return OptimizeResult(h=h, converged=converged, iterations=it, objective=obj, trace=trace)
