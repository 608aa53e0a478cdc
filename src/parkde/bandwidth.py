"""Closed-form optimal bandwidths and the plug-in bandwidth optimizer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .amise import AmiseCoefficients, _check_h, _coefficients, _model_integrals, _surrogate
from .estimators import AnalyticModel, SubsetSample, data_window, fit_subset_kde
from .kernels import from_name
from .quadrature import Grid


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


def ab_constants(model: AnalyticModel, grid: Grid) -> tuple[float, float]:
    """Symmetric-case constants A(M), B(M) of M A h^4 + M B / (n h).

    At a common h and n the model's functional b (M h^2)^2 + M d / (n h)
    gives A = M b and B = d, from its two numbers (b, d).
    """
    b, d = _model_integrals(model, grid)
    return model.M * b, d


def h_opt_normal(n: int, M: int, sigma: float) -> float:
    """Optimal common bandwidth for M identical normal subset posteriors."""
    if n < 1 or M < 1:
        raise ValueError("n and M must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return (16.0 / 9.0 * M**3 / (2.0 * M - 1.0)) ** 0.1 * sigma * n ** (-0.2)


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
    sigma_hat = 1.0
    if pooled.size > 1:
        # np.std(pooled, ddof=1)'s arithmetic without its wrapper layers,
        # which cost more than the sums on a plug-in problem
        dev = pooled - pooled.sum() / pooled.size
        sigma_hat = math.sqrt((dev * dev).sum() / (pooled.size - 1))
    return np.array([h_opt_normal(s.size, len(subsets), sigma_hat) for s in subsets])


# cap on the Newton steps of one solve; solves stop on a short step after a
# median of 5
_MAX_STEPS = 400

# stop reasons of a solve that ends at a stationary point of its surrogate
_CONVERGED = ("step<tol", "zero-gradient")

# points of the grid `optimize_bandwidth` builds when given none
OPTIMIZE_GRID_POINTS = 4001


@dataclass
class OptimizeResult:
    """Outcome of `optimize_bandwidth`.

    converged is True when the solve stopped at a stationary point of the
    pilot surrogate: on an accepted step shorter than tol, or on a zero
    gradient. iterations counts surrogate fits and is always 1. trace holds
    that fit's one row: (iteration, h, amise_hat, grad_norm, step,
    backtracks, stop, steps, fallbacks). grad_norm is the norm of the last
    gradient in h taken (nan if none was), step the length in h of the last
    accepted step (0.0 if none was), backtracks the number of step halvings
    over the whole solve, and stop why it ended: "step<tol",
    "zero-gradient", "step-cap" (the step limit was reached) or
    "line-search-failed". steps counts the Newton iterations taken and
    fallbacks those of them that took the gradient direction because the
    Hessian was not positive definite.
    """

    h: np.ndarray
    converged: bool
    iterations: int
    objective: float
    trace: list[tuple[int, np.ndarray, float, float, float, int, str, int, int]] = field(
        default_factory=list
    )


def _newton(
    coeffs: AmiseCoefficients, h: np.ndarray, tol: float = 0.0, max_steps: int = _MAX_STEPS
):
    """Newton steps on the surrogate in u = log h, monotone by backtracking.

    With a = h^2 and S = beta + beta^T, the gradient in u is 2 a (S a) - nu/h
    and the Hessian 4 (a a^T) S + diag(4 a (S a) + nu/h). Where Cholesky
    finds the Hessian not positive definite (beta may have negative
    off-diagonal entries) the gradient direction stands in. Each direction
    is scaled to at most 1 in every log h, so a trial point moves no h by
    more than a factor e, and halved until the Armijo test holds (Nocedal &
    Wright 2006, ch. 3). Every iterate is positive, so h is checked once.
    Returns the last iterate, its surrogate value and the record (grad_norm,
    step, backtracks, stop, steps, fallbacks) described on `OptimizeResult`.
    """
    h = _check_h(coeffs, h).copy()
    beta, nu = coeffs.beta, coeffs.nu
    sym = beta + beta.T
    f = _surrogate(beta, nu, h)
    gnorm, step, backtracks, stop = math.nan, 0.0, 0, "step-cap"
    steps = fallbacks = 0
    for _ in range(max_steps):
        a = h * h
        a_sa = a * (sym @ a)
        nu_h = nu / h
        g = 2.0 * a_sa - nu_h
        g_h = g / h
        gnorm = math.sqrt(g_h @ g_h)
        if gnorm == 0.0:
            stop = "zero-gradient"
            break
        steps += 1
        hess = np.multiply.outer(4.0 * a, a) * sym
        hess.flat[:: coeffs.M + 1] += 4.0 * a_sa + nu_h
        try:
            np.linalg.cholesky(hess)
            d = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            d = -g
            fallbacks += 1
        reach = float(np.abs(d).max())
        if reach > 1.0:
            d /= reach
        slope = 1e-4 * float(g @ d)
        t = 1.0
        for halvings in range(60):
            cand = h * np.exp(t * d)
            fc = _surrogate(beta, nu, cand)
            if fc <= f + t * slope:
                break
            t *= 0.5
        else:
            backtracks += 60
            stop = "line-search-failed"
            break
        backtracks += halvings
        f = fc
        dh = cand - h
        step = math.sqrt(dh @ dh)
        h = cand
        if step < tol:
            stop = "step<tol"
            break
    return h, f, (gnorm, step, backtracks, stop, steps, fallbacks)


def optimize_bandwidth(
    subsets: Sequence[SubsetSample],
    grid: Grid | None = None,
    tol: float | None = None,
) -> OptimizeResult:
    """Locate a near-optimal bandwidth vector from subset samples alone.

    Initializes each component with the normal-case closed form (pooled
    sample standard deviation standing in for sigma) and fits the plug-in
    surrogate coefficients once, from the Gaussian subset KDEs at that
    start. This pilot fit stays fixed, as in direct plug-in selectors, and
    the result is the surrogate's minimizer found by `_newton`, which stops
    once an accepted step in h is shorter than tol (default 1e-4 * ||h0||).
    The fit evaluates every KDE on the grid once, for its values and
    curvatures together, and forms the posterior from the same values.
    """
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    subsets = list(subsets)
    if not subsets:
        raise ValueError("need at least one subset")

    h0 = normal_reference_h(subsets)
    if tol is None:
        tol = 1e-4 * math.sqrt(h0.dot(h0))  # np.linalg.norm(h0)
    if grid is None:
        grid = Grid(*data_window(subsets, h0), OPTIMIZE_GRID_POINTS)

    kernel = from_name("gaussian")
    kdes = [fit_subset_kde(s, hv, kernel) for s, hv in zip(subsets, h0)]
    coeffs = _coefficients(kdes, [s.size for s in subsets], grid)
    h, obj, record = _newton(coeffs, h0, tol)
    converged = record[3] in _CONVERGED
    return OptimizeResult(h, converged, 1, obj, trace=[(1, h.copy(), obj, *record)])
