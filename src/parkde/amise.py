"""Asymptotic error functionals and the empirical plug-in surrogate.

Notation: for M subset densities p_m with bandwidths h_m and sample sizes
N_m, the leading bias of the product estimator is

    B0(x) = (k2 / 2) sum_m h_m^2 p_m''(x) prod_{k != m} p_k(x)

and the leading variance is

    V(x) = sum_m [ p_m(x) / (N_m h_m) ] prod_{k != m} p_k(x)^2 .

The error functional for the normalized estimator weights both by the true
normalization c = 1 / int p*:  its bias term is B(x) = c * B0(x) and its
variance integral carries a factor c^2 (the same scaling that produces the
closed-form constants A(M), B(M) of the symmetric case).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .estimators import AnalyticModel, ProductPosterior, SubsetKde, normalize
from .kernels import Kernel, from_name
from .quadrature import Grid, integrate_values

DensityProvider = Callable[..., np.ndarray]


def _providers(source) -> list[DensityProvider]:
    """Normalize a model / KDE list / callable list to per-subset densities."""
    if isinstance(source, AnalyticModel):
        return [source.subset] * source.M
    comps = list(source)
    if not comps:
        raise ValueError("need at least one density component")
    return comps


def _density_table(densities: Sequence[DensityProvider], x, deriv2: bool = True):
    x = np.asarray(x, dtype=float)
    P = np.stack([np.asarray(f(x, 0), dtype=float) for f in densities])
    Pdd = (
        np.stack([np.asarray(f(x, 2), dtype=float) for f in densities])
        if deriv2
        else None
    )
    return P, Pdd


def _prod_except(P: np.ndarray, m: int) -> np.ndarray:
    idx = [k for k in range(P.shape[0]) if k != m]
    if not idx:
        return np.ones_like(P[0])
    return np.prod(P[idx], axis=0)


def bias_leading(densities, h: Sequence[float], x, kernel: Kernel | None = None):
    """Leading bias of the product estimator at x (unscaled by c)."""
    kernel = kernel or from_name("gaussian")
    densities = _providers(densities)
    h = np.asarray(h, dtype=float)
    P, Pdd = _density_table(densities, x)
    acc = np.zeros_like(P[0])
    for m in range(len(densities)):
        acc += h[m] ** 2 * Pdd[m] * _prod_except(P, m)
    out = 0.5 * kernel.k2 * acc
    return float(out[()]) if out.ndim == 0 else out


def variance_leading(
    densities, N: Sequence[int], h: Sequence[float], x, kernel: Kernel | None = None
):
    """Leading variance of the product estimator at x (includes int K^2)."""
    kernel = kernel or from_name("gaussian")
    densities = _providers(densities)
    N = np.asarray(N, dtype=float)
    h = np.asarray(h, dtype=float)
    P, _ = _density_table(densities, x, deriv2=False)
    acc = np.zeros_like(P[0])
    for m in range(len(densities)):
        acc += P[m] / (N[m] * h[m]) * _prod_except(P, m) ** 2
    out = acc * kernel.roughness
    return float(out[()]) if out.ndim == 0 else out


def amise_product(
    source, N: Sequence[int], h: Sequence[float], grid: Grid, kernel: Kernel | None = None
) -> float:
    """Leading-order mean integrated squared error of the raw product."""
    kernel = kernel or from_name("gaussian")
    x = grid.points
    b = bias_leading(source, h, x, kernel)
    v = variance_leading(source, N, h, x, kernel)
    return integrate_values(b * b, grid.spacing) + integrate_values(v, grid.spacing)


def amise_bar(
    source, N: Sequence[int], h: Sequence[float], grid: Grid, kernel: Kernel | None = None
) -> float:
    """Leading-order weighted error of the normalized posterior estimator.

    Four terms: squared mean-bias times posterior energy, integrated squared
    bias, the c^2-scaled variance integral, and the bias cross term (its
    double integral factorizes exactly).
    """
    kernel = kernel or from_name("gaussian")
    densities = _providers(source)
    x = grid.points
    dx = grid.spacing
    post = normalize(densities, grid)
    c = post.c_hat
    B = c * bias_leading(densities, h, x, kernel)
    V = variance_leading(densities, N, h, x, kernel)
    p = post.values
    int_B = integrate_values(B, dx)
    t1 = int_B**2 * integrate_values(p * p, dx)
    t2 = integrate_values(B * B, dx)
    t3 = c * c * integrate_values(V, dx)
    t4 = -2.0 * int_B * integrate_values(B * p, dx)
    return t1 + t2 + t3 + t4


@dataclass(frozen=True)
class AmiseCoefficients:
    """Quadratic/reciprocal coefficients of the plug-in bandwidth surrogate."""

    beta: np.ndarray  # (M, M), stored unsymmetrized
    nu: np.ndarray  # (M,), positive
    M: int
    kernel_roughness: float
    k2: float

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        if beta.shape != (self.M, self.M) or nu.shape != (self.M,):
            raise ValueError("coefficient shapes do not match M")
        if not (np.isfinite(beta).all() and np.isfinite(nu).all()):
            raise ValueError("coefficients must be finite")
        if np.any(nu <= 0):
            raise ValueError("nu entries must be positive")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "nu", nu)


def empirical_coefficients(
    post: ProductPosterior, grid: Grid | None = None
) -> AmiseCoefficients:
    """Plug-in surrogate coefficients from fitted subset KDEs.

    The true densities in the error functional are replaced by the KDEs and
    c by the estimated normalization; requires Gaussian components because
    second derivatives enter the integrands.
    """
    grid = grid or post.grid
    comps = post.components
    M = len(comps)
    for kde in comps:
        if not kde.kernel.smooth:
            raise ValueError("empirical coefficients need gaussian components")
    kernel = comps[0].kernel
    x = grid.points
    dx = grid.spacing

    vals = [kde.value_and_curvature(x) for kde in comps]
    P = np.stack([v[0] for v in vals])
    Pdd = np.stack([v[1] for v in vals])
    pstar = np.prod(P, axis=0)
    c_hat = post.c_hat
    p_hat = c_hat * pstar

    # q_i = p_i'' prod_{k != i} p_k
    Q = np.stack([Pdd[i] * _prod_except(P, i) for i in range(M)])
    I = np.array([integrate_values(Q[i], dx) for i in range(M)])
    S = integrate_values(p_hat * p_hat, dx)
    T = np.array([integrate_values(Q[i] * p_hat, dx) for i in range(M)])
    U = np.array(
        [[integrate_values(Q[i] * Q[j], dx) for j in range(M)] for i in range(M)]
    )

    scale = c_hat**2 * kernel.k2**2 / 4.0
    beta = scale * (np.outer(I, I) * S + U) - 2.0 * scale * np.outer(I, T)

    N = np.array([kde.sample.size for kde in comps], dtype=float)
    nu = np.empty(M)
    for i in range(M):
        integrand = P[i] / N[i] * _prod_except(P, i) ** 2
        nu[i] = c_hat**2 * integrate_values(integrand, dx) * kernel.roughness
    return AmiseCoefficients(beta, nu, M, kernel.roughness, kernel.k2)


def _check_h(coeffs: AmiseCoefficients, h) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.shape != (coeffs.M,):
        raise ValueError(f"bandwidth vector must have length {coeffs.M}")
    if np.any(h <= 0):
        raise ValueError("bandwidths must be positive")
    return h


def amise_hat(coeffs: AmiseCoefficients, h) -> float:
    """Surrogate objective sum_ij h_i^2 h_j^2 beta_ij + sum_i nu_i / h_i."""
    h = _check_h(coeffs, h)
    h2 = h * h
    return float(h2 @ coeffs.beta @ h2 + (coeffs.nu / h).sum())


def amise_hat_grad(coeffs: AmiseCoefficients, h) -> np.ndarray:
    h = _check_h(coeffs, h)
    h2 = h * h
    sym = coeffs.beta + coeffs.beta.T
    return 2.0 * h * (sym @ h2) - coeffs.nu / h**2


def dump_coefficients(
    coeffs: AmiseCoefficients, beta_path: str, nu_path: str
) -> None:
    """Write the coefficient tables as CSV for debugging/reproducibility."""
    with open(beta_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "beta"])
        for i in range(coeffs.M):
            for j in range(coeffs.M):
                w.writerow([i + 1, j + 1, repr(float(coeffs.beta[i, j]))])
    with open(nu_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "nu"])
        for i in range(coeffs.M):
            w.writerow([i + 1, repr(float(coeffs.nu[i]))])
