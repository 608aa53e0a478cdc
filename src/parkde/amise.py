"""Asymptotic error functionals and the empirical plug-in surrogate.

For M subset densities p_m with bandwidths h_m and sample sizes N_m, let
L_m = prod_{k != m} p_k and q_m = p_m'' L_m. The product estimator's leading
bias is B0 = (k2 / 2) sum_m h_m^2 q_m and its leading variance is
V = R(K) sum_m p_m L_m^2 / (N_m h_m). The normalized estimator's error
functional weights B0 by c = 1 / int prod_m p_m and V by c^2; with
p = c prod_m p_m it is sum_ij h_i^2 h_j^2 beta_ij + sum_i nu_i / h_i, where

    beta_ij = (k2 / 2)^2 int r_i r_j,    r_i = c q_i - I_i p,
    nu_i = R(K) int p_i (c L_i)^2 / N_i,

and I_i = int c q_i (Wand & Jones 1995, section 3.6). So beta is a Gram
matrix, symmetric and positive semidefinite, and both need only the rows
c L_i = L_i / lambda, never c or c^2. `_coefficients` alone forms beta and
nu, over the distinct subset densities with their multiplicities, so a
symmetric model's M identical densities cost one row; `amise_bar` is
`amise_hat` of its coefficients for the true densities. K is the Gaussian
kernel, the only one whose estimates have the curvatures p''.

Only nu's integrals and beta need the grid, and neither depends on h or N.
For a model they are memoized per (model, grid) in a fixed-size LRU cache,
so a bandwidth search and `ab_constants` on one model and grid integrate
once; an entry holds one density's 1 x 1 beta and its nu integral,
read-only, and each call repeats them out to fresh (M, M) and (M,) arrays.
A model that raises is not cached. Subset KDEs and density callables are
not memoized: they are put on the grid on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .estimators import AnalyticModel, ProductPosterior, _product, grid_rows
from .kernels import from_name
from .quadrature import Grid, integrate_values, simpson_weights


def _prod_except(P: np.ndarray) -> np.ndarray:
    """Leave-one-out products: row m is the product of every row of P but m.

    Prefix times suffix products, so a zero row needs no division.
    """
    L = np.ones_like(P)
    np.cumprod(P[:-1], axis=0, out=L[1:])
    suffix = np.ones_like(P[0])
    for m in range(len(P) - 2, -1, -1):
        suffix = suffix * P[m + 1]
        L[m] *= suffix
    return L


def _leading(P: np.ndarray, Pdd: np.ndarray, N, h):
    """Pointwise leading bias and variance of the product estimator from the
    subset densities P and curvatures Pdd (each M x points)."""
    kernel = from_name("gaussian")
    L = _prod_except(P)
    h = np.asarray(h, dtype=float)
    bias = 0.5 * kernel.k2 * (h**2 @ (Pdd * L))
    weights = 1.0 / (np.asarray(N, dtype=float) * h)
    return bias, kernel.roughness * (weights @ (P * L * L))


def _leading_at(densities, N, h, x):
    if isinstance(densities, AnalyticModel):
        densities = [densities.subset] * densities.M
    x = np.asarray(x, dtype=float)
    P, Pdd = (np.stack([np.asarray(f(x, d), dtype=float) for f in densities]) for d in (0, 2))
    bias, variance = _leading(P, Pdd, N, h)
    return (float(bias), float(variance)) if bias.ndim == 0 else (bias, variance)


def bias_leading(densities, h: Sequence[float], x):
    """Leading bias of the product estimator at x (unscaled by c)."""
    return _leading_at(densities, np.ones(len(h)), h, x)[0]


def variance_leading(densities, N: Sequence[int], h: Sequence[float], x):
    """Leading variance of the product estimator at x (includes int K^2)."""
    return _leading_at(densities, N, h, x)[1]


def amise_product(source, N: Sequence[int], h: Sequence[float], grid: Grid) -> float:
    """Leading-order mean integrated squared error of the raw product."""
    P, Pdd = grid_rows(source, grid, (0, 2))
    b, v = _leading(P, Pdd, N, h)
    return integrate_values(b * b, grid.spacing) + integrate_values(v, grid.spacing)


def amise_bar(source, N: Sequence[int], h: Sequence[float], grid: Grid) -> float:
    """Leading-order weighted error of the normalized posterior estimator.

    Feeds the coefficient builder the true densities of source (a model, or
    a list of density callables) and their second derivatives on the grid,
    with sample sizes N, and evaluates the surrogate at h.
    """
    return amise_hat(_coefficients(source, N, grid), h)


@dataclass(frozen=True)
class AmiseCoefficients:
    """Quadratic/reciprocal coefficients of the plug-in bandwidth surrogate."""

    beta: np.ndarray  # (M, M); symmetric when built by `_coefficients`
    nu: np.ndarray  # (M,), positive
    M: int

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


def _coefficients(source, N, grid: Grid) -> AmiseCoefficients:
    """beta and nu for a model, density callables or subset KDEs on grid;
    the one place the error functional's coefficients are formed.

    `_integrals` integrates over the distinct subset densities, each with a
    multiplicity k: a model's one subset density has k = M, and its
    integrals are memoized per (model, grid); each callable or KDE of a
    sequence has k = 1 and is put on the grid on every call. beta and nu's
    integrals are then repeated out to the M subsets, and nu is divided by N.
    """
    if isinstance(source, AnalyticModel):
        k = source.M
        dens, beta = _model_integrals(source, grid)
    else:
        k = 1
        dens, beta = _integrals(source, k, grid)
    nu = dens.repeat(k) / np.asarray(N, dtype=float)
    return AmiseCoefficients(beta.repeat(k, axis=0).repeat(k, axis=1), nu, len(nu))


def _integrals(source, k: int, grid: Grid):
    """The N- and h-free part of the coefficients over source's distinct
    subset densities P, each k times in the product: nu's integrals
    R(K) int p_i (c L_i)^2 and beta, the Gram matrix (k2 / 2)^2 int r_i r_j.

    The product p and lambda come from the same grid values as the
    curvatures, and every integral from the rows c L_i = L_i / lambda. P**1
    is P and P**0 is 1, so the powers are skipped at k = 1. An integral that
    is not finite raises FloatingPointError.
    """
    P, Pdd = grid_rows(source, grid, (0, 2))
    w = simpson_weights(grid.n_points, grid.spacing)
    Pk = P if k == 1 else P**k
    (lam,), (values,), (err,) = _product(Pk[:, None], w)
    if err is not None:
        raise err
    if not (np.isfinite(P).all() and np.isfinite(Pdd).all()):
        raise ValueError("non-finite density or curvature values on the grid")
    kernel = from_name("gaussian")
    L = _prod_except(Pk)
    if k > 1:
        L *= P ** (k - 1)
    L /= lam
    dens = kernel.roughness * np.einsum("mg,mg,mg,g->m", P, L, L, w)
    # beta's integrals are dot products of the sqrt(w)-weighted rows r_i
    root_w = np.sqrt(w)
    R = np.multiply(L, Pdd, out=L)
    R *= root_w
    I = R @ root_w
    R -= np.outer(I, values * root_w)
    beta = (kernel.k2 / 2.0) ** 2 * (R @ R.T)
    if not (np.isfinite(dens).all() and np.isfinite(beta).all()):
        raise FloatingPointError("coefficient integrals overflowed: nu or beta")
    return dens, beta


@lru_cache(maxsize=64)
def _model_integrals(model: AnalyticModel, grid: Grid):
    """`_integrals` of a model's one subset density, M times in the product.

    Memoized per (model, grid), read-only. An entry holds a 1 x 1 beta and
    one nu integral, a few hundred bytes at any M and G, so 64 of them cost
    a few kB. Exceptions are not cached.
    """
    dens, beta = _integrals(replace(model, M=1), model.M, grid)
    dens.flags.writeable = False
    beta.flags.writeable = False
    return dens, beta


def empirical_coefficients(
    post: ProductPosterior, grid: Grid | None = None
) -> AmiseCoefficients:
    """Plug-in surrogate coefficients from fitted subset KDEs.

    Feeds the coefficient builder the KDEs' values and curvatures on
    post.grid and their sample sizes in place of the true densities. Needs
    Gaussian components (second derivatives enter); grid, if given, must
    equal post.grid.
    """
    if grid is not None and grid != post.grid:
        raise ValueError(f"coefficients are taken on post.grid {post.grid}, not {grid}")
    N = [kde.sample.size for kde in post.components]
    return _coefficients(post.components, N, post.grid)


def _check_h(coeffs: AmiseCoefficients, h) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.shape != (coeffs.M,):
        raise ValueError(f"bandwidth vector must have length {coeffs.M}")
    if not (np.isfinite(h).all() and (h > 0).all()):
        raise ValueError(f"bandwidths must be positive and finite, got {h}")
    return h


def _surrogate(beta: np.ndarray, nu: np.ndarray, h: np.ndarray) -> float:
    """The surrogate's one formula, for an h already checked."""
    h2 = h * h
    return float(h2 @ beta @ h2 + np.add.reduce(nu / h))


def amise_hat(coeffs: AmiseCoefficients, h) -> float:
    """Surrogate objective sum_ij h_i^2 h_j^2 beta_ij + sum_i nu_i / h_i."""
    return _surrogate(coeffs.beta, coeffs.nu, _check_h(coeffs, h))


def amise_hat_grad(coeffs: AmiseCoefficients, h) -> np.ndarray:
    h = _check_h(coeffs, h)
    h2 = h * h
    return 2.0 * h * ((coeffs.beta + coeffs.beta.T) @ h2) - coeffs.nu / h2
