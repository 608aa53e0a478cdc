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
c L_i = L_i / lambda, never c or c^2. `_integrals` alone forms their
integrals, over the distinct subset densities with their multiplicities, so
a symmetric model's M identical densities cost one row; `amise_bar` of
density callables is `amise_hat` of their coefficients. K is the Gaussian
kernel, the only one whose estimates have the curvatures p''.

Only nu's integrals and beta need the grid, and neither depends on h or N.
A model's M identical densities give one beta entry b and one nu integral
d, so its functional is b (sum_i h_i^2)^2 + sum_i d / (N_i h_i).
`_model_integrals` memoizes (b, d) per (model, grid) in a fixed-size LRU
cache, so a bandwidth search and `ab_constants` on one model and grid
integrate once and form no M x M array. A model that raises is not
cached. Subset KDEs and density callables are not memoized: they are put
on the grid on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    P[:-1].cumprod(axis=0, out=L[1:])
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


def _densities(source):
    """source's subset densities: a model's one density M times, else source."""
    return [source.subset] * source.M if isinstance(source, AnalyticModel) else source


def _leading_at(densities, N, h, x):
    x = np.asarray(x, dtype=float)
    P, Pdd = (np.stack([np.asarray(f(x, d), dtype=float) for f in _densities(densities)])
              for d in (0, 2))
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
    P, Pdd = grid_rows(_densities(source), grid, (0, 2))
    b, v = _leading(P, Pdd, N, h)
    return integrate_values(b * b, grid.spacing) + integrate_values(v, grid.spacing)


def amise_bar(source, N: Sequence[int], h: Sequence[float], grid: Grid) -> float:
    """Leading-order weighted error of the normalized posterior estimator.

    Feeds the coefficient builder the true densities of source, a list of
    density callables, and their second derivatives on the grid, with
    sample sizes N, and evaluates the surrogate at h. A model's functional
    is b s^2 + sum_i d / (N_i h_i) with s = sum_i h_i^2, from its two
    numbers (b, d) in `_model_integrals`.
    """
    if not isinstance(source, AnalyticModel):
        return amise_hat(_coefficients(source, N, grid), h)
    b, d = _model_integrals(source, grid)
    N = np.asarray(N, dtype=float)
    h = np.asarray(h, dtype=float)
    if N.shape != (source.M,) or h.shape != N.shape:
        raise ValueError(f"need {source.M} sample sizes and bandwidths, got {N} and {h}")
    # both positive before the division, so a zero N does not divide
    if not (np.minimum(N, h) > 0).all():
        name, v = ("bandwidths", h) if not (h > 0).all() else ("sample sizes", N)
        raise ValueError(f"{name} must be positive and finite, got {v}")
    variance = np.add.reduce(d / N / h)
    # positive terms: N @ h is finite when N and h are, and a variance that
    # overflows for good N and h is returned as inf
    if not math.isfinite(variance + N @ h):
        for name, v in (("sample sizes", N), ("bandwidths", h)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be positive and finite, got {v}")
    s = h @ h
    return float(b * s * s + variance)


@dataclass(frozen=True)
class AmiseCoefficients:
    """Quadratic/reciprocal coefficients of the plug-in bandwidth surrogate."""

    beta: np.ndarray  # (M, M); symmetric when built by `_coefficients`
    nu: np.ndarray  # (M,), positive

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        if nu.ndim != 1 or beta.shape != (nu.size, nu.size):
            raise ValueError(f"need a 1-D nu and an M x M beta, got {nu.shape} and {beta.shape}")
        if not (np.isfinite(beta).all() and np.isfinite(nu).all()):
            raise ValueError("coefficients must be finite")
        if (nu <= 0).any():
            raise ValueError("nu entries must be positive")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "nu", nu)

    @property
    def M(self) -> int:
        return self.nu.size


def _coefficients(source, N, grid: Grid) -> AmiseCoefficients:
    """beta and nu for density callables or subset KDEs on grid; the one
    place the error functional's coefficients are formed.

    Each callable or KDE is one subset density, put on the grid on every
    call; nu is its integral divided by N.
    """
    N = np.asarray(N, dtype=float)
    if not (np.isfinite(N).all() and (N > 0).all()):
        raise ValueError(f"sample sizes must be positive and finite, got {N}")
    dens, beta = _integrals(source, 1, grid)
    return AmiseCoefficients(beta, dens / N)


def _integrals(source, k: int, grid: Grid):
    """The N- and h-free part of the coefficients over source's distinct
    subset densities P, each k times in the product: nu's integrals
    R(K) int p_i (c L_i)^2 and beta, the Gram matrix (k2 / 2)^2 int r_i r_j.

    The product p and lambda come from the same grid values as the
    curvatures, and every integral from the rows c L_i = L_i / lambda. P**1
    is P and P**0 is 1, so the powers are skipped at k = 1. An integral that
    is not finite raises FloatingPointError, with no numpy warning.
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
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
        R -= I[:, None] * (values * root_w)
        beta = (kernel.k2 / 2.0) ** 2 * (R @ R.T)
    if not (np.isfinite(dens).all() and np.isfinite(beta).all()):
        raise FloatingPointError("coefficient integrals overflowed: nu or beta")
    return dens, beta


@lru_cache(maxsize=64)
def _model_integrals(model: AnalyticModel, grid: Grid) -> tuple[float, float]:
    """A model's two numbers (b, d): beta's one entry and nu's one integral
    over its subset density, M times in the product.

    Memoized per (model, grid); exceptions are not cached.
    """
    dens, beta = _integrals([model.subset], model.M, grid)
    return float(beta[0, 0]), float(dens[0])


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


def _log_h_derivatives(beta: np.ndarray, nu: np.ndarray, h: np.ndarray):
    """The surrogate's one gradient g and Hessian H in u = log h, for an h
    already checked: with a = h^2 and S = beta + beta^T, g = 2 a (S a) - nu/h
    and H = 4 (a a^T) S + diag(4 a (S a) + nu/h). The gradient in h is g / h."""
    sym = beta + beta.T
    a = h * h
    a_sa = a * (sym @ a)
    nu_h = nu / h
    hess = np.multiply.outer(4.0 * a, a) * sym
    hess.flat[:: h.size + 1] += 4.0 * a_sa + nu_h
    return 2.0 * a_sa - nu_h, hess


def amise_hat(coeffs: AmiseCoefficients, h) -> float:
    """Surrogate objective sum_ij h_i^2 h_j^2 beta_ij + sum_i nu_i / h_i."""
    return _surrogate(coeffs.beta, coeffs.nu, _check_h(coeffs, h))
