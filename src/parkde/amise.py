"""Asymptotic error functionals and the empirical plug-in surrogate.

For M subset densities p_m with bandwidths h_m and sample sizes N_m, let
L_m = prod_{k != m} p_k and q_m = p_m'' L_m. The product estimator's leading
bias is B0 = (k2 / 2) sum_m h_m^2 q_m and its leading variance is
V = R(K) sum_m p_m L_m^2 / (N_m h_m). The normalized estimator's error
functional weights B0 by c = 1 / int prod_m p_m and V by c^2; with
p = c prod_m p_m it is sum_ij h_i^2 h_j^2 beta_ij + sum_i nu_i / h_i, where

    beta_ij = (c k2 / 2)^2 (I_i I_j S + U_ij - 2 I_i T_j),
    nu_i = c^2 R(K) int p_i L_i^2 / N_i,

I_i = int q_i, T_i = int q_i p, U_ij = int q_i q_j and S = int p^2 (Wand &
Jones 1995, section 3.6). `_coefficients` alone forms beta and nu;
`amise_bar` is `amise_hat` of its coefficients for the true densities. K is
the Gaussian kernel, the only one whose estimates have the curvatures p''.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .estimators import AnalyticModel, ProductPosterior, _product, grid_rows
from .kernels import from_name
from .quadrature import Grid, integrate_values, simpson_weights

DensityProvider = Callable[..., np.ndarray]


def _providers(source) -> list[DensityProvider]:
    """Normalize a model / KDE list / callable list to per-subset densities."""
    if isinstance(source, AnalyticModel):
        return [source.subset] * source.M
    comps = list(source)
    if not comps:
        raise ValueError("need at least one density component")
    return comps


def _density_table(densities: Sequence[DensityProvider], x, deriv: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.stack([np.asarray(f(x, deriv), dtype=float) for f in densities])


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
    densities = _providers(densities)
    P, Pdd = _density_table(densities, x, 0), _density_table(densities, x, 2)
    bias, variance = _leading(P, Pdd, N, h)
    return (float(bias), float(variance)) if bias.ndim == 0 else (bias, variance)


def bias_leading(densities, h: Sequence[float], x):
    """Leading bias of the product estimator at x (unscaled by c)."""
    return _leading_at(densities, np.ones(len(h)), h, x)[0]


def variance_leading(densities, N: Sequence[int], h: Sequence[float], x):
    """Leading variance of the product estimator at x (includes int K^2)."""
    return _leading_at(densities, N, h, x)[1]


def amise_product(source, N: Sequence[int], h: Sequence[float], grid: Grid) -> float:
    """Leading-order mean integrated squared error of the raw product.

    A model's one subset density and curvature are evaluated once
    (`_grid_tables`).
    """
    P, Pdd = _grid_tables(source, grid)
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

    beta: np.ndarray  # (M, M), stored unsymmetrized
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

    Each component is evaluated on the grid once, for its values and
    curvatures together, and the product p and c come from the same values.
    """
    P, Pdd = _grid_tables(source, grid)
    lam, values = _product(P, grid)
    if not (np.isfinite(P).all() and np.isfinite(Pdd).all()):
        raise ValueError("non-finite density or curvature values on the grid")
    kernel = from_name("gaussian")
    c = 1.0 / lam
    w = simpson_weights(grid.n_points, grid.spacing)
    L = _prod_except(P)
    nu = c**2 * kernel.roughness / np.asarray(N, dtype=float)
    nu = nu * np.einsum("mg,mg,mg,g->m", P, L, L, w)
    # every remaining integral is a dot product of sqrt(w)-weighted rows
    root_w = np.sqrt(w)
    Q = np.multiply(L, Pdd, out=L)
    Q *= root_w
    p = values * root_w
    I = Q @ root_w
    T = Q @ p
    U = Q @ Q.T
    scale = (c * kernel.k2 / 2.0) ** 2
    beta = scale * (np.outer(I, I) * (p @ p) + U - 2.0 * np.outer(I, T))
    return AmiseCoefficients(beta, nu, len(P))


def _grid_tables(source, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Values and curvatures (each M x G) of source's subset densities at
    grid.points; a model's one subset density is evaluated once and its
    rows repeated."""
    if isinstance(source, AnalyticModel):
        rows = grid_rows(source.subset, grid, (0, 2))
        return np.repeat(rows[:, None], source.M, axis=1)
    return np.stack([grid_rows(f, grid, (0, 2)) for f in _providers(source)], axis=1)


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
    if np.any(h <= 0):
        raise ValueError("bandwidths must be positive")
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
