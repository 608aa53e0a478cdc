"""Subset KDEs, the product estimator, normalization, and analytic models."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .kernels import Kernel
from .quadrature import Grid, integrate_values

_SQRT_2PI = math.sqrt(2.0 * math.pi)

DEGENERATE_LAMBDA = 1e-300

NORMAL_FAMILY = "normal"
GAMMA_FAMILY = "gamma"


class DegenerateProduct(RuntimeError):
    """The product of subset KDEs carries (numerically) no mass.

    Happens when the high-mass regions of the subset estimators have almost
    no common intersection, so the normalization constant underflows.
    """


@dataclass(frozen=True)
class SubsetSample:
    """I.i.d. draws from one subset posterior."""

    values: np.ndarray
    subset_index: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("subset sample must be a non-empty 1-d array")
        if not np.isfinite(v).all():
            raise ValueError("subset sample contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SubsetKde:
    """Kernel density estimator for one subset: a mixture of rescaled kernels."""

    sample: SubsetSample
    bandwidth: float
    kernel: Kernel

    def __call__(self, x, deriv: int = 0):
        if deriv not in (0, 1, 2):
            raise ValueError(f"deriv must be in 0..2, got {deriv}")
        if deriv > 0 and not self.kernel.smooth:
            raise ValueError(
                "KDE derivatives need a smooth (gaussian) kernel, "
                f"got {self.kernel.family!r}"
            )
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        h = self.bandwidth
        t = (x.reshape(-1, 1) - self.sample.values) / h
        vals = self.kernel.deriv(t, deriv).sum(axis=1)
        vals /= self.sample.size * h ** (deriv + 1)
        return float(vals[0]) if scalar else vals

    def value_and_curvature(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(KDE, second derivative) on x, sharing one pass over the sample."""
        if not self.kernel.smooth:
            raise ValueError("curvature needs a smooth (gaussian) kernel")
        x = np.asarray(x, dtype=float)
        h = self.bandwidth
        t = (x.reshape(-1, 1) - self.sample.values) / h
        phi = np.exp(-0.5 * t * t) / _SQRT_2PI
        n = self.sample.size
        p = phi.sum(axis=1) / (n * h)
        pdd = ((t * t - 1.0) * phi).sum(axis=1) / (n * h**3)
        return p, pdd


def fit_subset_kde(sample: SubsetSample, h: float, kernel: Kernel) -> SubsetKde:
    """Attach a bandwidth and kernel to a subset sample."""
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    return SubsetKde(sample, float(h), kernel)


def eval_product(components: Sequence[SubsetKde], x):
    """Unnormalized product of the subset KDEs."""
    if len(components) < 1:
        raise ValueError("need at least one component")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    out = np.ones(x.reshape(-1).shape)
    for kde in components:
        out = out * kde(x.reshape(-1))
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ProductPosterior:
    """Normalized product of subset KDEs with its mass and values on a grid.

    values holds the normalized density at grid.points, so callers that want
    the grid do not evaluate the components a second time; posterior(x)
    evaluates them afresh at any x.
    """

    components: tuple[SubsetKde, ...]
    grid: Grid
    lambda_hat: float
    values: np.ndarray

    @property
    def c_hat(self) -> float:
        return 1.0 / self.lambda_hat

    @property
    def n_subsets(self) -> int:
        return len(self.components)

    def product(self, x):
        return eval_product(self.components, x)

    def posterior(self, x):
        return self.c_hat * self.product(x)


def normalize(components: Sequence[SubsetKde], grid: Grid) -> ProductPosterior:
    """Integrate the product on the grid and wrap it as a density.

    The one place a product is normalized. Components are subset KDEs or
    any other density callables of x, such as `AnalyticModel.subset`.
    """
    vals = eval_product(components, grid.points)
    lam = integrate_values(vals, grid.spacing)
    if lam <= DEGENERATE_LAMBDA:
        raise DegenerateProduct(
            f"product mass {lam!r} underflowed; subset supports nearly disjoint"
        )
    return ProductPosterior(tuple(components), grid, lam, vals / lam)


@dataclass(frozen=True)
class AnalyticModel:
    """Symmetric analytic ground truth: M identical subset densities.

    The normal family gives posterior N(mu, sigma / sqrt(M)); the gamma
    family (shape alpha > 1, scale theta) gives posterior
    Gamma(M(alpha-1)+1, theta/M).
    """

    family: str
    M: int
    mu: float = 0.0
    sigma: float = 1.0
    alpha: float = 3.0
    theta: float = 1.0

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.family == NORMAL_FAMILY:
            if self.sigma <= 0:
                raise ValueError("sigma must be positive")
        elif self.family == GAMMA_FAMILY:
            if self.alpha <= 1:
                raise ValueError("gamma shape must exceed 1")
            if self.theta <= 0:
                raise ValueError("gamma scale must be positive")
        else:
            raise ValueError(f"unknown model family {self.family!r}")

    @classmethod
    def normal(cls, mu: float, sigma: float, M: int) -> "AnalyticModel":
        return cls(NORMAL_FAMILY, M, mu=mu, sigma=sigma)

    @classmethod
    def gamma(cls, alpha: float, theta: float, M: int) -> "AnalyticModel":
        return cls(GAMMA_FAMILY, M, alpha=alpha, theta=theta)

    # -- subset density -------------------------------------------------

    def subset(self, x, deriv: int = 0):
        if self.family == NORMAL_FAMILY:
            return _normal_pdf(x, self.mu, self.sigma, deriv)
        return _gamma_pdf(x, self.alpha, self.theta, deriv)

    # -- unnormalized product p* = p1^M ---------------------------------

    def product(self, x, deriv: int = 0):
        p = self.subset(x, 0)
        if deriv == 0:
            return p**self.M
        d1 = self.subset(x, 1)
        if deriv == 1:
            return self.M * p ** (self.M - 1) * d1
        if deriv == 2:
            d2 = self.subset(x, 2)
            lower = self.M * (self.M - 1) * p ** (self.M - 2) * d1 * d1 if self.M > 1 else 0.0
            return lower + self.M * p ** (self.M - 1) * d2
        raise ValueError(f"deriv must be in 0..2, got {deriv}")

    # -- normalized posterior -------------------------------------------

    def posterior(self, x, deriv: int = 0):
        if self.family == NORMAL_FAMILY:
            return _normal_pdf(x, self.mu, self.sigma / math.sqrt(self.M), deriv)
        shape = self.M * (self.alpha - 1.0) + 1.0
        return _gamma_pdf(x, shape, self.theta / self.M, deriv)

    @property
    def lam(self) -> float:
        """Mass of the unnormalized product, int p1^M."""
        if self.family == NORMAL_FAMILY:
            return (2.0 * math.pi * self.sigma**2) ** ((1 - self.M) / 2.0) / math.sqrt(
                self.M
            )
        a1 = self.alpha - 1.0
        log_lam = (
            gammaln(self.M * a1 + 1.0)
            + (self.M * a1 + 1.0) * math.log(self.theta / self.M)
            - self.M * gammaln(self.alpha)
            - self.alpha * self.M * math.log(self.theta)
        )
        return math.exp(log_lam)

    @property
    def c(self) -> float:
        return 1.0 / self.lam

    def sample_subset(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.family == NORMAL_FAMILY:
            return rng.normal(self.mu, self.sigma, n)
        return rng.gamma(shape=self.alpha, scale=self.theta, size=n)


def _normal_pdf(x, mu: float, sigma: float, deriv: int):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    u = (x - mu) / sigma
    p = np.exp(-0.5 * u * u) / (sigma * _SQRT_2PI)
    if deriv == 0:
        out = p
    elif deriv == 1:
        out = -u / sigma * p
    elif deriv == 2:
        out = (u * u - 1.0) / sigma**2 * p
    else:
        raise ValueError(f"deriv must be in 0..2, got {deriv}")
    return float(out) if scalar else out


def _gamma_pdf(x, alpha: float, theta: float, deriv: int):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    if np.any(x < 0):
        raise ValueError("gamma density is only defined for x >= 0")
    a1 = alpha - 1.0
    norm = math.exp(-gammaln(alpha) - alpha * math.log(theta))
    e = np.exp(-x / theta)
    if deriv == 0:
        out = norm * x**a1 * e
    elif deriv == 1:
        out = norm * e * (a1 * x ** (a1 - 1.0) - x**a1 / theta)
    elif deriv == 2:
        out = norm * e * (
            a1 * (a1 - 1.0) * x ** (a1 - 2.0)
            - 2.0 * a1 * x ** (a1 - 1.0) / theta
            + x**a1 / theta**2
        )
    else:
        raise ValueError(f"deriv must be in 0..2, got {deriv}")
    return float(out) if scalar else out
