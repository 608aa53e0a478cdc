"""Subset KDEs, the product estimator, normalization, and analytic models."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

from .kernels import _SQRT_2PI, Kernel
from .quadrature import Grid, simpson_weights

DEGENERATE_LAMBDA = 1e-300

# (x, draw) pairs per block of the exact sum: 8 MB per kernel temporary
_BLOCK_PAIRS = 2**20
# below this many grid spacings per bandwidth, grid values come from the exact sum
_MIN_BINS_PER_H = 4
# draws binned in one group: 64 KiB per temporary. Binning a group in one pass
# saves numpy calls, which is what small samples cost; larger groups save
# nothing and outgrow the cache and the allocator's reuse
_GROUP_DRAWS = 2**13

NORMAL_FAMILY = "normal"
GAMMA_FAMILY = "gamma"


class DegenerateProduct(RuntimeError):
    """The product of subset KDEs has no usable mass.

    Happens when the high-mass regions of the subset estimators have almost
    no common intersection, so the normalization constant underflows, or
    when the product of many peaked estimators overflows.
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
        """Exact KDE (or its deriv-th derivative) at x, from `_exact_sum`."""
        x = np.asarray(x, dtype=float)
        (vals,) = _exact_sum(self.sample, self.bandwidth, self.kernel, x.reshape(-1), (deriv,))
        return float(vals[0]) if x.ndim == 0 else vals


def kde_rows(
    samples: Sequence[SubsetSample],
    bandwidths: Sequence[Sequence[float]],
    kernel: Kernel,
    grid: Grid,
    derivs: Sequence[int] = (0,),
) -> np.ndarray:
    """KDE derivatives of M samples at grid.points for an (M, R) array of
    bandwidths, shape (M, R, len(derivs), G): row [m, r] is sample m's KDE
    at bandwidth [m, r].

    The one way a subset KDE is evaluated on a grid. The samples are binned
    linearly (Wand 1994, JCGS 3:433) into the rows of one (M, W) array over
    the grid extended by the largest L = ceil(reach h / spacing) points on
    each side, W = G + 2L + 2, by `_bin`. Each (sample, bandwidth) convolves
    the central G + 2L bins of its row with its `_kernel_table`, one row per
    order at offsets -L..L. A bin's weight depends neither on L nor on the
    other samples, so each row equals the row of a one-sample,
    one-bandwidth call bit for bit. Values are sums of non-negative terms
    and exactly zero farther than reach h from every draw. Where linear
    binning is too coarse (fewer than _MIN_BINS_PER_H grid spacings per
    bandwidth) or the kernel reaches farther than the grid is long (L > G),
    a row comes from the one exact sum, `_exact_sum`, for all orders at
    once. Both paths divide by n h^(d + 1) in `_scale`, so a scale that
    over- or underflows raises one FloatingPointError naming h.
    """
    h_all = np.asarray(bandwidths, dtype=float)
    if h_all.ndim != 2 or h_all.shape[0] != len(samples):
        raise ValueError(
            f"bandwidths must have shape ({len(samples)}, R), got {h_all.shape}"
        )
    dx, G = grid.spacing, grid.n_points
    derivs = tuple(derivs)
    out = np.empty(h_all.shape + (len(derivs), G))
    binned = []
    for m, h_row in enumerate(h_all.tolist()):
        for r, h in enumerate(h_row):
            reach = kernel.reach * h / dx  # in grid spacings
            if h < _MIN_BINS_PER_H * dx or reach > G:
                out[m, r] = _exact_sum(samples[m], h, kernel, grid.points, derivs)
            else:
                binned.append((m, r, h, math.ceil(reach)))
    if not binned:
        return out
    top = max(L for *_, L in binned)
    bins = _bin(samples, grid, top)
    for m, r, h, L in binned:
        central = bins[m, top + 1 - L : top + 1 + G + L]
        tables = _kernel_table(kernel, h, samples[m].size, derivs, dx)
        for k, table in enumerate(tables):
            # np.convolve(central, table, "valid") without its argument checks
            out[m, r, k] = np.correlate(central, table[::-1], "valid")
    return out


def _bin(samples: Sequence[SubsetSample], grid: Grid, top: int) -> np.ndarray:
    """Linear-binning weights of each sample on grid points -top..G-1+top,
    shape (M, G + 2 top + 2): grid point k is bin k + top + 1, and bin 0 and
    the last bin hold the shares of draws just outside those points.

    Bins consecutive samples as one group of at most _GROUP_DRAWS draws (or
    one larger sample): the group's draws are concatenated, each index is
    shifted by its sample's row into one flat array, and one pair of
    `np.bincount` calls bins the group.
    """
    G, W = grid.n_points, grid.n_points + 2 * top + 2
    bins = np.empty((len(samples), W))
    a = 0
    while a < len(samples):
        b, count = a + 1, samples[a].size
        while b < len(samples) and count + samples[b].size <= _GROUP_DRAWS:
            count += samples[b].size
            b += 1
        values = [s.values for s in samples[a:b]]
        ends = list(accumulate(v.size for v in values))
        u = np.subtract(values[0] if b - a == 1 else np.concatenate(values), grid.lo)
        u /= grid.spacing
        j = np.floor(u)
        # draws that put weight into grid points -top..G-1+top
        if j.min() < -1 - top or j.max() >= G + top:
            keep = (j >= -1 - top) & (j < G + top)
            u, j = u[keep], j[keep]
            ends = np.cumsum(keep)[np.subtract(ends, 1)].tolist()
        u -= j  # each draw's share of its weight in the bin above
        j = j.astype(np.intp)
        # grid point k of the group's row r is flat bin r W + k + top + 1
        for r, (i0, i1) in enumerate(zip([0, *ends], ends)):
            j[i0:i1] += r * W + top + 1
        flat = bins[a:b].reshape(-1)
        flat[:] = np.bincount(j, weights=1.0 - u, minlength=flat.size)
        flat[1:] += np.bincount(j, weights=u, minlength=flat.size - 1)
        a = b
    return bins


@lru_cache(maxsize=256)
def _kernel_table(
    kernel: Kernel, h: float, n: int, derivs: tuple[int, ...], spacing: float
) -> np.ndarray:
    """`kde_rows`' convolution weights for one bandwidth h and sample size n,
    shape (len(derivs), 2L + 1): row k is the derivs[k]-th kernel derivative
    at offsets -L..L grid spacings, over n h^(derivs[k] + 1) by `_scale`,
    with L = ceil(reach h / spacing). Every row comes from one
    `Kernel.derivs` call, so the Gaussian's K, K' and K'' share one exp.

    Memoized per (kernel, h, n, derivs, spacing), read-only, and never handed
    out of `kde_rows`, so the replications of an experiment, which share
    their (h, n) rows, build each table once per process. `kde_rows` bins
    only where L <= G, so an entry holds at most len(derivs) (2G + 1)
    doubles: 256 single-order entries at G = 4001 take at most about 16 MB.
    A default experiment needs 27 entries per n, 135 in all, and one of its
    replication jobs cycles through 125 of them (every n of a sweep), so
    fewer entries than that would miss on every row.
    """
    L = math.ceil(kernel.reach * h / spacing)
    t = np.arange(-L, L + 1) * (spacing / h)
    table = _scale(np.array(kernel.derivs(t, derivs)), h, n, derivs)
    table.flags.writeable = False
    return table


def _exact_sum(
    sample: SubsetSample, h: float, kernel: Kernel, x: np.ndarray, derivs: tuple[int, ...]
) -> np.ndarray:
    """The one exact sum: sample's KDE derivatives at the 1-d points x, shape
    (len(derivs), len(x)), scaled by `_scale`. Sums in blocks of at most
    _BLOCK_PAIRS (x, draw) pairs, every order from one `Kernel.derivs` call
    per block, so memory is one temporary per order for any sample size; the
    block size does not depend on the orders, so each row keeps its bits.
    """
    step = max(1, _BLOCK_PAIRS // max(1, x.size))
    sums = np.zeros((len(derivs), x.size))
    for lo in range(0, sample.size, step):
        t = (x[:, None] - sample.values[lo : lo + step]) / h
        for row, values in zip(sums, kernel.derivs(t, derivs)):
            row += values.sum(axis=1)
    return _scale(sums, h, sample.size, derivs)


def _scale(sums: np.ndarray, h: float, n: int, derivs: tuple[int, ...]) -> np.ndarray:
    """Divide row k of sums in place by n h^(derivs[k] + 1), the one weight
    scale of a KDE, and return them. Sums that are then not finite, where
    the scale over- or underflows a float, raise FloatingPointError naming
    h, with no numpy warning."""
    try:
        with np.errstate(all="ignore"):
            for row, d in zip(sums, derivs):
                row /= n * h ** (d + 1)
    except OverflowError:  # h ** (d + 1) past the float range
        sums.fill(math.inf)
    if not np.isfinite(sums).all():
        raise FloatingPointError(f"kernel weights are not finite at bandwidth h={h!r}: n h^(d+1) "
                                 f"over- or underflows a float for n={n}, d in {derivs}")
    return sums


def fit_subset_kde(sample: SubsetSample, h: float, kernel: Kernel) -> SubsetKde:
    """Attach a bandwidth and kernel to a subset sample."""
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    return SubsetKde(sample, float(h), kernel)


def _product(
    rows: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[DegenerateProduct | None]]:
    """Multiply the (M, R, G) rows of R products of M densities on a grid and
    normalize each product: its mass lambda, by the grid's Simpson weights,
    and its normalized values. Returns the (R,) masses, the (R, G) values and
    per product None or the DegenerateProduct its mass fails with; a failed
    product's values are not normalized. The one place a product is formed
    and its mass integrated and checked. Each mass is its own 1-D dot
    product, so a product's bits do not depend on R.
    """
    vals = np.multiply.reduce(rows, axis=0)  # np.prod without its wrapper
    lams = np.empty(len(vals))
    failed = []
    for r, v in enumerate(vals):
        lam = lams[r] = v @ weights
        if not math.isfinite(lam):
            failed.append(DegenerateProduct(
                f"product mass is {lam}; the product of the subset densities overflowed"
            ))
        elif lam <= DEGENERATE_LAMBDA:
            failed.append(DegenerateProduct(
                f"product mass {float(lam)!r} underflowed; subset supports nearly disjoint"
            ))
        else:
            v /= lam
            failed.append(None)
    return lams, vals, failed


@dataclass(frozen=True)
class ProductPosterior:
    """Normalized product of subset KDEs with its mass and values on a grid.

    values holds the normalized density at grid.points, from the components'
    grid rows, so callers that want the grid do not evaluate the components
    a second time.
    """

    components: tuple[SubsetKde, ...]
    grid: Grid
    lambda_hat: float
    values: np.ndarray


def grid_rows(source, grid: Grid, derivs: Sequence[int] = (0,)) -> np.ndarray:
    """Derivatives of the given orders of source's M subset densities at
    grid.points, shape (len(derivs), M, G); the one way a density source is
    put on a grid.

    source is either subset KDEs that share one kernel, which go to one
    `kde_rows` call, or density callables of (x, deriv), such as
    `AnalyticModel.subset`, each evaluated at the grid points. Any other
    mix raises ValueError.
    """
    if not source:
        raise ValueError("need at least one density component")
    if not any(isinstance(c, SubsetKde) for c in source):
        return np.array([[c(grid.points, d) for c in source] for d in derivs])
    kernel = source[0].kernel if isinstance(source[0], SubsetKde) else None
    if not all(isinstance(c, SubsetKde) and c.kernel == kernel for c in source):
        raise ValueError("density components must be subset KDEs of one kernel or callables")
    rows = kde_rows([c.sample for c in source], [[c.bandwidth] for c in source],
                    kernel, grid, derivs)
    return np.ascontiguousarray(rows[:, 0].swapaxes(0, 1))


def normalize(components: Sequence[SubsetKde], grid: Grid) -> ProductPosterior:
    """Integrate the product on the grid and wrap it as a density; the one
    place a `ProductPosterior` is built.

    Components are subset KDEs of one kernel or density callables (see `grid_rows`).
    """
    components = tuple(components)
    rows = grid_rows(components, grid)[0]
    weights = simpson_weights(grid.n_points, grid.spacing)
    (lam,), (values,), (err,) = _product(rows[:, None], weights)
    if err is not None:
        raise err
    return ProductPosterior(components, grid, lam, values)


def data_window(
    subsets: Sequence[SubsetSample], bandwidths: Sequence[float]
) -> tuple[float, float]:
    """Default window of KDE work on subsets: their pooled range padded by
    5 (max h + sd)."""
    x = np.concatenate([s.values for s in subsets])
    h = float(np.max(np.asarray(bandwidths, dtype=float)))
    sd = float(np.std(x)) if x.size > 1 else 1.0
    margin = 5.0 * h + 5.0 * sd
    return float(x.min()) - margin, float(x.max()) + margin


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
        if not isinstance(self.M, numbers.Integral) or self.M < 1:
            raise ValueError(f"M must be an integer >= 1, got {self.M!r}")
        for name in ("mu", "sigma", "alpha", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
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

    # -- normalized posterior -------------------------------------------

    def posterior(self, x):
        if self.family == NORMAL_FAMILY:
            return _normal_pdf(x, self.mu, self.sigma / math.sqrt(self.M), 0)
        shape = self.M * (self.alpha - 1.0) + 1.0
        return _gamma_pdf(x, shape, self.theta / self.M, 0)

    def window(self) -> tuple[float, float]:
        """Window covering the subset density, and hence every estimator of
        it, safely."""
        if self.family == NORMAL_FAMILY:
            return self.mu - 6.0 * self.sigma, self.mu + 6.0 * self.sigma
        return 1e-9, self.alpha * self.theta + 12.0 * math.sqrt(self.alpha) * self.theta

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
    norm = math.exp(-math.lgamma(alpha) - alpha * math.log(theta))
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
