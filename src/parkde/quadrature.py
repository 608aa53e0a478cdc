"""Deterministic integration on bounded grids, scalar search, FD gradients."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class ConvergenceError(RuntimeError):
    """Scalar minimization failed to bracket the minimum within max_iters."""


@dataclass(frozen=True, eq=True)
class Grid:
    """Uniform grid on [lo, hi] with n_points >= 2 and a finite width."""

    lo: float
    hi: float
    n_points: int

    def __post_init__(self):
        # a finite hi - lo also bounds lo and hi, and keeps spacing finite
        if not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):
            raise ValueError(
                f"grid needs lo < hi with a finite width hi - lo, got [{self.lo}, {self.hi}]"
            )
        if not isinstance(self.n_points, numbers.Integral):
            raise ValueError(f"grid n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 2:
            raise ValueError(f"grid needs n_points >= 2, got {self.n_points}")

    @classmethod
    def from_bounds(cls, lo, hi, n_points: int, span: tuple[float, float]) -> "Grid":
        """The grid on [lo, hi], or on span when neither bound is given; the
        one place a window is chosen and its bounds checked as a pair."""
        if (lo is None) != (hi is None):
            raise ValueError(f"grid bounds lo and hi must be given together, got {lo}, {hi}")
        if lo is None:
            lo, hi = span
        return cls(lo, hi, n_points)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        """A fresh array on each access, so a grid holds no array."""
        return np.linspace(self.lo, self.hi, self.n_points)


@lru_cache(maxsize=16)
def simpson_weights(n: int, spacing: float) -> np.ndarray:
    """Composite Simpson weights for n equally spaced samples.

    A trapezoid takes the final panel when the sample count is even.
    Memoized per (n, spacing) and read-only, so every integral on one grid
    (a product's mass, the coefficient integrals, an ISE) shares one array:
    16 entries at n = 6001 take about 0.8 MB. Exceptions are not cached.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    core = n - 1 + n % 2  # samples covered by three-point panels
    w = np.zeros(n)
    w[0 : core - 1 : 2] += 1.0
    w[1:core:2] += 4.0
    w[2:core:2] += 1.0
    w *= spacing / 3.0
    if core < n:
        w[-2:] += 0.5 * spacing
    w.flags.writeable = False
    return w


def integrate_values(y: np.ndarray, spacing: float):
    """Simpson integral of equally spaced samples along the last axis."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.isfinite(y).all():
        raise ValueError("non-finite integrand values (density or derivative blow-up?)")
    return y @ simpson_weights(y.shape[-1], spacing)


def integrate(f: Callable[[np.ndarray], np.ndarray], grid: Grid) -> float:
    """Composite Simpson approximation of the integral of f over the grid."""
    return integrate_values(np.asarray(f(grid.points), dtype=float), grid.spacing)


def argmin_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    max_iters: int = 500,
) -> tuple[float, float]:
    """Golden-section search for the minimizer of a unimodal f on [lo, hi]."""
    if not (lo < hi):
        raise ValueError("argmin_scalar needs lo < hi")
    if tol <= 0:
        raise ValueError("argmin_scalar needs tol > 0")
    a, b = float(lo), float(hi)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iters):
        if b - a <= tol:
            x = 0.5 * (a + b)
            return x, f(x)
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    raise ConvergenceError(
        f"golden-section did not reach tol={tol} within {max_iters} iterations"
    )


def gradient_fd(
    f: Callable[[np.ndarray], float], x: Sequence[float], eps: float
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    if eps <= 0:
        raise ValueError("gradient_fd needs eps > 0")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        out[i] = (f(x + step) - f(x - step)) / (2.0 * eps)
    return out
