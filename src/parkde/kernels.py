"""Kernel families with cached second moment, roughness and autocorrelation.

Two families are shipped: the Gaussian kernel and the Epanechnikov kernel.
The second moment and roughness are stored analytically and cross-checked
by quadrature when a kernel is built through :func:`from_name`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

GAUSSIAN_FAMILY = "gaussian"
EPANECHNIKOV_FAMILY = "epanechnikov"


@dataclass(frozen=True)
class Kernel:
    """Symmetric, normalized kernel density on the real line.

    Attributes
    ----------
    family : str
        ``"gaussian"`` or ``"epanechnikov"``.
    k2 : float
        Second moment ``int t^2 K(t) dt``.
    roughness : float
        ``int K(t)^2 dt``.
    """

    family: str
    k2: float
    roughness: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == GAUSSIAN_FAMILY:
            out = np.exp(-0.5 * t * t) / _SQRT_2PI
        else:
            out = np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t * t), 0.0)
        return out if out.ndim else float(out)

    @property
    def reach(self) -> float:
        """|t| beyond which K and its derivatives are taken as zero: 8 for the
        Gaussian (phi(8) is 1.3e-14 of phi(0)), the support edge 1 otherwise."""
        return 8.0 if self.family == GAUSSIAN_FAMILY else 1.0

    @property
    def smooth(self) -> bool:
        """Whether analytic derivatives of the kernel are available."""
        return self.family == GAUSSIAN_FAMILY

    def derivs(self, t, orders):
        """[d^k/dt^k K(t) for k in orders] from one evaluation of K, so the
        Gaussian's K, K' = -t K and K'' = (t^2 - 1) K share one exp; only
        the Gaussian kernel supports k > 0."""
        for order in orders:
            if order != 0 and not self.smooth:
                raise ValueError(
                    f"kernel family {self.family!r} has no analytic derivatives"
                )
            if order not in (0, 1, 2):
                raise ValueError(f"derivative order must be in 0..2, got {order}")
        t = np.asarray(t, dtype=float)
        K = self(t)
        return [K if k == 0 else -t * K if k == 1 else (t * t - 1.0) * K for k in orders]

    def autocorrelation(self, z):
        """K2(z) = int K(s) K(s - z) ds (the kernel's self-convolution)."""
        z = np.asarray(z, dtype=float)
        if self.family == GAUSSIAN_FAMILY:
            out = np.exp(-0.25 * z * z) / (2.0 * _SQRT_PI)
        else:
            a = np.abs(z)
            out = np.where(
                a <= 2.0,
                3.0 / 160.0 * (2.0 - a) ** 3 * (a * a + 6.0 * a + 4.0),
                0.0,
            )
        return out if out.ndim else float(out)


def _validate(kernel: Kernel, tol: float = 1e-8) -> Kernel:
    # quadrature cross-check of the cached analytic constants
    from .quadrature import Grid, integrate_values

    lo, hi = (-10.0, 10.0) if kernel.smooth else (-1.0, 1.0)
    g = Grid(lo, hi, 4001)
    t, K = g.points, kernel(g.points)
    got = integrate_values(np.stack([K, t * K, t * t * K, K * K]), g.spacing)
    want = np.array([1.0, 0.0, kernel.k2, kernel.roughness])
    if np.any(np.abs(got - want) > tol):
        raise AssertionError(
            f"kernel {kernel.family!r} failed construction check: "
            f"{got!r} != {want!r}"
        )
    return kernel


@lru_cache(maxsize=None)
def from_name(name: str) -> Kernel:
    """Build (and quadrature-validate) a kernel by family name."""
    key = name.strip().lower()
    if key == GAUSSIAN_FAMILY:
        return _validate(Kernel(GAUSSIAN_FAMILY, 1.0, 1.0 / (2.0 * _SQRT_PI)))
    if key == EPANECHNIKOV_FAMILY:
        return _validate(Kernel(EPANECHNIKOV_FAMILY, 0.2, 0.6))
    raise ValueError(f"unknown kernel family {name!r}")
