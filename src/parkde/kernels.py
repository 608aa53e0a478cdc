"""Kernel families with cached moments, roughness and autocorrelation.

Two families are shipped: the Gaussian kernel and the Epanechnikov kernel.
Moments and roughness are stored analytically and cross-checked by
quadrature when a kernel is built through :func:`from_name`.
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
    moments : tuple of float
        Absolute moments ``k_s = int |t|^s K(t) dt`` for s = 0..3.
    roughness : float
        ``int K(t)^2 dt``.
    """

    family: str
    moments: tuple[float, float, float, float]
    roughness: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == GAUSSIAN_FAMILY:
            out = np.exp(-0.5 * t * t) / _SQRT_2PI
        else:
            out = np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t * t), 0.0)
        return out if out.ndim else float(out)

    @property
    def smooth(self) -> bool:
        """Whether analytic derivatives of the kernel are available."""
        return self.family == GAUSSIAN_FAMILY

    def deriv(self, t, order: int):
        """d^order/dt^order K(t); only the Gaussian kernel supports order > 0."""
        if order == 0:
            return self(t)
        if not self.smooth:
            raise ValueError(
                f"kernel family {self.family!r} has no analytic derivatives"
            )
        if order not in (1, 2):
            raise ValueError(f"derivative order must be in 0..2, got {order}")
        t = np.asarray(t, dtype=float)
        phi = np.exp(-0.5 * t * t) / _SQRT_2PI
        out = -t * phi if order == 1 else (t * t - 1.0) * phi
        return out if out.ndim else float(out)

    def moment(self, s: int) -> float:
        """Absolute moment k_s for s in {0, 1, 2, 3}."""
        if s not in (0, 1, 2, 3):
            raise ValueError(f"moment order must be in 0..3, got {s}")
        return self.moments[s]

    @property
    def k2(self) -> float:
        return self.moments[2]

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
    from .quadrature import Grid, integrate

    lo, hi = (-10.0, 10.0) if kernel.smooth else (-1.0, 1.0)
    g = Grid(lo, hi, 4001)
    checks = (
        (integrate(kernel, g), 1.0),
        (integrate(lambda t: t * kernel(t), g), 0.0),
        (integrate(lambda t: t * t * kernel(t), g), kernel.k2),
        (integrate(lambda t: kernel(t) ** 2, g), kernel.roughness),
    )
    for got, want in checks:
        if abs(got - want) > tol:
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
        k1 = math.sqrt(2.0 / math.pi)
        return _validate(
            Kernel(GAUSSIAN_FAMILY, (1.0, k1, 1.0, 2.0 * k1), 1.0 / (2.0 * _SQRT_PI))
        )
    if key == EPANECHNIKOV_FAMILY:
        return _validate(
            Kernel(EPANECHNIKOV_FAMILY, (1.0, 0.375, 0.2, 0.125), 0.6)
        )
    raise ValueError(f"unknown kernel family {name!r}")
