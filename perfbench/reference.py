"""Reference outputs computed by a frozen copy of parkde 0.1.0's exact path.

The benchmark checks the program against these functions, not against the
program's own code, so a later change to the program (binning, chunking,
log-space products) is compared with the path it replaces. Nothing here
imports parkde.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_CHUNK = 2048  # sample points per block, bounds memory at G * _CHUNK doubles


def simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson with a trapezoid on the last panel for even counts."""
    if y.size % 2 == 1:
        core, tail = y, 0.0
    else:
        core, tail = y[:-1], 0.5 * dx * (y[-2] + y[-1])
    s = core[0] + core[-1] + 4.0 * core[1:-1:2].sum() + 2.0 * core[2:-2:2].sum()
    return dx / 3.0 * s + tail


def kde(x: np.ndarray, sample: np.ndarray, h: float) -> np.ndarray:
    """Exact Gaussian KDE at x, summed over the sample in blocks."""
    out = np.zeros(x.size)
    for lo in range(0, sample.size, _CHUNK):
        t = (x[:, None] - sample[None, lo:lo + _CHUNK]) / h
        out += np.exp(-0.5 * t * t).sum(axis=1)
    return out / (sample.size * h * _SQRT_2PI)


def posterior(x: np.ndarray, dx: float, samples, hs) -> np.ndarray:
    """Normalized product of the subset KDEs on a uniform grid."""
    prod = np.ones(x.size)
    for s, h in zip(samples, hs):
        prod = prod * kde(x, s, h)
    return prod / simpson(prod, dx)


def normal_pdf(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    u = (x - mu) / sigma
    return np.exp(-0.5 * u * u) / (sigma * _SQRT_2PI)


def h_opt_normal(n: int, M: int, sigma: float) -> float:
    return (16.0 / 9.0 * M**3 / (2.0 * M - 1.0)) ** 0.1 * sigma * n ** (-0.2)


def subsets(seed: int, outer: int, rep: int, M: int, n: int, mu: float, sigma: float):
    """The harness's sample streams, keyed by (seed, outer, rep, subset)."""
    return [np.random.default_rng([seed, outer, rep, m]).normal(mu, sigma, n)
            for m in range(M)]


def mise(seed, outer, M, n, h_values, reps, mu, sigma, x, dx) -> np.ndarray:
    """Monte Carlo MISE of the normalized product at each h, reusing samples."""
    truth = normal_pdf(x, mu, sigma / math.sqrt(M))
    total = np.zeros(len(h_values))
    for rep in range(reps):
        samples = subsets(seed, outer, rep, M, n, mu, sigma)
        for j, h in enumerate(h_values):
            est = posterior(x, dx, samples, [h] * M)
            total[j] += simpson((est - truth) ** 2, dx)
    return total / reps


def refine_argmin(hs: np.ndarray, ms: np.ndarray) -> float:
    """Vertex of the parabola through the three lowest sweep points."""
    order = np.argsort(ms)[:3]
    a, b, _ = np.polyfit(hs[order], ms[order], 2)
    vertex = -b / (2.0 * a) if a > 0 else math.nan
    if not (hs.min() <= vertex <= hs.max()):
        return float(hs[np.argmin(ms)])
    return float(vertex)


def fit_density(samples, grid_points: int = 2001):
    """`parkde fit --bandwidth auto` with the default grid: (x, density)."""
    M = len(samples)
    pooled = np.concatenate(samples)
    sd1 = float(np.std(pooled, ddof=1))
    hs = [h_opt_normal(s.size, M, sd1) for s in samples]
    margin = 5.0 * max(hs) + 5.0 * float(np.std(pooled))
    lo, hi = float(pooled.min()) - margin, float(pooled.max()) + margin
    x = np.linspace(lo, hi, grid_points)
    return x, posterior(x, (hi - lo) / (grid_points - 1), samples, hs)
