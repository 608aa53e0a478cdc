"""Monte Carlo experiment driver: MISE estimation, bandwidth sweeps, reports.

Randomness discipline: every draw comes from a fresh generator keyed by
(master seed, outer repeat, replication, subset). No global RNG state is
touched, so results are reproducible bit-for-bit and independent of the
worker count used to run the replications.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Callable, Sequence

import numpy as np

from . import __version__ as _pkg_version
from .bandwidth import h_opt_gamma, h_opt_normal
from .estimators import (
    AnalyticModel,
    DegenerateProduct,
    SubsetSample,
    fit_subset_kde,
    normalize,
)
from .kernels import from_name
from .quadrature import Grid, integrate_values


class DegenerateMajority(RuntimeError):
    """More than half of the replications produced a degenerate product."""


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    family: str = "normal"
    mu: float = 0.0
    sigma: float = 1.0
    alpha: float = 3.0
    theta: float = 3.0
    M: int = 4
    n_per_subset: list[int] = field(default_factory=lambda: [250, 500, 1000, 2000, 4000])
    sweep_lo: float = 0.5  # multiples of the closed-form h_opt
    sweep_hi: float = 2.0
    sweep_count: int = 25
    replications: int = 200
    outer_repeats: int = 20
    seed: int | None = None
    grid_lo: float | None = None
    grid_hi: float | None = None
    grid_points: int = 801
    output_dir: str = "out"
    workers: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not (self.sweep_lo < self.sweep_hi):
            raise ValueError("sweep needs lo < hi")
        if (self.grid_lo is None) != (self.grid_hi is None):
            raise ValueError("grid_lo and grid_hi must be given together")

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        bad = set(data) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        return cls(**data)

    def model(self) -> AnalyticModel:
        if self.family == "normal":
            return AnalyticModel.normal(self.mu, self.sigma, self.M)
        return AnalyticModel.gamma(self.alpha, self.theta, self.M)

    def grid(self) -> Grid:
        if self.grid_lo is not None:
            return Grid(self.grid_lo, self.grid_hi, self.grid_points)
        return default_model_grid(self.model(), self.grid_points)


def default_model_grid(model: AnalyticModel, n_points: int = 801) -> Grid:
    """Window covering the subset density (and hence every estimator) safely."""
    if model.family == "normal":
        return Grid(model.mu - 6.0 * model.sigma, model.mu + 6.0 * model.sigma, n_points)
    hi = model.alpha * model.theta + 12.0 * math.sqrt(model.alpha) * model.theta
    return Grid(1e-9, hi, n_points)


def closed_form_h(model: AnalyticModel, n: int, baseline: bool = False) -> float:
    """Per-subset closed-form optimal bandwidth under the given policy."""
    M = 1 if baseline else model.M
    if model.family == "normal":
        return h_opt_normal(n, M, model.sigma)
    return h_opt_gamma(n, M, model.alpha, model.theta)


# ---------------------------------------------------------------------------
# sampling and single-shot error measures


def _stream(seed, outer: int, rep: int, subset: int) -> np.random.Generator:
    if seed is None:
        raise ValueError("a seed is required for reproducible sampling")
    return np.random.default_rng([int(seed), outer, rep, subset])


def sample_model(
    model: AnalyticModel, M: int, n: int, seed, outer: int = 0, rep: int = 0
) -> list[SubsetSample]:
    """M independent subsets of n i.i.d. draws, deterministic given the key."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for m in range(M):
        rng = _stream(seed, outer, rep, m)
        out.append(SubsetSample(model.sample_subset(rng, n), subset_index=m + 1))
    return out


def ise(truth: Callable, estimate: Callable, grid: Grid) -> float:
    """Integrated squared error between two densities on the grid."""
    t = np.asarray(truth(grid.points), dtype=float)
    e = np.asarray(estimate(grid.points), dtype=float)
    return integrate_values((e - t) ** 2, grid.spacing)


def _replication(job) -> list[float | None]:
    """ISE of the normalized product for each bandwidth row on one replication.

    The samples are drawn once and reused for every row (common random
    numbers); a degenerate product gives None in its row.
    """
    model, n, h_rows, seed, outer, rep, grid = job
    kernel = from_name("gaussian")
    samples = sample_model(model, model.M, n, seed, outer, rep)
    truth = np.asarray(model.posterior(grid.points), dtype=float)
    out: list[float | None] = []
    for h in h_rows:
        kdes = [fit_subset_kde(s, hv, kernel) for s, hv in zip(samples, h)]
        try:
            vals = normalize(kdes, grid).values
        except DegenerateProduct:
            out.append(None)
            continue
        out.append(integrate_values((vals - truth) ** 2, grid.spacing))
    return out


def _ise_columns(
    model: AnalyticModel,
    n: int,
    h_rows: Sequence[tuple[float, ...]],
    replications: int,
    seed,
    grid: Grid,
    outer: int,
    workers: int,
    chunksize: int,
) -> list[tuple[float | None, ...]]:
    """Per h row, the ISEs of every replication in replication order."""
    if replications < 2:
        raise ValueError("need at least 2 replications for a standard error")
    jobs = [(model, n, h_rows, seed, outer, rep, grid) for rep in range(replications)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication, jobs, chunksize=chunksize))
    else:
        results = [_replication(job) for job in jobs]
    return list(zip(*results))


def _mean_stderr(column: Sequence[float | None]) -> tuple[float, float]:
    """Mean and standard error of the non-degenerate ISEs in one column."""
    vals = np.array([v for v in column if v is not None])
    if vals.size < 2:
        raise DegenerateMajority(
            f"{vals.size} of {len(column)} replications usable; a standard error needs 2"
        )
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


@dataclass(frozen=True)
class MiseEstimate:
    mise: float
    stderr: float
    degenerate_count: int


def estimate_mise(
    model: AnalyticModel,
    n: int,
    h,
    replications: int,
    seed,
    grid: Grid,
    outer: int = 0,
    workers: int = 1,
) -> MiseEstimate:
    """Mean and standard error of the ISE over fresh-sample replications.

    The same computation as one bandwidth of `sweep_bandwidth`: with equal
    seed and outer, the estimate equals that sweep's row at h.
    """
    h = tuple(np.broadcast_to(np.asarray(h, dtype=float), (model.M,)))
    (column,) = _ise_columns(
        model, n, [h], replications, seed, grid, outer, workers, chunksize=8
    )
    degenerate = column.count(None)
    if degenerate:
        warnings.warn(f"{degenerate}/{replications} degenerate replications excluded")
    if degenerate > replications // 2:
        raise DegenerateMajority(
            f"{degenerate} of {replications} replications degenerate"
        )
    mise, stderr = _mean_stderr(column)
    return MiseEstimate(mise=mise, stderr=stderr, degenerate_count=degenerate)


# ---------------------------------------------------------------------------
# bandwidth sweeps


@dataclass
class MiseCurve:
    """Monte Carlo MISE samples along a bandwidth sweep."""

    rows: list[tuple[float, float, float]]  # (h, mise, stderr)
    argmin_h: float
    argmin_mise: float
    degenerate_count: int = 0


def _refine_argmin(hs: np.ndarray, ms: np.ndarray) -> float:
    """Quadratic fit through the three lowest sweep points."""
    order = np.argsort(ms)[:3]
    x, y = hs[order], ms[order]
    try:
        a, b, _ = np.polyfit(x, y, 2)
    except np.linalg.LinAlgError:
        return float(hs[np.argmin(ms)])
    if a <= 0:
        return float(hs[np.argmin(ms)])
    vertex = -b / (2.0 * a)
    if not (hs.min() <= vertex <= hs.max()):
        return float(hs[np.argmin(ms)])
    return float(vertex)


def sweep_bandwidth(
    model: AnalyticModel,
    n: int,
    h_values: Sequence[float],
    replications: int,
    seed,
    grid: Grid,
    outer: int = 0,
    workers: int = 1,
) -> MiseCurve:
    """MISE curve over a bandwidth range with common random numbers."""
    h_values = np.asarray(sorted(h_values), dtype=float)
    if h_values.size < 5:
        raise ValueError("sweep needs at least 5 bandwidth values")
    h_rows = [(float(h),) * model.M for h in h_values]
    columns = _ise_columns(
        model, n, h_rows, replications, seed, grid, outer, workers, chunksize=4
    )
    rows = []
    for h, column in zip(h_values, columns):
        mise, stderr = _mean_stderr(column)
        rows.append((float(h), mise, stderr))
    mises = np.array([m for _, m, _ in rows])
    return MiseCurve(
        rows=rows,
        argmin_h=_refine_argmin(h_values, mises),
        argmin_mise=float(mises.min()),
        degenerate_count=sum(column.count(None) for column in columns),
    )


# ---------------------------------------------------------------------------
# full experiment


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Reproduce the bandwidth-policy comparison and ratio experiments.

    Writes mise_vs_n.csv (both closed-form policies), ratio.csv (closed-form
    h against the sweep-located argmin) and a run manifest. Returns a dict
    of the output paths.
    """
    if cfg.seed is None:
        raise ValueError("experiment requires a seed")
    t0 = time.time()
    model = cfg.model()
    grid = cfg.grid()
    os.makedirs(cfg.output_dir, exist_ok=True)
    mise_path = os.path.join(cfg.output_dir, "mise_vs_n.csv")
    ratio_path = os.path.join(cfg.output_dir, "ratio.csv")
    manifest_path = os.path.join(cfg.output_dir, "manifest.json")
    written = []
    try:
        with open(mise_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["model", "M", "n", "policy", "h", "mise", "stderr", "degenerate_count"]
            )
            for n in cfg.n_per_subset:
                for policy, baseline in (("h_opt", False), ("h_opt_baseline", True)):
                    h = closed_form_h(model, n, baseline=baseline)
                    est = estimate_mise(
                        model, n, h, cfg.replications, cfg.seed, grid,
                        outer=0, workers=cfg.workers,
                    )
                    w.writerow(
                        [
                            cfg.family,
                            cfg.M,
                            n,
                            policy,
                            repr(h),
                            repr(est.mise),
                            repr(est.stderr),
                            est.degenerate_count,
                        ]
                    )
        written.append(mise_path)

        with open(ratio_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["model", "M", "n", "h_opt", "h_argmin", "ratio", "ratio_stderr"])
            for n in cfg.n_per_subset:
                h_opt = closed_form_h(model, n)
                hs = np.linspace(
                    cfg.sweep_lo * h_opt, cfg.sweep_hi * h_opt, cfg.sweep_count
                )
                ratios = []
                argmins = []
                for r in range(cfg.outer_repeats):
                    curve = sweep_bandwidth(
                        model, n, hs, cfg.replications, cfg.seed, grid,
                        outer=1 + r, workers=cfg.workers,
                    )
                    argmins.append(curve.argmin_h)
                    ratios.append(h_opt / curve.argmin_h)
                ratios = np.asarray(ratios)
                # stderr over outer repeats is undefined for a single repeat
                se = (
                    float(ratios.std(ddof=1) / math.sqrt(ratios.size))
                    if ratios.size > 1
                    else 0.0
                )
                w.writerow(
                    [
                        cfg.family,
                        cfg.M,
                        n,
                        repr(h_opt),
                        repr(float(np.median(argmins))),
                        repr(float(np.median(ratios))),
                        repr(se),
                    ]
                )
        written.append(ratio_path)

        manifest = {
            "config": asdict(cfg),
            "seed": cfg.seed,
            "versions": {
                "parkde": _pkg_version,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "wall_time_s": time.time() - t0,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2)
        written.append(manifest_path)
    except Exception:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        for path in (mise_path, ratio_path, manifest_path):
            if os.path.exists(path):
                os.remove(path)
        raise
    return {"mise_vs_n": mise_path, "ratio": ratio_path, "manifest": manifest_path}
