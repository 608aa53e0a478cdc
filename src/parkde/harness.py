"""Monte Carlo experiment driver: MISE estimation, bandwidth sweeps, reports.

Randomness discipline: every draw comes from a fresh generator keyed by
(master seed, outer repeat, replication, subset). No global RNG state is
touched, so results are reproducible bit-for-bit and independent of the
worker count used to run the replications. The sample size is not part of
the key, so an experiment draws each key once, at its largest sample size,
and every smaller size takes a prefix of those draws.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import platform
import time
import warnings
from dataclasses import dataclass, field, asdict
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import __version__ as _pkg_version
from .bandwidth import h_opt_gamma, h_opt_normal
from .estimators import AnalyticModel, SubsetSample, _product, kde_rows
from .kernels import from_name
from .quadrature import Grid, simpson_weights


def _pool_class():
    """The process pool class, imported on first use: only a multi-worker
    `_ise_columns` starts a pool, and `multiprocessing` would add to every
    other command's start-up. A class set as this module's
    `ProcessPoolExecutor` (to count pool starts) takes its place, and is
    part of the key under which `_pool` keeps its executor, so a new class
    starts a new pool."""
    from concurrent.futures import ProcessPoolExecutor

    return globals().setdefault("ProcessPoolExecutor", ProcessPoolExecutor)


# pid -> ((pool class, workers), executor): each process's one pool
_pools = {}


def _pool(workers: int):
    """This process's executor of `workers` workers, started on first use
    and kept for later calls.

    An executor lives under the key (pid, pool class, workers). A call with
    another class or worker count shuts the old executor down (waiting for
    its workers) before the new one starts. A forked child's pid differs
    from its parent's, so it starts its own executor and neither uses nor
    shuts down the parent's, which stays referenced under the parent's pid.
    At interpreter exit `concurrent.futures`' own exit hook joins the
    workers, so none outlives this process. The harness maps from one
    thread at a time; `_pools` takes no lock.
    """
    pid, key = os.getpid(), (_pool_class(), workers)
    held = _pools.get(pid)
    if held is not None and held[0] != key:
        _drop_pool()
        held = None
    if held is None:
        held = _pools[pid] = (key, key[0](max_workers=workers))
    return held[1]


def _drop_pool() -> None:
    """Shut down and forget this process's executor, if it has one."""
    held = _pools.pop(os.getpid(), None)
    if held is not None:
        held[1].shutdown(wait=True)


def __getattr__(name):
    if name == "ProcessPoolExecutor":
        return _pool_class()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        counts = [(name, getattr(self, name)) for name in
                  ("sweep_count", "replications", "outer_repeats", "grid_points", "workers")]
        counts += [("n_per_subset", n) for n in self.n_per_subset]
        for name, value in counts:
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.replications < 2:
            raise ValueError("replications must be >= 2 for a standard error")
        if self.sweep_count < 5:
            raise ValueError("sweep_count must be >= 5 to locate a MISE minimum")
        if self.outer_repeats < 1:
            raise ValueError("outer_repeats must be >= 1")
        if not self.n_per_subset:
            raise ValueError("n_per_subset needs at least one sample size")
        if min(self.n_per_subset) < 1:
            raise ValueError(f"n_per_subset entries must be >= 1, got {self.n_per_subset}")
        # a repeated size draws the same keys, so its rows would repeat too
        repeated = sorted({n for n in self.n_per_subset if self.n_per_subset.count(n) > 1})
        if repeated:
            raise ValueError(f"n_per_subset repeats sample sizes {repeated}, "
                             f"got {self.n_per_subset}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not (0 < self.sweep_lo < self.sweep_hi < math.inf):
            raise ValueError(
                "sweep needs 0 < sweep_lo < sweep_hi < inf: each sweep bandwidth must "
                f"be positive and finite, got [{self.sweep_lo!r}, {self.sweep_hi!r}]"
            )
        if self.seed is not None:
            _check_seed(self.seed)
        self.grid()  # checks the grid bounds and the model
        # a family's parameters take effect; the other family's keep their defaults
        for key in ("alpha", "theta") if self.family == "normal" else ("mu", "sigma"):
            if getattr(self, key) != getattr(ExperimentConfig, key):
                raise ValueError(f"family {self.family!r} does not use config key {key!r}")

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
        return AnalyticModel(self.family, self.M, mu=self.mu, sigma=self.sigma,
                             alpha=self.alpha, theta=self.theta)

    def grid(self) -> Grid:
        """The grid_lo/grid_hi window, else the model's window."""
        return Grid.from_bounds(self.grid_lo, self.grid_hi, self.grid_points, self.model().window())

    def sweep(self, n: int) -> tuple[float, np.ndarray]:
        """The closed-form h_opt at n and the sweep's bandwidths: sweep_count
        values spaced evenly from sweep_lo to sweep_hi times h_opt."""
        h_opt = closed_form_h(self.model(), n)
        return h_opt, np.linspace(self.sweep_lo * h_opt, self.sweep_hi * h_opt, self.sweep_count)


def closed_form_h(model: AnalyticModel, n: int, baseline: bool = False) -> float:
    """Per-subset closed-form optimal bandwidth under the given policy."""
    M = 1 if baseline else model.M
    if model.family == "normal":
        return h_opt_normal(n, M, model.sigma)
    return h_opt_gamma(n, M, model.alpha, model.theta)


# ---------------------------------------------------------------------------
# sampling and single-shot error measures


def _check_seed(seed) -> None:
    """The one seed rule: a seed is a non-negative integer."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def sample_model(
    model: AnalyticModel, n: int, seed, outer: int = 0, rep: int = 0
) -> list[SubsetSample]:
    """model.M independent subsets of n i.i.d. draws, deterministic given the key.

    Subset m draws from its own stream, keyed by (seed, outer, rep, m); n is
    not part of the key, so the n draws are the first n of that stream and
    equal the first n draws of any larger n at the same key.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_seed(seed)
    out = []
    for m in range(model.M):
        rng = np.random.default_rng([int(seed), outer, rep, m])
        out.append(SubsetSample(model.sample_subset(rng, n), subset_index=m + 1))
    return out


@lru_cache(maxsize=8)
def _truth(model: AnalyticModel, grid: Grid) -> np.ndarray:
    """The model's posterior at grid.points.

    Memoized per (model, grid), read-only, and never handed out of
    `_replication`, so the replications of an experiment, which share one
    model and grid, build it once per process. An entry holds G doubles:
    8 entries at G = 4001 take about 0.25 MB. Exceptions are not cached.
    """
    truth = np.asarray(model.posterior(grid.points), dtype=float)
    truth.flags.writeable = False
    return truth


def _replication(job) -> list[list[float | None]]:
    """Per sample size of one (model, outer, rep) key, the ISE of the
    normalized product for each of its bandwidth rows.

    The key's samples are drawn once, at its largest n, and every smaller n
    takes the first n draws of each subset, which are the draws
    `sample_model` gives at that n (common random numbers across sizes and
    rows). Per size, one `kde_rows` call bins the samples once for all its
    rows, a group of samples per pass, and one `_product` call forms every
    row's product.
    A degenerate product gives None in its row. What does not depend on the
    draws comes from read-only LRU caches kept for the process: the truth
    row from `_truth` (8 entries keyed by (model, grid), about 0.25 MB at
    G = 4001), the Simpson weights from `simpson_weights` (16 entries keyed
    by (n, spacing)) and the kernel tables from `kde_rows` (256 entries
    keyed by (kernel, h, n, derivs, spacing), at most about 16 MB).
    """
    model, sizes, seed, outer, rep, grid = job
    kernel = from_name("gaussian")
    drawn = sample_model(model, max(n for n, _ in sizes), seed, outer, rep)
    truth = _truth(model, grid)
    weights = simpson_weights(grid.n_points, grid.spacing)
    out = []
    for n, h_rows in sizes:
        samples = [SubsetSample(s.values[:n], s.subset_index) for s in drawn]
        # (M, R, G): per subset, its KDE row at each h row's bandwidth
        rows = kde_rows(samples, np.transpose(h_rows), kernel, grid)[:, :, 0]
        _, values, failed = _product(rows, weights)
        ok = [r for r, err in enumerate(failed) if err is None]
        squared = (values[ok] - truth) ** 2
        if not np.isfinite(squared).all():
            raise ValueError("non-finite integrand values (density or derivative blow-up?)")
        # a 1-D dot per row, as integrate_values takes it: one (R, G) @ (G,)
        # product rounds differently
        ises = iter([row @ weights for row in squared])
        out.append([next(ises) if err is None else None for err in failed])
    return out


def _ise_columns(
    batches: Sequence[tuple], replications: int, seed, grid: Grid, workers: int
) -> list[list[tuple[float | None, ...]]]:
    """Per (model, n, h_rows, outer) batch and per h row, the ISEs of every
    replication in replication order.

    A job is one (model, outer, rep) key and carries every batch of that
    (model, outer), in batch order, so `_replication` draws each key once
    however many sample sizes share it. Every job goes through one map: on
    this process's pool of min(workers, jobs) workers (`_pool`), or in this
    process for one worker. The pool is started by the first multi-worker
    call and kept for the process's lifetime, so later calls with the same
    worker count reuse its warm workers; a process that makes one pooled
    call starts and joins one pool, as it would with a pool per call. If a
    worker dies, the pool is dropped before `BrokenProcessPool` is
    re-raised, and the next call starts a fresh one. Jobs are dispatched
    heaviest first (most h rows over all their sizes; a stable sort), so no
    worker is left with a long job at the end; each result goes back to its
    batch's columns. The seed and every bandwidth are checked once, before
    any job runs.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications for a standard error")
    _check_seed(seed)
    bad = [h for _, _, rows, _ in batches for row in rows for h in row if not 0 < h < math.inf]
    if bad:
        raise ValueError(f"bandwidth must be positive and finite, got {bad[0]}")
    keys = {}  # (model, outer) -> indices of its batches, in batch order
    for b, (model, _, _, outer) in enumerate(batches):
        keys.setdefault((model, outer), []).append(b)
    jobs = []  # (job, its rep, its batches)
    for (model, outer), members in keys.items():
        sizes = tuple(batches[b][1:3] for b in members)  # (n, h_rows) per batch
        jobs += [((model, sizes, seed, outer, rep, grid), rep, members)
                 for rep in range(replications)]
    jobs.sort(key=lambda item: sum(len(h_rows) for _, h_rows in item[0][1]), reverse=True)
    todo = [job for job, _, _ in jobs]
    workers = min(workers, len(todo))
    if workers > 1:
        from concurrent.futures.process import BrokenProcessPool

        chunksize = max(1, len(todo) // (4 * workers))
        try:
            done = list(_pool(workers).map(_replication, todo, chunksize=chunksize))
        except BrokenProcessPool:
            _drop_pool()  # a worker died: the next call starts a fresh pool
            raise
    else:
        done = [_replication(job) for job in todo]
    results = [[None] * replications for _ in batches]  # per batch, per rep
    for (_, rep, members), per_size in zip(jobs, done):
        for b, ises in zip(members, per_size):
            results[b][rep] = ises
    return [list(zip(*columns)) for columns in results]


@dataclass(frozen=True)
class MiseEstimate:
    mise: float
    stderr: float
    degenerate_count: int


def _mise_estimate(column: Sequence[float | None]) -> MiseEstimate:
    """Mean and standard error of the non-degenerate ISEs in one column of
    replications; the one rule for columns with degenerate products."""
    replications = len(column)
    vals = np.array([v for v in column if v is not None])
    degenerate = replications - vals.size
    if degenerate:
        warnings.warn(f"{degenerate}/{replications} degenerate replications excluded")
    if degenerate > replications // 2:
        raise DegenerateMajority(
            f"{degenerate} of {replications} replications degenerate"
        )
    if vals.size < 2:
        raise DegenerateMajority(
            f"{vals.size} of {replications} replications usable; a standard error needs 2"
        )
    return MiseEstimate(
        mise=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / math.sqrt(vals.size)),
        degenerate_count=degenerate,
    )


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
    ((column,),) = _ise_columns([(model, n, [h], outer)], replications, seed, grid, workers)
    return _mise_estimate(column)


# ---------------------------------------------------------------------------
# bandwidth sweeps


@dataclass
class MiseCurve:
    """Monte Carlo MISE samples along a bandwidth sweep."""

    rows: list[tuple[float, float, float]]  # (h, mise, stderr)
    argmin_h: float
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


def _sweep_rows(model: AnalyticModel, h_values) -> tuple[np.ndarray, list[tuple]]:
    """Sorted sweep bandwidths and their h rows, one common h per row."""
    h_values = np.asarray(sorted(h_values), dtype=float)
    if h_values.size < 5:
        raise ValueError("sweep needs at least 5 bandwidth values")
    return h_values, [(float(h),) * model.M for h in h_values]


def _curve(h_values: np.ndarray, columns: Sequence[Sequence[float | None]]) -> MiseCurve:
    """MISE curve from the replication ISEs of each sweep bandwidth."""
    estimates = [_mise_estimate(column) for column in columns]
    mises = np.array([est.mise for est in estimates])
    return MiseCurve(
        rows=[(float(h), est.mise, est.stderr) for h, est in zip(h_values, estimates)],
        argmin_h=_refine_argmin(h_values, mises),
        degenerate_count=sum(est.degenerate_count for est in estimates),
    )


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
    h_values, h_rows = _sweep_rows(model, h_values)
    (columns,) = _ise_columns([(model, n, h_rows, outer)], replications, seed, grid, workers)
    return _curve(h_values, columns)


# ---------------------------------------------------------------------------
# full experiment


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header line and then each row to path: the one CSV writer of
    the package's outputs. Callers format float cells with repr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Reproduce the bandwidth-policy comparison and ratio experiments.

    Writes mise_vs_n.csv (both closed-form policies), ratio.csv (closed-form
    h against the sweep-located argmin) and a run manifest that lists each
    degenerate replication. Every replication of the experiment goes through
    one job map; both policies of an n share one batch, and every n of an
    outer repeat shares one job per replication, and so its draws (a
    prefix of them below the largest n). Returns a dict of the output
    paths.
    """
    if cfg.seed is None:
        raise ValueError("experiment requires a seed")
    t0 = time.time()
    model = cfg.model()
    grid = cfg.grid()
    ns = cfg.n_per_subset
    # every batch is built before the output directory, so a closed form
    # that fails leaves nothing behind
    policies = (("h_opt", False), ("h_opt_baseline", True))
    policy_hs = [[closed_form_h(model, n, baseline=b) for _, b in policies] for n in ns]
    batches = [(model, n, [(h,) * model.M for h in hs], 0) for n, hs in zip(ns, policy_hs)]
    sweeps = []
    for n in ns:
        h_opt, hs = cfg.sweep(n)
        h_values, h_rows = _sweep_rows(model, hs)
        batches += [(model, n, h_rows, 1 + r) for r in range(cfg.outer_repeats)]
        sweeps.append((n, h_opt, h_values))
    os.makedirs(cfg.output_dir, exist_ok=True)
    mise_path = os.path.join(cfg.output_dir, "mise_vs_n.csv")
    ratio_path = os.path.join(cfg.output_dir, "ratio.csv")
    manifest_path = os.path.join(cfg.output_dir, "manifest.json")
    try:
        columns = _ise_columns(batches, cfg.replications, cfg.seed, grid, cfg.workers)

        mise_rows = []
        for n, hs, batch_columns in zip(ns, policy_hs, columns):
            for (policy, _), h, column in zip(policies, hs, batch_columns):
                est = _mise_estimate(column)
                mise_rows.append([cfg.family, cfg.M, n, policy, repr(h), repr(est.mise),
                                  repr(est.stderr), est.degenerate_count])
        _write_csv(
            mise_path,
            ["model", "M", "n", "policy", "h", "mise", "stderr", "degenerate_count"],
            mise_rows,
        )

        sweep_columns = iter(columns[len(ns):])
        ratio_rows = []
        for n, h_opt, h_values in sweeps:
            argmins = [
                _curve(h_values, next(sweep_columns)).argmin_h
                for _ in range(cfg.outer_repeats)
            ]
            ratios = np.asarray([h_opt / a for a in argmins])
            # stderr over outer repeats is undefined for a single repeat
            se = float(ratios.std(ddof=1) / math.sqrt(ratios.size)) if ratios.size > 1 else 0.0
            ratio_rows.append([cfg.family, cfg.M, n, repr(h_opt), repr(float(np.median(argmins))),
                               repr(float(np.median(ratios))), repr(se)])
        _write_csv(
            ratio_path,
            ["model", "M", "n", "h_opt", "h_argmin", "ratio", "ratio_stderr"],
            ratio_rows,
        )

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
            # every row of the experiment shares one h across subsets
            "degenerate": [
                {"n": n, "outer": outer, "rep": rep, "h": h_row[0]}
                for (_, n, h_rows, outer), batch_columns in zip(batches, columns)
                for h_row, column in zip(h_rows, batch_columns)
                for rep, ise_value in enumerate(column)
                if ise_value is None
            ],
        }
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2)
    except Exception:
        for path in (mise_path, ratio_path, manifest_path):
            if os.path.exists(path):
                os.remove(path)
        raise
    return {"mise_vs_n": mise_path, "ratio": ratio_path, "manifest": manifest_path}
