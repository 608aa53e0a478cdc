"""Command line front end: fit, optimize, mise-sweep, experiment, report."""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from .bandwidth import (
    GammaDomain,
    OptimizerOptions,
    normal_reference_h,
    optimize_bandwidth,
)
from .estimators import DegenerateProduct, SubsetSample, fit_subset_kde, normalize
from .harness import (
    DegenerateMajority,
    ExperimentConfig,
    closed_form_h,
    run_experiment,
    sweep_bandwidth,
)
from .kernels import from_name
from .quadrature import ConvergenceError, Grid, default_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_subsets(directory: str) -> list[SubsetSample]:
    """One numeric text file per subset, sorted filename order = subset order.

    Values may be one per line or comma separated.
    """
    try:
        names = sorted(
            f for f in os.listdir(directory)
            if os.path.isfile(os.path.join(directory, f))
        )
    except OSError as exc:
        raise CliError(f"cannot list subset directory {directory}: {exc}", EXIT_IO)
    if not names:
        raise CliError(f"no subset files found in {directory}", EXIT_CONFIG)
    subsets = []
    for m, name in enumerate(names):
        path = os.path.join(directory, name)
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}", EXIT_IO)
        tokens = text.replace(",", " ").split()
        try:
            values = np.array([float(t) for t in tokens])
        except ValueError as exc:
            raise CliError(f"non-numeric entry in {path}: {exc}", EXIT_CONFIG)
        try:
            subsets.append(SubsetSample(values, subset_index=m + 1))
        except ValueError as exc:
            raise CliError(f"bad sample in {path}: {exc}", EXIT_CONFIG)
    return subsets


def _grid_from_args(args, subsets, bandwidths) -> Grid:
    """The --grid-lo/--grid-hi window, else the default window of the subsets."""
    if (args.grid_lo is None) != (args.grid_hi is None):
        raise CliError("--grid-lo and --grid-hi must be given together", EXIT_CONFIG)
    try:
        if args.grid_lo is not None:
            return Grid(args.grid_lo, args.grid_hi, args.grid_points)
        pooled = np.concatenate([s.values for s in subsets])
        return default_grid(pooled, bandwidths, n_points=args.grid_points)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_CONFIG)


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        try:
            cfg = ExperimentConfig.from_json(args.config)
        except OSError as exc:
            raise CliError(f"cannot read config {args.config}: {exc}", EXIT_IO)
        except (ValueError, TypeError) as exc:
            raise CliError(f"bad config {args.config}: {exc}", EXIT_CONFIG)
    else:
        cfg = ExperimentConfig()
    # flag overrides beat config file values
    for name in ExperimentConfig.__dataclass_fields__:
        flag = getattr(args, name, None)
        if flag is not None:
            setattr(cfg, name, flag)
    if args.n is not None:
        cfg.n_per_subset = args.n
    try:
        cfg.__post_init__()
    except ValueError as exc:
        raise CliError(str(exc), EXIT_CONFIG)
    return cfg


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file mirroring ExperimentConfig")
    p.add_argument("--family", choices=["normal", "gamma"])
    p.add_argument("--mu", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("-M", "--M", type=int, dest="M")
    p.add_argument("--n", type=int, nargs="+", help="per-subset sample sizes")
    p.add_argument("--sweep-lo", dest="sweep_lo", type=float)
    p.add_argument("--sweep-hi", dest="sweep_hi", type=float)
    p.add_argument("--sweep-count", dest="sweep_count", type=int)
    p.add_argument("--replications", type=int)
    p.add_argument("--outer-repeats", dest="outer_repeats", type=int)
    p.add_argument("--grid-lo", dest="grid_lo", type=float)
    p.add_argument("--grid-hi", dest="grid_hi", type=float)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--workers", type=int)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkde",
        description="Parallel product-of-subset KDE: fitting, bandwidth "
        "selection and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit subset KDEs and dump the normalized product density")
    p_fit.add_argument("--subsets", required=True, help="directory of subset sample files")
    p_fit.add_argument("--bandwidth", required=True,
                       help="'auto', a single value, or a comma list (one per subset)")
    p_fit.add_argument("--kernel", default="gaussian", choices=["gaussian", "epanechnikov"])
    p_fit.add_argument("--out", required=True, help="output CSV path (x,value)")
    p_fit.add_argument("--grid-lo", type=float)
    p_fit.add_argument("--grid-hi", type=float)
    p_fit.add_argument("--grid-points", type=int, default=2001)

    p_opt = sub.add_parser("optimize", help="plug-in bandwidth search from a normal-reference pilot")
    p_opt.add_argument("--subsets", required=True)
    p_opt.add_argument("--kernel", default="gaussian", choices=["gaussian", "epanechnikov"])
    p_opt.add_argument("--max-iters", type=int, default=OptimizerOptions.max_outer_iters,
                       help="surrogate fits: 1 keeps the pilot fit, more refit at each iterate")
    p_opt.add_argument("--tol", type=float, default=None)
    p_opt.add_argument("--out", help="per-iteration trace CSV (iter,h_1..h_M,amise_hat)")
    p_opt.add_argument("--grid-lo", type=float)
    p_opt.add_argument("--grid-hi", type=float)
    # default_grid's own size, so the CLI and library defaults agree
    p_opt.add_argument("--grid-points", type=int, default=4001)

    p_sweep = sub.add_parser("mise-sweep", help="Monte Carlo MISE curve over a bandwidth range")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--out", default="sweep.csv")

    p_exp = sub.add_parser("experiment", help="full experiment: MISE vs n and ratio tables")
    _add_config_flags(p_exp)
    p_exp.add_argument("--seed", type=int, required=True)

    p_rep = sub.add_parser("report", help="summarize experiment CSVs")
    p_rep.add_argument("--output-dir", dest="output_dir", default="out")
    return parser


def _parse_bandwidths(spec: str, subsets) -> np.ndarray:
    M = len(subsets)
    if spec == "auto":
        return normal_reference_h(subsets)
    try:
        parts = [float(t) for t in spec.split(",")]
    except ValueError:
        raise CliError(f"bad --bandwidth value {spec!r}", EXIT_CONFIG)
    if len(parts) == 1:
        parts = parts * M
    if len(parts) != M:
        raise CliError(f"--bandwidth needs 1 or {M} values, got {len(parts)}", EXIT_CONFIG)
    if any(h <= 0 for h in parts):
        raise CliError("bandwidths must be positive", EXIT_CONFIG)
    return np.array(parts)


def _cmd_fit(args) -> int:
    subsets = _load_subsets(args.subsets)
    h = _parse_bandwidths(args.bandwidth, subsets)
    kernel = from_name(args.kernel)
    grid = _grid_from_args(args, subsets, h)
    kdes = [fit_subset_kde(s, hv, kernel) for s, hv in zip(subsets, h)]
    post = normalize(kdes, grid)
    try:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "value"])
            for x, v in zip(grid.points, post.values):
                w.writerow([repr(float(x)), repr(float(v))])
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}", EXIT_IO)
    print(f"fitted {len(kdes)} subsets; h = {', '.join(f'{v:.6g}' for v in h)}")
    print(f"lambda_hat = {post.lambda_hat:.6g}; density written to {args.out}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    subsets = _load_subsets(args.subsets)
    kernel = from_name(args.kernel)
    if not kernel.smooth:
        raise CliError("optimize requires the gaussian kernel", EXIT_CONFIG)
    opts = OptimizerOptions(max_outer_iters=args.max_iters, tol=args.tol)
    grid = _grid_from_args(args, subsets, normal_reference_h(subsets))
    res = optimize_bandwidth(subsets, kernel, opts, grid=grid)
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                w = csv.writer(fh)
                M = len(subsets)
                w.writerow(["iter"] + [f"h_{i + 1}" for i in range(M)] + ["amise_hat"])
                for it, h, obj in res.trace:
                    w.writerow([it] + [repr(float(v)) for v in h] + [repr(obj)])
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}", EXIT_IO)
    print("h = " + ", ".join(f"{v:.6g}" for v in res.h))
    print(
        f"converged = {res.converged}; iterations = {res.iterations}; "
        f"amise_hat = {res.objective:.6g}"
    )
    return EXIT_OK


def _cmd_mise_sweep(args) -> int:
    cfg = _config_from_args(args)
    cfg.seed = args.seed
    model = cfg.model()
    grid = cfg.grid()
    if len(cfg.n_per_subset) != 1:
        raise CliError("mise-sweep wants exactly one sample size in n_per_subset", EXIT_CONFIG)
    n = cfg.n_per_subset[0]
    try:
        h_opt = closed_form_h(model, n)
    except GammaDomain as exc:
        raise CliError(str(exc), EXIT_NUMERICAL)
    hs = np.linspace(cfg.sweep_lo * h_opt, cfg.sweep_hi * h_opt, cfg.sweep_count)
    curve = sweep_bandwidth(
        model, n, hs, cfg.replications, cfg.seed, grid, workers=cfg.workers
    )
    try:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["h", "mise", "stderr"])
            for h, m, se in curve.rows:
                w.writerow([repr(h), repr(m), repr(se)])
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}", EXIT_IO)
    print(f"h_opt (closed form) = {h_opt:.6g}")
    print(f"argmin_h = {curve.argmin_h:.6g}; ratio = {h_opt / curve.argmin_h:.4f}")
    print(f"sweep written to {args.out}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = _config_from_args(args)
    cfg.seed = args.seed
    paths = run_experiment(cfg)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return EXIT_OK


def _read_csv(path: str) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO)


def _cmd_report(args) -> int:
    mise_rows = _read_csv(os.path.join(args.output_dir, "mise_vs_n.csv"))
    ratio_rows = _read_csv(os.path.join(args.output_dir, "ratio.csv"))
    by_policy: dict[str, list[tuple[int, float]]] = {}
    for r in mise_rows:
        by_policy.setdefault(r["policy"], []).append((int(r["n"]), float(r["mise"])))
    print("MISE vs n:")
    for policy, rows in by_policy.items():
        rows.sort()
        if len(rows) >= 2:
            x = np.log([n for n, _ in rows])
            y = np.log([m for _, m in rows])
            slope = float(np.polyfit(x, y, 1)[0])
            print(f"  {policy}: log-log slope {slope:.3f}")
        for n, m in rows:
            print(f"    n={n:>6d}  mise={m:.4e}")
    if "h_opt" in by_policy and "h_opt_baseline" in by_policy:
        worse = [
            n
            for (n, a), (_, b) in zip(sorted(by_policy["h_opt"]), sorted(by_policy["h_opt_baseline"]))
            if a > b
        ]
        verdict = "h_opt beats baseline at every n" if not worse else f"baseline wins at n={worse}"
        print(f"  {verdict}")
    print("h_opt / argmin ratio:")
    for r in ratio_rows:
        print(
            f"  n={int(r['n']):>6d}  ratio={float(r['ratio']):.4f} "
            f"(stderr {float(r['ratio_stderr']):.4f})"
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fit": _cmd_fit,
        "optimize": _cmd_optimize,
        "mise-sweep": _cmd_mise_sweep,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DegenerateProduct, DegenerateMajority, GammaDomain, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
