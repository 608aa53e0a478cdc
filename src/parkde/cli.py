"""Command line front end: fit, optimize, mise-sweep, experiment, report."""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .bandwidth import OPTIMIZE_GRID_POINTS, GammaDomain, normal_reference_h, optimize_bandwidth
from .estimators import DegenerateProduct, SubsetSample, data_window, fit_subset_kde, normalize
from .harness import (
    DegenerateMajority,
    ExperimentConfig,
    _write_csv,
    run_experiment,
    sweep_bandwidth,
)
from .kernels import from_name
from .quadrature import ConvergenceError, Grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _load_subsets(directory: str) -> list[SubsetSample]:
    """One numeric text file per subset, sorted filename order = subset order.

    Values may be one per line or comma separated. A file that cannot be
    decoded, holds a non-numeric entry or is not a valid sample is a
    ValueError that names it.
    """
    names = sorted(
        f for f in os.listdir(directory) if os.path.isfile(os.path.join(directory, f))
    )
    if not names:
        raise ValueError(f"no subset files found in {directory}")
    subsets = []
    for m, name in enumerate(names):
        path = os.path.join(directory, name)
        try:
            with open(path) as fh:
                values = np.array(fh.read().replace(",", " ").split(), dtype=float)
            subsets.append(SubsetSample(values, subset_index=m + 1))
        except ValueError as exc:
            raise ValueError(f"bad subset file {path}: {exc}") from exc
    return subsets


def _grid_from_args(args, subsets, bandwidths) -> Grid:
    """The --grid-lo/--grid-hi window, else the data window of the subsets."""
    return Grid.from_bounds(
        args.grid_lo, args.grid_hi, args.grid_points, data_window(subsets, bandwidths)
    )


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        try:
            cfg = ExperimentConfig.from_json(args.config)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad config {args.config}: {exc}") from exc
    else:
        cfg = ExperimentConfig()
    # flag overrides beat config file values
    for name in ExperimentConfig.__dataclass_fields__:
        flag = getattr(args, name, None)
        if flag is not None:
            setattr(cfg, name, flag)
    if args.n is not None:
        cfg.n_per_subset = args.n
    cfg.__post_init__()
    if cfg.seed is None:
        raise ValueError("a seed is required: give --seed or the config's seed")
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
    p.add_argument("--grid-lo", dest="grid_lo", type=float)
    p.add_argument("--grid-hi", dest="grid_hi", type=float)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=None)
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
    p_opt.add_argument("--tol", type=float, default=None)
    p_opt.add_argument("--out", help="trace CSV (iter,h_1..h_M,amise_hat,grad_norm,"
                       "step,backtracks,stop,steps,fallbacks)")
    p_opt.add_argument("--grid-lo", type=float)
    p_opt.add_argument("--grid-hi", type=float)
    p_opt.add_argument("--grid-points", type=int, default=OPTIMIZE_GRID_POINTS)

    p_sweep = sub.add_parser("mise-sweep", help="Monte Carlo MISE curve over a bandwidth range")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--out", default="sweep.csv")

    p_exp = sub.add_parser("experiment", help="full experiment: MISE vs n and ratio tables")
    _add_config_flags(p_exp)
    p_exp.add_argument("--outer-repeats", dest="outer_repeats", type=int)
    p_exp.add_argument("--output-dir", dest="output_dir")
    p_exp.add_argument("--seed", type=int)

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
        raise ValueError(f"bad --bandwidth value {spec!r}")
    if len(parts) == 1:
        parts = parts * M
    if len(parts) != M:
        raise ValueError(f"--bandwidth needs 1 or {M} values, got {len(parts)}")
    return np.array(parts)


def _cmd_fit(args) -> int:
    subsets = _load_subsets(args.subsets)
    h = _parse_bandwidths(args.bandwidth, subsets)
    kernel = from_name(args.kernel)
    # fit_subset_kde checks each bandwidth before a window is built from them
    kdes = [fit_subset_kde(s, hv, kernel) for s, hv in zip(subsets, h)]
    grid = _grid_from_args(args, subsets, h)
    post = normalize(kdes, grid)
    _write_csv(
        args.out,
        ["x", "value"],
        ([repr(float(x)), repr(float(v))] for x, v in zip(grid.points, post.values)),
    )
    print(f"fitted {len(kdes)} subsets; h = {', '.join(f'{v:.6g}' for v in h)}")
    print(f"lambda_hat = {post.lambda_hat:.6g}; density written to {args.out}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    subsets = _load_subsets(args.subsets)
    grid = _grid_from_args(args, subsets, normal_reference_h(subsets))
    res = optimize_bandwidth(subsets, grid=grid, tol=args.tol)
    if args.out:
        _write_csv(
            args.out,
            ["iter"] + [f"h_{i + 1}" for i in range(len(subsets))]
            + ["amise_hat", "grad_norm", "step", "backtracks", "stop", "steps", "fallbacks"],
            (
                [it] + [repr(float(v)) for v in h] + [repr(obj), repr(gnorm), repr(step)] + counts
                for it, h, obj, gnorm, step, *counts in res.trace
            ),
        )
    print("h = " + ", ".join(f"{v:.6g}" for v in res.h))
    print(f"converged = {res.converged}; amise_hat = {res.objective:.6g}")
    return EXIT_OK


def _cmd_mise_sweep(args) -> int:
    cfg = _config_from_args(args)
    # a sweep has one outer repeat and writes only --out
    for key in ("outer_repeats", "output_dir"):
        if getattr(cfg, key) != getattr(ExperimentConfig, key):
            raise ValueError(f"mise-sweep does not use config key {key!r}")
    model = cfg.model()
    grid = cfg.grid()
    if len(cfg.n_per_subset) != 1:
        raise ValueError("mise-sweep wants exactly one sample size in n_per_subset")
    n = cfg.n_per_subset[0]
    h_opt, hs = cfg.sweep(n)
    curve = sweep_bandwidth(
        model, n, hs, cfg.replications, cfg.seed, grid, workers=cfg.workers
    )
    _write_csv(args.out, ["h", "mise", "stderr"], ([repr(v) for v in row] for row in curve.rows))
    print(f"h_opt (closed form) = {h_opt:.6g}")
    print(f"argmin_h = {curve.argmin_h:.6g}; ratio = {h_opt / curve.argmin_h:.4f}")
    print(f"sweep written to {args.out}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = _config_from_args(args)
    paths = run_experiment(cfg)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return EXIT_OK


def _read_csv(path: str, columns: dict[str, type]) -> list[dict]:
    """The rows of an `experiment` table, each named column converted by its
    type; a row without one of the columns, from a header that lacks it or
    a short row, or a value its type rejects, is a ValueError that names the
    file and the column."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for i, row in enumerate(rows, start=1):
        for column, kind in columns.items():
            if row.get(column) is None:
                raise ValueError(f"{path}: data row {i} has no value for column {column!r}")
            try:
                row[column] = kind(row[column])
            except ValueError as exc:
                raise ValueError(f"{path}: data row {i}, column {column!r}: {exc}") from exc
    return rows


def _cmd_report(args) -> int:
    mise_rows = _read_csv(os.path.join(args.output_dir, "mise_vs_n.csv"),
                          {"policy": str, "n": int, "mise": float})
    ratio_rows = _read_csv(os.path.join(args.output_dir, "ratio.csv"),
                           {"n": int, "ratio": float, "ratio_stderr": float})
    by_policy: dict[str, list[tuple[int, float]]] = {}
    for r in mise_rows:
        by_policy.setdefault(r["policy"], []).append((r["n"], r["mise"]))
    print("MISE vs n:")
    for policy, rows in by_policy.items():
        rows.sort()
        heading = f"  {policy}:"
        if len(rows) >= 2:
            x = np.log([n for n, _ in rows])
            y = np.log([m for _, m in rows])
            heading += f" log-log slope {float(np.polyfit(x, y, 1)[0]):.3f}"
        print(heading)
        for n, m in rows:
            print(f"    n={n:>6d}  mise={m:.4e}")
    if "h_opt" in by_policy and "h_opt_baseline" in by_policy:
        tuned, baseline = dict(by_policy["h_opt"]), dict(by_policy["h_opt_baseline"])
        worse = sorted(n for n in tuned.keys() & baseline.keys() if tuned[n] > baseline[n])
        print(f"  baseline wins at n={worse}" if worse
              else "  h_opt beats baseline at every n both policies cover")
        for policy, only in (("h_opt", tuned.keys() - baseline.keys()),
                             ("h_opt_baseline", baseline.keys() - tuned.keys())):
            if only:
                print(f"  only {policy} has n={sorted(only)}")
    print("h_opt / argmin ratio:")
    for r in ratio_rows:
        print(f"  n={r['n']:>6d}  ratio={r['ratio']:.4f} (stderr {r['ratio_stderr']:.4f})")
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
    except (
        DegenerateProduct, DegenerateMajority, GammaDomain, ConvergenceError, ArithmeticError
    ) as exc:
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
