"""One fresh process of a benchmark run: set-up, then a measured phase.

    python3 perfbench/child.py --workload W --seed S --seconds T \
        --phase setup|measure|trace --workdir DIR --result FILE [--reference]

``setup`` only times the set-up. ``measure`` runs the end-to-end loop for T
seconds with tracing off. ``trace`` runs the loop in-process with one
worker, first untraced and then traced, and reduces the spans to per-layer
metrics. ``--reference`` also compares outputs with the slow reference
path. Results go to FILE as JSON; run.py starts this script.
"""

from time import perf_counter

T_START = perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import parkde  # noqa: E402
import parkde.harness  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

KDE_METHODS = ("SubsetKde.__call__", "SubsetKde.value_and_curvature")

# The shared host's speed drifts by 10-25% over tens of seconds, which moves
# every wall-clock rate alike. A fixed exp-and-sum loop is timed at each
# operation boundary, and rates are scaled to a machine on which that loop
# takes CALIBRATION_REF_S (about its median on a 2.1 GHz Xeon vCPU).
CALIBRATION_REF_S = 0.0045


class Calibration:
    """The fixed loop. Its buffers live as long as the process and it allocates
    nothing while it runs: freeing large arrays raises glibc's mmap and trim
    thresholds, which changes how fast the program's own temporaries are."""

    def __init__(self):
        self.block = np.random.default_rng(0).normal(size=(64, 1000))
        self.work = np.empty_like(self.block)

    def __call__(self) -> float:
        """Fastest of five short blocks, so a brief interruption does not count."""
        best = float("inf")
        for _ in range(5):
            start = perf_counter()
            for _ in range(30):
                np.multiply(self.block, self.block, out=self.work)
                self.work *= -0.5
                np.exp(self.work, out=self.work)
                self.work.sum()
            best = min(best, perf_counter() - start)
        return best


def run_window(wl, seconds: float, mode: str, calibrate: Calibration,
               trace=None) -> list[Op]:
    """Closed loop: start operations wl.first, wl.first + 1, ... until `seconds` have passed."""
    ops = []
    t0 = perf_counter()
    before = calibrate()
    while not ops or perf_counter() - t0 < seconds:
        i = wl.first + len(ops)
        if trace is not None:
            trace.request = f"{trace.run_id}/op{i}"
        start = perf_counter()
        try:
            op = wl.op(i, mode)
        except Exception:  # an operation that raises counts as failed work
            traceback.print_exc()
            op = Op(wl.nominal_units, wl.nominal_units)
        op.seconds = perf_counter() - start
        after = calibrate()
        op.calibration_s = 0.5 * (before + after)
        before = after
        ops.append(op)
    return ops


def ref_seconds(ops: list[Op], calibrated: bool) -> list[float]:
    """Each operation's time, scaled to the reference speed if calibrated."""
    return [op.seconds * (CALIBRATION_REF_S / op.calibration_s if calibrated else 1.0)
            for op in ops]


def rate(ops: list[Op], calibrated: bool) -> float:
    """Work units over time: a ratio of sums, because one plugin_optimize
    problem can take five times as long as another."""
    return sum(op.units for op in ops) / sum(ref_seconds(ops, calibrated))


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every process it has reaped.

    Taken when the loop ends, before the checks, so the reference path's
    memory does not count.
    """
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _kde_pairs(counters, bound, result):
    counters["estimators.kde_pairs"] += np.size(bound["x"]) * bound["self"].sample.size


def _product_counter():
    """A product is new when its components differ from the previous call's."""
    last = [()]

    def hook(counters, bound, result):
        comps = tuple(bound["components"])
        if len(comps) != len(last[0]) or any(a is not b for a, b in zip(comps, last[0])):
            counters["estimators.products"] += 1
            last[0] = comps  # held, so no later object can reuse these ids
    return hook


def _mise_hook(counters, bound, result):
    counters["harness.reps_attempted"] += bound["replications"]
    counters["harness.reps_degenerate"] += result.degenerate_count


def _sweep_hook(counters, bound, result):
    counters["harness.reps_attempted"] += bound["replications"] * len(bound["h_values"])
    counters["harness.reps_degenerate"] += result.degenerate_count


def _optimize_hook(counters, bound, result):
    counters["bandwidth.problems"] += 1
    counters["bandwidth.outer_iters"] += result.iterations
    counters["bandwidth.converged"] += bool(result.converged)


def hooks():
    products = _product_counter()
    return {
        "SubsetKde.__call__": _kde_pairs,
        "SubsetKde.value_and_curvature": _kde_pairs,
        "normalize": products,
        "eval_product": products,
        "estimate_mise": _mise_hook,
        "sweep_bandwidth": _sweep_hook,
        "optimize_bandwidth": _optimize_hook,
    }


def layer_metrics(tr: tracing.Tracer, root_span, wl, ops) -> dict[str, float]:
    c = tr.counters
    m = {f"{layer}.self_s": 0.0 for layer in tracing.LAYERS + (tracing.ROOT_LAYER,)}
    m.update({f"{layer}.self_s": t for layer, t in tr.self_times().items()})
    m["bench.traced_wall_s"] = root_span[3] - root_span[2]
    m["bench.traced_units"] = sum(op.units for op in ops)
    m["bench.spans"] = len(tr.spans)

    kde_s, kde_calls = tr.group(KDE_METHODS)
    m["estimators.kde_eval_s"] = kde_s
    m["estimators.kde_calls"] = kde_calls
    m["estimators.kde_pairs"] = c["estimators.kde_pairs"]
    m["estimators.kde_bytes_computed"] = 8 * c["estimators.kde_pairs"]
    products = c["estimators.products"]
    m["estimators.kde_calls_per_product"] = kde_calls / products if products else 0.0
    m["estimators.product_s"] = tr.group(["eval_product"])[0]
    m["estimators.normalize_s"] = tr.group(["normalize"])[0]
    m["estimators.degenerate"] = c["estimators.degenerate"]

    m["kernels.eval_s"], m["kernels.calls"] = tr.group(
        ["Kernel.__call__", "Kernel.deriv", "Kernel.autocorrelation"])
    m["quadrature.integrate_s"], m["quadrature.integrate_calls"] = tr.group(
        ["integrate", "integrate_values"])
    m["amise.functional_s"], m["amise.functional_calls"] = tr.group(
        ["amise_bar", "amise_product", "bias_leading", "variance_leading"])
    m["amise.coeff_s"] = tr.group(["empirical_coefficients"])[0]

    m["bandwidth.outer_iters"] = c["bandwidth.outer_iters"]
    m["bandwidth.surrogate_evals"] = tr.group(["amise_hat", "amise_hat_grad"])[1]
    problems = c["bandwidth.problems"]
    m["bandwidth.converged_share"] = c["bandwidth.converged"] / problems if problems else 0.0
    m["bandwidth.problems_per_s"] = problems / m["bench.traced_wall_s"]
    m["bandwidth.plugin_rel_dist"] = wl.summary(ops).get("plugin_rel_dist", 0.0)

    m["harness.sample_s"] = tr.group(["sample_model"])[0]
    m["harness.truth_s"] = tr.group(["AnalyticModel.posterior"])[0]
    m["harness.reps_attempted"] = c["harness.reps_attempted"]
    m["harness.reps_degenerate"] = c["harness.reps_degenerate"]

    m["cli.input_bytes"] = wl.counters["cli.input_bytes"]
    m["cli.output_bytes"] = wl.counters["cli.output_bytes"]
    return m


def pooled_window(wl, seconds: float, calibrate: Calibration):
    """End-to-end loop with the harness's pool constructor counted."""
    real = parkde.harness.ProcessPoolExecutor
    starts = [0]

    class CountingPool(real):
        def __init__(self, *args, **kwargs):
            starts[0] += 1
            super().__init__(*args, **kwargs)

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    parkde.harness.ProcessPoolExecutor = CountingPool
    t0 = perf_counter()
    try:
        ops = run_window(wl, seconds, "e2e", calibrate)
    finally:
        parkde.harness.ProcessPoolExecutor = real
    wall = perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return ops, starts[0], cpu / (wl.workers * wall)


def traced(wl, args, calibrate: Calibration) -> tuple[list[Op], dict[str, float]]:
    pooled = wl.workers > 1
    window = args.seconds / (3 if pooled else 2)
    ops, extra = [], {"harness.pool_starts": 0.0, "harness.pool_efficiency": 0.0}
    if pooled:
        p_ops, starts, eff = pooled_window(wl, window, calibrate)
        ops += p_ops
        extra.update({"harness.pool_starts": starts, "harness.pool_efficiency": eff})
    plain = run_window(wl, window, "inproc", calibrate)
    wl.counters.clear()
    tr = tracing.Tracer(f"{wl.name}:{args.seed}", hooks())
    tr.install()
    root = tr.begin("window", tracing.ROOT_LAYER)
    try:
        traced_ops = run_window(wl, window, "inproc", calibrate, tr)
    finally:
        tr.end(root)
        tr.uninstall()
    tr.dump(os.path.join(ROOT, ".perfbench_work", f"spans-{wl.name}-seed{args.seed}.json"))
    metrics = layer_metrics(tr, root, wl, traced_ops)
    metrics.update(extra)
    metrics["bench.trace_overhead"] = (
        1.0 - rate(traced_ops, wl.calibrated) / rate(plain, wl.calibrated))
    metrics["bench.calibration_s"] = statistics.median(op.calibration_s for op in traced_ops)
    return ops + plain + traced_ops, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--phase", required=True, choices=["setup", "measure", "trace"])
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--reference", action="store_true")
    p.add_argument("--first-op", type=int, default=0)
    args = p.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    parkde.from_name("gaussian")  # kernel construction runs its quadrature checks
    wl = WORKLOADS[args.workload](args.seed, args.workdir, args.first_op)
    out = {"setup_s": perf_counter() - T_START}

    if args.phase != "setup":
        calibrate = Calibration()
        if args.phase == "measure":
            ops = run_window(wl, args.seconds, "e2e", calibrate)
            out["peak_rss_mb"] = peak_rss_mb()
            out["units"] = [op.units for op in ops]
            out["seconds"] = [op.seconds for op in ops]
            out["ref_seconds"] = ref_seconds(ops, wl.calibrated)
            out["calibrations"] = [op.calibration_s for op in ops]
        else:
            ops, out["layers"] = traced(wl, args, calibrate)
        out["failures"] = wl.check(ops, args.reference)
        out["attempted"] = sum(op.units for op in ops)
        out["failed"] = sum(op.failed for op in ops)
        out["summary"] = wl.summary(ops)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
