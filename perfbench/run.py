"""parkde benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from anywhere; the parkde sources are taken from ``src/`` next to this
directory. Workloads: mc_experiment, plugin_optimize, fit_large_shard,
amise_oracle (see workloads.py for what each exercises and why).

With ``--trace 0`` each run sets up in SETUP_RUNS fresh processes, spread
over the run; MEASURE_RUNS of them go on to run the closed loop for
T / MEASURE_RUNS seconds each, on distinct inputs. It reports the median
set-up time, the work units over the time of all their operations (scaled
to a reference machine speed except for fit_large_shard, see child.py), and
the peak resident set of the measuring processes and every process they
waited for. Several measuring processes are used because the speed of one
process differed from that of the next by up to 20% for mc_experiment on a
2-vCPU Xeon VM. With ``--trace 1`` the loop runs in-process with one
worker, untraced and then traced, and the per-layer metrics come from the
traced half.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files go to
``.perfbench_work/`` beside this directory; span dumps stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_RUNS = 9
MEASURE_RUNS = 3  # of the set-up processes, these go on to measure
OPS_STRIDE = 1000  # measuring process k runs operations k * OPS_STRIDE, ...
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# the work unit each workload's ops_per_s counts
UNITS = {"mc_experiment": "ISE", "plugin_optimize": "problem",
         "fit_large_shard": "fit", "amise_oracle": "amise_bar"}


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, and the metrics each mode prints with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def units(spec: dict, section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, phase: str, workdir: str, deadline: float, seconds: float = 0.0,
              reference: bool = False, first_op: int = 0) -> dict:
    """Run child.py in its own process group; kill the group at the deadline."""
    tag = f"{phase}-{time.monotonic_ns()}"
    result = os.path.join(workdir, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--phase", phase,
           "--workdir", os.path.join(workdir, tag), "--result", result,
           "--first-op", str(first_op)]
    if reference:
        cmd.append("--reference")
    # the child's own output is diagnostics; stdout carries only our report
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=child_env(), start_new_session=True)
    try:
        while True:
            pid, status, _ = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise ChildFailed(f"{phase} phase did not finish in time")
            time.sleep(0.02)
    except BaseException:
        if proc.returncode is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        proc.returncode = -1
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"{phase} phase exited with code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def combine(parts: list[dict], setups: list[float]) -> dict:
    """One result from the measuring processes and all set-up times."""
    def each(key):
        return [v for p in parts for v in p[key]]

    units = sum(each("units"))
    return {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in parts]),
        "ops_per_s": units / sum(each("ref_seconds")),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "raw_ops_per_s": units / sum(each("seconds")),
        "calibration_s": statistics.median(each("calibrations")),
        "ops": len(each("units")),
        "failures": each("failures"),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "summary": {k: statistics.median(p["summary"][k] for p in parts)
                    for k in parts[0]["summary"]},
    }


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(UNITS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "parkde", "__init__.py")):
        print(f"error: no parkde sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    spec = load_spec()
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            res = run_child(args, "trace", workdir, deadline, args.seconds, reference=True)
            metrics = {k: metric(res["layers"][k], u)
                       for k, u in units(spec, "per_layer").items()}
        else:
            # set-up-only processes run between the measuring ones, so the
            # set-up times sample the whole run, not one moment of the host
            setups, parts = [], []
            for k in range(MEASURE_RUNS):
                setups += [run_child(args, "setup", workdir, deadline)["setup_s"]
                           for _ in range(SETUP_RUNS // MEASURE_RUNS - 1)]
                parts.append(run_child(args, "measure", workdir, deadline,
                                       args.seconds / MEASURE_RUNS, reference=(k == 0),
                                       first_op=k * OPS_STRIDE))
            res = combine(parts, setups)
            metrics = {k: metric(res[k], u) for k, u in units(spec, "end_to_end").items()}
    except ChildFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in res["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and not res["failures"]
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'':34s} ({UNITS[args.workload]}/s over "
              f"{res['ops']} operations in {MEASURE_RUNS} processes; "
              f"set-up median of {SETUP_RUNS})")
        print(f"  {'raw_ops_per_s':34s} {res['raw_ops_per_s']:.6g} 1/s (wall clock)")
        print(f"  {'calibration_s':34s} {res['calibration_s']:.6g} s")
    print(f"  {'error_rate':34s} {failed / attempted:.6g} "
          f"({failed}/{attempted} {UNITS[args.workload]})")
    for name, value in res["summary"].items():
        print(f"  {name:34s} {value:.6g}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
