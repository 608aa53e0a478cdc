"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--workload NAME ...] [--seconds T]

For each workload it runs run.py untraced and traced with a short window,
and checks that:

- BENCHMARK.json has the contract's keys, names the workloads run.py
  knows, and lists setup_s;
- the last line of output has exactly the keys the contract names, every
  metric of the mode is there with its unit, and the run is correct;
- end-to-end values are positive, and the lines above the JSON give
  error_rate (and plugin_rel_dist for plugin_optimize) by name;
- in the traced run the per-layer self times add up to the traced wall time.

Finally it copies BENCHMARK.json and this directory alone into a scratch
directory and checks that run.py fails there without printing a result.
Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def fail(msg: str) -> None:
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def check_manifest(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    if [w["name"] for w in spec["workloads"]] != list(run.UNITS):
        fail("BENCHMARK.json workloads differ from run.UNITS")
    if run.units(spec, "end_to_end").get("setup_s") != "s":
        fail("setup_s (unit s) missing from the end-to-end metrics")


def run_once(cwd: str, workload: str, seconds: float, trace: int):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, seconds: float, trace: int) -> None:
    proc = run_once(ROOT, workload, seconds, trace)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        fail(f"{tag}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{tag}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        fail(f"{tag}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    want = run.units(spec, "per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail(f"{tag}: metrics/units differ: {sorted(set(got.items()) ^ set(want.items()))}")
    values = {k: v["value"] for k, v in res["metrics"].items()}
    if not all(isinstance(v, float) and math.isfinite(v) for v in values.values()):
        fail(f"{tag}: non-finite metric value")
    if not trace and not all(v > 0 for v in values.values()):
        fail(f"{tag}: end-to-end metric not positive: {values}")
    printed = {line.split()[0] for line in proc.stdout.splitlines()[1:-1] if line.strip()}
    named = {"error_rate"} | ({"plugin_rel_dist"} if workload == "plugin_optimize" else set())
    if not named <= printed:
        fail(f"{tag}: {sorted(named - printed)} not printed")
    if trace:
        self_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
        wall = values["bench.traced_wall_s"]
        if abs(self_sum - wall) > 1e-6 * wall:
            fail(f"{tag}: layer self times sum to {self_sum!r}, traced wall is {wall!r}")
    print(f"ok  {tag}: attempted {res['attempted']}")


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_once(bare, "amise_oracle", 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without src/ run.py exited {proc.returncode} and printed {proc.stdout!r}")
    print(f"ok  bare directory: exit code {proc.returncode}, nothing printed")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", nargs="*", default=list(run.UNITS))
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args()
    spec = run.load_spec()
    check_manifest(spec)
    print("ok  BENCHMARK.json keys and workloads")
    for w in args.workload:
        for trace in (0, 1):
            check_run(spec, w, args.seconds, trace)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
