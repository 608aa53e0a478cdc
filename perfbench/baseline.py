"""Run every workload over several seeds and record the medians as a baseline.

    python3 perfbench/baseline.py [--seeds 1-10] [--workload NAME ...] \
        [--seconds T] [--out FILE] [--compare perfbench/baseline.json]

For each workload it makes one untraced run per seed and one traced run
(first seed), then prints each end-to-end metric's median, quartiles and
spread (interquartile distance over the median) next to its bound from
BENCHMARK.json, and writes all values with the git commit, the Python and
numpy versions and the CPU count to --out. With --compare it also prints
how far each median moved from the one recorded in that file, in the
metric's worse direction, against the same bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["run_s"] = time.monotonic() - t0
    return res


def describe(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "samples": len(values), "values": values}


def versions() -> dict:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True).stdout.strip() or None
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", default=None)
    p.add_argument("--compare", default=None)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    old = None
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)["workloads"]

    out = {"versions": versions(), "run_seconds": args.seconds, "seeds": args.seeds,
           "workloads": {}}
    for w in args.workload:
        runs = []
        for seed in args.seeds:
            res = run(w, seed, args.seconds, 0)
            runs.append(res)
            print(f"{w} seed {seed}: {res['run_s']:.1f} s, correct={res['correct']}, "
                  + ", ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
        traced = run(w, args.seeds[0], args.seconds, 1)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_s": describe([r["run_s"] for r in runs]),
            "end_to_end": {k: describe([r["metrics"][k]["value"] for r in runs])
                           for k in bounds},
            "per_layer": {"seed": args.seeds[0], "samples": 1, "run_s": traced["run_s"],
                          "values": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        out["workloads"][w] = entry
        if args.out:  # rewritten after each workload, so a cut run keeps its results
            with open(args.out, "w") as fh:
                json.dump(out, fh, indent=1)
                fh.write("\n")
        for k, d in entry["end_to_end"].items():
            flag = "" if d["spread"] < bounds[k] / 3 else "  <-- spread above a third of bound"
            print(f"SPREAD {w} {k}: median {d['median']:.5g} q1 {d['q1']:.5g} q3 {d['q3']:.5g} "
                  f"spread {d['spread']:.4f} bound {bounds[k]}{flag}", flush=True)
            if old and w in old:
                before = old[w]["end_to_end"][k]["median"]
                worse = (before - d["median"] if higher[k] else d["median"] - before) / before
                flag = "  <-- worse than bound" if worse > bounds[k] else ""
                print(f"CHANGE {w} {k}: {before:.5g} -> {d['median']:.5g}, "
                      f"worse by {worse:+.4f} (bound {bounds[k]}){flag}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
