"""Alternating before/after perfbench runs, recorded as one trajectory file.

    python3 tools/bench_pairs.py --before DIR --after DIR \\
        --before-sha SHA --after-sha SHA --out BENCH_<n>.json \\
        --workload plugin_optimize --seeds 301 302 303 [--seconds 20]

Each DIR is a checkout holding perfbench/ and src/ (for example a
`git archive` of the commit). For every seed, perfbench/run.py runs once in
each checkout, the before side first on even pairs and the after side first
on odd ones, so drift of the host's speed falls on both sides alike.
Running the script again with another workload and the same --out adds
that workload to the file. The file holds
both commits' shas (--before-sha/--after-sha), the Python and numpy
versions, nproc, every pair's setup_s, ops_per_s and peak_rss_mb, and per
metric the median and quartiles of each side and the number of pairs in
which the after side was better. The script exits 1, naming the seed and
side, when a run reports `correct: false` or failed operations; the file is
written first, so those runs are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

METRICS = {"setup_s": "lower", "ops_per_s": "higher", "peak_rss_mb": "lower"}


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    out = {k: last["metrics"][k]["value"] for k in METRICS}
    out.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"])
    return out


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for name, better in METRICS.items():
        before = [p["before"][name] for p in pairs]
        after = [p["after"][name] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        out[name] = {
            "better": better,
            "before": spread(before),
            "after": spread(after),
            "median_ratio": statistics.median(a / b for a, b in zip(after, before)),
            "after_better_pairs": sum(sign * (a - b) > 0 for a, b in zip(after, before)),
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--before-sha", required=True)
    p.add_argument("--after-sha", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.update(
        parent_sha=args.before_sha, change_sha=args.after_sha,
        python=platform.python_version(), numpy=np.__version__, nproc=len(os.sched_getaffinity(0)),
        seconds_per_run=args.seconds,
    )
    pairs = []
    for k, seed in enumerate(args.seeds):
        sides = [("before", args.before), ("after", args.after)][:: 1 if k % 2 == 0 else -1]
        pair = {"seed": seed, "first": sides[0][0]}
        pair.update((side, run(checkout, args.workload, seed, args.seconds))
                    for side, checkout in sides)
        pairs.append(pair)
        print(json.dumps(pair), flush=True)
    doc.setdefault("workloads", {})[args.workload] = {"pairs": pairs, "summary": summarize(pairs)}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    bad = [f"seed {p['seed']} {side}: correct={p[side]['correct']}, failed={p[side]['failed']}"
           for p in pairs for side in ("before", "after")
           if not p[side]["correct"] or p[side]["failed"] > 0]
    for line in bad:
        print(f"incorrect run, {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
