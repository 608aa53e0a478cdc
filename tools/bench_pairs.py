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
metric the median and quartiles of each side, the number of pairs in
which the after side was better and three verdicts, each against the
metric's bound in BENCHMARK.json (a share of the before side's median):

- gain_shown: the after side is better in at least 9 of 10 pairs
  (GAIN_SHARE of them) and its median is better than the before side's by
  more than the before side's interquartile range;
- worse_beyond_bound: the after side's median is worse than the before
  side's by more than the bound;
- unresolved: the before side's interquartile range is wider than the
  bound, so the runs spread too widely to tell, unless every after run is
  better than every before run.

--seeds takes at least two seeds, since the quartiles need two runs a side.

The script exits 1, naming the seed and side, when a run reports
`correct: false` or failed operations; the file is written first, so those
runs are kept.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")
with open(BENCHMARK) as _fh:
    # name -> {"better": "higher" or "lower", "bound": share of the before median}
    METRICS = {m["name"]: m for m in json.load(_fh)["end_to_end"]}
GAIN_SHARE = 0.9  # share of pairs the after side must win to show a gain


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
    for name, metric in METRICS.items():
        before = [p["before"][name] for p in pairs]
        after = [p["after"][name] for p in pairs]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        b, a = spread(before), spread(after)
        wins = sum(sign * (x - y) > 0 for x, y in zip(after, before))
        gain = sign * (a["median"] - b["median"])  # > 0 when the after side is better
        iqr = b["q3"] - b["q1"]
        apart = min(sign * x for x in after) > max(sign * y for y in before)
        bound = metric["bound"] * abs(b["median"])
        out[name] = {
            "better": metric["better"],
            "before": b,
            "after": a,
            "median_ratio": statistics.median(x / y for x, y in zip(after, before)),
            "after_better_pairs": wins,
            "gain_shown": wins >= math.ceil(GAIN_SHARE * len(pairs)) and gain > iqr,
            "worse_beyond_bound": -gain > bound,
            "unresolved": iqr > bound and not apart,
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
    if len(args.seeds) < 2:
        p.error("--seeds needs at least two seeds for the quartiles of each side")

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
