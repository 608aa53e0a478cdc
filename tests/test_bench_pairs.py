"""tools/bench_pairs.py refuses incorrect runs and still records them."""

import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fault", [None, {"correct": False}, {"failed": 1}])
def test_incorrect_run_exits_nonzero_and_is_kept(tmp_path, monkeypatch, capsys, fault):
    bench = load_tool()

    def fake_run(checkout, workload, seed, seconds):
        out = {"setup_s": 1.0, "ops_per_s": 2.0, "peak_rss_mb": 3.0,
               "correct": True, "attempted": 4, "failed": 0}
        if fault and checkout == "after-dir" and seed == 12:
            out.update(fault)
        return out

    monkeypatch.setattr(bench, "run", fake_run)
    out = tmp_path / "bench.json"
    code = bench.main([
        "--before", "before-dir", "--after", "after-dir", "--before-sha", "a",
        "--after-sha", "b", "--workload", "w", "--seeds", "11", "12", "13", "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == (1 if fault else 0)
    assert ("seed 12 after" in err) == bool(fault)
    assert [p["seed"] for p in json.loads(out.read_text())["workloads"]["w"]["pairs"]] == [11, 12, 13]


FAKE_RUN = """\
import json, os, subprocess, sys

checkout = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.basename(checkout) == "leaky":
    # a grandchild in a session of its own that outlives this run, holding
    # this run's output open
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                               start_new_session=True)
    with open(os.path.join(checkout, "sleeper.pid"), "a") as fh:
        fh.write(f"{sleeper.pid}\\n")
if os.path.basename(checkout) == "broken" and sys.argv[sys.argv.index("--seed") + 1] == "2":
    for k in range(25):
        print(f"traceback line {k}", file=sys.stderr)
    sys.exit(3)
print(json.dumps({"metrics": {k: {"value": 1.0} for k in ("setup_s", "ops_per_s", "peak_rss_mb")},
                  "correct": True, "attempted": 1, "failed": 0}))
"""


def fake_checkout(root: Path) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    return root


def alive(pid: int) -> bool:
    """A zombie, or a process that is gone, has no command line."""
    try:
        return bool(Path(f"/proc/{pid}/cmdline").read_bytes())
    except FileNotFoundError:
        return False


def test_a_process_left_running_is_killed_recorded_and_fails_the_script(tmp_path, capsys):
    before, after = fake_checkout(tmp_path / "clean"), fake_checkout(tmp_path / "leaky")
    out = tmp_path / "bench.json"
    # a process no run started, though its command line names the checkout
    bystander = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)",
                                  str(after / "perfbench" / "run.py")])
    try:
        code = load_tool().main([
            "--before", str(before), "--after", str(after), "--before-sha", "a",
            "--after-sha", "b", "--workload", "w", "--seeds", "1", "2", "--out", str(out),
        ])
    finally:
        pids = [int(line) for line in (after / "sleeper.pid").read_text().split()]
        still = [pid for pid in pids if alive(pid)]
        for pid in still:
            os.kill(pid, signal.SIGKILL)
        spared = bystander.poll() is None
        bystander.kill()
        bystander.wait()
    assert code == 1
    assert len(pids) == 2 and still == [] and spared
    pairs = json.loads(out.read_text())["workloads"]["w"]["pairs"]
    for pair in pairs:
        assert pair["before"]["left_running"] == []
        (left,) = pair["after"]["left_running"]
        assert left.endswith("import time; time.sleep(60)")
    err = capsys.readouterr().err
    assert "seed 1 after" in err and "seed 2 after" in err and " before:" not in err


def test_a_failed_run_is_kept_and_later_pairs_and_workloads_still_run(tmp_path, capsys):
    bench = load_tool()
    before, after = fake_checkout(tmp_path / "clean"), fake_checkout(tmp_path / "broken")
    out = tmp_path / "bench.json"
    code = bench.main([
        "--before", str(before), "--after", str(after), "--before-sha", "a", "--after-sha", "b",
        "--workload", "w", "v", "--seeds", "1", "2", "3", "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "w seed 2 after: exit code 3" in err and "v seed 2 after: exit code 3" in err
    assert " before:" not in err and "seed 1" not in err and "seed 3" not in err
    workloads = json.loads(out.read_text())["workloads"]
    for name in ("w", "v"):
        pairs = workloads[name]["pairs"]
        assert [p["seed"] for p in pairs] == [1, 2, 3]
        assert pairs[1]["after"] == {"exit_code": 3, "left_running": [], "stderr_tail": [
            f"traceback line {k}" for k in range(5, 25)]}
        assert pairs[1]["before"]["correct"]
        # the summary covers the two complete pairs
        assert workloads[name]["summary"] == bench.summarize([pairs[0], pairs[2]])
    assert bench.main(["--read", str(out)]) == 0
    assert "won 0/2" in capsys.readouterr().out


def test_the_file_is_written_after_every_pair(tmp_path, monkeypatch):
    bench = load_tool()
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(seed)
        if len(calls) == 4:
            raise KeyboardInterrupt  # the script is stopped in the second pair
        return {"setup_s": 1.0, "ops_per_s": 2.0, "peak_rss_mb": 3.0,
                "correct": True, "attempted": 4, "failed": 0}

    monkeypatch.setattr(bench, "run", fake_run)
    out = tmp_path / "bench.json"
    with pytest.raises(KeyboardInterrupt):
        bench.main(["--before", "before-dir", "--after", "after-dir", "--before-sha", "a",
                    "--after-sha", "b", "--workload", "w", "--seeds", "11", "12", "--out",
                    str(out)])
    recorded = json.loads(out.read_text())["workloads"]["w"]
    # one complete pair is kept, too few for quartiles
    assert [p["seed"] for p in recorded["pairs"]] == [11]
    assert recorded["summary"] is None


def summary_of(tmp_path, monkeypatch, before, after):
    """Summary of ops_per_s for pairs of fake runs with the given rates."""
    bench = load_tool()
    seeds = list(range(len(before)))
    rates = {("before-dir", s): v for s, v in zip(seeds, before)}
    rates.update({("after-dir", s): v for s, v in zip(seeds, after)})

    def fake_run(checkout, workload, seed, seconds):
        return {"setup_s": 1.0, "ops_per_s": rates[checkout, seed], "peak_rss_mb": 3.0,
                "correct": True, "attempted": 4, "failed": 0}

    monkeypatch.setattr(bench, "run", fake_run)
    out = tmp_path / "bench.json"
    assert bench.main([
        "--before", "before-dir", "--after", "after-dir", "--before-sha", "a",
        "--after-sha", "b", "--workload", "w", "--seeds", *map(str, seeds), "--out", str(out),
    ]) == 0
    summary = json.loads(out.read_text())["workloads"]["w"]["summary"]
    return {k: summary["ops_per_s"][k] for k in ("gain_shown", "worse_beyond_bound", "unresolved")}


# ops_per_s has a bound of 0.25; before runs 96..105 have an IQR of 4.5
BEFORE = [100.0, 104.0, 97.0, 101.0, 99.0, 103.0, 96.0, 102.0, 98.0, 105.0]


def test_gain_shown_needs_nine_wins_and_a_gain_beyond_the_iqr(tmp_path, monkeypatch):
    after = [v + 6.0 for v in BEFORE]
    assert summary_of(tmp_path, monkeypatch, BEFORE, after) == {
        "gain_shown": True, "worse_beyond_bound": False, "unresolved": False}
    # nine wins of ten still show the gain, eight do not
    nine = after[:9] + [BEFORE[9] - 1.0]
    assert summary_of(tmp_path, monkeypatch, BEFORE, nine)["gain_shown"]
    eight = after[:8] + [BEFORE[8] - 1.0, BEFORE[9] - 1.0]
    assert not summary_of(tmp_path, monkeypatch, BEFORE, eight)["gain_shown"]
    # ten wins by less than the IQR do not
    small = [v + 2.0 for v in BEFORE]
    assert not summary_of(tmp_path, monkeypatch, BEFORE, small)["gain_shown"]


def test_worse_beyond_bound(tmp_path, monkeypatch):
    assert summary_of(tmp_path, monkeypatch, BEFORE, [v * 0.7 for v in BEFORE]) == {
        "gain_shown": False, "worse_beyond_bound": True, "unresolved": False}
    assert not summary_of(tmp_path, monkeypatch, BEFORE,
                          [v * 0.8 for v in BEFORE])["worse_beyond_bound"]


def test_unresolved_when_the_before_side_spreads_past_the_bound(tmp_path, monkeypatch):
    wide = [60.0, 140.0, 70.0, 130.0, 100.0, 100.0, 65.0, 135.0, 90.0, 110.0]
    assert summary_of(tmp_path, monkeypatch, wide, wide) == {
        "gain_shown": False, "worse_beyond_bound": False, "unresolved": True}
    # every after run better than every before run resolves the spread
    assert not summary_of(tmp_path, monkeypatch, wide, [v + 81.0 for v in wide])["unresolved"]


def test_one_seed_is_an_argument_error(capsys):
    with pytest.raises(SystemExit) as exc:
        load_tool().main([
            "--before", "b", "--after", "a", "--before-sha", "a", "--after-sha", "b",
            "--workload", "w", "--seeds", "11", "--out", "unused.json",
        ])
    assert exc.value.code == 2
    assert "at least two seeds" in capsys.readouterr().err


def test_several_workloads_run_in_turn_into_one_file(tmp_path, monkeypatch, capsys):
    bench = load_tool()
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((workload, seed, checkout))
        return {"setup_s": 1.0, "ops_per_s": 2.0, "peak_rss_mb": 3.0,
                "correct": not (workload == "v" and seed == 12 and checkout == "before-dir"),
                "attempted": 4, "failed": 0}

    monkeypatch.setattr(bench, "run", fake_run)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"workloads": {"kept": {"pairs": [], "summary": {}}}}))
    code = bench.main([
        "--before", "before-dir", "--after", "after-dir", "--before-sha", "a",
        "--after-sha", "b", "--workload", "w", "v", "--seeds", "11", "12", "--out", str(out),
    ])
    assert code == 1
    assert "v seed 12 before" in capsys.readouterr().err
    # each workload's pairs alternate which side runs first
    assert calls == [
        (w, seed, side)
        for w in ("w", "v")
        for seed, side in ((11, "before-dir"), (11, "after-dir"),
                           (12, "after-dir"), (12, "before-dir"))
    ]
    workloads = json.loads(out.read_text())["workloads"]
    assert sorted(workloads) == ["kept", "v", "w"]
    for name in ("v", "w"):
        assert [p["seed"] for p in workloads[name]["pairs"]] == [11, 12]
        assert workloads[name]["summary"]["ops_per_s"]["after_better_pairs"] == 0


def test_header_records_whether_runs_compile_from_source(tmp_path, monkeypatch):
    bench = load_tool()
    monkeypatch.setattr(bench, "run", lambda checkout, workload, seed, seconds: {
        "setup_s": 1.0, "ops_per_s": 2.0, "peak_rss_mb": 3.0,
        "correct": True, "attempted": 4, "failed": 0})
    before, after = tmp_path / "before", tmp_path / "after"
    (before / "src" / "parkde").mkdir(parents=True)
    (after / "src" / "parkde" / "__pycache__").mkdir(parents=True)
    out = tmp_path / "bench.json"
    argv = ["--before", str(before), "--after", str(after), "--before-sha", "a",
            "--after-sha", "b", "--workload", "w", "--seeds", "1", "2", "--out", str(out)]
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench.main(argv) == 0
    header = json.loads(out.read_text())
    # bytecode in the after checkout is read, so only the before side compiles
    assert header["compiles_from_source"] == {"before": True, "after": False}
    # numpy's BLAS build sits beside the versions of Python and numpy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert header["blas"] == {key: blas.get(key)
                              for key in ("name", "version", "openblas configuration")}
    assert header["blas"]["name"] and header["numpy"] == np.__version__
    assert {"python", "nproc"} <= set(header)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench.main(argv) == 0
    assert json.loads(out.read_text())["compiles_from_source"] == {
        "before": False, "after": False}


def recorded(ratios: dict) -> dict:
    """A BENCH file's workloads, with the given ops_per_s ratio in each of
    10 pairs per workload and the after side winning 7 of them."""
    names = ("setup_s", "ops_per_s", "peak_rss_mb")
    summary = {name: {"median_ratio": 1.0, "after_better_pairs": 5} for name in names}
    return {"workloads": {
        w: {"pairs": [{"before": dict.fromkeys(names, 2.0),
                       "after": {**dict.fromkeys(names, 2.0), "ops_per_s": 2.0 * r}}] * 10,
            "summary": {**summary, "ops_per_s": {"median_ratio": r, "after_better_pairs": 7}}}
        for w, r in ratios.items()}}


def test_read_chains_each_files_ratios_without_running(tmp_path, monkeypatch, capsys):
    bench = load_tool()
    monkeypatch.setattr(bench, "run", None)  # any run would raise
    first, second = tmp_path / "BENCH_11.json", tmp_path / "BENCH_12.json"
    first.write_text(json.dumps(recorded({"w": 1.5, "v": 2.0})))
    # the second file does not record v
    second.write_text(json.dumps(recorded({"w": 1.1})))
    assert bench.main(["--read", str(first), str(second)]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("w ops_per_s (higher is better), after / before:")
    # every pair has the same ratio, so each interval is a point
    assert lines[start + 1:start + 3] == [
        "  BENCH_11.json  median ratio 1.5000 [1.5000, 1.5000]  won 7/10"
        "  product 1.5000 [1.5000, 1.5000]",
        "  BENCH_12.json  median ratio 1.1000 [1.1000, 1.1000]  won 7/10"
        "  product 1.6500 [1.6500, 1.6500]",
    ]
    start = lines.index("v ops_per_s (higher is better), after / before:")
    assert lines[start + 1:start + 3] == [
        "  BENCH_11.json  median ratio 2.0000 [2.0000, 2.0000]  won 7/10"
        "  product 2.0000 [2.0000, 2.0000]",
        "v peak_rss_mb (lower is better), after / before:",
    ]
    # a header per workload and metric, and a line per file that records it
    assert len(lines) == 2 * 3 + 3 * (2 + 1)


def spread_file(path, ratios):
    """A BENCH file whose ops_per_s pairs have the given after / before ratios."""
    bench = load_tool()
    pairs = [{"before": {"setup_s": 1.0, "ops_per_s": 100.0, "peak_rss_mb": 50.0},
              "after": {"setup_s": 1.0, "ops_per_s": 100.0 * r, "peak_rss_mb": 50.0}}
             for r in ratios]
    path.write_text(json.dumps({"workloads": {"w": {"pairs": pairs,
                                                    "summary": bench.summarize(pairs)}}}))


def test_read_intervals_hold_the_medians_and_repeat(tmp_path, monkeypatch, capsys):
    bench = load_tool()
    monkeypatch.setattr(bench, "run", None)
    first, second = tmp_path / "BENCH_11.json", tmp_path / "BENCH_12.json"
    spread_file(first, [0.90, 0.95, 1.00, 1.04, 1.08, 1.12, 1.15, 1.20, 1.26, 1.30])
    spread_file(second, [1.01, 0.97, 1.05, 0.99, 1.03, 1.02, 1.00, 0.98, 1.04, 1.06])
    argv = ["--read", str(first), str(second)]
    assert bench.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("w ops_per_s (higher is better), after / before:")
    pattern = (r"  BENCH_1[12].json  median ratio (\S+) \[(\S+), (\S+)\]  won \d+/10"
               r"  product (\S+) \[(\S+), (\S+)\]")
    widths = []
    for line in lines[start + 1:start + 3]:
        median, lo, hi, product, p_lo, p_hi = map(float, re.fullmatch(pattern, line).groups())
        assert lo < median < hi
        assert p_lo < product < p_hi
        widths.append(hi - lo)
    # the first file's ratios spread more widely, and so does its interval
    assert widths[0] > widths[1] > 0
    assert bench.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_a_run_needs_its_arguments_without_read(capsys):
    with pytest.raises(SystemExit) as exc:
        load_tool().main(["--before", "b", "--seeds", "1", "2"])
    assert exc.value.code == 2
    assert "--after, --before-sha, --after-sha, --workload, --out" in capsys.readouterr().err
