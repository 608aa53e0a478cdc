"""tools/bench_pairs.py refuses incorrect runs and still records them."""

import importlib.util
import json
from pathlib import Path

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
