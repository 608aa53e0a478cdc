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
