"""scripts/bench_pairs.py: the paired-run verdict on synthetic runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_clear_gain():
    change = [p * 0.7 for p in PARENT]
    s = bench_pairs.summarize(PARENT, change, "lower", 0.25)
    assert s["change_wins"] == 10 and s["pairs"] == 10
    assert s["parent_median"] == pytest.approx(1.0)
    assert s["change_median"] == pytest.approx(0.7)
    # inclusive quartiles, as numpy.percentile(..., [25, 75]) gives
    assert s["parent_quartiles"] == pytest.approx([0.9825, 1.0175])
    assert s["median_gap_exceeds_parent_iqr"]
    assert s["verdict"] == "gain"
    # the same runs read as a rate, where higher is better
    s = bench_pairs.summarize([1 / p for p in PARENT], [1 / c for c in change], "higher", 0.25)
    assert s["change_wins"] == 10 and s["verdict"] == "gain"


def test_ties_count_for_neither_side():
    parent = [1.0] * 10
    change = [1.0] * 8 + [0.9, 1.1]
    s = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert s["change_wins"] == 1
    assert s["parent_iqr"] == 0.0
    assert not s["median_gap_exceeds_parent_iqr"]
    assert s["verdict"] == "within bound"
    s = bench_pairs.summarize([1.0] * 10, [1.0] * 10, "higher", 0.01)
    assert s["change_wins"] == 0 and s["verdict"] == "within bound"


def test_win_ratio_under_nine_tenths_is_no_gain():
    # the change's median is far better, but it loses two pairs of ten
    change = [p * 0.7 for p in PARENT[:8]] + [1.2, 1.2]
    s = bench_pairs.summarize(PARENT, change, "lower", 0.25)
    assert s["change_wins"] == 8
    assert s["median_gap_exceeds_parent_iqr"]
    assert s["verdict"] != "gain"


def test_median_gap_inside_parent_spread_is_no_gain():
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
    change = [p - 0.01 for p in parent]
    s = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert s["change_wins"] == 10
    assert not s["median_gap_exceeds_parent_iqr"]
    assert s["verdict"] == "within bound"


def test_bound_breach_is_a_regression():
    s = bench_pairs.summarize(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25)
    assert s["change_wins"] == 0
    assert s["verdict"] == "regression"
    s = bench_pairs.summarize(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25)
    assert s["verdict"] == "within bound"
    s = bench_pairs.summarize([1.0] * 10, [0.98] * 10, "higher", 0.01)
    assert s["verdict"] == "regression"


def test_wide_spread_is_unresolved():
    parent = [1.0, 1.5, 0.6, 1.4, 0.7, 1.0, 1.5, 0.6, 1.4, 0.7]
    change = parent[1:] + parent[:1]
    s = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert s["verdict"] == "unresolved"


def test_summarize_runs_skips_failed_pairs():
    spec = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    parent = [{"correct": True, "metrics": {"wall_s": p}} for p in PARENT]
    change = [{"correct": True, "metrics": {"wall_s": p * 0.7}} for p in PARENT]
    change[3] = {"correct": False, "metrics": {}}
    out = bench_pairs.summarize_runs(parent, change, spec)
    assert out["wall_s"]["pairs"] == 9
    assert out["wall_s"]["verdict"] == "gain"


def test_unequal_runs_rejected():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower", 0.25)


def test_incorrect_traced_run_is_marked_in_the_summary(tmp_path, monkeypatch, capsys):
    spec = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(json.dumps({"end_to_end": spec}))
    problem = "trace check: sampling spans saw 288000 points, expected 576000"

    def stub_run(cmd, cwd, **kwargs):
        # the change's traced run fails its point check; every other run is correct
        bad = "--trace" in cmd and Path(cwd) == change.resolve()
        result = {"correct": not bad, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        stdout = json.dumps({"environment": {"nproc": 2}}) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout, problem + "\n" if bad else "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", stub_run)
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w"]
    assert bench_pairs.main(argv + ["--pairs", "2", "--seconds", "1"]) == 0
    summary = capsys.readouterr().out.split("w seed default:\n", 1)[1]
    assert "traced parent   correct" in summary
    assert "traced change   incorrect" in summary
    assert problem in summary
