"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench

A tiny-size smoke run of every workload, in both modes; the metric-name
pattern; and self-time arithmetic on a synthetic span tree.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import threading
import types

import pytest
import yaml

import run
import spans as spanlib
from workloads import WORKLOADS, ClassFitWorkload, RateWorkload

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_RATE = {"n_grid": [200, 400], "reps": 2, "net_delta": 0.2, "net_streak": 50}


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def tiny(workload, tmp_path):
    """The workload at a size that runs in well under a second."""
    if isinstance(workload, RateWorkload):
        doc = yaml.safe_load(workload.config.read_text())
        doc.update(TINY_RATE)
        path = tmp_path / f"{workload.name}.yaml"
        path.write_text(yaml.safe_dump(doc))
        # the frozen slope windows need the full replication counts
        return dataclasses.replace(workload, config=path, window=(-math.inf, math.inf))
    assert isinstance(workload, ClassFitWorkload)
    return dataclasses.replace(workload, u_probes=2, n_mc=20_000)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(cli, tmp_path, name, trace):
    workload = tiny(WORKLOADS[name], tmp_path)
    between = None if trace else (lambda: 0.5)
    warmup, calls, samples = run.measure(cli, workload, workload.seed, 0.0, trace, between)
    # two untraced calls, and with tracing two traced ones between them
    assert [c.traced for c in calls] == ([False, True, False, True] if trace else [False, False])
    assert samples == ([] if trace else [0.5, 0.5])
    assert [run.call_error(workload, c, warmup.output) for c in [warmup, *calls]] == [None] * (
        1 + len(calls)
    )
    if trace:
        values, problem = run.layer_metrics(
            workload,
            workload.points_per_call(cli),
            [c for c in calls if not c.traced],
            [c for c in calls if c.traced],
        )
        assert problem is None
        assert set(values) == set(run.PER_LAYER_UNITS)
        assert all(math.isfinite(v) for v in values.values())
        assert 0.9 < values["trace.accounted_frac"] <= 1.0
        if isinstance(workload, RateWorkload):
            assert values["nets.max_dot_calls"] > 0 and values["nets.size"] > 0
            assert values["experiments.rep_p50_ms"] > 0
        else:
            assert values["nets.max_dot_calls"] == 0
            assert 0.0 < values["sampling.accept_ratio"] < 1.0


def test_max_dot_counts_come_from_shapes(cli, tmp_path):
    workload = tiny(WORKLOADS["disc_rate"], tmp_path)
    _, calls, _ = run.measure(cli, workload, workload.seed, 0.0, True)
    traced = next(c for c in calls if c.traced)
    config = cli.load_experiment_config(workload.config)
    dots = [s for s in traced.spans if s.name == "nets.blocked_max_dot"]
    assert len(dots) == len(config.n_grid) * config.reps
    m = dots[0].attrs["m"]
    flop = sum(2 * m * n * 2 for n in config.n_grid) * config.reps
    assert sum(s.attrs["flop"] for s in dots) == flop


def test_end_to_end_rescales_by_the_yardstick():
    walls, setups, yards = [1.0, 1.2, 1.1], [1.5, 1.4, 1.6], [0.2, 0.21, 0.19]
    base = run.end_to_end(walls, setups, yards, points=1000, ok_frac=1.0)
    assert base["wall_s"] == pytest.approx(1.1 * run.YARDSTICK_REF_S / 0.2)
    assert base["setup_s"] == pytest.approx(1.5 * run.YARDSTICK_REF_S / 0.2)
    assert base["points_per_s"] == pytest.approx(1000 / base["wall_s"])
    # a host that runs everything 30% slower reads the same
    slow = run.end_to_end(*([1.3 * t for t in ts] for ts in (walls, setups, yards)), 1000, 1.0)
    assert slow == pytest.approx(base)
    # a program that gets 30% slower reads 30% slower
    slower = run.end_to_end([1.3 * t for t in walls], setups, yards, 1000, 1.0)
    assert slower["wall_s"] == pytest.approx(1.3 * base["wall_s"])
    assert slower["setup_s"] == pytest.approx(base["setup_s"])


def test_call_error_flags_failures_and_changed_bytes():
    workload = WORKLOADS["disc_rate"]
    good = json.dumps({"slope": 0.7})
    assert run.call_error(workload, run.Call(1.0, good, None), good) is None
    assert run.call_error(workload, run.Call(1.0, good, "ValueError: x"), good) == "ValueError: x"
    assert "differ" in run.call_error(workload, run.Call(1.0, good, None), good + " ")
    assert "unreadable" in run.call_error(workload, run.Call(1.0, "", None), good)


def test_rate_check_uses_the_window():
    workload = WORKLOADS["disc_rate"]
    assert workload.check(json.dumps({"slope": 0.7})) is None
    assert workload.check(json.dumps({"slope": 0.81})) is not None


def test_class_fit_check():
    workload = WORKLOADS["simplex_class_fit"]
    good = {"fitted": {"L": 0.5}, "report": {"verdict": True}}
    assert workload.check(json.dumps(good)) is None
    for bad in (
        {"fitted": {"L": math.inf}, "report": {"verdict": True}},
        {"fitted": {"L": 0.0}, "report": {"verdict": True}},
        {"fitted": {"L": 0.5}, "report": {"verdict": False}},
    ):
        assert workload.check(json.dumps(bad)) is not None


def test_metric_names_and_units_follow_the_contract():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def _span(id, parent, name, t0, t1, thread=0):
    return spanlib.Span(id=id, parent=parent, name=name, t0=t0, t1=t1, thread=thread)


def test_self_time_arithmetic_on_a_synthetic_tree():
    # cli [0, 10] > experiments [1, 9] > two parallel workers and a nested child
    tree = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "experiments.run_rate_experiment", 1.0, 9.0),
        _span(2, 1, "sampling.sample", 2.0, 5.0, thread=1),
        _span(3, 1, "nets.blocked_max_dot", 4.0, 7.0, thread=2),
        _span(4, 2, "geometry.contains_batch", 2.5, 3.0, thread=1),
    ]
    selfs = spanlib.self_times(tree)
    assert selfs == {0: 2.0, 1: 3.0, 2: 2.5, 3: 3.0, 4: 0.5}
    # each instant of the root is counted once down the tree, parallel work aside
    assert selfs[0] + selfs[1] + spanlib.covered([(2.0, 5.0), (4.0, 7.0)]) == 10.0


def test_accounted_share_misses_unnamed_spans():
    # an unnamed child of experiments ([6, 8]) is time no layer metric reports
    tree = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "experiments.run_rate_experiment", 1.0, 9.0),
        _span(2, 1, "sampling.sample", 2.0, 5.0, thread=1),
        _span(3, 1, "nets.blocked_max_dot", 4.0, 6.0, thread=2),
        _span(4, 2, "geometry.contains_batch", 2.5, 3.0, thread=1),
        _span(5, 1, "geometry.hull_vertices", 6.0, 8.0),
    ]
    for s in tree:
        s.attrs = {"n": 1, "rows": 1, "accepted": 1, "flop": 1, "bytes": 1}
    out = spanlib.call_metrics(tree, 10.0)
    # cli self 2, experiments self 2, named union [2, 6] = 4
    assert out["trace.accounted_frac"] == pytest.approx(0.8)


def test_covered_merges_overlaps():
    assert spanlib.covered([]) == 0.0
    assert spanlib.covered([(0, 1), (0.5, 2), (3, 4), (3.2, 3.5)]) == 3.0


def test_worker_spans_attach_to_the_waiting_span(cli):
    tracer = spanlib.Tracer()
    outer = tracer.wrap("experiments.run", lambda: worker_run())
    inner = tracer.wrap("sampling.sample", lambda: types.SimpleNamespace(n=1))

    def worker_run():
        t = threading.Thread(target=inner)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    with tracer:
        outer()
    got = {s.name: s for s in tracer.take()}
    assert got["sampling.sample"].parent == got["experiments.run"].id
    assert got["sampling.sample"].rep is not None
