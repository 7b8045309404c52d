"""Experiment harness: configs, seeding, reports, and the dented-ball family."""

import json
import logging
import math

import numpy as np
import pytest

from randhull.geometry import Ball, PolytopeV, support_batch
from randhull.nets import blocked_max_dot, build_net
from randhull.estimators import hull_points
from randhull.sampling import derived_seed, sample
from randhull.experiments import (
    _KEY_NET,
    _MetricEngine,
    _run_replications,
    DeviationReport,
    ExperimentConfig,
    RateReport,
    build_lower_bound_family,
    bump_volume_defect_exact,
    bump_volume_defect_mc,
    emit_report,
    load_experiment_config,
    load_report,
    pairwise_hausdorff_certified,
    parse_metric,
    replication_seed,
    report_to_csv,
    run_deviation_experiment,
    run_rate_experiment,
    save_experiment_config,
)

BALL2 = Ball(center=[0.0, 0.0], radius=1.0)


def tiny_config(**overrides):
    base = dict(
        body=BALL2,
        mode="interior",
        family="smooth_interior",
        n_grid=[200, 800],
        reps=8,
        metric="hausdorff",
        net_delta=0.05,
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# metric parsing


def test_parse_metric_tokens():
    assert parse_metric("hausdorff").kind == "hausdorff"
    assert parse_metric("dl").kind == "dl"
    spec = parse_metric("lp(2)")
    assert (spec.kind, spec.p) == ("lp", 2.0)
    spec = parse_metric("functional(T,1)")
    assert (spec.kind, spec.which, spec.p) == ("functional", "T", 1.0)
    spec = parse_metric("functional(S,inf)")
    assert math.isinf(spec.p)


def test_parse_metric_rejects_garbage():
    for bad in ("lp(0.5)", "functional(Q,1)", "nonsense", "lp()"):
        with pytest.raises(ValueError):
            parse_metric(bad)


def test_sup_type_metrics_keep_log_factor():
    assert not parse_metric("hausdorff").drops_log
    assert not parse_metric("dl").drops_log
    assert not parse_metric("lp(inf)").drops_log
    assert not parse_metric("functional(S,inf)").drops_log
    assert parse_metric("lp(1)").drops_log
    assert parse_metric("functional(S,1)").drops_log
    assert parse_metric("functional(T,2)").drops_log


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(n_grid=[100, 100])
    with pytest.raises(ValueError):
        tiny_config(n_grid=[800, 200])
    with pytest.raises(ValueError):
        tiny_config(reps=1)
    with pytest.raises(ValueError):
        tiny_config(q=0.5)
    with pytest.raises(ValueError):
        tiny_config(mode="edge")
    with pytest.raises(ValueError):
        tiny_config(family="unknown")
    with pytest.raises(ValueError):
        tiny_config(net_streak=0)


def test_config_yaml_round_trip(tmp_path):
    cfg = tiny_config(metric="lp(2)", q=2.0, net_streak=500)
    path = tmp_path / "config.yaml"
    save_experiment_config(cfg, path)
    back = load_experiment_config(path)
    assert back.to_dict() == cfg.to_dict()


def test_resolved_net_delta_explicit_wins():
    assert tiny_config(net_delta=0.03).resolved_net_delta() == 0.03


def test_resolved_net_delta_default_is_capped():
    cfg = tiny_config(net_delta=None, n_grid=[10, 20])
    assert cfg.resolved_net_delta() <= 1e-2


def test_replication_seeds_distinct():
    seeds = {
        replication_seed(7, i, r) for i in range(3) for r in range(50)
    }
    assert len(seeds) == 150


# ---------------------------------------------------------------------------
# rate experiment


def test_rate_experiment_decreasing_means_negative_slope():
    rep = run_rate_experiment(tiny_config())
    assert rep.means[1] < rep.means[0]
    assert all(m > 0 for m in rep.means)
    assert rep.slope < 0 or rep.expected_slope > 0  # slope sign folded into fit
    assert rep.fit_kind == "log_lognn_over_n"
    assert rep.theoretical_exponent == pytest.approx(2.0 / 3.0)


def test_rate_experiment_threads_match_serial():
    cfg = tiny_config()
    serial = run_rate_experiment(cfg, threads=1)
    threaded = run_rate_experiment(cfg, threads=3)
    assert serial.means == threaded.means
    assert serial.slope == threaded.slope


def test_rate_means_match_the_full_max_dot():
    cfg = tiny_config()
    net = build_net(2, cfg.resolved_net_delta(), derived_seed(cfg.master_seed, _KEY_NET))
    body_vals = support_batch(BALL2, net.points)
    means = []
    for i, n in enumerate(cfg.n_grid):
        vals = [
            float((body_vals - blocked_max_dot(net.points, cloud.points)).max())
            for cloud in (
                sample(BALL2, "interior", n, replication_seed(cfg.master_seed, i, r))
                for r in range(cfg.reps)
            )
        ]
        means.append(float(np.mean(vals)))
    assert run_rate_experiment(cfg).means == means


def test_rate_experiment_logs_net_and_reduction(caplog):
    with caplog.at_level(logging.DEBUG, logger="randhull"):
        run_rate_experiment(tiny_config(n_grid=[2, 200]))
    messages = [r.getMessage() for r in caplog.records]
    assert any(m.startswith("net: ") and "certified True" in m for m in messages)
    # n = 2 <= d: Qhull rejects every cloud at the first grid point
    assert "hull reduction: 8 clouds reduced, 8 fell back to the full cloud" in messages


def test_rate_experiment_logs_prefilter_survivors(caplog):
    cfg = tiny_config(n_grid=[200, 5000], reps=3)
    passed = sum(
        hull_points(
            sample(BALL2, "interior", n, replication_seed(cfg.master_seed, i, r))
        ).qhull_input
        for i, n in enumerate(cfg.n_grid)
        for r in range(cfg.reps)
    )
    # the 200-point clouds skip the filter and reach Qhull whole
    assert 3 * 200 < passed < 3 * 5200
    with caplog.at_level(logging.DEBUG, logger="randhull"):
        run_rate_experiment(cfg)
    messages = [r.getMessage() for r in caplog.records]
    assert f"hull pre-filter: {passed} of 15600 sampled points passed to Qhull" in messages


def test_boundary_experiment_logs_no_qhull_input(caplog):
    with caplog.at_level(logging.DEBUG, logger="randhull"):
        run_rate_experiment(
            tiny_config(mode="boundary", family="smooth_boundary", n_grid=[100, 2000], reps=2)
        )
    messages = [r.getMessage() for r in caplog.records]
    assert "hull pre-filter: 0 of 4200 sampled points passed to Qhull" in messages


# A pin of the parent commit's exact floats, so that a hull-path change that
# moves any bit fails here.  It holds for one BLAS build (README,
# Reproducibility): another BLAS may round the max-dot differently.
PINNED_DISC_MEANS = [0.043814800879969085, 0.010173559751052497]


def test_disc_rate_means_are_pinned():
    cfg = ExperimentConfig(
        body=BALL2,
        mode="interior",
        family="smooth_interior",
        n_grid=[1000, 10000],
        reps=2,
        master_seed=1005,
    )
    assert run_rate_experiment(cfg).means == PINNED_DISC_MEANS


def _emitted(report, tmp_path, tag):
    out = {}
    for fmt in ("csv", "json"):
        path = tmp_path / f"{tag}.{fmt}"
        emit_report(report, path, fmt)
        out[fmt] = path.read_bytes()
    return out


def test_reports_do_not_depend_on_thread_count(tmp_path):
    rate_cfg = tiny_config(n_grid=[1000, 3000], reps=3, net_delta=None, master_seed=5)
    dev_cfg = tiny_config(n_grid=[3000], reps=3, net_delta=None, master_seed=6)
    x_grid = [0.0, 1.0, 5.0]
    for threads in (1, 2):
        rate = _emitted(run_rate_experiment(rate_cfg, threads=threads), tmp_path, f"r{threads}")
        dev = run_deviation_experiment(dev_cfg, x_grid, threads=threads)
        dev = _emitted(dev, tmp_path, f"d{threads}")
        if threads == 1:
            serial_rate, serial_dev = rate, dev
    assert rate == serial_rate
    assert dev == serial_dev


def test_rate_experiment_q_power():
    r1 = run_rate_experiment(tiny_config())
    r2 = run_rate_experiment(tiny_config(q=2.0))
    assert r2.expected_slope == pytest.approx(2.0 * r1.expected_slope)


def test_rate_experiment_needs_two_grid_points():
    with pytest.raises(ValueError):
        run_rate_experiment(tiny_config(n_grid=[500]))


def test_rate_report_round_trip():
    rep = run_rate_experiment(tiny_config())
    back = RateReport.from_dict(rep.to_dict())
    assert back.to_dict() == rep.to_dict()


def test_rate_report_emission(tmp_path):
    rep = run_rate_experiment(tiny_config())
    csv_path = tmp_path / "rates.csv"
    json_path = tmp_path / "rates.json"
    emit_report(rep, csv_path, "csv")
    emit_report(rep, json_path, "json")

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,mean_metric_q,stderr,reps"
    assert len(lines) == 1 + len(rep.means)

    doc = json.loads(json_path.read_text())
    assert doc["kind"] == "rate_report"
    assert doc["slope"] == rep.slope

    loaded = load_report(json_path)
    assert loaded.to_dict() == rep.to_dict()


def test_emitted_bytes_deterministic(tmp_path):
    rep1 = run_rate_experiment(tiny_config())
    rep2 = run_rate_experiment(tiny_config())
    assert report_to_csv(rep1) == report_to_csv(rep2)
    assert json.dumps(rep1.to_dict(), sort_keys=True) == json.dumps(
        rep2.to_dict(), sort_keys=True
    )


def test_different_master_seed_changes_results():
    r1 = run_rate_experiment(tiny_config())
    r2 = run_rate_experiment(tiny_config(master_seed=43))
    assert r1.means != r2.means


# ---------------------------------------------------------------------------
# deviation experiment


def test_deviation_experiment_basics():
    cfg = tiny_config(n_grid=[400], reps=50)
    rep = run_deviation_experiment(cfg, [0.0, 2.0, 5.0, 1e6])
    emp = np.array(rep.empirical)
    assert np.all(np.diff(emp) <= 1e-15)
    assert rep.theoretical[0] == 1.0
    # width beyond 2 is impossible, so the far point must be empirically zero
    assert rep.empirical[-1] == 0.0
    assert rep.theoretical[-1] == 0.0
    assert rep.violations == 0


def test_deviation_experiment_logs_tightness(caplog):
    # the radius-10 disc gets the unit disc's class constants (rolling radius
    # capped at 1), so its distances, ten times larger, exceed small x
    for body, x_grid in ((BALL2, [0.0, 2.0, 1e6]), (Ball([0.0, 0.0], 10.0), [20.0, 0.5, 1e6])):
        cfg = tiny_config(body=body, n_grid=[400], reps=20)
        largest = float(_run_replications(cfg, _MetricEngine(cfg), 1)[0].max())
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="randhull"):
            rep = run_deviation_experiment(cfg, x_grid)
        exceeded = [x for x, t in zip(x_grid, rep.thresholds) if largest >= t]
        smallest = repr(min(exceeded)) if exceeded else "none"
        line = (
            f"deviation tightness: largest distance {largest:.6g}, "
            f"{largest / rep.thresholds[0]:.6g} of the first threshold, "
            f"smallest x exceeded {smallest}"
        )
        assert line in [r.getMessage() for r in caplog.records]
        assert smallest == ("none" if body is BALL2 else "0.5")


def test_deviation_experiment_needs_single_n():
    cfg = tiny_config(n_grid=[200, 800])
    with pytest.raises(ValueError):
        run_deviation_experiment(cfg, [0.0, 1.0])


def test_deviation_experiment_rejects_empty_grid():
    cfg = tiny_config(n_grid=[400])
    with pytest.raises(ValueError):
        run_deviation_experiment(cfg, [])


def test_deviation_report_emission(tmp_path):
    cfg = tiny_config(n_grid=[400], reps=20)
    rep = run_deviation_experiment(cfg, [0.0, 3.0])
    path = tmp_path / "dev.csv"
    emit_report(rep, path, "csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,threshold,empirical_survival,theoretical_tail"
    assert len(lines) == 3

    jpath = tmp_path / "dev.json"
    emit_report(rep, jpath, "json")
    loaded = load_report(jpath)
    assert loaded.to_dict() == rep.to_dict()


def test_emit_rejects_empty_deviation_report():
    rep = DeviationReport(
        config={},
        x_grid=[],
        thresholds=[],
        empirical=[],
        theoretical=[],
        violations=0,
        tau1=1.0,
        a_n=0.1,
        b_n=0.01,
        resolved_net_delta=0.01,
    )
    with pytest.raises(ValueError):
        emit_report(rep, "/tmp/never-written.csv", "csv")


def test_emit_rejects_unknown_format(tmp_path):
    rep = run_rate_experiment(tiny_config())
    with pytest.raises(ValueError):
        emit_report(rep, tmp_path / "r.xml", "xml")


# ---------------------------------------------------------------------------
# dented-ball family


def test_family_contains_reference_and_shrunk_ball():
    delta, amp = 0.2, 0.02
    fam = build_lower_bound_family(2, 1.0, delta, amp, packing_seed=3)
    ball, bumps = fam[0], fam[1:]
    assert isinstance(ball, Ball) and ball.radius == 1.0
    assert len(bumps) >= 2.0 / delta
    dirs = build_net(2, 0.05, seed=1).points
    h_outer = support_batch(ball, dirs)
    h_inner = support_batch(Ball(center=[0.0, 0.0], radius=1.0 - amp * delta**2), dirs)
    for bump in bumps[:5]:
        h = support_batch(bump, dirs)
        assert np.all(h <= h_outer + 1e-12)
        assert np.all(h >= h_inner - 1e-12)


def test_family_directions_form_packing():
    fam = build_lower_bound_family(2, 1.0, 0.25, 0.02, packing_seed=4)
    us = np.array([b.direction for b in fam[1:]])
    gram = us @ us.T
    np.fill_diagonal(gram, -1.0)
    min_dist = math.sqrt(2.0 - 2.0 * float(gram.max()))
    assert min_dist >= 0.25 * (1.0 - 1e-12)


def test_family_rejects_nonconvex_dent():
    with pytest.raises(ValueError):
        build_lower_bound_family(2, 1.0, 0.3, 5.0, packing_seed=3)


def test_defect_volume_monte_carlo_matches_integral():
    fam = build_lower_bound_family(2, 1.0, 0.1, 0.02, packing_seed=5)
    bump = fam[1]
    exact = bump_volume_defect_exact(bump)
    mc = bump_volume_defect_mc(bump, 100000, 11)
    assert mc == pytest.approx(exact, rel=0.05)


def test_defect_volume_scales_with_cube_of_scale():
    amp = 0.02
    ratios = []
    for delta in (0.1, 0.05):
        fam = build_lower_bound_family(2, 1.0, delta, amp, packing_seed=5)
        ratios.append(bump_volume_defect_exact(fam[1]) / delta**3)
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)


def test_pairwise_hausdorff_exact_at_poles():
    delta, amp = 0.1, 0.02
    fam = build_lower_bound_family(2, 1.0, delta, amp, packing_seed=5)
    bumps = fam[1:]
    us = np.array([b.direction for b in bumps])
    gram = us @ us.T
    i, j = np.unravel_index(np.argmin(gram), gram.shape)
    net = build_net(2, 0.05, seed=2)
    net_val, cert = pairwise_hausdorff_certified(
        bumps[i], bumps[j], net, extra_dirs=us[[i, j]]
    )
    assert net_val == pytest.approx(amp * delta**2, abs=1e-12)
    assert cert >= net_val


@pytest.mark.parametrize("d, delta", [(2, 0.1), (3, 0.3)])
def test_family_pairwise_gap_at_pole(d, delta):
    amp = 0.02
    fam = build_lower_bound_family(d, 1.0, delta, amp, packing_seed=5)
    assert len(fam) > 2
    b1, b2 = fam[1], fam[2]
    pole = b1.direction[None, :]
    gap = float(np.abs(support_batch(b1, pole) - support_batch(b2, pole))[0])
    assert abs(gap - amp * delta**2) <= 1e-9 * max(1.0, amp * delta**2)
