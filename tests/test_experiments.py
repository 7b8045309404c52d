"""Experiment harness: configs, seeding, reports, and the dented-ball family."""

import json
import logging
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from scipy.spatial import ConvexHull

from randhull import experiments
from randhull.geometry import (
    Ball,
    BumpBall,
    Ellipsoid,
    PolytopeV,
    body_from_dict,
    body_to_dict,
    support_batch,
)
from randhull.nets import (
    SphereNet,
    blocked_max_dot,
    build_net,
    load_net,
    net_from_dict,
    net_to_dict,
)
from randhull.estimators import (
    hull_points,
    pairwise_hausdorff_certified,
    parse_metric,
    quadrature_directions,
)
from randhull.bounds import family_params
from randhull.sampling import derived_seed, sample
from randhull.experiments import (
    _KEY_NET,
    _KEY_QUAD,
    _hull_metric,
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
    replication_seed,
    report_to_csv,
    run_deviation_experiment,
    run_rate_experiment,
    save_experiment_config,
    write_json,
)

BALL2 = Ball(center=[0.0, 0.0], radius=1.0)
SQUARE = PolytopeV([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
ELLIPSE = Ellipsoid(center=[0.0, 0.0], semi_axes=[1.0, 0.8], rotation=np.eye(2))


def tiny_config(**overrides):
    base = dict(
        body=BALL2,
        mode="interior",
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


@pytest.mark.parametrize(
    "field, value",
    [
        ("reps", 2.9),
        ("master_seed", 7.5),
        ("n_grid", [1000.7, 3000.2]),
        ("quad_n", 10.5),
        ("reps", "3"),
        ("master_seed", None),
        ("reps", math.inf),
    ],
)
def test_a_fractional_integer_field_is_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        tiny_config(**{field: value})


@pytest.mark.parametrize(
    "field, value, loaded",
    [
        ("reps", 3.0, 3),
        ("master_seed", np.int64(7), 7),
        ("n_grid", [np.float64(1000.0), 3000.0], [1000, 3000]),
        ("quad_n", np.int32(10), 10),
    ],
)
def test_an_integral_value_loads_as_an_int(field, value, loaded):
    got = getattr(tiny_config(**{field: value}), field)
    assert got == loaded
    assert all(type(v) is int for v in (got if isinstance(got, list) else [got]))


@pytest.mark.parametrize(
    "mode, family",
    [
        ("interior", "smooth_boundary"),
        ("boundary", "smooth_interior"),
        ("boundary", "polytope_interior"),
    ],
)
def test_a_family_key_that_contradicts_the_mode_is_ignored(mode, family):
    # the family follows from the body and the mode, so a stored one is not read
    cfg = tiny_config(mode=mode)
    back = ExperimentConfig.from_dict({**cfg.to_dict(), "family": family})
    assert back.to_dict() == cfg.to_dict()
    assert back.family == cfg.family != family


@pytest.mark.parametrize(
    "body, mode, family",
    [
        (BALL2, "interior", "smooth_interior"),
        (ELLIPSE, "interior", "smooth_interior"),
        (SQUARE, "interior", "polytope_interior"),
        (BALL2, "boundary", "smooth_boundary"),
    ],
    ids=["ball", "ellipse", "square", "circle"],
)
def test_the_family_follows_from_the_body_and_the_mode(tmp_path, body, mode, family):
    cfg = tiny_config(body=body, mode=mode)
    assert cfg.family == family
    assert "family" not in cfg.to_dict()
    # a config written with the key, as before it was derived, still loads
    path = tmp_path / "config.yaml"
    save_experiment_config(cfg, path)
    path.write_text(path.read_text() + f"family: {family}\n")
    back = load_experiment_config(path)
    assert back.to_dict() == cfg.to_dict()
    assert back.family == family


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("**/*.yaml"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_a_shipped_config_holds_exactly_the_config_fields(path):
    # so that no key in it is one the loader ignores
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    assert sorted(doc) == sorted(f.name for f in fields(ExperimentConfig))


@pytest.mark.parametrize(
    "load, doc, key",
    [
        (ExperimentConfig.from_dict, tiny_config().to_dict(), "reps"),
        (ExperimentConfig.from_dict, tiny_config().to_dict(), "body"),
        (body_from_dict, body_to_dict(BALL2), "radius"),
        (net_from_dict, net_to_dict(build_net(2, 0.5, seed=1)), "delta"),
    ],
    ids=["config", "config-body", "body", "net"],
)
def test_a_missing_required_key_is_a_value_error_that_names_it(load, doc, key):
    with pytest.raises(ValueError, match=f"needs the key '{key}'"):
        load({k: v for k, v in doc.items() if k != key})


def test_config_yaml_round_trip(tmp_path):
    cfg = tiny_config(metric="lp(2)", q=2.0, quad_n=64)
    path = tmp_path / "config.yaml"
    save_experiment_config(cfg, path)
    back = load_experiment_config(path)
    assert back.to_dict() == cfg.to_dict()


def test_a_config_that_still_holds_net_streak_loads(tmp_path):
    # the key of a removed option is ignored, like any extra key
    cfg = tiny_config()
    path = tmp_path / "config.yaml"
    save_experiment_config(cfg, path)
    path.write_text(path.read_text() + "net_streak: 50\n")
    back = load_experiment_config(path)
    assert back.to_dict() == cfg.to_dict()


def test_a_config_built_in_python_serializes_like_a_loaded_one(tmp_path):
    cfg = tiny_config(q=1, reps=np.int64(3), master_seed=np.int64(5))
    doc = cfg.to_dict()
    assert doc == ExperimentConfig.from_dict(doc).to_dict()
    assert [type(doc[k]) for k in ("q", "reps", "master_seed")] == [float, int, int]

    yaml_path = tmp_path / "config.yaml"
    save_experiment_config(cfg, yaml_path)
    direct, loaded = tmp_path / "direct.json", tmp_path / "loaded.json"
    write_json(doc, direct)
    write_json(load_experiment_config(yaml_path).to_dict(), loaded)
    assert direct.read_bytes() == loaded.read_bytes()


def test_net_json_with_an_integer_delta_loads_a_float(tmp_path):
    doc = net_to_dict(build_net(2, 1.0, seed=3))
    doc["delta"] = 1
    path = tmp_path / "net.json"
    write_json(doc, path)
    back = load_net(path)
    assert type(back.delta) is float and back.delta == 1.0


def test_a_net_file_that_still_holds_streak_loads(tmp_path):
    ref = build_net(3, 0.5, seed=3)
    path = tmp_path / "net.json"
    write_json({**net_to_dict(ref), "streak": 100}, path)
    assert net_to_dict(load_net(path)) == net_to_dict(ref)


def test_a_net_built_from_numpy_scalars_round_trips_through_json(tmp_path):
    ref = build_net(3, 0.5, seed=3)
    net = SphereNet(
        dim=np.int64(ref.dim),
        delta=np.float64(ref.delta),
        points=ref.points,
        seed=np.int64(ref.seed),
        cover_radius=np.float64(ref.cover_radius),
        certified=np.bool_(ref.certified),
    )
    path, ref_path = tmp_path / "net.json", tmp_path / "ref.json"
    write_json(net_to_dict(net), path)
    write_json(net_to_dict(ref), ref_path)
    assert path.read_bytes() == ref_path.read_bytes()
    back = load_net(path)
    assert net_to_dict(back) == net_to_dict(ref)
    assert [type(v) for v in (back.dim, back.delta, back.certified)] == [int, float, bool]


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
    # polytope Hausdorff takes the net path on every replication
    cfg = tiny_config(body=SQUARE)
    net = build_net(2, cfg.resolved_net_delta(), derived_seed(cfg.master_seed, _KEY_NET))
    body_vals = support_batch(SQUARE, net.points)
    means = []
    for i, n in enumerate(cfg.n_grid):
        vals = [
            float((body_vals - blocked_max_dot(net.points, cloud.points)).max())
            for cloud in (
                sample(SQUARE, "interior", n, replication_seed(cfg.master_seed, i, r))
                for r in range(cfg.reps)
            )
        ]
        means.append(float(np.mean(vals)))
    assert run_rate_experiment(cfg).means == means


def test_ball_rate_means_match_the_facets_of_the_full_cloud():
    cfg = tiny_config(mode="boundary", n_grid=[200, 800])
    means = []
    for i, n in enumerate(cfg.n_grid):
        vals = []
        for r in range(cfg.reps):
            cloud = sample(BALL2, "boundary", n, replication_seed(cfg.master_seed, i, r))
            # the unit disc about the origin: R - min_i (b_i - a_i.0) = 1 + max offset
            vals.append(1.0 - float((-ConvexHull(cloud.points).equations[:, -1]).min()))
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
    # a square cloud reaches Qhull through the 2-d cascade of hull_points
    cfg = tiny_config(body=SQUARE, n_grid=[200, 5000], reps=3)
    passed = sum(
        hull_points(
            sample(SQUARE, "interior", n, replication_seed(cfg.master_seed, i, r)).points
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
    assert "shell cut: 0 of 6 clouds cut at the inner homothet, 0 fell back to the full cloud" in messages

    # a disc cloud hands Qhull only its points outside the inner homothet
    caplog.clear()
    cfg = tiny_config(n_grid=[200, 5000], reps=3)
    clouds = [
        sample(BALL2, "interior", n, replication_seed(cfg.master_seed, i, r))
        for i, n in enumerate(cfg.n_grid)
        for r in range(cfg.reps)
    ]
    passed = sum(len(cloud.outer) for cloud in clouds)
    assert passed < sum(hull_points(cloud.points).qhull_input for cloud in clouds)
    with caplog.at_level(logging.DEBUG, logger="randhull"):
        run_rate_experiment(cfg)
    messages = [r.getMessage() for r in caplog.records]
    assert f"hull pre-filter: {passed} of 15600 sampled points passed to Qhull" in messages
    assert "shell cut: 6 of 6 clouds cut at the inner homothet, 0 fell back to the full cloud" in messages


def test_boundary_ball_experiment_hands_qhull_every_point(caplog):
    with caplog.at_level(logging.DEBUG, logger="randhull"):
        run_rate_experiment(tiny_config(mode="boundary", n_grid=[100, 2000], reps=2))
    messages = [r.getMessage() for r in caplog.records]
    assert "hull pre-filter: 4200 of 4200 sampled points passed to Qhull" in messages
    assert "metric path: 4 exact, 0 net fallback" in messages
    assert "hull reduction: 4 clouds reduced, 0 fell back to the full cloud" in messages


def test_boundary_lp_experiment_hands_qhull_every_point(caplog):
    # an L^p metric reads no facets, but its boundary clouds go to Qhull whole
    # like any other, and the hull keeps every point
    with caplog.at_level(logging.DEBUG, logger="randhull"):
        run_rate_experiment(
            tiny_config(mode="boundary", n_grid=[100, 2000], reps=2, metric="lp(2)")
        )
    messages = [r.getMessage() for r in caplog.records]
    assert "hull pre-filter: 4200 of 4200 sampled points passed to Qhull" in messages
    assert "hull reduction: 4 clouds reduced, 0 fell back to the full cloud" in messages


# A pin of exact floats, so that a hull-path change that moves any bit fails
# here; the clouds' bit generator, draw order and ball kernel move them too.
# The disc and ellipse means come from the Qhull facets; the square means, on
# the net path, hold for one BLAS build (README, Reproducibility): another
# BLAS may round the max-dot differently.
PINNED_DISC_MEANS = [0.035997198567666644, 0.00949082842620752]
PINNED_ELLIPSE_MEANS = [0.033847807880849845, 0.008456584508576392]
PINNED_SQUARE_CSV = (
    "n,mean_metric_q,stderr,reps\n"
    "1000,0.047615807188962946,0.01250117502589593,3\n"
    "3000,0.020669125629094617,0.005757909002122776,3\n"
)


def test_disc_rate_means_are_pinned():
    cfg = ExperimentConfig(
        body=BALL2,
        mode="interior",
        n_grid=[1000, 10000],
        reps=2,
        master_seed=1005,
    )
    assert run_rate_experiment(cfg).means == PINNED_DISC_MEANS


def test_ellipse_rate_means_are_pinned():
    cfg = ExperimentConfig(
        body=ELLIPSE,
        mode="interior",
        n_grid=[1000, 10000],
        reps=2,
        master_seed=1005,
    )
    assert run_rate_experiment(cfg).means == PINNED_ELLIPSE_MEANS


def test_square_rate_report_is_pinned():
    cfg = ExperimentConfig(
        body=SQUARE,
        mode="interior",
        n_grid=[1000, 3000],
        reps=3,
        master_seed=1006,
    )
    for threads in (1, 2):
        assert report_to_csv(run_rate_experiment(cfg, threads=threads)) == PINNED_SQUARE_CSV


# ---------------------------------------------------------------------------
# exact path and net fallback


def _power_mean(vals, p):
    return float(np.mean(vals**p) ** (1.0 / p))


def _net_path_value(cfg, pts):
    """The metric of conv(pts) to the unit disc over the experiment's directions.

    The Hausdorff deficit over the experiment's net, which is also d_L about
    the origin; otherwise over its quadrature directions, with the widths of
    an S functional over u and -u.
    """
    spec = parse_metric(cfg.metric)
    if spec.on_net:
        net = build_net(2, cfg.resolved_net_delta(), derived_seed(cfg.master_seed, _KEY_NET))
        return float((support_batch(BALL2, net.points) - blocked_max_dot(net.points, pts)).max())
    seed = derived_seed(cfg.master_seed, _KEY_QUAD)
    dirs = quadrature_directions(2, cfg.resolved_quad_n(), seed)
    if spec.kind == "lp":
        deficit = support_batch(BALL2, dirs) - blocked_max_dot(dirs, pts)
        return _power_mean(np.maximum(deficit, 0.0), spec.p)
    if spec.which == "S":
        dirs = np.vstack([dirs, -dirs])

    def functional(vals):
        if spec.which == "S":
            vals = vals[: len(vals) // 2] + vals[len(vals) // 2 :]
        return _power_mean(np.maximum(vals, 0.0), spec.p)

    return abs(functional(support_batch(BALL2, dirs)) - functional(blocked_max_dot(dirs, pts)))


FALLBACK_CLOUDS = {
    # a triangle inside the disc whose hull misses the center
    "off_centre_triangle": [[0.2, 0.1], [0.6, 0.1], [0.4, 0.5]],
    "collinear": [[-0.5, -0.2], [0.0, 0.0], [0.25, 0.1], [0.5, 0.2]],
    "n_equals_d": [[0.1, 0.2], [-0.4, 0.5]],
}


@pytest.mark.parametrize("name", sorted(FALLBACK_CLOUDS))
def test_fallback_clouds_get_the_net_path_value(name):
    pts = np.asarray(FALLBACK_CLOUDS[name])
    for metric in ("hausdorff", "dl", "lp(2)", "functional(T,2)", "functional(S,1)"):
        cfg = tiny_config(metric=metric)
        value, _, exact = _hull_metric(cfg)[0].value(pts)
        assert not exact
        assert value == _net_path_value(cfg, pts)


def _count_net_builds(monkeypatch):
    builds = []
    real = experiments.build_net
    monkeypatch.setattr(experiments, "build_net", lambda *a, **k: builds.append(a) or real(*a, **k))
    return builds


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_net_is_built_once_when_replications_fall_back(monkeypatch, caplog, threads):
    builds = _count_net_builds(monkeypatch)
    # n = 2 <= d: Qhull rejects every cloud at the first grid point
    cfg = tiny_config(n_grid=[2, 200])
    # more workers than cores, switching often, so fallbacks race for the net
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with caplog.at_level(logging.DEBUG, logger="randhull"):
            report = run_rate_experiment(cfg, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    messages = [r.getMessage() for r in caplog.records]
    assert "metric path: 8 exact, 8 net fallback" in messages
    assert sum(m.startswith("net: ") for m in messages) == 1
    assert report.resolved_net_delta == cfg.resolved_net_delta()


@pytest.mark.parametrize(
    "metric, body",
    [("hausdorff", BALL2), ("dl", BALL2), ("hausdorff", ELLIPSE), ("dl", ELLIPSE)],
    ids=["hausdorff", "dl", "hausdorff-ellipse", "dl-ellipse"],
)
def test_no_net_is_built_when_no_replication_falls_back(monkeypatch, caplog, metric, body):
    builds = _count_net_builds(monkeypatch)
    cfg = tiny_config(metric=metric, body=body)
    with caplog.at_level(logging.DEBUG, logger="randhull"):
        report = run_rate_experiment(cfg, threads=2)
    assert builds == []
    messages = [r.getMessage() for r in caplog.records]
    assert "metric path: 16 exact, 0 net fallback" in messages
    assert not any(m.startswith("net: ") for m in messages)
    assert report.resolved_net_delta == 0.05


def test_dl_equals_hausdorff_on_the_unit_disc_about_the_origin():
    hausdorff = run_rate_experiment(tiny_config()).means
    dl = run_rate_experiment(tiny_config(metric="dl")).means
    np.testing.assert_allclose(dl, hausdorff, rtol=1e-13)


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


@pytest.mark.parametrize("threads", [0, -3])
def test_experiments_reject_a_thread_count_below_one(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_rate_experiment(tiny_config(), threads=threads)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_deviation_experiment(tiny_config(n_grid=[400]), [0.0, 1.0], threads=threads)


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
        largest = float(_run_replications(cfg, _hull_metric(cfg)[0], 1)[0].max())
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


def test_deviation_experiment_logs_quantiles(caplog):
    cfg = tiny_config(n_grid=[400], reps=20)
    values = _run_replications(cfg, _hull_metric(cfg)[0], 1)[0]
    with caplog.at_level(logging.DEBUG, logger="randhull"):
        rep = run_deviation_experiment(cfg, [0.0, 2.0])
    prefix = "deviation quantiles: d_H / a_n at 0.5, 0.9, 0.99: "
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith(prefix)]
    assert len(lines) == 1
    got = [float(tok) for tok in lines[0][len(prefix) :].split()]
    want = np.quantile(values / rep.a_n, [0.5, 0.9, 0.99])
    np.testing.assert_allclose(got, want, rtol=1e-5)
    assert got[0] <= got[1] <= got[2]


@pytest.mark.parametrize(
    "body",
    [SQUARE, BumpBall(radius=1.0, bump_scale=0.2, amplitude=0.02, direction=[0.0, 1.0])],
    ids=["square", "dented_ball"],
)
def test_a_body_without_a_rolling_radius_has_no_analytic_class_parameters(body):
    assert body.rolling_radius == 0.0
    with pytest.raises(ValueError, match=f"no analytic class parameters for {type(body).__name__}"):
        family_params("smooth_interior", body)


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
