"""Command-line entry points, exercised through main(argv)."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from randhull.cli import build_parser, main
from randhull.geometry import Ball, Ellipsoid, PolytopeV, save_body
from randhull.nets import build_net, load_net, net_to_dict
from randhull.sampling import load_points
from randhull.experiments import ExperimentConfig, save_experiment_config, write_json


@pytest.fixture
def ball_path(tmp_path):
    path = tmp_path / "ball.json"
    save_body(Ball(center=[0.0, 0.0], radius=1.0), path)
    return path


@pytest.fixture
def config_path(tmp_path):
    cfg = ExperimentConfig(
        body=Ball(center=[0.0, 0.0], radius=1.0),
        mode="interior",
        n_grid=[200, 800],
        reps=6,
        metric="hausdorff",
        net_delta=0.05,
        master_seed=12,
    )
    path = tmp_path / "config.yaml"
    save_experiment_config(cfg, path)
    return path


def test_sample_writes_points_csv(tmp_path, ball_path):
    out = tmp_path / "points.csv"
    main(
        [
            "sample",
            "--body", str(ball_path),
            "--mode", "interior",
            "--n", "40",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    pts = load_points(out)
    assert pts.shape == (40, 2)
    assert np.all(np.linalg.norm(pts, axis=1) <= 1.0)


def test_sample_is_seed_deterministic(tmp_path, ball_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        main(
            ["sample", "--body", str(ball_path), "--n", "25", "--seed", "9", "--out", str(out)]
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_net_build_writes_certified_net(tmp_path):
    out = tmp_path / "net.json"
    main(["net", "build", "--d", "2", "--delta", "0.2", "--seed", "3", "--out", str(out)])
    net = load_net(out)
    assert net.dim == 2
    assert net.certified
    assert net.cover_radius <= 0.2


@pytest.mark.parametrize("d", [2, 3])
def test_net_build_writes_the_same_strict_json_to_out_and_stdout(tmp_path, capsys, d):
    argv = ["net", "build", "--d", str(d), "--delta", "0.5", "--seed", "3"]
    main(argv)
    printed = capsys.readouterr().out
    out = tmp_path / "net.json"
    main(argv + ["--out", str(out)])
    assert out.read_bytes() == printed.encode()
    doc = json.loads(printed, parse_constant=_reject_constant)
    assert doc["dim"] == d and doc["certified"]
    np.testing.assert_array_equal(load_net(out).points, np.asarray(doc["points"]))


def test_distance_reports_deficit(tmp_path, ball_path):
    pts = tmp_path / "points.csv"
    main(["sample", "--body", str(ball_path), "--n", "200", "--seed", "7", "--out", str(pts)])
    out = tmp_path / "distance.json"
    main(
        [
            "distance",
            "--body", str(ball_path),
            "--points", str(pts),
            "--net-delta", "0.05",
            "--seed", "1",
            "--format", "json",
            "--out", str(out),
        ]
    )
    doc = json.loads(out.read_text())
    assert 0.0 <= doc["value"] <= 2.0
    assert doc["certified_upper"] >= doc["value"]
    assert doc["net_delta"] == 0.05


def test_distance_certifies_a_disc_cloud_with_the_exact_distance(tmp_path, ball_path):
    from scipy.spatial import ConvexHull

    from randhull.estimators import HullMetric, MetricSpec

    pts = tmp_path / "points.csv"
    main(["sample", "--body", str(ball_path), "--n", "500", "--seed", "9", "--out", str(pts)])
    out = tmp_path / "distance.json"
    main(
        [
            "distance",
            "--body", str(ball_path),
            "--points", str(pts),
            "--format", "json",
            "--out", str(out),
        ]
    )
    doc = json.loads(out.read_text())
    equations = ConvexHull(load_points(pts)).equations
    exact = HullMetric(MetricSpec("hausdorff"), Ball([0.0, 0.0], 1.0)).facet_value(equations)
    assert doc["value"] == doc["certified_upper"] == exact


def _refuse_net_build(monkeypatch):
    from randhull import cli

    def refuse(*args, **kwargs):
        raise AssertionError("distance built a net")

    monkeypatch.setattr(cli, "build_net", refuse)


D3_BODIES = {
    "ball": Ball(center=np.zeros(3), radius=1.0),
    "ellipsoid": Ellipsoid(center=np.zeros(3), semi_axes=[1.0, 0.7, 0.5], rotation=np.eye(3)),
}


@pytest.mark.parametrize("name", sorted(D3_BODIES))
def test_distance_reads_a_three_dimensional_cloud_from_its_facets(tmp_path, monkeypatch, name):
    from scipy.spatial import ConvexHull

    from randhull.estimators import HullMetric, MetricSpec

    body = D3_BODIES[name]
    body_path, pts = tmp_path / "body.json", tmp_path / "points.csv"
    save_body(body, body_path)
    main(["sample", "--body", str(body_path), "--n", "2000", "--seed", "5", "--out", str(pts)])
    _refuse_net_build(monkeypatch)
    out = tmp_path / "distance.json"
    main(["distance", "--body", str(body_path), "--points", str(pts), "--out", str(out)])
    doc = json.loads(out.read_text())
    exact = HullMetric(MetricSpec("hausdorff"), body).facet_value(
        ConvexHull(load_points(pts)).equations
    )
    assert doc == {"value": exact, "certified_upper": exact, "net_delta": 0.01}


def test_distance_accepts_prebuilt_net(tmp_path, monkeypatch):
    from randhull.estimators import HullMetric, MetricSpec

    # a square has no rolling radius, so its distance reads the net
    square = PolytopeV(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    body = tmp_path / "square.json"
    save_body(square, body)
    net_path = tmp_path / "net.json"
    main(["net", "build", "--d", "2", "--delta", "0.1", "--seed", "2", "--out", str(net_path)])
    pts = tmp_path / "points.csv"
    main(["sample", "--body", str(body), "--n", "100", "--seed", "8", "--out", str(pts)])
    _refuse_net_build(monkeypatch)
    out = tmp_path / "distance.json"
    main(
        [
            "distance",
            "--body", str(body),
            "--points", str(pts),
            "--net", str(net_path),
            "--format", "json",
            "--out", str(out),
        ]
    )
    doc = json.loads(out.read_text())
    assert doc["net_delta"] == 0.1
    metric = HullMetric(MetricSpec("hausdorff"), square, net=load_net(net_path))
    assert [doc["value"], doc["certified_upper"]] == list(metric.certified(load_points(pts)))


def test_bound_evaluates_tail(tmp_path):
    out = tmp_path / "bound.json"
    main(
        [
            "bound",
            "--params", '{"alpha": 1.5, "L": 0.4244, "eps0": 1.0}',
            "--d", "2",
            "--n", "10000",
            "--x", "20.0",
            "--format", "json",
            "--out", str(out),
        ]
    )
    doc = json.loads(out.read_text())
    assert doc["threshold"] > 0.0
    assert 0.0 <= doc["tail"] <= 1.0


def test_check_class_smooth_ball(tmp_path, ball_path):
    out = tmp_path / "class.json"
    main(
        [
            "check-class",
            "--body", str(ball_path),
            "--mode", "interior",
            "--family", "smooth",
            "--out", str(out),
        ]
    )
    doc = json.loads(out.read_text())
    assert doc["verdict"] is True
    assert doc["analytic"] is True
    # r = min(1, rolling radius) = 1 for the unit ball
    assert doc["params"]["eps0"] == 1.0


def test_check_class_fit_simplex_is_pinned(tmp_path):
    # exact values from the triangulation sampler's stream; any change to the
    # bit generator, the simplex choice, the uniform weights (sorted uniforms
    # and their spacings) or their arithmetic moves them.  The membership pass
    # probes the widths that the fitted L makes measurable, so its worst ratio
    # can fall below 1 inside its slack
    body = tmp_path / "simplex3.json"
    save_body(PolytopeV(vertices=np.vstack([np.zeros(3), np.eye(3)])), body)
    out = tmp_path / "fit.json"
    main(
        [
            "check-class",
            "--body", str(body),
            "--mode", "interior",
            "--family", "fit",
            "--alpha", "3.0",
            "--eps0", "0.5",
            "--u-probes", "2",
            "--n-mc", "20000",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    doc = json.loads(out.read_text())
    assert doc["fitted"]["L"] == 5.1652
    assert doc["report"]["worst_ratio"] == 1.0
    assert doc["report"]["verdict"] is True


def test_check_class_fit_draws_each_probe_cloud_twice(tmp_path, monkeypatch):
    # the fit pass and the membership pass each draw one n_mc cloud per probe
    # direction; the benchmark's traced simplex_class_fit run counts these
    # 2 x u_probes x n_mc points, so a change that shares or caches the
    # clouds must change the benchmark too
    from randhull import bounds
    from randhull.sampling import derived_seed

    calls = []
    real = bounds.sample

    def counted(body, mode, n, seed):
        calls.append((mode, n, seed))
        return real(body, mode, n, seed)

    monkeypatch.setattr(bounds, "sample", counted)
    body = tmp_path / "simplex3.json"
    save_body(PolytopeV(vertices=np.vstack([np.zeros(3), np.eye(3)])), body)
    argv = [
        "check-class",
        "--body", str(body),
        "--mode", "interior",
        "--family", "fit",
        "--alpha", "3.0",
        "--eps0", "0.5",
        "--u-probes", "3",
        "--n-mc", "20000",
        "--seed", "7",
        "--out", str(tmp_path / "fit.json"),
    ]
    main(argv)
    probes = [("interior", 20000, derived_seed(7, j)) for j in range(3)]
    assert calls == probes + probes


def test_disc_rate_run_draws_one_whole_cloud_per_replication(tmp_path, monkeypatch):
    # the benchmark's traced disc_rate run counts sum(n_grid) x reps = 576000
    # sampled points; a change that draws fewer (a shell draw, a shared
    # cloud) fails here before the benchmark's trace check does
    from randhull import experiments

    config = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "disc_rate.yaml"
    calls = []
    real = experiments.sample

    def counted(body, mode, n, seed):
        cloud = real(body, mode, n, seed)
        calls.append((mode, n, seed, len(cloud.points)))
        return cloud

    monkeypatch.setattr(experiments, "sample", counted)
    cfg = experiments.load_experiment_config(config)
    main(["rates", "--config", str(config), "--threads", "1", "--out", str(tmp_path / "r.json")])
    assert calls == [
        ("interior", n, experiments.replication_seed(cfg.master_seed, i, rep), n)
        for i, n in enumerate(cfg.n_grid)
        for rep in range(cfg.reps)
    ]
    assert sum(drawn for *_, drawn in calls) == 576000


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _write_uncertified_net(path, d, delta):
    """A net JSON that says "certified": false; build_net certifies every net."""
    write_json({**net_to_dict(build_net(d, delta, 0)), "certified": False}, path)


def test_distance_writes_null_for_missing_certificate(tmp_path):
    # an uncertified net proves nothing, so the certificate is inf
    body = tmp_path / "ball4.json"
    save_body(Ball(center=np.zeros(4), radius=1.0), body)
    pts = tmp_path / "points.csv"
    main(["sample", "--body", str(body), "--n", "200", "--seed", "7", "--out", str(pts)])
    net = tmp_path / "net.json"
    _write_uncertified_net(net, 4, 0.5)
    out = tmp_path / "distance.json"
    main(
        [
            "distance",
            "--body", str(body),
            "--points", str(pts),
            "--net", str(net),
            "--format", "json",
            "--out", str(out),
        ]
    )
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert doc["certified_upper"] is None
    assert 0.0 < doc["value"] < 2.0
    assert doc["net_delta"] == 0.5


def _write_both_formats(tmp_path, argv):
    """The CSV text and the parsed JSON that argv writes under each --format."""
    texts = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"record.{fmt}"
        main(argv + ["--format", fmt, "--out", str(out)])
        texts[fmt] = out.read_text()
    return texts["csv"], json.loads(texts["json"], parse_constant=_reject_constant)


def _assert_csv_cells_are_json_reprs(csv, doc):
    """Each CSV cell is the repr of its JSON value, and inf where the JSON has null."""
    header, row = csv.splitlines()
    cells = dict(zip(header.split(","), row.split(","), strict=True))
    assert cells == {k: "inf" if v is None else repr(v) for k, v in doc.items()}


@pytest.mark.parametrize(
    "dim, net_delta, net",
    [(2, "0.05", "built"), (2, "0.1", "loaded"), (4, "0.5", "uncertified"), (4, "0.5", "built")],
    ids=["built-net", "loaded-net", "uncertified", "built-net-d4"],
)
def test_distance_csv_agrees_with_its_json(tmp_path, dim, net_delta, net):
    body = tmp_path / "ball.json"
    save_body(Ball(center=np.zeros(dim), radius=1.0), body)
    pts = tmp_path / "points.csv"
    main(["sample", "--body", str(body), "--n", "200", "--seed", "7", "--out", str(pts)])
    argv = ["distance", "--body", str(body), "--points", str(pts), "--seed", "1"]
    net_path = tmp_path / "net.json"
    if net == "built":
        argv += ["--net-delta", net_delta]
    elif net == "loaded":
        main(["net", "build", "--d", str(dim), "--delta", net_delta, "--out", str(net_path)])
        argv += ["--net", str(net_path)]
    else:
        _write_uncertified_net(net_path, dim, float(net_delta))
        argv += ["--net", str(net_path)]
    csv, doc = _write_both_formats(tmp_path, argv)
    _assert_csv_cells_are_json_reprs(csv, doc)
    # only a net JSON that says it is uncertified gives inf in the CSV and
    # null in the JSON; every built net certifies a bound above the value
    if net == "uncertified":
        assert doc["certified_upper"] is None
    else:
        assert doc["certified_upper"] >= doc["value"]


def test_bound_csv_is_pinned_and_agrees_with_its_json(tmp_path):
    argv = ["bound", "--params", '{"alpha": 1.5, "L": 0.4244, "eps0": 1.0}']
    argv += ["--d", "2", "--n", "10000", "--x", "20.0"]
    csv, doc = _write_both_formats(tmp_path, argv)
    _assert_csv_cells_are_json_reprs(csv, doc)
    assert csv == (
        "x,threshold,tail,a_n,b_n,tau1\n"
        "20.0,0.1267895415004814,4.707230394607498e-15,"
        "0.020306076949603017,0.0021544346900318843,3.1416902293433866\n"
    )


def test_rates_csv_schema(tmp_path, config_path):
    out = tmp_path / "rates.csv"
    main(["rates", "--config", str(config_path), "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,mean_metric_q,stderr,reps"
    assert len(lines) == 3


def test_rates_config_without_reps_is_a_value_error_that_names_it(tmp_path, config_path):
    path = tmp_path / "no_reps.yaml"
    lines = config_path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("reps:")))
    with pytest.raises(ValueError, match="ExperimentConfig needs the key 'reps'"):
        main(["rates", "--config", str(path)])


def test_rates_json_and_seed_override(tmp_path, config_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main(["rates", "--config", str(config_path), "--format", "json", "--out", str(out1)])
    main(
        [
            "rates",
            "--config", str(config_path),
            "--format", "json",
            "--seed", "999",
            "--out", str(out2),
        ]
    )
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert d1["config"]["master_seed"] == 12
    assert d2["config"]["master_seed"] == 999
    assert d1["means"] != d2["means"]


def test_rates_json_is_strict_and_the_same_on_stdout_and_in_the_file(
    tmp_path, config_path, capsys
):
    # two grid points leave the slope no degrees of freedom, so ci_half is inf
    argv = ["rates", "--config", str(config_path), "--format", "json"]
    main(argv)
    printed = capsys.readouterr().out
    out = tmp_path / "rates.json"
    main(argv + ["--out", str(out)])
    assert out.read_text() == printed
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert doc["ci_half"] is None


def test_deviation_csv_schema(tmp_path, ball_path):
    cfg = ExperimentConfig(
        body=Ball(center=[0.0, 0.0], radius=1.0),
        mode="interior",
        n_grid=[400],
        reps=10,
        metric="hausdorff",
        net_delta=0.05,
        master_seed=12,
    )
    cpath = ball_path.parent / "dev.yaml"
    save_experiment_config(cfg, cpath)
    out = ball_path.parent / "dev.csv"
    main(
        [
            "deviation",
            "--config", str(cpath),
            "--x-max", "6.0",
            "--x-points", "4",
            "--out", str(out),
        ]
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,threshold,empirical_survival,theoretical_tail"
    assert len(lines) == 5


def test_lower_bound_family_json(tmp_path):
    out = tmp_path / "family.json"
    main(
        [
            "lower-bound-family",
            "--d", "2",
            "--R", "1.0",
            "--delta", "0.2",
            "--alpha-bump", "0.02",
            "--out", str(out),
        ]
    )
    doc = json.loads(out.read_text())
    assert doc["packing_size"] >= 10
    assert doc["pairwise_hausdorff"] == pytest.approx(0.02 * 0.2**2, abs=1e-10)
    assert doc["bodies"][0]["kind"] == "ball"
    assert all(b["kind"] == "bump_ball" for b in doc["bodies"][1:])


def test_missing_required_flag_exits_nonzero(ball_path):
    with pytest.raises(SystemExit):
        main(["sample", "--n", "10"])


# Each subcommand's required flags, enough to parse: no file is opened.
REQUIRED = {
    "sample": ["sample", "--body", "b.json", "--n", "10"],
    "net build": ["net", "build", "--d", "2", "--delta", "0.5"],
    "distance": ["distance", "--body", "b.json", "--points", "p.csv"],
    "bound": ["bound", "--params", "{}", "--d", "2", "--n", "10", "--x", "1"],
    "check-class": ["check-class", "--body", "b.json", "--family", "smooth"],
    "rates": ["rates", "--config", "c.yaml"],
    "deviation": ["deviation", "--config", "c.yaml"],
    "lower-bound-family": ["lower-bound-family", "--d", "2", "--delta", "0.2"],
}

SHARED = {"--seed": "3", "--threads": "2", "--out": "o", "--format": "json", "--config": "c.yaml"}

READS = {
    "sample": ("--seed", "--out"),
    "net build": ("--seed", "--out"),
    "check-class": ("--seed", "--out"),
    "distance": ("--seed", "--format", "--out"),
    "bound": ("--format", "--out"),
    "rates": tuple(SHARED),
    "deviation": tuple(SHARED),
    "lower-bound-family": ("--out",),
}

KEPT = [(cmd, flag) for cmd, flags in READS.items() for flag in flags]
UNREAD = [(cmd, flag) for cmd, flags in READS.items() for flag in SHARED if flag not in flags]
# a removed flag is the same usage error
UNREAD += [("net build", "--streak"), ("distance", "--mode")]
VALUES = {**SHARED, "--streak": "5", "--mode": "interior"}


@pytest.mark.parametrize("command, flag", KEPT)
def test_a_flag_the_handler_reads_parses(command, flag):
    args = build_parser().parse_args(REQUIRED[command] + [flag, SHARED[flag]])
    value = getattr(args, flag[2:])
    assert str(value) == SHARED[flag]


@pytest.mark.parametrize("command, flag", UNREAD)
def test_a_flag_the_handler_does_not_read_is_a_usage_error(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(REQUIRED[command] + [flag, VALUES[flag]])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rates", "deviation"])
def test_rates_and_deviation_need_config(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("given", [[], ["--alpha", "3"], ["--eps0", "0.5"]])
def test_check_class_fit_without_alpha_or_eps0_is_a_usage_error(capsys, given):
    with pytest.raises(SystemExit) as exc:
        main(REQUIRED["check-class"][:-1] + ["fit"] + given)
    assert exc.value.code == 2
    assert "--family fit needs --alpha and --eps0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, mode, needs",
    [("smooth", "boundary", "interior"), ("boundary", "interior", "boundary")],
)
def test_check_class_family_that_contradicts_the_mode_is_a_usage_error(capsys, family, mode, needs):
    # b.json does not exist: the usage error comes before the body is read
    with pytest.raises(SystemExit) as exc:
        main(["check-class", "--body", "b.json", "--family", family, "--mode", mode])
    assert exc.value.code == 2
    assert f"--family {family} needs --mode {needs}" in capsys.readouterr().err


@pytest.mark.parametrize("family, mode", [("smooth", "interior"), ("boundary", "boundary")])
def test_check_class_family_implies_its_mode(tmp_path, ball_path, family, mode):
    outs = []
    for given in ([], ["--mode", mode]):
        outs.append(tmp_path / f"class{len(given)}.json")
        argv = ["check-class", "--body", str(ball_path), "--family", family]
        main(argv + ["--u-probes", "4", "--n-mc", "2000", "--out", str(outs[-1])] + given)
    assert outs[0].read_text() == outs[1].read_text()
    assert json.loads(outs[0].read_text())["mode"] == mode


@pytest.mark.parametrize("family", ["smooth", "boundary"])
def test_check_class_reads_r_from_the_body(tmp_path, capsys, family):
    # r = min(1, rolling radius): 1/2 for a radius-1/2 disc
    disc = tmp_path / "disc.json"
    save_body(Ball(center=[0.0, 0.0], radius=0.5), disc)
    out = tmp_path / "class.json"
    main(["check-class", "--body", str(disc), "--family", family, "--out", str(out)])
    assert json.loads(out.read_text())["params"]["eps0"] == 0.5
    # a body that states no rolling radius has no r
    square = tmp_path / "square.json"
    save_body(PolytopeV(vertices=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), square)
    with pytest.raises(SystemExit) as exc:
        main(["check-class", "--body", str(square), "--family", family])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--family {family} on {square}: no analytic class parameters for PolytopeV" in err


@pytest.mark.parametrize("threads", ["0", "-3", "1.5", "two"])
def test_threads_below_one_or_not_an_integer_is_a_usage_error(capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["rates", "--config", "c.yaml", "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


# the README's example runs: each config under configs/<subcommand>/, and the
# dented-ball family
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
EXAMPLES = {
    f"{p.parent.name}/{p.stem}": [p.parent.name, "--config", str(p), "--format", "json"]
    for p in CONFIGS.glob("*/*.yaml")
}
EXAMPLES["lower-bound-family"] = ["lower-bound-family", "--d", "2", "--delta", "0.1"]


def test_the_example_configs_are_shipped():
    assert sorted(EXAMPLES) == [
        "deviation/disc",
        "lower-bound-family",
        "rates/ellipsoid_interior",
        "rates/polytope_interior",
        "rates/smooth_boundary",
        "rates/smooth_interior",
    ]


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_an_example_run_passes_its_check(tmp_path, name):
    out = tmp_path / "out.json"
    argv = EXAMPLES[name]
    main(argv + ["--out", str(out)])
    doc = json.loads(out.read_text())
    if argv[0] == "rates":
        assert math.isfinite(doc["slope"])
    elif argv[0] == "deviation":
        assert doc["violations"] == 0
    else:
        assert doc["packing_size"] == len(doc["bodies"]) - 1 == 32
        assert doc["pairwise_hausdorff"] == pytest.approx(1e-4, rel=1e-12)
