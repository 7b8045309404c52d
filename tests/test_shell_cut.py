"""The shell cut: ball and ellipsoid interior clouds in d = 2 and 3 reach Qhull
through their points outside an inner homothet, and the hull is the full
cloud's."""

import logging

import numpy as np
import pytest

from randhull import estimators, sampling
from randhull.estimators import hull_points, sample_hull_points
from randhull.experiments import ExperimentConfig, replication_seed, run_rate_experiment
from randhull.geometry import Ball, Ellipsoid
from randhull.sampling import sample


def _rotation(d: int, seed: int) -> np.ndarray:
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0]


BODIES = {
    "disc": Ball(center=[0.0, 0.0], radius=1.0),
    "disc_off": Ball(center=[0.75, -1.5], radius=2.5),
    "ellipse": Ellipsoid(center=[0.0, 0.0], semi_axes=[1.0, 0.8], rotation=np.eye(2)),
    "ellipse_off": Ellipsoid(center=[0.5, -1.0], semi_axes=[2.0, 0.5], rotation=_rotation(2, 3)),
    "ball3": Ball(center=[0.0, 0.0, 0.0], radius=1.0),
    "ball3_off": Ball(center=[0.75, -1.5, 3.0], radius=0.4),
    "ellipsoid3": Ellipsoid(center=[0.0, 0.0, 0.0], semi_axes=[1.0, 0.9, 0.8], rotation=np.eye(3)),
    "ellipsoid3_off": Ellipsoid(
        center=[0.0, 1.0, -2.0], semi_axes=[1.2, 0.8, 1.0], rotation=_rotation(3, 8)
    ),
}


def _clouds(body, n_grid, seeds):
    for n in n_grid:
        for seed in seeds:
            yield sample(body, "interior", n, 1000 * n + seed)


@pytest.mark.parametrize("name", BODIES)
def test_cut_hull_points_are_the_full_cloud_hull_points(name):
    # 200 fixed seeds per body, n from d + 2 to 1e4; the cut holds on every
    # cloud of 100 points or more
    body = BODIES[name]
    d = body.dim
    for cloud in _clouds(body, (d + 2, 10, 30, 100, 300, 1000, 3000, 10_000), range(25)):
        hull, cut = sample_hull_points(cloud)
        assert np.array_equal(hull.points, hull_points(cloud.points).points)
        if cloud.n >= 100:
            assert cut is True and hull.qhull_input == len(cloud.outer)


@pytest.mark.parametrize("name", BODIES)
def test_cut_hull_points_at_n_1e5(name):
    for cloud in _clouds(BODIES[name], (100_000,), range(2)):
        hull, cut = sample_hull_points(cloud)
        assert cut is True
        assert len(cloud.outer) < cloud.n // 10
        assert np.array_equal(hull.points, hull_points(cloud.points).points)


@pytest.mark.parametrize("name", BODIES)
def test_cut_that_cannot_cover_falls_back_to_the_full_cloud(name, monkeypatch):
    # a shell this thin holds too few points for their hull to reach round
    # the inner homothet
    monkeypatch.setattr(sampling, "_SHELL_WIDTH", 0.05)
    for cloud in _clouds(BODIES[name], (20_000,), range(3)):
        assert len(cloud.outer) > cloud.dim
        hull, cut = sample_hull_points(cloud)
        full = hull_points(cloud.points)
        assert cut is False
        assert np.array_equal(hull.points, full.points)
        assert np.array_equal(hull.equations, full.equations)
        assert hull.qhull_input == len(cloud.outer) + full.qhull_input


@pytest.mark.parametrize(
    "name, n", [("disc", 1), ("ellipse_off", 3), ("ball3", 1), ("ball3_off", 5), ("ellipsoid3_off", 8)]
)
def test_no_cut_where_the_inner_scale_is_not_positive(name, n):
    cloud = sample(BODIES[name], "interior", n, seed=4)
    assert cloud.inner_scale is None and cloud.outer is None
    hull, cut = sample_hull_points(cloud)
    assert cut is None
    assert np.array_equal(hull.points, hull_points(cloud.points).points)


def test_inner_scale_and_outer_points():
    body = BODIES["ellipsoid3_off"]
    cloud = sample(body, "interior", 4000, seed=6)
    s = 1.0 - 2.0 * (np.log(4000) / 4000) ** 0.5
    assert cloud.inner_scale == s
    # outer points lie outside the homothet, the others inside, up to roundoff
    z = (cloud.points - body.center) @ body.rotation / body.semi_axes
    norm = np.linalg.norm(z, axis=1)
    outside = np.zeros(cloud.n, dtype=bool)
    outside[cloud.outer] = True
    assert np.all(np.diff(cloud.outer) > 0)
    assert np.all(norm[outside] >= s * (1 - 1e-12))
    assert np.all(norm[~outside] < s * (1 + 1e-12))


@pytest.mark.parametrize("body", [BODIES["disc"], BODIES["ellipse"]], ids=["disc", "ellipse"])
def test_cut_keeps_the_clouds_bits(body):
    # recording the cut changes no drawn point
    n = 5000
    cut = sample(body, "interior", n, seed=9).points
    rng = sampling.stream(9, 0)
    plain, _ = sampling._sample_interior(body, n, rng)
    assert np.array_equal(cut, plain)


@pytest.mark.parametrize("name", ["disc_off", "ellipse_off", "ball3_off", "ellipsoid3_off"])
def test_thread_count_keeps_the_means(name):
    cfg = ExperimentConfig(
        body=BODIES[name], mode="interior", n_grid=[300, 3000], reps=4, master_seed=11
    )
    assert run_rate_experiment(cfg, threads=1).means == run_rate_experiment(cfg, threads=3).means


@pytest.mark.parametrize("name", ["disc", "ellipsoid3_off"])
def test_passing_cut_makes_one_qhull_call_per_replication(name, monkeypatch, caplog):
    calls = []
    qhull_keep = estimators._qhull_keep

    def counted(points):
        calls.append(len(points))
        return qhull_keep(points)

    monkeypatch.setattr(estimators, "_qhull_keep", counted)
    cfg = ExperimentConfig(
        body=BODIES[name], mode="interior", n_grid=[1000, 10_000], reps=3, master_seed=5
    )
    with caplog.at_level(logging.DEBUG, logger="randhull"):
        run_rate_experiment(cfg)
    messages = [r.getMessage() for r in caplog.records]
    assert "shell cut: 6 of 6 clouds cut at the inner homothet, 0 fell back to the full cloud" in messages
    assert len(calls) == 6
    assert f"hull pre-filter: {sum(calls)} of 33000 sampled points passed to Qhull" in messages


def test_rate_experiment_logs_the_fallback(monkeypatch, caplog):
    monkeypatch.setattr(sampling, "_SHELL_WIDTH", 0.05)
    cfg = ExperimentConfig(
        body=BODIES["disc"], mode="interior", n_grid=[5000, 20_000], reps=2, master_seed=5
    )
    passed = sum(
        sample_hull_points(
            sample(cfg.body, "interior", n, replication_seed(cfg.master_seed, i, r))
        )[0].qhull_input
        for i, n in enumerate(cfg.n_grid)
        for r in range(cfg.reps)
    )
    with caplog.at_level(logging.DEBUG, logger="randhull"):
        run_rate_experiment(cfg)
    messages = [r.getMessage() for r in caplog.records]
    assert "shell cut: 4 of 4 clouds cut at the inner homothet, 4 fell back to the full cloud" in messages
    assert f"hull pre-filter: {passed} of 50000 sampled points passed to Qhull" in messages
