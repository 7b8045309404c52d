"""Direction nets: packing/covering guarantees and chained decompositions."""

import logging
import math

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given
from hypothesis import strategies as st

from randhull import nets
from randhull.estimators import HullMetric, MetricSpec, pairwise_hausdorff_certified
from randhull.experiments import _KEY_NET, ExperimentConfig, write_json
from randhull.geometry import Ball, PolytopeV, support_batch
from randhull.nets import (
    blocked_max_dot,
    build_net,
    decompose,
    load_net,
    net_from_dict,
    net_to_dict,
    sup_certificate,
)
from randhull.sampling import derived_seed, stream, unit_directions


def probe_dirs(n, d, seed=777):
    return unit_directions(stream(seed), n, d)


# ---------------------------------------------------------------------------
# blocked reductions


@given(st.integers(1, 40), st.integers(1, 60), st.integers(2, 4))
def test_blocked_max_dot_matches_dense(m, n, d):
    rng = np.random.Generator(np.random.Philox(m * 1000 + n * 10 + d))
    dirs = rng.normal(size=(m, d))
    pts = rng.normal(size=(n, d))
    dense = (dirs @ pts.T).max(axis=1)
    np.testing.assert_allclose(blocked_max_dot(dirs, pts), dense, atol=1e-12)


# ---------------------------------------------------------------------------
# construction invariants


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("delta", [0.3, 0.1, 0.05])
def test_net_packing_covering_cardinality(d, delta):
    net = build_net(d, delta, seed=42)
    assert net.certified
    assert net.min_pairwise_distance() >= delta * (1.0 - 1e-12)
    assert net.cover_radius <= delta * (1.0 + 1e-12)
    assert len(net.points) <= (3.0 / delta) ** d
    np.testing.assert_allclose(
        np.linalg.norm(net.points, axis=1), 1.0, atol=1e-12
    )
    dist = net.coverage_distances(probe_dirs(100_000, d))
    assert float(dist.max()) <= delta * (1.0 + 1e-12)


def _circle_cover(m):
    return 2.0 * math.sin(math.pi / (2 * m))


def _closed_form_deltas():
    # a dense grid up to delta = 1, plus the deltas at which
    # pi / (2 asin(delta / 2)) lies within 1e-12 of an integer m, where its
    # ceiling overshoots the least m (as next to m = 50) or undershoots it
    # (as next to m = 131)
    edges = []
    for m in (3, 4, 5, 7, 16, 32, 50, 100, 131, 333, 1000):
        c = _circle_cover(m)
        edges += [np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)]
    for x in edges:
        ratio = math.pi / (2.0 * math.asin(x / 2.0))
        assert abs(ratio - round(ratio)) < 1e-12
    return [float(x) for x in np.concatenate([np.linspace(0.002, 1.0, 250), edges])]


def test_circle_net_is_the_least_equally_spaced_cover():
    rng = stream(41)
    for delta in _closed_form_deltas():
        net = build_net(2, delta, seed=3)
        m = len(net)
        assert m >= 3
        assert _circle_cover(m) <= delta
        assert m == 3 or _circle_cover(m - 1) > delta
        assert net.certified
        assert net.cover_radius == _circle_cover(m)
        assert net.cover_radius <= delta * (1.0 + 1e-12)
        assert net.min_pairwise_distance() > delta
        np.testing.assert_allclose(np.linalg.norm(net.points, axis=1), 1.0, atol=1e-12)
        # the gap midpoints are the farthest directions from the net
        mid = (2.0 * np.arange(m) + 1.0) * math.pi / m
        probes = np.vstack(
            [np.column_stack([np.cos(mid), np.sin(mid)]), unit_directions(rng, 500, 2)]
        )
        # distances as vector norms: the 2 - 2 u.v form loses digits at small delta
        near = net.points[np.argmax(probes @ net.points.T, axis=1)]
        assert float(np.linalg.norm(probes - near, axis=1).max()) <= delta * (1.0 + 1e-12)
        for u in probes[[0, m // 2, m, m + 1, m + 2]]:
            for depth in (0, 1, 3):
                bound = delta ** (depth + 1)
                assert decompose(net, u, depth).error <= bound * (1.0 + 1e-9)


def test_circle_net_ignores_seed():
    net = build_net(2, 0.1, seed=5)
    other = build_net(2, 0.1, seed=6)
    np.testing.assert_array_equal(other.points, net.points)
    assert other.cover_radius == net.cover_radius
    assert other.certified


def test_repaired_nets_are_pinned():
    # the Voronoi repair of d = 3 and of d = 4, each grown from the
    # cross-polytope
    net = build_net(3, 0.1, 0)
    assert len(net) == 812
    assert net.cover_radius == 0.09975658257512623
    assert net.certified
    net = build_net(4, 0.5, 2)
    assert len(net) == 132
    assert net.cover_radius == 0.46517563898894765
    assert net.certified


def test_circle_net_meets_covering_lower_bound():
    # every point covers an arc of at most 2*arcsin(delta/2) half-width, so a
    # covering needs at least pi / (2 arcsin(delta/2)) points
    for delta in (0.3, 0.1):
        net = build_net(2, delta, seed=9)
        min_needed = math.floor(math.pi / (2.0 * math.asin(delta / 2.0)))
        assert len(net.points) >= min_needed


def test_build_net_deterministic():
    # the Voronoi repair draws nothing, so no net depends on its seed
    for d, delta in ((3, 0.2), (3, 0.05), (4, 0.5)):
        a = build_net(d, delta, seed=5)
        for seed in (6, 12345):
            b = build_net(d, delta, seed=seed)
            np.testing.assert_array_equal(a.points, b.points)
            assert b.cover_radius == a.cover_radius
            assert b.seed == seed


def test_build_net_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_net(1, 0.1, seed=0)
    with pytest.raises(ValueError):
        build_net(2, 0.0, seed=0)
    with pytest.raises(ValueError):
        build_net(2, 1.5, seed=0)


@pytest.mark.parametrize("d, delta", [(4, 0.5), (4, 0.4), (4, 0.3), (5, 0.5)])
def test_higher_dimension_nets_are_certified_coverings(d, delta):
    # the Voronoi repair's cover radius is exact: no fresh probe lies farther
    net = build_net(d, delta, seed=3)
    assert net.certified
    assert net.cover_radius <= delta
    assert net.min_pairwise_distance() >= delta
    dist = net.coverage_distances(probe_dirs(200_000, d, seed=4242))
    assert float(dist.max()) <= net.cover_radius + 1e-12


@pytest.mark.parametrize("d, delta", [(3, 0.3), (3, 0.1), (4, 0.5)])
def test_nets_grow_from_the_cross_polytope(d, delta):
    net = build_net(d, delta, seed=1)
    np.testing.assert_array_equal(net.points[: 2 * d], np.vstack([np.eye(d), -np.eye(d)]))


@pytest.mark.parametrize(
    "d, delta",
    [(3, 0.3), (3, 0.1), (3, 0.05), (4, 0.5), (4, 0.3)],
    ids=["0.3", "0.1", "0.05", "d4-0.5", "d4-0.3"],
)
def test_sphere_net_cover_radius_is_its_voronoi_radius(d, delta):
    # the covering radius of a point set on the sphere is attained at a
    # Voronoi vertex: read it against every net point, not just the generators
    net = build_net(d, delta, seed=0)
    sv = scipy.spatial.SphericalVoronoi(net.points, radius=1.0, threshold=1e-10)
    verts = sv.vertices / np.linalg.norm(sv.vertices, axis=1)[:, None]
    voronoi_cover = float(net.coverage_distances(verts).max())
    assert voronoi_cover <= delta * (1.0 + 1e-12)
    assert voronoi_cover == pytest.approx(net.cover_radius, abs=1e-7)


def test_fine_sphere_net_is_certified():
    net = build_net(3, 0.03, seed=0)
    assert net.certified
    assert net.cover_radius <= 0.03


@pytest.mark.parametrize(
    "error",
    [
        RuntimeError("coverage repair did not converge"),
        scipy.spatial.QhullError("QH6154 Qhull precision error"),
        TypeError("a bug, not a geometric failure"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_voronoi_repair_error_propagates(monkeypatch, caplog, error):
    def fail(pts, delta):
        raise error

    monkeypatch.setattr(nets, "_repair_sphere", fail)
    with caplog.at_level(logging.DEBUG, logger="randhull"):
        with pytest.raises(type(error)):
            build_net(3, 0.3, seed=5)
    assert caplog.records == []


def test_repair_that_does_not_converge_says_what_to_do():
    with pytest.raises(RuntimeError, match=r"d = 4 net at delta = 0\.3 did not converge in 2 "
                       r"repair rounds; use a larger delta"):
        nets._repair_sphere(np.vstack([np.eye(4), -np.eye(4)]), 0.3, max_rounds=2)


def test_rate_net_of_the_disc_configuration_is_pinned():
    # the net of the criterion-5 configuration (unit disc, master seed 1005)
    config = ExperimentConfig(
        body=Ball(center=[0.0, 0.0], radius=1.0),
        mode="interior",
        n_grid=[1000, 3000, 10000, 30000, 100000],
        reps=2,
        metric="hausdorff",
        master_seed=1005,
    )
    net = build_net(2, config.resolved_net_delta(), derived_seed(1005, _KEY_NET))
    assert len(net) == 404
    assert net.cover_radius == 0.00777619984689385
    assert net.certified


# ---------------------------------------------------------------------------
# decomposition


@pytest.mark.parametrize("delta", [0.3, 0.1])
def test_decompose_error_shrinks_geometrically(delta):
    net = build_net(2, delta, seed=11)
    u = np.array([math.cos(0.4), math.sin(0.4)])
    for depth in (0, 2, 5, 8):
        dec = decompose(net, u, depth)
        assert dec.error <= delta ** (depth + 1) + 1e-15


def test_decompose_reconstruction_identity():
    net = build_net(3, 0.2, seed=13)
    u = np.array([1.0, 2.0, -0.5])
    u /= np.linalg.norm(u)
    dec = decompose(net, u, depth=6)
    # u = approximation - residual
    np.testing.assert_allclose(dec.approximation(net), u + dec.residual, rtol=0, atol=1e-12)


def test_decompose_coefficients_bounded_by_powers():
    delta = 0.25
    net = build_net(2, delta, seed=17)
    u = np.array([0.6, -0.8])
    dec = decompose(net, u, depth=7)
    for j, (coeff, _) in enumerate(dec.terms, start=1):
        assert abs(coeff) <= delta**j + 1e-12


def test_decompose_of_net_point_is_exact():
    net = build_net(2, 0.2, seed=19)
    dec = decompose(net, net.points[3], depth=4)
    assert dec.error <= 1e-12


# ---------------------------------------------------------------------------
# certified sup bounds


def test_certified_sup_dominates_true_gap():
    net = build_net(2, 0.05, seed=23)
    # nested balls: the support gap is exactly 0.3 in every direction
    gap = support_batch(Ball([0.0, 0.0], 1.0), net.points) - support_batch(
        Ball([0.0, 0.0], 0.7), net.points
    )
    net_sup = float(gap.max())
    certified = sup_certificate(net, net_sup)
    assert net_sup == pytest.approx(0.3, abs=1e-12)
    assert certified >= 0.3
    assert certified <= 0.3 + 2.0 * 0.05 + 1e-12


def test_certificate_scales_with_the_radius_of_the_bodies():
    # a radius-1000 circle and the polygon on it at the directions of the
    # net: the net reads no gap, while the true one is R (1 - cos(g / 2))
    # for the widest angular gap g
    R = 1000.0
    net = build_net(2, 0.1, seed=23)
    ang = np.sort(np.arctan2(net.points[:, 1], net.points[:, 0]))
    widest = float(np.max(np.diff(np.append(ang, ang[0] + 2.0 * math.pi))))
    true_gap = R * (1.0 - math.cos(widest / 2.0))
    assert true_gap > 4.3
    ball = Ball(center=[0.0, 0.0], radius=R)
    cloud = R * net.points
    metric = HullMetric(MetricSpec("hausdorff"), ball, net=net)
    net_value = metric.reading(cloud)
    assert net_value <= 1e-9
    assert sup_certificate(net, net_value, R) >= true_gap
    # the facets read the ball's reach outside the polygon exactly
    assert metric.certified(cloud)[1] >= true_gap
    net_val, cert = pairwise_hausdorff_certified(ball, PolytopeV(R * net.points), net)
    assert net_val <= 1e-9
    assert cert >= true_gap


def test_certificate_of_uncertified_net_is_infinite():
    # every built net is certified; a net JSON can still say it is not
    net = net_from_dict({**net_to_dict(build_net(4, 0.5, seed=2)), "certified": False})
    assert not net.certified
    ball = Ball(center=np.zeros(4), radius=1.0)
    metric = HullMetric(MetricSpec("hausdorff"), ball, net=net)
    assert metric.certified(0.5 * net.points)[1] == math.inf
    assert sup_certificate(net, 0.0) == math.inf


def test_certificate_is_the_net_sup_plus_the_lipschitz_slack():
    # sup gap <= net_sup + 2 R delta: each support function is R-Lipschitz on
    # the sphere, and the net covers it at delta
    net = build_net(2, 0.05, seed=23)
    assert sup_certificate(net, 0.3) == 0.3 + 2.0 * 1.0 * 0.05
    assert sup_certificate(net, 0.01, radius=0.5) == 0.01 + 2.0 * 0.5 * 0.05
    # a certified net needs no delta <= 1/2
    assert sup_certificate(build_net(2, 0.8, seed=23), 0.0) == 2.0 * 1.0 * 0.8


# ---------------------------------------------------------------------------
# serialization


def test_net_save_load_round_trip(tmp_path):
    net = build_net(3, 0.25, seed=29)
    path = tmp_path / "net.json"
    write_json(net_to_dict(net), path)
    back = load_net(path)
    assert back.dim == net.dim
    assert back.delta == net.delta
    assert back.certified == net.certified
    assert back.cover_radius == net.cover_radius
    np.testing.assert_array_equal(back.points, net.points)
