"""Hull support estimators and distance/functional plug-ins."""

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from randhull import estimators
from randhull.estimators import (
    HullSupport,
    d_l_estimate,
    functional_s,
    functional_t,
    hausdorff_to_body,
    hull_support,
    hull_points,
    hull_support_batch,
    lp_error,
    support_values,
)
from randhull.geometry import Ball, Ellipsoid, PolytopeV, support_batch
from randhull.nets import blocked_max_dot, build_net
from randhull.sampling import SampleCloud, sample

BALL2 = Ball(center=[0.0, 0.0], radius=1.0)


def corner_cloud():
    """Four unit-norm points at 45-degree positions, a square inscribed in
    the unit circle."""
    ang = np.deg2rad([45.0, 135.0, 225.0, 315.0])
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    return SampleCloud(points=pts, body=BALL2, mode="boundary", seed=0, n=4)


def spaced_circle_cloud(m):
    ang = 2.0 * math.pi * np.arange(m) / m
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    return SampleCloud(points=pts, body=BALL2, mode="boundary", seed=0, n=m)


# ---------------------------------------------------------------------------
# hull support


def test_hull_support_is_max_of_dots():
    cloud = corner_cloud()
    s = math.sqrt(2.0) / 2.0
    assert hull_support(cloud, np.array([1.0, 0.0])) == pytest.approx(s, abs=1e-12)
    assert hull_support(cloud, np.array([s, s])) == pytest.approx(1.0, abs=1e-12)


def test_hull_support_batch_matches_single():
    cloud = sample(BALL2, "interior", 200, seed=31)
    dirs = np.array([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])
    batch = hull_support_batch(cloud, dirs)
    singles = [hull_support(cloud, u) for u in dirs]
    np.testing.assert_allclose(batch, singles, atol=1e-14)


def test_hull_support_rejects_empty_cloud():
    empty = SampleCloud(
        points=np.empty((0, 2)), body=BALL2, mode="interior", seed=0, n=0
    )
    with pytest.raises(ValueError):
        hull_support_batch(empty, np.array([[1.0, 0.0]]))


def test_hull_never_exceeds_body_support():
    cloud = sample(BALL2, "interior", 500, seed=32)
    dirs = build_net(2, 0.1, seed=1).points
    hull_vals = hull_support_batch(cloud, dirs)
    body_vals = support_batch(BALL2, dirs)
    assert np.all(hull_vals <= body_vals + 1e-12)


def test_support_values_dispatch():
    cloud = corner_cloud()
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    from_cloud = support_values(cloud, dirs)
    from_callable = support_values(HullSupport(cloud), dirs)
    from_body = support_values(BALL2, dirs)
    np.testing.assert_allclose(from_cloud, from_callable, atol=1e-14)
    np.testing.assert_allclose(from_body, [1.0, 1.0], atol=1e-14)


# ---------------------------------------------------------------------------
# hull reduction: Qhull vertices stand in for the cloud


def _rotation(d, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q


REDUCIBLE = {
    "ball2": Ball(center=[0.0, 0.0], radius=1.0),
    "ball3": Ball(center=[0.1, -0.2, 0.3], radius=0.8),
    "ellipsoid2": Ellipsoid(center=[0.2, 0.0], semi_axes=[0.9, 0.3], rotation=_rotation(2, 1)),
    "ellipsoid3": Ellipsoid(
        center=[0.0, 0.1, 0.0], semi_axes=[0.9, 0.5, 0.25], rotation=_rotation(3, 2)
    ),
    "square": PolytopeV(np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])),
    "cube": PolytopeV(
        np.array([[a, b, c] for a in (0.0, 0.5) for b in (0.0, 0.5) for c in (0.0, 0.5)])
    ),
}


@pytest.mark.parametrize("name", sorted(REDUCIBLE))
def test_interior_cloud_reduces_to_matching_hull_points(name):
    body = REDUCIBLE[name]
    d = body.dim
    cloud = sample(body, "interior", 20_000, seed=61)
    net = build_net(d, 0.01 if d == 2 else 0.05, seed=3)
    points, reduced, _ = hull_points(cloud)
    assert reduced
    assert len(points) < len(cloud.points) // 10
    full = blocked_max_dot(net.points, cloud.points)
    np.testing.assert_allclose(hull_support_batch(cloud, net.points), full, rtol=0.0, atol=1e-12)
    full_hausdorff = float((support_batch(body, net.points) - full).max())
    assert hausdorff_to_body(body, cloud, net).net_value == full_hausdorff


def _kept_whole(cloud):
    points, reduced, _ = hull_points(cloud)
    return points is cloud.points and not reduced


DEGENERATE = {
    "one_point": [[0.3, -0.2]],
    "n_equals_d": [[0.1, 0.2], [-0.4, 0.5]],
    "collinear": [[0.0, 0.0], [0.1, 0.1], [0.3, 0.3], [-0.2, -0.2]],
    "one_point_repeated": [[0.2, 0.1]] * 5,
    "flat_in_3d": [[0.1, 0.0, 0.2], [0.0, 0.3, 0.2], [-0.2, -0.1, 0.2], [0.3, 0.3, 0.2]],
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_cloud_falls_back_to_full_cloud(name):
    pts = np.asarray(DEGENERATE[name], dtype=float)
    d = pts.shape[1]
    body = Ball(center=np.zeros(d), radius=1.0)
    cloud = SampleCloud(points=pts, body=body, mode="interior", seed=0, n=len(pts))
    assert _kept_whole(cloud)
    dirs = build_net(d, 0.2, seed=1).points
    np.testing.assert_array_equal(hull_support_batch(cloud, dirs), blocked_max_dot(dirs, pts))


def test_repeated_points_still_reduce_and_match():
    cloud = sample(BALL2, "interior", 2000, seed=62)
    pts = np.vstack([cloud.points, cloud.points[::3]])
    doubled = SampleCloud(points=pts, body=BALL2, mode="interior", seed=0, n=len(pts))
    assert hull_points(doubled)[1]
    dirs = build_net(2, 0.01, seed=4).points
    np.testing.assert_allclose(
        hull_support_batch(doubled, dirs), blocked_max_dot(dirs, pts), rtol=0.0, atol=1e-12
    )


def _forbid_qhull(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Qhull ran on a cloud the rule keeps whole")

    monkeypatch.setattr(estimators, "ConvexHull", refuse)


def test_boundary_cloud_skips_qhull(monkeypatch):
    _forbid_qhull(monkeypatch)
    cloud = sample(Ball(center=np.zeros(3), radius=1.0), "boundary", 500, seed=63)
    assert _kept_whole(cloud)


def test_high_dimensional_cloud_skips_qhull(monkeypatch):
    _forbid_qhull(monkeypatch)
    cloud = sample(Ball(center=np.zeros(4), radius=1.0), "interior", 500, seed=64)
    assert _kept_whole(cloud)


# ---------------------------------------------------------------------------
# octagon pre-filter: the same hull points as Qhull on the full cloud


def _unfiltered_hull_points(points):
    """hull_points without the pre-filter: Qhull on every point of the cloud."""
    try:
        hull = ConvexHull(points)
    except QhullError:
        return points, False
    return points[np.union1d(hull.vertices, hull.coplanar[:, 0])], True


def _interior_cloud(pts):
    pts = np.asarray(pts, dtype=float)
    body = Ball(center=np.zeros(pts.shape[1]), radius=1.0)
    return SampleCloud(points=pts, body=body, mode="interior", seed=0, n=len(pts))


def _triangle_with_edge_points(n, seed):
    """Interior points of a triangle plus a quarter of them on its slanted edges.

    The edge points round to either side of their edge, so the octagon's
    edges pass within roundoff of many points.
    """
    a, b, c = np.array([0.0, 0.0]), np.array([1.0, 0.1]), np.array([0.3, 0.9])
    rng = np.random.default_rng(seed)
    u, v = rng.random((2, n))
    flip = u + v > 1.0
    u[flip], v[flip] = 1.0 - u[flip], 1.0 - v[flip]
    inner = a + u[:, None] * (b - a) + v[:, None] * (c - a)
    t = rng.random((n // 4, 1))
    edges = np.vstack([b + t * (c - b), c + t[::-1] * (a - c)])
    return np.vstack([inner, edges])


_PREFILTER_BODIES = {
    "disc": Ball(center=[0.0, 0.0], radius=1.0),
    "thin_ellipse": Ellipsoid(center=[0.0, 0.0], semi_axes=[1.0, 0.01], rotation=_rotation(2, 5)),
    "square": PolytopeV(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])),
    "triangle": PolytopeV(np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 0.9]])),
    "far_disc": Ball(center=[1e6, -3e5], radius=1e-3),
    "off_centre_disc": Ball(center=[1e3, -3e2], radius=1.0),
    "tiny_disc": Ball(center=[0.0, 0.0], radius=1e-8),
}


def _assert_same_as_unfiltered(pts):
    cloud = _interior_cloud(pts)
    got = hull_points(cloud)
    want, reduced = _unfiltered_hull_points(cloud.points)
    assert np.array_equal(got.points, want)
    assert got.reduced == reduced
    return got


@pytest.fixture(params=[False, True], ids=["gated", "every_size"])
def prefilter_gate(request, monkeypatch):
    """Run with the gates as shipped, and with the filter on every cloud."""
    if request.param:
        monkeypatch.setattr(estimators, "_PREFILTER_MIN_POINTS", 1)
        monkeypatch.setattr(estimators, "_PREFILTER_PROBE_STRIDE", 1)
        monkeypatch.setattr(estimators, "_PREFILTER_MIN_DEEP", 0.0)


@pytest.mark.parametrize("n", [3, 4, 10, 1000, 100_000])
@pytest.mark.parametrize("name", sorted(_PREFILTER_BODIES))
def test_prefilter_returns_the_unfiltered_hull_points(name, n, prefilter_gate):
    body = _PREFILTER_BODIES[name]
    for seed in range(3 if n < 100_000 else 1):
        _assert_same_as_unfiltered(sample(body, "interior", n, seed=70 + seed).points)


def test_prefilter_sends_qhull_a_fraction_of_a_large_cloud():
    for name in ("disc", "square", "off_centre_disc", "tiny_disc"):
        cloud = sample(_PREFILTER_BODIES[name], "interior", 100_000, seed=71)
        hull = hull_points(cloud)
        assert hull.reduced
        assert hull.qhull_input < 20_000, name


def test_prefilter_skips_clouds_below_the_size_gate():
    n = estimators._PREFILTER_MIN_POINTS - 1
    assert hull_points(sample(BALL2, "interior", n, seed=72)).qhull_input == n


def test_prefilter_skips_a_loosely_fitting_octagon():
    # the octagon of a thin ellipse across the axes holds about a quarter of
    # it, so its probe stops the filter and Qhull gets the cloud whole
    cloud = sample(_PREFILTER_BODIES["thin_ellipse"], "interior", 100_000, seed=72)
    assert hull_points(cloud).qhull_input == 100_000
    fatter = Ellipsoid(center=[0.0, 0.0], semi_axes=[1.0, 0.3], rotation=_rotation(2, 5))
    assert hull_points(sample(fatter, "interior", 100_000, seed=72)).qhull_input < 50_000


@pytest.mark.parametrize("n", [10, 1000, 20_000])
def test_prefilter_on_points_along_hull_edges(n, prefilter_gate):
    for seed in range(5):
        got = _assert_same_as_unfiltered(_triangle_with_edge_points(n, seed))
        if n == 20_000:
            assert got.qhull_input < n


@pytest.mark.parametrize("half_width", [2, 5, 40])
def test_prefilter_on_integer_lattice_clouds(half_width, prefilter_gate):
    rng = np.random.default_rng(half_width)
    for n in (10, 1000, 5000):
        for _ in range(5):
            pts = rng.integers(-half_width, half_width + 1, size=(n, 2)).astype(float)
            _assert_same_as_unfiltered(pts)


def test_prefilter_on_repeated_points(prefilter_gate):
    pts = sample(BALL2, "interior", 3000, seed=73).points
    _assert_same_as_unfiltered(np.vstack([pts, pts[::3], pts[:1].repeat(50, axis=0)]))


@pytest.mark.parametrize("width", [0.0, 1e-14, 1e-7, 1e-3])
def test_prefilter_on_collinear_and_sliver_clouds(width, prefilter_gate):
    rng = np.random.default_rng(74)
    along, across = rng.random(5000), rng.random(5000) - 0.5
    rot = _rotation(2, 6)
    pts = np.column_stack([along, width * across]) @ rot.T
    got = _assert_same_as_unfiltered(pts)
    if width == 0.0:
        assert not got.reduced


def test_prefilter_drops_only_points_beyond_the_margin():
    # the unit square, shifted and scaled; the margin is 1e-9 of its largest
    # coordinate, and points sit above its bottom edge by the inset
    for shift, scale in ((0.0, 1.0), (1e6, 1.0), (0.0, 1e-8), (-3e5, 1e3)):
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        poly = [(shift + scale * a, shift + scale * b) for a, b in corners]
        margin = 1e-9 * max(abs(c) for corner in poly for c in corner)
        inset = np.array([0.0, 0.1 * margin, 0.9 * margin, 2.0 * margin, 0.5 * scale])
        x = np.full(len(inset), shift + 0.5 * scale)
        deep = estimators._deep_inside(x, shift + inset, poly)
        np.testing.assert_array_equal(deep, [False, False, False, True, True])
        assert not estimators._deep_inside(x, shift - inset, poly).any()


def test_prefilter_nan_row_still_raises():
    for n in (20, 5000):
        pts = sample(BALL2, "interior", n, seed=75).points.copy()
        pts[n // 2, 1] = np.nan
        with pytest.raises(ValueError):
            hull_points(_interior_cloud(pts))


def test_prefilter_inf_row_falls_back_to_the_full_cloud():
    for n in (20, 5000):
        pts = sample(BALL2, "interior", n, seed=76).points.copy()
        pts[n // 3, 0] = np.inf
        cloud = _interior_cloud(pts)
        got = hull_points(cloud)
        assert got.points is cloud.points and not got.reduced
        assert got.qhull_input == n


def _forbid_prefilter(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the octagon pre-filter ran on a cloud outside d = 2 interior")

    monkeypatch.setattr(estimators, "_octagon_survivors", refuse)


def test_prefilter_skips_boundary_and_higher_dimensional_clouds(monkeypatch):
    _forbid_prefilter(monkeypatch)
    boundary = sample(BALL2, "boundary", 5000, seed=77)
    assert _kept_whole(boundary) and hull_points(boundary).qhull_input == 0
    ball3 = sample(Ball(center=np.zeros(3), radius=1.0), "interior", 5000, seed=78)
    assert hull_points(ball3).qhull_input == 5000
    ball4 = sample(Ball(center=np.zeros(4), radius=1.0), "interior", 5000, seed=79)
    assert _kept_whole(ball4)


def test_functional_s_reduces_a_cloud_once(monkeypatch):
    calls = []
    real = estimators.hull_points
    monkeypatch.setattr(estimators, "hull_points", lambda c: calls.append(c) or real(c))
    cloud = sample(BALL2, "interior", 1000, seed=65)
    functional_s(cloud, 2.0, quad_n=64, quad_seed=1)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# sup-distance plug-ins


def test_hausdorff_window_for_spaced_boundary_points():
    net = build_net(2, 0.01, seed=2)
    m = 4
    true_gap = 1.0 - math.cos(math.pi / m)
    res = hausdorff_to_body(BALL2, spaced_circle_cloud(m), net)
    # the net maximum never exceeds the true sup and misses it by at most
    # the Lipschitz constant (2 for unit-scale bodies) times the cover radius
    assert res.net_value <= true_gap + 1e-12
    assert res.net_value >= true_gap - 2.0 * net.cover_radius
    assert res.certified_upper >= true_gap - 1e-12
    assert res.net_delta == pytest.approx(0.01)


def test_hausdorff_shrinks_with_more_points():
    net = build_net(2, 0.02, seed=3)
    v_small = hausdorff_to_body(BALL2, spaced_circle_cloud(8), net).net_value
    v_large = hausdorff_to_body(BALL2, spaced_circle_cloud(64), net).net_value
    assert v_large < v_small


def test_dl_equals_hausdorff_for_centered_unit_ball():
    net = build_net(2, 0.05, seed=4)
    cloud = sample(BALL2, "interior", 300, seed=33)
    dh = hausdorff_to_body(BALL2, cloud, net).net_value
    dl = d_l_estimate(BALL2, np.zeros(2), cloud, net)
    assert dl == pytest.approx(dh, abs=1e-12)


def test_dl_rejects_non_interior_center():
    net = build_net(2, 0.05, seed=4)
    cloud = sample(BALL2, "interior", 50, seed=34)
    with pytest.raises(ValueError):
        d_l_estimate(BALL2, np.array([1.5, 0.0]), cloud, net)


# ---------------------------------------------------------------------------
# averaged metrics and functionals


def test_lp_error_square_in_circle_closed_form():
    # mean support deficit of the inscribed square: 1 - 2*sqrt(2)/pi
    val = lp_error(BALL2, corner_cloud(), p=1.0, quad_n=200000, quad_seed=8)
    assert val == pytest.approx(1.0 - 2.0 * math.sqrt(2.0) / math.pi, abs=1e-3)


def test_lp_error_infinite_p_is_sup_deficit():
    cloud = spaced_circle_cloud(16)
    val = lp_error(BALL2, cloud, p=math.inf, quad_n=100000, quad_seed=9)
    true_gap = 1.0 - math.cos(math.pi / 16)
    assert val <= true_gap + 1e-12
    assert val >= true_gap * 0.98


def test_lp_error_rejects_small_p():
    with pytest.raises(ValueError):
        lp_error(BALL2, corner_cloud(), p=0.5, quad_n=100, quad_seed=0)


def test_mean_width_of_body_is_exact_for_ball():
    # every direction gives width 2 for the unit ball, so the sampled mean
    # is exactly 2 regardless of the quadrature draw
    assert functional_s(BALL2, 1.0, 512, quad_seed=10) == pytest.approx(
        2.0, abs=1e-12
    )


def test_mean_width_of_inscribed_square():
    val = functional_s(corner_cloud(), 1.0, 200000, quad_seed=11)
    assert val == pytest.approx(4.0 * math.sqrt(2.0) / math.pi, abs=2e-3)


def test_sup_functional_of_cloud_near_one():
    val = functional_t(corner_cloud(), math.inf, 4096, quad_seed=12)
    assert 1.0 - 5e-4 <= val <= 1.0 + 1e-12


def test_functional_consistency_body_vs_exact_hull():
    # a dense boundary cloud nearly reproduces the body functional
    cloud = spaced_circle_cloud(512)
    body_val = functional_t(BALL2, 2.0, 4096, quad_seed=13)
    cloud_val = functional_t(cloud, 2.0, 4096, quad_seed=13)
    assert cloud_val == pytest.approx(body_val, rel=1e-3)
    assert cloud_val <= body_val + 1e-12
