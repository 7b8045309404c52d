"""Hull support estimators and the hull metric."""

import functools
import math

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial import ConvexHull, QhullError

from randhull import estimators
from randhull.estimators import (
    HullMetric,
    MetricSpec,
    hull_points,
    parse_metric,
    quadrature_directions,
)
from randhull.geometry import (
    Ball,
    BumpBall,
    Ellipsoid,
    PolytopeV,
    canonical_center,
    contains_batch,
    support_batch,
)
from randhull.nets import (
    blocked_max_dot,
    build_net,
    net_from_dict,
    net_to_dict,
    sup_certificate,
)
from randhull.sampling import sample

BALL2 = Ball(center=[0.0, 0.0], radius=1.0)


def corner_cloud():
    """Four unit-norm points at 45-degree positions, a square inscribed in
    the unit circle."""
    ang = np.deg2rad([45.0, 135.0, 225.0, 315.0])
    return np.column_stack([np.cos(ang), np.sin(ang)])


def spaced_circle_cloud(m):
    ang = 2.0 * math.pi * np.arange(m) / m
    return np.column_stack([np.cos(ang), np.sin(ang)])


def facet_value(metric, body, equations, center=None):
    """The metric from the hull's facets, as HullMetric reads it."""
    return HullMetric(parse_metric(metric), body, center=center).facet_value(equations)


def quadrature_metric(metric, body, quad_n, quad_seed):
    """The metric of a hull against the body, on quad_n seeded directions."""
    dirs = quadrature_directions(body.dim, quad_n, quad_seed)
    return HullMetric(parse_metric(metric), body, dirs=dirs)


# the hull of the origin alone has support 0 on every direction, so a
# functional metric reads the body's own functional on it
ORIGIN = np.zeros((1, 2))


# ---------------------------------------------------------------------------
# hull support


def hull_support_batch(cloud, dirs):
    """Support function of conv(cloud) on the direction rows, from its hull points."""
    return blocked_max_dot(dirs, hull_points(cloud).points)


def test_hull_support_is_max_of_dots():
    cloud = corner_cloud()
    s = math.sqrt(2.0) / 2.0
    h = hull_support_batch(cloud, np.array([[1.0, 0.0], [s, s]]))
    assert h[0] == pytest.approx(s, abs=1e-12)
    assert h[1] == pytest.approx(1.0, abs=1e-12)


def test_hull_support_batch_matches_single():
    cloud = sample(BALL2, "interior", 200, seed=31).points
    dirs = np.array([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])
    batch = hull_support_batch(cloud, dirs)
    singles = [hull_support_batch(cloud, u[None, :])[0] for u in dirs]
    np.testing.assert_allclose(batch, singles, atol=1e-14)


def test_hull_support_rejects_empty_cloud():
    with pytest.raises(ValueError):
        hull_support_batch(np.empty((0, 2)), np.array([[1.0, 0.0]]))


def test_hull_never_exceeds_body_support():
    cloud = sample(BALL2, "interior", 500, seed=32).points
    dirs = build_net(2, 0.1, seed=1).points
    hull_vals = hull_support_batch(cloud, dirs)
    body_vals = support_batch(BALL2, dirs)
    assert np.all(hull_vals <= body_vals + 1e-12)


def test_support_values_dispatch():
    # a functional metric reads a cloud on its hull points, and a body alone
    cloud = sample(BALL2, "interior", 500, seed=31).points
    metric = quadrature_metric("functional(T, inf)", BALL2, 64, 15)
    from_cloud, _, exact = metric.value(cloud)
    assert not exact
    np.testing.assert_allclose(from_cloud, metric.reading(cloud), atol=1e-14)
    for p in ("1", "inf"):
        body_val = quadrature_metric(f"functional(T, {p})", BALL2, 64, 15).reading(ORIGIN)
        assert body_val == pytest.approx(1.0, abs=1e-14)


def test_metric_reads_the_body_and_the_hull_support():
    cloud = corner_cloud()
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    metric = HullMetric(MetricSpec("lp", p=math.inf), BALL2, dirs=dirs)
    from_cloud = metric.reading(cloud)
    from_hull = metric.reading(hull_points(cloud).points)
    np.testing.assert_allclose(from_cloud, from_hull, atol=1e-14)
    assert from_hull == pytest.approx(1.0 - math.sqrt(2.0) / 2.0, abs=1e-14)
    np.testing.assert_allclose(metric.body_vals, [1.0, 1.0], atol=1e-14)


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
    cloud = sample(body, "interior", 20_000, seed=61).points
    net = build_net(d, 0.01 if d == 2 else 0.05, seed=3)
    points, reduced = hull_points(cloud)[:2]
    assert reduced
    assert len(points) < len(cloud) // 10
    full = blocked_max_dot(net.points, cloud)
    np.testing.assert_allclose(hull_support_batch(cloud, net.points), full, rtol=0.0, atol=1e-12)
    full_hausdorff = float((support_batch(body, net.points) - full).max())
    assert HullMetric(MetricSpec("hausdorff"), body, net=net).reading(points) == full_hausdorff


def _kept_whole(cloud):
    points, reduced = hull_points(cloud)[:2]
    return points is cloud and not reduced


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
    assert _kept_whole(pts)
    dirs = build_net(d, 0.2, seed=1).points
    np.testing.assert_array_equal(hull_support_batch(pts, dirs), blocked_max_dot(dirs, pts))


def test_repeated_points_still_reduce_and_match():
    cloud = sample(BALL2, "interior", 2000, seed=62).points
    doubled = np.vstack([cloud, cloud[::3]])
    assert hull_points(doubled)[1]
    dirs = build_net(2, 0.01, seed=4).points
    np.testing.assert_allclose(
        hull_support_batch(doubled, dirs), blocked_max_dot(dirs, doubled), rtol=0.0, atol=1e-12
    )


def _forbid_qhull(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Qhull ran on a cloud the rule keeps whole")

    # estimators imports ConvexHull where it calls it, so it reads this name
    monkeypatch.setattr(scipy.spatial, "ConvexHull", refuse)


def test_forbid_qhull_catches_a_qhull_call(monkeypatch):
    _forbid_qhull(monkeypatch)
    cloud = sample(BALL2, "interior", 500, seed=65).points
    with pytest.raises(AssertionError, match="Qhull ran"):
        hull_points(cloud)


def test_boundary_cloud_goes_to_qhull():
    # a boundary cloud takes the path of any other; every point of a sphere
    # is a hull vertex, so the reduction keeps the whole cloud, in order
    for d, n in ((2, 500), (2, 5000), (3, 500)):
        cloud = sample(Ball(center=np.zeros(d), radius=1.0), "boundary", n, seed=63).points
        hull = hull_points(cloud)
        assert hull.reduced and hull.qhull_input == n
        np.testing.assert_array_equal(hull.points, cloud)


def test_boundary_cloud_goes_to_qhull_for_its_facets_only():
    # Qhull drops no point of a sphere cloud, so all it adds is the facets
    cloud = sample(Ball(center=np.zeros(3), radius=1.0), "boundary", 500, seed=81).points
    hull = hull_points(cloud)
    np.testing.assert_array_equal(hull.points, cloud)
    assert hull.qhull_input == 500
    np.testing.assert_array_equal(hull.equations, ConvexHull(cloud).equations)


def test_high_dimensional_cloud_skips_qhull(monkeypatch):
    _forbid_qhull(monkeypatch)
    cloud = sample(Ball(center=np.zeros(4), radius=1.0), "interior", 500, seed=64).points
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
    got = hull_points(pts)
    want, reduced = _unfiltered_hull_points(pts)
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
        monkeypatch.setattr(estimators, "_PREFILTER_16GON_MIN", 0)


@pytest.mark.parametrize("n", [3, 4, 10, 1000, 100_000])
@pytest.mark.parametrize("name", sorted(_PREFILTER_BODIES))
def test_prefilter_returns_the_unfiltered_hull_points(name, n, prefilter_gate):
    body = _PREFILTER_BODIES[name]
    for seed in range(3 if n < 100_000 else 1):
        _assert_same_as_unfiltered(sample(body, "interior", n, seed=70 + seed).points)


def test_prefilter_sends_qhull_a_fraction_of_a_large_cloud():
    for name in ("disc", "square", "off_centre_disc", "tiny_disc"):
        cloud = sample(_PREFILTER_BODIES[name], "interior", 100_000, seed=71).points
        hull = hull_points(cloud)
        assert hull.reduced
        assert hull.qhull_input < 6_000, name


def test_prefilter_skips_clouds_below_the_size_gate():
    n = estimators._PREFILTER_MIN_POINTS - 1
    assert hull_points(sample(BALL2, "interior", n, seed=72).points).qhull_input == n


def test_prefilter_skips_a_loosely_fitting_octagon():
    # the octagon of a thin ellipse across the axes holds about a quarter of
    # it, so its probe stops the filter and Qhull gets the cloud whole
    cloud = sample(_PREFILTER_BODIES["thin_ellipse"], "interior", 100_000, seed=72).points
    assert hull_points(cloud).qhull_input == 100_000
    fatter = Ellipsoid(center=[0.0, 0.0], semi_axes=[1.0, 0.3], rotation=_rotation(2, 5))
    assert hull_points(sample(fatter, "interior", 100_000, seed=72).points).qhull_input < 50_000


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


def test_disc_cut_drops_only_points_beyond_the_margin():
    # the inset test above, for the disc inscribed in the same squares: the
    # cloud holds the square's corners, so its largest coordinate is the
    # square's, and the margin is 1e-9 of that
    for shift, scale in ((0.0, 1.0), (1e6, 1.0), (0.0, 1e-8), (-3e5, 1e3)):
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        poly = [(shift + scale * a, shift + scale * b) for a, b in corners]
        margin = 1e-9 * max(abs(c) for corner in poly for c in corner)
        inset = np.array([0.0, 0.1 * margin, 0.9 * margin, 2.0 * margin, 0.5 * scale])
        x = np.append(np.full(len(inset), shift + 0.5 * scale), [p[0] for p in poly])
        y = np.append(shift + inset, [p[1] for p in poly])
        outside = estimators._outside_disc(x, y, poly)
        np.testing.assert_array_equal(outside, [True, True, True, False, False] + [True] * 4)


def _area(body):
    """Area of a 2-d ball, ellipse or polygon."""
    if isinstance(body, Ball):
        return math.pi * body.radius**2
    if isinstance(body, Ellipsoid):
        return math.pi * float(np.prod(body.semi_axes))
    return float(body.triangulation().volumes.sum())


def _inset_from_edges(x, y, poly):
    """Least signed distance of each point inside the edges of poly."""
    dist = np.full(len(x), np.inf)
    for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]):
        ex, ey = bx - ax, by - ay
        np.minimum(dist, (ex * (y - ay) - ey * (x - ax)) / math.hypot(ex, ey), out=dist)
    return dist


@pytest.mark.parametrize("name", sorted(_PREFILTER_BODIES))
def test_disc_cut_drops_only_points_deep_inside_the_probe_octagon(name):
    body = _PREFILTER_BODIES[name]
    clouds = [sample(body, "interior", 20_000, seed=seed).points for seed in (91, 92)]
    if name == "triangle":
        clouds.append(_triangle_with_edge_points(20_000, 93))
    for pts in clouds:
        x, y = pts[:, 0], pts[:, 1]
        probe = slice(None, None, estimators._PREFILTER_PROBE_STRIDE)
        poly = estimators._polygon(x[probe], y[probe], estimators._OCTAGON)
        if poly is None:
            # the thin ellipse's probe can have two distinct extremes, and
            # the filter stops there
            assert name == "thin_ellipse"
            continue
        outside = estimators._outside_disc(x, y, poly)
        if outside is None:
            # the margin swallows the disc of a tiny body far from the origin
            assert name == "far_disc"
            continue
        dropped = ~outside
        margin = 1e-9 * np.abs(pts).max()
        assert (_inset_from_edges(x[dropped], y[dropped], poly) > margin).all()
        # the disc inscribed in the thin ellipse's octagon expects a handful
        # of points or none, so a drop is asserted only where the disc
        # expects at least 30 (missing them all has probability below e^-30)
        expected = len(pts) * math.pi * estimators._disc_centre(poly)[2] ** 2 / _area(body)
        if expected >= 30:
            assert dropped.any()


@pytest.mark.parametrize("name, share", [("square", 0.7), ("triangle", 0.45), ("disc", 0.7)])
def test_disc_cut_centre_keeps_the_disc_deep_in_polygons(name, share):
    # several extremes at one vertex pull the corner mean of the probe
    # octagon toward it: the disc about the mean dropped 0.54-0.69 of these
    # square clouds and 0.22-0.25 of the triangle's; the area centroid
    # centres it
    body = _PREFILTER_BODIES[name]
    for seed in (91, 92, 93):
        pts = sample(body, "interior", 100_000, seed=seed).points
        x, y = pts[:, 0], pts[:, 1]
        probe = slice(None, None, estimators._PREFILTER_PROBE_STRIDE)
        poly = estimators._polygon(x[probe], y[probe], estimators._OCTAGON)
        mean_x = sum(corner[0] for corner in poly) / len(poly)
        mean_y = sum(corner[1] for corner in poly) / len(poly)
        inradius = estimators._disc_centre(poly)[2]
        assert inradius >= estimators._inradius(poly, mean_x, mean_y)
        assert 1.0 - estimators._outside_disc(x, y, poly).mean() > share


def _spy(monkeypatch, name):
    """The argument tuples of the calls to estimators.<name> from now on."""
    calls = []
    real = getattr(estimators, name)
    monkeypatch.setattr(estimators, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_prefilter_nan_row_still_raises(monkeypatch):
    calls = _spy(monkeypatch, "_outside_disc")
    for n in (20, 5000, 100_000):
        pts = sample(BALL2, "interior", n, seed=75).points.copy()
        pts[n // 2, 1] = np.nan
        with pytest.raises(ValueError):
            hull_points(pts)
    assert len(calls) == 2  # the row is outside the probe of the large clouds


def test_prefilter_inf_row_falls_back_to_the_full_cloud(monkeypatch):
    calls = _spy(monkeypatch, "_outside_disc")
    for n in (20, 5000, 100_000):
        pts = sample(BALL2, "interior", n, seed=76).points.copy()
        pts[n // 3, 0] = np.inf
        got = hull_points(pts)
        assert got.points is pts and not got.reduced
        assert got.qhull_input == n
    assert len(calls) == 2


def test_sixteen_gon_runs_only_above_its_gate(monkeypatch):
    calls = _spy(monkeypatch, "_polygon")
    octagon, sixteen_gon = estimators._OCTAGON, estimators._SIXTEEN_GON
    # about 10000 of a 1e5-point disc survive the octagon, a few hundred of
    # the square
    hull_points(sample(_PREFILTER_BODIES["disc"], "interior", 100_000, seed=94).points)
    assert [args[2] for args in calls] == [octagon, octagon, sixteen_gon]
    calls.clear()
    hull = hull_points(sample(_PREFILTER_BODIES["square"], "interior", 100_000, seed=94).points)
    assert [args[2] for args in calls] == [octagon, octagon]
    assert hull.qhull_input < estimators._PREFILTER_16GON_MIN


def _forbid_prefilter(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the hull pre-filter ran on a cloud outside d = 2")

    monkeypatch.setattr(estimators, "_prefilter_survivors", refuse)


def test_prefilter_skips_boundary_and_higher_dimensional_clouds(monkeypatch):
    # the probe finds no point of a boundary cloud deep inside its octagon,
    # so the filter stops before its first cut and Qhull gets the cloud whole
    calls = _spy(monkeypatch, "_outside_disc")
    boundary = sample(BALL2, "boundary", 5000, seed=77).points
    assert hull_points(boundary).qhull_input == 5000
    assert not calls
    _forbid_prefilter(monkeypatch)
    ball3 = sample(Ball(center=np.zeros(3), radius=1.0), "interior", 5000, seed=78).points
    assert hull_points(ball3).qhull_input == 5000
    ball4 = sample(Ball(center=np.zeros(4), radius=1.0), "interior", 5000, seed=79).points
    assert _kept_whole(ball4)


def test_s_functional_reduces_a_cloud_once(monkeypatch):
    # S_p reads h(u) and h(-u); one hull reduction serves both
    calls = []
    real = estimators.hull_points
    monkeypatch.setattr(estimators, "hull_points", lambda c: calls.append(c) or real(c))
    cloud = sample(BALL2, "interior", 1000, seed=65).points
    quadrature_metric("functional(S, 2)", BALL2, 64, 1).value(cloud)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# sup-distance plug-ins


def test_hausdorff_window_for_spaced_boundary_points():
    net = build_net(2, 0.01, seed=2)
    m = 4
    true_gap = 1.0 - math.cos(math.pi / m)
    cloud = spaced_circle_cloud(m)
    metric = HullMetric(MetricSpec("hausdorff"), BALL2, net=net)
    net_value = metric.reading(cloud)
    # the net maximum never exceeds the true sup and misses it by at most
    # the Lipschitz constant (2 for unit-scale bodies) times the cover radius
    assert net_value <= true_gap + 1e-12
    assert net_value >= true_gap - 2.0 * net.cover_radius
    assert metric.certified(cloud)[1] >= true_gap - 1e-12


def test_hausdorff_shrinks_with_more_points():
    metric = HullMetric(MetricSpec("hausdorff"), BALL2, net=build_net(2, 0.02, seed=3))
    v_small = metric.reading(spaced_circle_cloud(8))
    v_large = metric.reading(spaced_circle_cloud(64))
    assert v_large < v_small


def test_dl_equals_hausdorff_for_centered_unit_ball():
    net = build_net(2, 0.05, seed=4)
    cloud = sample(BALL2, "interior", 300, seed=33).points
    dh = HullMetric(MetricSpec("hausdorff"), BALL2, net=net).reading(hull_points(cloud).points)
    dl = HullMetric(MetricSpec("dl"), BALL2, net=net, center=np.zeros(2))
    assert dl.reading(hull_points(cloud).points) == pytest.approx(dh, abs=1e-12)


def test_dl_rejects_non_interior_center():
    net = build_net(2, 0.05, seed=4)
    cloud = sample(BALL2, "interior", 50, seed=34).points
    dl = HullMetric(MetricSpec("dl"), BALL2, net=net, center=np.array([1.5, 0.0]))
    with pytest.raises(ValueError, match="center must lie in the interior of the body"):
        dl.value(cloud)


@pytest.mark.parametrize("mode", ["interior", "boundary"])
@pytest.mark.parametrize("body", [Ball(center=[0.3, -0.2], radius=1.5), REDUCIBLE["ellipsoid2"]])
def test_public_distances_are_the_metric_reading(body, mode):
    net = build_net(2, 0.05, seed=4)
    for n, seed in ((40, 35), (3000, 36)):
        cloud = sample(body, mode, n, seed=seed).points
        hausdorff = HullMetric(MetricSpec("hausdorff"), body, net=net)
        assert hausdorff.certified(cloud)[0] == hausdorff.value(cloud)[0]


# ---------------------------------------------------------------------------
# exact distances from the hull's facets


def test_hull_points_returns_the_facets_qhull_built():
    cloud = sample(BALL2, "interior", 500, seed=80).points
    hull = hull_points(cloud)
    np.testing.assert_array_equal(hull.equations, ConvexHull(cloud).equations)
    # the pre-filter's survivors span the same hull
    large = sample(BALL2, "interior", 20_000, seed=80).points
    hull = hull_points(large)
    assert hull.qhull_input < 20_000
    want = ConvexHull(large).equations
    assert hull.equations.shape == want.shape
    np.testing.assert_allclose(np.unique(hull.equations, axis=0), np.unique(want, axis=0), atol=1e-15)


def test_facets_are_not_computed_in_four_dimensions(monkeypatch):
    _forbid_qhull(monkeypatch)
    cloud = sample(Ball(center=np.zeros(4), radius=1.0), "boundary", 500, seed=82).points
    assert hull_points(cloud).equations is None


@pytest.mark.parametrize("m", [3, 4, 5, 16, 64, 1000, 100_000])
def test_exact_hausdorff_of_spaced_circle_points(m):
    hull = hull_points(spaced_circle_cloud(m))
    exact = facet_value("hausdorff", BALL2, hull.equations)
    assert abs(exact - (1.0 - math.cos(math.pi / m))) <= 1e-14


BALLS = {2: Ball(center=[0.3, -0.2], radius=1.5), 3: Ball(center=[0.1, -0.2, 0.3], radius=0.8)}


@pytest.mark.parametrize("mode", ["interior", "boundary"])
@pytest.mark.parametrize("d", [2, 3])
def test_exact_hausdorff_lies_between_net_value_and_certificate(d, mode):
    body = BALLS[d]
    net = build_net(d, 0.01 if d == 2 else 0.1, seed=5)
    for n, seed in ((50, 83), (3000, 84)):
        cloud = sample(body, mode, n, seed=seed).points
        hull = hull_points(cloud)
        metric = HullMetric(MetricSpec("hausdorff"), body, net=net)
        exact = metric.facet_value(hull.equations)
        net_value = metric.reading(hull.points)
        radius = max(body.max_norm_bound(), float(np.linalg.norm(cloud, axis=1).max()))
        assert net_value <= exact <= sup_certificate(net, net_value, radius)
        # points of a boundary cloud can round an ulp past the sphere; the
        # hull's reach outside the ball is then far below the exact distance
        reach = np.linalg.norm(cloud - body.center, axis=1).max() - body.radius
        assert reach <= 1e-15
        assert metric.certified(cloud) == (exact, exact)


def _certified(body, cloud, net):
    return HullMetric(MetricSpec("hausdorff"), body, net=net).certified(cloud)[1]


def _net_certificate(body, cloud, net):
    """sup_certificate on the net reading of the cloud's hull points."""
    radius = max(body.max_norm_bound(), float(np.linalg.norm(cloud, axis=1).max()))
    metric = HullMetric(MetricSpec("hausdorff"), body, net=net)
    return sup_certificate(net, metric.reading(hull_points(cloud).points), radius)


def test_four_dimensional_ball_keeps_the_chaining_certificate(monkeypatch):
    # a net JSON that says "certified": false proves nothing, so both are inf
    net = net_from_dict({**net_to_dict(build_net(4, 0.5, seed=2)), "certified": False})
    _forbid_qhull(monkeypatch)
    body = Ball(center=np.zeros(4), radius=1.0)
    cloud = sample(body, "interior", 500, seed=88).points
    assert _certified(body, cloud, net) == _net_certificate(body, cloud, net) == math.inf


def test_ball_certificate_counts_the_hull_outside_the_ball():
    net = build_net(2, 0.05, seed=7)
    pts = sample(BALL2, "interior", 300, seed=89).points.copy()
    pts[0] = [0.0, 1.0 + 1e-12]
    exact = facet_value("hausdorff", BALL2, hull_points(pts).equations)
    assert _certified(BALL2, pts, net) == exact > 1e-12
    # the two-sided distance sup_u |h_hull(u) - 1| on a fine grid of angles
    ang = np.linspace(0.0, 2.0 * math.pi, 20_000, endpoint=False)
    grid = np.column_stack([np.cos(ang), np.sin(ang)])
    # a spike to (0, 1.5): the hull reaches 0.5 outside the ball, more than
    # the ball reaches outside the hull
    pts[0] = [0.0, 1.5]
    spike = pts
    assert facet_value("hausdorff", BALL2, hull_points(spike).equations) < 0.5
    assert _certified(BALL2, spike, net) == 0.5
    # a cloud from the radius-2 disc holds the unit disc: the first term is
    # negative and the distance is the cloud's reach
    wide = sample(Ball(center=[0.0, 0.0], radius=2.0), "interior", 300, seed=90).points
    reach = float(np.linalg.norm(wide, axis=1).max())
    assert facet_value("hausdorff", BALL2, hull_points(wide).equations) < 0
    assert _certified(BALL2, wide, net) == reach - 1.0
    for cloud in (spike, wide):
        on_grid = np.abs((grid @ cloud.T).max(axis=1) - 1.0).max()
        certified = _certified(BALL2, cloud, net)
        assert on_grid <= certified <= on_grid + 1e-7


def test_ball_certificate_needs_the_center_inside_the_hull():
    net = build_net(2, 0.05, seed=7)
    # a hull that misses the center, one with the center on an edge, and a
    # cloud Qhull rejects
    misses = [[0.2, 0.1], [0.6, 0.1], [0.4, 0.5]]
    for pts in (misses, [[-0.5, 0.0], [0.5, 0.0], [0.0, 0.5]], [[0.1, 0.1]] * 3):
        cloud = np.array(pts)
        assert _certified(BALL2, cloud, net) == _net_certificate(BALL2, cloud, net)


DL_BODIES = {
    "square": PolytopeV(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])),
    "simplex3": PolytopeV(np.vstack([np.zeros(3), np.eye(3)])),
    "ellipse": Ellipsoid(center=[0.2, -0.1], semi_axes=[1.0, 0.4], rotation=_rotation(2, 7)),
}


@pytest.mark.parametrize("name", sorted(DL_BODIES))
def test_exact_dl_is_at_least_the_net_value(name):
    body = DL_BODIES[name]
    d = body.dim
    center = canonical_center(body)
    net = build_net(d, 0.01 if d == 2 else 0.1, seed=6)
    for n, seed in ((30, 85), (2000, 86)):
        cloud = sample(body, "interior", n, seed=seed).points
        hull = hull_points(cloud)
        exact = facet_value("dl", body, hull.equations, center)
        assert 0.0 < exact < 1.0
        dl = HullMetric(MetricSpec("dl"), body, net=net, center=center)
        assert dl.reading(hull.points) <= exact


@pytest.mark.parametrize("name", ["square", "simplex3"])
def test_exact_dl_of_a_cloud_holding_the_vertices_is_zero(name):
    body = DL_BODIES[name]
    pts = np.vstack([sample(body, "interior", 200, seed=87).points, body.vertices])
    assert facet_value("dl", body, hull_points(pts).equations) == 0.0


def test_exact_distances_need_the_center_strictly_inside():
    # a triangle in the unit disc that misses the center, and one with the
    # center on an edge
    for pts in ([[0.2, 0.1], [0.6, 0.1], [0.4, 0.5]], [[-0.5, 0.0], [0.5, 0.0], [0.0, 0.5]]):
        equations = ConvexHull(np.asarray(pts)).equations
        assert facet_value("hausdorff", BALL2, equations) is None
        assert facet_value("dl", BALL2, equations, np.zeros(2)) is None


# rolling radii 0.16 and 0.25
FACET_ELLIPSOIDS = {
    2: DL_BODIES["ellipse"],
    3: Ellipsoid(center=[0.0, 0.1, 0.0], semi_axes=[1.0, 0.7, 0.5], rotation=_rotation(3, 2)),
}


@functools.cache
def _fine_net(d):
    return build_net(d, 2e-4 if d == 2 else 0.02, seed=5)


@pytest.mark.parametrize("mode", ["interior", "boundary"])
@pytest.mark.parametrize("d", [2, 3])
def test_facet_hausdorff_of_an_ellipsoid_lies_within_a_fine_net_reading(d, mode):
    body, net = FACET_ELLIPSOIDS[d], _fine_net(d)
    metric = HullMetric(MetricSpec("hausdorff"), body, net=net)
    # h_body - h_hull is 2R-Lipschitz on the sphere, R the body's norm bound
    under_read = 2.0 * body.max_norm_bound() * net.cover_radius
    for n, seed in ((300, 91), (3000, 92)):
        value, hull, exact = metric.value(sample(body, mode, n, seed=seed).points)
        assert exact
        net_value = metric.reading(hull.points)
        assert net_value <= value <= net_value + under_read


@pytest.mark.parametrize("case", ["thirty_points", "sliver", *sorted(DEGENERATE)])
def test_facet_hausdorff_falls_back_to_the_net_where_the_rule_fails(case):
    if case in DEGENERATE:  # Qhull rejects the cloud
        cloud = np.asarray(DEGENERATE[case], dtype=float)
        body = FACET_ELLIPSOIDS[cloud.shape[1]]
    elif case == "thirty_points":  # the facet maximum 0.29 is above the rolling radius
        body = FACET_ELLIPSOIDS[2]
        cloud = sample(body, "interior", 30, seed=90).points
    else:  # axes (1, 0.01): rolling radius 1e-4
        body = _PREFILTER_BODIES["thin_ellipse"]
        cloud = sample(body, "interior", 1000, seed=90).points
    metric = HullMetric(MetricSpec("hausdorff"), body, net=build_net(body.dim, 0.1, seed=5))
    value, hull, exact = metric.value(cloud)
    assert not exact
    assert value == metric.reading(hull.points)


@pytest.mark.parametrize(
    "body",
    [
        DL_BODIES["square"],
        BumpBall(radius=1.0, bump_scale=0.2, amplitude=0.02, direction=[0.0, 1.0]),
    ],
    ids=["square", "dented_ball"],
)
def test_hausdorff_without_a_rolling_radius_never_takes_the_facet_path(monkeypatch, body):
    def refuse(self, equations):
        raise AssertionError("facet path taken")

    monkeypatch.setattr(HullMetric, "facet_value", refuse)
    metric = HullMetric(MetricSpec("hausdorff"), body, net=build_net(2, 0.05, seed=5))
    value, hull, exact = metric.value(sample(body, "interior", 500, seed=93).points)
    assert not exact
    assert value == metric.reading(hull.points)


def test_ellipse_certificate_counts_the_hull_outside_the_ellipse():
    # a cloud scaled 2% past the boundary of the rotated ellipse (1, 0.4)
    body = DL_BODIES["ellipse"]
    pts = body.center + 1.02 * (sample(body, "interior", 2000, seed=95).points - body.center)
    value, certified = HullMetric(MetricSpec("hausdorff"), body).certified(pts)
    # each point's distance to a dense parametrization of the boundary, which
    # reads the true distance from above by far less than 1e-6
    t = np.linspace(0.0, 2.0 * math.pi, 200_000, endpoint=False)
    rim = body.center + (np.column_stack([np.cos(t), np.sin(t)]) * body.semi_axes) @ body.rotation.T
    outside = pts[~contains_batch(body, pts)]
    reach = max(float(np.linalg.norm(rim - x, axis=1).min()) for x in outside)
    assert reach > 1e-3
    assert value < reach <= certified + 1e-6
    # the outward bound (|z| - 1) s_max overshoots the reach by at most s_max / s_min
    s = body.semi_axes
    assert certified <= reach * s.max() / s.min() + 1e-6


def test_square_reads_the_net_and_its_certificate():
    square = DL_BODIES["square"]
    net = build_net(2, 0.01, seed=5)
    cloud = sample(square, "interior", 2000, seed=94).points
    metric = HullMetric(MetricSpec("hausdorff"), square, net=net)
    value, certified = metric.certified(cloud)
    assert value == metric.reading(hull_points(cloud).points)
    assert certified == _net_certificate(square, cloud, net)


def test_net_certificate_counts_the_hull_outside_the_body():
    # one point 2 above the square [-1, 1]^2: d_H = 2, while the body's reach
    # outside the hull, the value, stays far below it
    square = DL_BODIES["square"]
    pts = np.vstack([sample(square, "interior", 500, seed=96).points, [[0.0, 3.0]]])
    metric = HullMetric(MetricSpec("hausdorff"), square, net=build_net(2, 0.01, seed=5))
    value, certified = metric.certified(pts)
    assert value < 0.5
    assert 2.0 <= certified <= 2.0 + 2.0 * 3.0 * 0.01 + 1e-12


def test_facet_maximum_past_the_rolling_radius_takes_the_net_certificate():
    # thirty points: the facet maximum 0.29 reaches past the rolling radius 0.16
    body = FACET_ELLIPSOIDS[2]
    cloud = sample(body, "interior", 30, seed=90).points
    hull = hull_points(cloud)
    normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
    assert float((support_batch(body, normals) + offsets).max()) >= body.rolling_radius
    net = build_net(2, 0.01, seed=5)
    metric = HullMetric(MetricSpec("hausdorff"), body, net=net)
    value, certified = metric.certified(cloud)
    assert value == metric.reading(hull.points)
    assert certified == _net_certificate(body, cloud, net) > value


def test_a_fallback_without_a_net_says_that_it_needs_one():
    # three equal points, which Qhull rejects, and thirty points whose facet
    # maximum reaches past the rolling radius 0.16
    ellipse = FACET_ELLIPSOIDS[2]
    for body, cloud in (
        (BALL2, np.full((3, 2), 0.1)),
        (ellipse, sample(ellipse, "interior", 30, seed=90).points),
    ):
        metric = HullMetric(MetricSpec("hausdorff"), body)
        for read in (metric.value, metric.certified):
            with pytest.raises(ValueError, match="the fallback needs a net"):
                read(cloud)


# ---------------------------------------------------------------------------
# averaged metrics and functionals


def test_lp_metric_square_in_circle_closed_form():
    # mean support deficit of the inscribed square: 1 - 2*sqrt(2)/pi
    val = quadrature_metric("lp(1)", BALL2, 200000, 8).reading(corner_cloud())
    assert val == pytest.approx(1.0 - 2.0 * math.sqrt(2.0) / math.pi, abs=1e-3)


def test_lp_metric_at_infinite_p_is_sup_deficit():
    cloud = spaced_circle_cloud(16)
    val = quadrature_metric("lp(inf)", BALL2, 100000, 9).reading(cloud)
    true_gap = 1.0 - math.cos(math.pi / 16)
    assert val <= true_gap + 1e-12
    assert val >= true_gap * 0.98


def test_lp_metric_rejects_small_p():
    with pytest.raises(ValueError, match="p >= 1"):
        parse_metric("lp(0.5)")
    metric = HullMetric(MetricSpec("lp", p=0.5), BALL2, dirs=quadrature_directions(2, 100, 0))
    with pytest.raises(ValueError, match="p must be >= 1"):
        metric.reading(corner_cloud())


def test_mean_width_of_body_is_exact_for_ball():
    # every direction gives width 2 for the unit ball, so the sampled mean
    # is exactly 2 regardless of the quadrature draw
    val = quadrature_metric("functional(S, 1)", BALL2, 512, 10).reading(ORIGIN)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_mean_width_of_inscribed_square():
    # the metric is the ball's mean width 2 less the square's
    metric = quadrature_metric("functional(S, 1)", BALL2, 200000, 11)
    val = metric.reading(corner_cloud())
    assert 2.0 - val == pytest.approx(4.0 * math.sqrt(2.0) / math.pi, abs=2e-3)


def test_sup_functional_of_cloud_near_one():
    # T_inf of the ball is 1, and the square's corners reach it
    metric = quadrature_metric("functional(T, inf)", BALL2, 4096, 12)
    assert metric.reading(corner_cloud()) <= 5e-4


def test_functional_consistency_body_vs_exact_hull():
    # a dense boundary cloud nearly reproduces the body functional
    metric = quadrature_metric("functional(T, 2)", BALL2, 4096, 13)
    points = spaced_circle_cloud(512)
    body_val = metric.reading(ORIGIN)
    cloud_val = math.sqrt(np.mean(blocked_max_dot(metric.dirs, points) ** 2))
    assert cloud_val == pytest.approx(body_val, rel=1e-3)
    assert cloud_val <= body_val + 1e-12
    assert metric.reading(points) == pytest.approx(body_val - cloud_val, abs=1e-15)


def test_t_functional_needs_the_origin_inside_the_body():
    dirs = quadrature_directions(2, 64, 16)
    off = Ball(center=[2.0, 0.0], radius=1.0)
    with pytest.raises(ValueError, match="T_p needs 0 inside the body"):
        HullMetric(MetricSpec("functional", p=2.0, which="T"), off, dirs=dirs)
    # widths never go negative, so S_p takes the same body
    widths = HullMetric(MetricSpec("functional", p=2.0, which="S"), off, dirs=dirs)
    assert widths.reading(ORIGIN) == pytest.approx(2.0)
