"""Samplers: determinism, membership, pushforward structure, cap frequencies."""

import logging
import math

import numpy as np
import pytest

from randhull import sampling
from randhull.geometry import (
    Ball,
    BumpBall,
    Ellipsoid,
    PolytopeV,
    ball_volume,
    cap_volume_ball,
    contains_batch,
    minkowski_functional,
)
from randhull.experiments import write_text
from randhull.sampling import (
    load_points,
    points_to_csv,
    sample,
    stream,
    unit_ball_points,
    unit_directions,
)

BALL2 = Ball(center=[0.0, 0.0], radius=1.0)
ELL = Ellipsoid(
    center=[0.5, -1.0],
    semi_axes=[2.0, 0.5],
    rotation=np.array([[0.6, -0.8], [0.8, 0.6]]),
)
SQUARE = PolytopeV(vertices=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
BUMP = BumpBall(radius=1.0, bump_scale=0.2, amplitude=0.02, direction=[0.0, 1.0])


def test_same_seed_reproduces_bitwise():
    a = sample(BALL2, "interior", 500, seed=3)
    b = sample(BALL2, "interior", 500, seed=3)
    np.testing.assert_array_equal(a.points, b.points)


def test_different_seeds_differ():
    a = sample(BALL2, "interior", 100, seed=3)
    b = sample(BALL2, "interior", 100, seed=4)
    assert not np.array_equal(a.points, b.points)


def test_modes_use_independent_streams():
    a = sample(BALL2, "interior", 100, seed=3)
    b = sample(BALL2, "boundary", 100, seed=3)
    assert not np.allclose(a.points, b.points)


def test_cloud_metadata():
    cloud = sample(SQUARE, "interior", 64, seed=9)
    assert cloud.n == 64
    assert cloud.mode == "interior"
    assert cloud.seed == 9
    assert cloud.points.shape == (64, 2)


@pytest.mark.parametrize(
    "body", [BALL2, ELL, SQUARE, BUMP], ids=["ball", "ellipsoid", "square", "bump"]
)
def test_interior_samples_are_members(body):
    cloud = sample(body, "interior", 2000, seed=21)
    assert bool(contains_batch(body, cloud.points, tol=1e-9).all())


def test_ball_boundary_samples_have_exact_norm():
    b = Ball(center=[1.0, 2.0], radius=0.5)
    cloud = sample(b, "boundary", 1000, seed=5)
    norms = np.linalg.norm(cloud.points - [1.0, 2.0], axis=1)
    np.testing.assert_allclose(norms, 0.5, atol=1e-12)


def test_ellipsoid_boundary_samples_on_surface():
    cloud = sample(ELL, "boundary", 500, seed=6)
    centered = Ellipsoid(
        center=np.zeros(2), semi_axes=ELL.semi_axes, rotation=ELL.rotation
    )
    gauges = np.array(
        [minkowski_functional(centered, x - ELL.center) for x in cloud.points]
    )
    np.testing.assert_allclose(gauges, 1.0, atol=1e-9)


def test_polytope_boundary_unsupported():
    with pytest.raises(ValueError):
        sample(SQUARE, "boundary", 10, seed=0)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        sample(BALL2, "surface", 10, seed=0)


def test_ellipsoid_interior_is_affine_image_of_ball_draw():
    seed, n = 77, 256
    cloud = sample(ELL, "interior", n, seed=seed)
    # the ellipsoid sampler pushes the unit-ball draw of the same stream
    # through the affine map; the equality is exact, not statistical
    rng = stream(seed, 0)
    z = unit_ball_points(rng, n, 2)
    expected = np.asarray(ELL.center) + (z * ELL.semi_axes) @ np.asarray(ELL.rotation).T
    np.testing.assert_array_equal(cloud.points, expected)


def test_unit_ball_points_radial_law():
    rng = stream(11)
    pts = unit_ball_points(rng, 40000, 2)
    r = np.linalg.norm(pts, axis=1)
    assert float(r.max()) <= 1.0
    # r^2 is uniform on (0,1) for d=2: mean 1/2 within 5 sigma
    m = float(np.mean(r**2))
    assert abs(m - 0.5) < 5.0 * (1.0 / math.sqrt(12.0)) / math.sqrt(40000)


def test_unit_directions_are_unit():
    n = 100_000
    dirs = unit_directions(stream(4), n, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # no hemisphere bias: each coordinate of a uniform direction in d = 3 has
    # variance 1/3, so 3 n |mean|^2 is chi-squared with 3 degrees of freedom,
    # and a correct sampler exceeds this bound (about 0.0101) with
    # probability 1e-6
    from scipy import stats

    bound = math.sqrt(stats.chi2.isf(1e-6, 3) / (3 * n))
    assert np.linalg.norm(dirs.mean(axis=0)) < bound


def test_interior_cap_probability_matches_volume_ratio():
    n = 200000
    cloud = sample(BALL2, "interior", n, seed=13)
    eps = 0.2
    # the share of the cloud in the width-eps cap of the unit disc at u = e_0
    p_hat = np.mean(cloud.points[:, 0] >= 1.0 - eps)
    p_true = cap_volume_ball(2, 1.0, eps) / ball_volume(2)
    sigma = math.sqrt(p_true * (1.0 - p_true) / n)
    assert abs(p_hat - p_true) < 5.0 * sigma


def test_boundary_cap_probability_matches_arc_ratio():
    n = 100000
    cloud = sample(BALL2, "boundary", n, seed=14)
    eps = 1.0 - math.cos(math.pi / 8)
    p_hat = np.mean(cloud.points[:, 1] >= 1.0 - eps)
    p_true = (math.pi / 4) / (2 * math.pi)  # arc fraction of the cap
    sigma = math.sqrt(p_true * (1.0 - p_true) / n)
    assert abs(p_hat - p_true) < 5.0 * sigma


def test_points_csv_round_trip(tmp_path):
    pts = sample(ELL, "interior", 50, seed=1).points
    path = tmp_path / "points.csv"
    write_text(points_to_csv(pts), path)
    back = load_points(path)
    np.testing.assert_array_equal(back, pts)


def test_points_to_csv_has_header_and_repr_floats():
    pts = np.array([[0.1, 0.2], [1.0 / 3.0, -0.5]])
    text = points_to_csv(pts)
    lines = text.strip().splitlines()
    assert lines[0] == "x0,x1"
    assert lines[2].split(",")[0] == repr(1.0 / 3.0)


def _ngon(m):
    t = 2.0 * np.pi * np.arange(m) / m
    return PolytopeV(vertices=np.column_stack([np.cos(t), np.sin(t)]))


def _simplex(d, shift=0.0):
    return PolytopeV(vertices=np.vstack([np.zeros(d), np.eye(d)]) + shift)


def _is_box(body):
    return sampling._is_box(body.vertices, body.vertices.min(axis=0), body.vertices.max(axis=0))


def _box_corners(lo, hi):
    return np.array(np.meshgrid(*zip(lo, hi), indexing="ij")).reshape(len(lo), -1).T


HEXAGON = _ngon(6)
CUBE = PolytopeV(vertices=[[a, b, c] for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)])
TRIANGLE = PolytopeV(vertices=[[0.0, 0.0], [1.0, 0.1], [0.3, 0.9]])
SIMPLEX3 = _simplex(3)
RANDOM4 = PolytopeV(vertices=np.random.default_rng(17).standard_normal((14, 4)))
BOXES = {
    "square": SQUARE,
    "centred_square": PolytopeV(vertices=_box_corners([-1.0, -1.0], [1.0, 1.0])),
    "cube": CUBE,
    # corners plus points on the edges and inside, which are no vertices
    "box_with_extra_points": PolytopeV(
        vertices=np.vstack(
            [_box_corners([0.0, -1.0], [2.0, 3.0]), [[1.0, -1.0], [2.0, 0.5], [0.5, 0.5]]]
        )
    ),
    "far_box": PolytopeV(vertices=_box_corners([1e3, 1e3 + 0.1], [1e3 + 1.0, 1e3 + 0.7])),
    "box4": PolytopeV(vertices=_box_corners([0.0, -1.0, 2.0, 0.5], [1.0, 1.0, 3.0, 0.75])),
}
# a square with one corner cut by 1e-6: box acceptance 1 - 5e-13, yet no box
CUT_SQUARE = PolytopeV(
    vertices=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0 - 1e-6], [1.0 - 1e-6, 1.0], [0.0, 1.0]]
)


def test_polytopes_sample_without_containment_tests(monkeypatch):
    def no_containment(*args, **kwargs):
        raise AssertionError("contains_batch called")

    monkeypatch.setattr(sampling, "contains_batch", no_containment)
    for body in [*BOXES.values(), CUT_SQUARE, *TRIANGULATED.values()]:
        assert sample(body, "interior", 2000, seed=5).points.shape == (2000, body.dim)
    # the dented ball still rejects through it
    with pytest.raises(AssertionError, match="contains_batch called"):
        sample(BUMP, "interior", 10, seed=5)


# a deep dent, so that the dented ball rejects about one proposal in nine
DEEP_BUMP = BumpBall(radius=1.0, bump_scale=1.0, amplitude=0.9, direction=[0.0, 1.0])


def test_rejection_sampler_logs_its_acceptance(caplog):
    from randhull.experiments import bump_volume_defect_exact

    acceptance = 1.0 - bump_volume_defect_exact(DEEP_BUMP) / ball_volume(2)
    assert 0.85 < acceptance < 0.95
    with caplog.at_level(logging.DEBUG, logger="randhull"):
        sample(DEEP_BUMP, "interior", 20000, seed=4)
    lines = [r.getMessage() for r in caplog.records if "rejection sampler" in r.getMessage()]
    assert len(lines) == 1
    accepted, proposed = (int(tok) for tok in lines[0].split() if tok.isdigit())
    assert accepted >= 20000
    assert proposed % 20000 == 0
    assert accepted / proposed == pytest.approx(acceptance, abs=0.01)


def test_rejection_sampler_failure_says_what_happened():
    proposed = []

    def accept_nothing(m):
        proposed.append(m)
        return np.empty((0, 2))

    with pytest.raises(RuntimeError) as info:
        sampling._collect(DEEP_BUMP, "interior", 50, accept_nothing)
    message = str(info.value)
    assert "BumpBall interior draw of n = 50" in message
    assert f"accepted 0 of {sum(proposed)} proposed points" in message
    assert "acceptance rate is too low for this rejection sampler" in message


@pytest.mark.parametrize(
    "body, line",
    [
        (HEXAGON, "polytope sampler: triangulation path, simplices 4"),
        (SIMPLEX3, "polytope sampler: triangulation path, simplices 1"),
        (CUT_SQUARE, "polytope sampler: triangulation path, simplices 3"),
    ]
    + [(BOXES[name], "polytope sampler: box path") for name in sorted(BOXES)],
    ids=["hexagon", "simplex3", "cut_square", *sorted(BOXES)],
)
def test_polytope_sampler_logs_its_path(caplog, body, line):
    assert _is_box(body) == line.endswith("box path")
    with caplog.at_level(logging.DEBUG, logger="randhull"):
        sample(body, "interior", 100, seed=4)
    lines = [r.getMessage() for r in caplog.records if "polytope sampler" in r.getMessage()]
    assert lines == [line]
    assert not [r for r in caplog.records if "rejection sampler" in r.getMessage()]


# The bounding-box rejection sampler as first written: out-of-place proposals
# and a single max over the facet values.  A box takes every proposal, so the
# direct draw must match it bit for bit.
def _reference_box_rejection(body, n, seed):
    rng = stream(seed, 0)
    eqs = body.facet_inequalities()
    lo = body.vertices.min(axis=0)
    hi = body.vertices.max(axis=0)
    batch = max(1024, n)
    chunks, got = [], 0
    while got < n:
        pts = lo + (hi - lo) * rng.random((batch, body.dim))
        pts = pts[np.max(pts @ eqs[:, :-1].T + eqs[:, -1], axis=1) <= 1e-12]
        chunks.append(pts)
        got += len(pts)
    return np.vstack(chunks)[:n]


# The triangulation sampler's documented draw order, one point at a time in
# plain float arithmetic: n uniforms pick the simplices (only when there are
# several), then a (d, n) block of uniforms gives the weights: each point's d
# uniforms sorted, and their spacings.
def _reference_triangulation(body, n, seed):
    rng = stream(seed, 0)
    apex, edges, volumes = body.triangulation()
    k, d = len(volumes), body.dim
    cum = []
    running = 0.0
    for v in volumes.tolist():
        running += v
        cum.append(running)
    bounds = [c / cum[-1] for c in cum[:-1]]
    u = rng.random(n).tolist() if k > 1 else [0.0] * n
    v = rng.random((d, n))
    out = np.empty((n, d))
    for i in range(n):
        m = 0
        while m < k - 1 and bounds[m] <= u[i]:
            m += 1
        s = sorted(float(v[r, i]) for r in range(d))
        w = [s[0]] + [s[r] - s[r - 1] for r in range(1, d)]
        for j in range(d):
            x = float(apex[j])
            for r in range(d):
                x += w[r] * float(edges[m, r, j])
            out[i, j] = x
    return out


POLYTOPE_PATHS = {name: (body, "box") for name, body in BOXES.items()}
POLYTOPE_PATHS.update(
    hexagon=(HEXAGON, "triangulation"),
    simplex3=(SIMPLEX3, "triangulation"),
    random4=(RANDOM4, "triangulation"),
)


@pytest.mark.parametrize("name", sorted(POLYTOPE_PATHS))
@pytest.mark.parametrize("n", [10, 1023, 5000])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_polytope_sampler_matches_reference_bitwise(name, n, seed):
    body, path = POLYTOPE_PATHS[name]
    assert _is_box(body) == (path == "box")
    reference = _reference_box_rejection if path == "box" else _reference_triangulation
    got = sample(body, "interior", n, seed).points
    assert got.shape == (n, body.dim)
    np.testing.assert_array_equal(got, reference(body, n, seed))


# ---------------------------------------------------------------------------
# the triangulation sampler: exactness


TRIANGULATED = {
    "hexagon": HEXAGON,
    "triangle": TRIANGLE,
    "simplex3": SIMPLEX3,
    "random4": RANDOM4,
    "octahedron": PolytopeV(vertices=np.vstack([np.eye(3), -np.eye(3)])),
    "simplex6": _simplex(6),
    "simplex7": _simplex(7),
}


@pytest.mark.parametrize("name", sorted(TRIANGULATED))
def test_triangulation_samples_are_members(name):
    # box rejection raised RuntimeError on the 6- and 7-simplex
    body = TRIANGULATED[name]
    assert not _is_box(body)
    cloud = sample(body, "interior", 20000, seed=22)
    assert cloud.points.shape == (20000, body.dim)
    assert bool(contains_batch(body, cloud.points).all())


def test_translated_simplex_samples_are_members_to_relative_roundoff():
    body = _simplex(7, shift=1e3 + np.arange(7) / 7.0)
    pts = sample(body, "interior", 20000, seed=23).points
    size = float(np.ptp(body.vertices, axis=0).max())
    assert bool(contains_batch(body, pts, tol=1e-12 * 1e3 * size).all())
    # the barycentric coordinates are those of points inside the unit simplex
    lam = pts - body.vertices[0]
    assert float(lam.min()) >= -1e-12 * 1e3
    assert float(lam.sum(axis=1).max()) <= 1.0 + 1e-12 * 1e3


def _simplex_of_each_point(tri, pts):
    """Index of the sub-simplex holding each point (-1 when none or several)."""
    which = np.full(len(pts), -1)
    hits = np.zeros(len(pts), dtype=int)
    for i, edges in enumerate(tri.edges):
        lam = np.linalg.solve(edges.T, (pts - tri.apex).T).T
        inside = (lam.min(axis=1) >= -1e-9) & (lam.sum(axis=1) <= 1.0 + 1e-9)
        which[inside] = i
        hits += inside
    which[hits != 1] = -1
    return which


@pytest.mark.parametrize("name", ["octahedron", "random4"])
def test_sub_simplex_hits_match_volume_shares(name):
    from scipy import stats

    body = TRIANGULATED[name]
    tri = body.triangulation()
    n = 200_000
    which = _simplex_of_each_point(tri, sample(body, "interior", n, seed=24).points)
    assert np.count_nonzero(which < 0) <= 10  # shared faces only, to roundoff
    counts = np.bincount(which[which >= 0], minlength=len(tri.volumes))
    expected = counts.sum() * tri.volumes / tri.volumes.sum()
    assert expected.min() > 5
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert stats.chi2.sf(chi2, len(counts) - 1) > 1e-3


def test_simplex3_mean_is_its_centroid():
    n = 400_000
    pts = sample(SIMPLEX3, "interior", n, seed=25).points
    # each coordinate is Beta(1, 3): mean 1/4, variance 3/80
    se = math.sqrt(3.0 / 80.0 / n)
    assert np.abs(pts.mean(axis=0) - 0.25).max() < 4.0 * se


def test_random4_moments_match_box_rejection():
    n = 1_000_000
    tri_pts = sample(RANDOM4, "interior", n, seed=26).points
    # box rejection, in ten clouds so that no facet product holds 1e6 rows
    # at once
    box_pts = np.vstack([_reference_box_rejection(RANDOM4, n // 10, 100 + s) for s in range(10)])

    def moments(pts):
        """Means and covariances, each with its standard error."""
        root_n = math.sqrt(len(pts))
        mean = pts.mean(axis=0)
        c = pts - mean
        prods = (c[:, :, None] * c[:, None, :]).reshape(len(pts), -1)
        return mean, c.std(axis=0) / root_n, prods.mean(axis=0), prods.std(axis=0) / root_n

    m1, se_m1, c1, se_c1 = moments(tri_pts)
    m2, se_m2, c2, se_c2 = moments(box_pts)
    assert np.all(np.abs(m1 - m2) < 4.0 * np.hypot(se_m1, se_m2))
    assert np.all(np.abs(c1 - c2) < 4.0 * np.hypot(se_c1, se_c2))


@pytest.mark.parametrize("name", ["triangle", "random4", "simplex7"])
def test_triangulation_sampler_reproduces_bitwise(name):
    body = TRIANGULATED[name]
    a = sample(body, "interior", 3000, seed=27).points
    b = sample(PolytopeV(vertices=body.vertices.copy()), "interior", 3000, seed=27).points
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample(body, "interior", 3000, seed=28).points)


def _plain(state):
    """A bit-generator state with its arrays as lists, so that == compares it."""
    if isinstance(state, dict):
        return {key: _plain(v) for key, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@pytest.mark.parametrize("name", ["triangle", "simplex3", "hexagon", "random4"])
def test_triangulation_draws_d_uniforms_per_point(name):
    # the simplex choice takes n uniforms (several simplices only), the
    # weights a (d, n) block of uniforms, and nothing else is drawn
    body = TRIANGULATED[name]
    tri = body.triangulation()
    n, d = 1000, body.dim
    rng = stream(41, 0)
    sampling._triangulation_points(tri, n, rng)
    want = stream(41, 0)
    if len(tri.volumes) > 1:
        want.random(n)
    want.random((d, n))
    assert _plain(rng.bit_generator.state) == _plain(want.bit_generator.state)


@pytest.mark.parametrize("name", ["simplex3", "simplex7"])
def test_triangulation_barycentric_coordinates_are_dirichlet(name):
    # each of the d + 1 barycentric coordinates of a uniform point of a
    # d-simplex is Beta(1, d)
    from scipy import stats

    body = TRIANGULATED[name]
    d = body.dim
    pts = sample(body, "interior", 200_000, seed=42).points
    lam = np.column_stack([1.0 - pts.sum(axis=1), pts])
    for r in range(d + 1):
        assert stats.kstest(lam[:, r], stats.beta(1, d).cdf).pvalue > 1e-3


@pytest.mark.parametrize("d", [2, 3])
def test_ball_interior_is_uniform(d):
    # for a uniform point x of the unit ball, |x|^d is U(0, 1) and, in
    # d = 2, the polar angle is U(-pi, pi)
    from scipy import stats

    center = np.arange(1.0, d + 1.0)
    pts = sample(Ball(center=center, radius=2.5), "interior", 200_000, seed=43).points
    z = (pts - center) / 2.5
    r = np.linalg.norm(z, axis=1)
    assert stats.kstest(r**d, stats.uniform.cdf).pvalue > 1e-3
    if d == 2:
        angle = np.arctan2(z[:, 1], z[:, 0])
        assert stats.kstest(angle, stats.uniform(-math.pi, 2 * math.pi).cdf).pvalue > 1e-3


# The ball-type samplers as first written, with broadcasts against the last
# axis.  The column-wise samplers must match them bit for bit.
def _reference_unit_directions(rng, n, d):
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1)
    bad = norms < 1e-12
    while np.any(bad):
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms[bad] = np.linalg.norm(g[bad], axis=1)
        bad = norms < 1e-12
    return g / norms[:, None]


def _reference_unit_ball_points(rng, n, d):
    dirs = _reference_unit_directions(rng, n, d)
    radii = rng.random(n) ** (1.0 / d)
    return dirs * radii[:, None]


def _reference_collect(n, propose_accepted):
    chunks, got = [], 0
    batch = max(1024, n)
    while got < n:
        pts = propose_accepted(batch)
        chunks.append(pts)
        got += len(pts)
    return np.vstack(chunks)[:n]


def _reference_sample(body, mode, n, seed):
    d = body.dim
    rng = stream(seed, 0 if mode == "interior" else 1)
    if mode == "boundary" and isinstance(body, Ball):
        return body.center + body.radius * _reference_unit_directions(rng, n, d)
    if mode == "boundary":
        s = body.semi_axes
        s_min = float(np.min(s))

        def propose(m):
            theta = _reference_unit_directions(rng, m, d)
            accept_prob = s_min * np.linalg.norm(theta / s, axis=1)
            return theta[rng.random(m) < accept_prob]

        theta = _reference_collect(n, propose)
        return body.center + (theta * s) @ body.rotation.T
    if isinstance(body, Ball):
        return body.center + body.radius * _reference_unit_ball_points(rng, n, d)
    if isinstance(body, Ellipsoid):
        z = _reference_unit_ball_points(rng, n, d)
        return body.center + (z * body.semi_axes) @ body.rotation.T

    def propose_bump(m):
        pts = body.radius * _reference_unit_ball_points(rng, m, d)
        return pts[contains_batch(body, pts)]

    return _reference_collect(n, propose_bump)


BALL_OFF = Ball(center=[0.75, -1.5], radius=2.5)
BALL_OFF3 = Ball(center=[0.75, -1.5, 3.0], radius=2.5)
_ROT3 = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))[0]
ELL3 = Ellipsoid(center=[0.0, 1.0, -2.0], semi_axes=[1.5, 0.4, 0.9], rotation=_ROT3)
BALL_CASES = [
    (BALL_OFF, "interior"),
    (BALL_OFF3, "interior"),
    (ELL, "interior"),
    (ELL3, "interior"),
    (BUMP, "interior"),
    (BALL_OFF, "boundary"),
    (BALL_OFF3, "boundary"),
    (ELL, "boundary"),
    (ELL3, "boundary"),
]
BALL_IDS = [
    "ball-interior",
    "ball3-interior",
    "ellipsoid-interior",
    "ellipsoid3-interior",
    "bump-interior",
    "ball-boundary",
    "ball3-boundary",
    "ellipsoid-boundary",
    "ellipsoid3-boundary",
]


@pytest.mark.parametrize("d", range(1, 10))
@pytest.mark.parametrize("n", [1, 2, 1023, 100_000])
def test_unit_directions_match_broadcast_reference(d, n):
    # d = 8 and 9 cross the switch from column sums to np.linalg.norm
    for seed in range(4):
        got = unit_directions(stream(seed, d), n, d)
        want = _reference_unit_directions(stream(seed, d), n, d)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d", range(1, 10))
@pytest.mark.parametrize("n", [1, 2, 1023, 100_000])
def test_unit_ball_points_match_broadcast_reference(d, n):
    for seed in range(4):
        got = unit_ball_points(stream(seed, d), n, d)
        want = _reference_unit_ball_points(stream(seed, d), n, d)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("body, mode", BALL_CASES, ids=BALL_IDS)
@pytest.mark.parametrize("n", [1, 2, 1023, 100_000])
def test_ball_type_samplers_match_broadcast_reference(body, mode, n):
    for seed in range(4):
        got = sample(body, mode, n, seed).points
        assert np.array_equal(got, _reference_sample(body, mode, n, seed))


class _ZeroFirstRow:
    """A generator whose first standard_normal draw has an all-zero row 1."""

    def __init__(self, seed):
        self._rng = stream(seed)
        self.zeroed = False

    def standard_normal(self, size):
        g = self._rng.standard_normal(size)
        if not self.zeroed:
            g[1] = 0.0
            self.zeroed = True
        return g

    def random(self, size):
        return self._rng.random(size)


@pytest.mark.parametrize("d", [1, 3, 9])
def test_zero_norm_row_is_redrawn_as_in_reference(d):
    got = unit_directions(_ZeroFirstRow(5), 50, d)
    want = _reference_unit_directions(_ZeroFirstRow(5), 50, d)
    assert np.array_equal(got, want)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, atol=1e-12)
    got = unit_ball_points(_ZeroFirstRow(6), 50, d)
    assert np.array_equal(got, _reference_unit_ball_points(_ZeroFirstRow(6), 50, d))


# ---------------------------------------------------------------------------
# row blocks: the kernels do their arithmetic _BLOCK_ROWS rows at a time, so
# clouds that end just before, on and just after a block edge, and one that
# spans three blocks, must match the references bit for bit

_B = sampling._BLOCK_ROWS
BLOCK_EDGES = [_B - 1, _B, _B + 1, 2 * _B + 1]


@pytest.mark.parametrize("name", ["simplex3", "simplex7", "hexagon", "random4"])
@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_triangulation_matches_reference_across_block_edges(name, n):
    # one simplex (simplex3, simplex7) and several (hexagon, random4)
    body = TRIANGULATED[name]
    got = sample(body, "interior", n, seed=31).points
    np.testing.assert_array_equal(got, _reference_triangulation(body, n, 31))


@pytest.mark.parametrize("d", [2, 3, 9])
@pytest.mark.parametrize("mode", ["interior", "boundary"])
@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_ball_matches_reference_across_block_edges(d, mode, n):
    # d = 9 takes np.linalg.norm for its row norms
    body = Ball(center=np.linspace(-1.5, 3.0, d), radius=2.5)
    for seed in (0, 1):
        got = sample(body, mode, n, seed).points
        assert np.array_equal(got, _reference_sample(body, mode, n, seed))


class _ZeroRowInThirdBlock(_ZeroFirstRow):
    """_ZeroFirstRow with the all-zero row at the start of the third block."""

    def standard_normal(self, size):
        g = self._rng.standard_normal(size)
        if not self.zeroed:
            g[2 * _B] = 0.0
            self.zeroed = True
        return g


@pytest.mark.parametrize("d", [1, 3, 9])
@pytest.mark.parametrize("rng_type", [_ZeroFirstRow, _ZeroRowInThirdBlock])
def test_zero_norm_row_is_redrawn_across_block_edges(d, rng_type):
    n = 2 * _B + 1
    got = unit_directions(rng_type(5), n, d)
    assert np.array_equal(got, _reference_unit_directions(rng_type(5), n, d))
    np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, atol=1e-12)
    got = unit_ball_points(rng_type(6), n, d)
    assert np.array_equal(got, _reference_unit_ball_points(rng_type(6), n, d))
