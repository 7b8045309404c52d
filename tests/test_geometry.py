"""Geometry layer: support functions, gauges, caps, and the dented ball."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from randhull.geometry import (
    Ball,
    BumpBall,
    Ellipsoid,
    PolytopeV,
    ball_volume,
    body_from_dict,
    body_to_dict,
    bump_eta,
    bump_profile,
    bump_profile_mass,
    c_alpha,
    canonical_center,
    cap_area_sphere,
    cap_share,
    cap_volume_ball,
    contains,
    contains_batch,
    load_body,
    minkowski_functional,
    save_body,
    sphere_area,
    support,
    support_batch,
    unit,
)

BALL2 = Ball(center=[0.0, 0.0], radius=1.0)
SQUARE = PolytopeV(vertices=[[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def homogeneous_support(body, x):
    """|x| * h(x/|x|), the positively homogeneous extension; 0 at the origin.

    |x| is taken as max|x_i| * |x / max|x_i||, so that it does not underflow.
    """
    scale = float(np.max(np.abs(x)))
    if scale == 0.0:
        return 0.0
    norm = scale * float(np.linalg.norm(x / scale))
    return norm * float(support_batch(body, unit(x)[None, :])[0])


def units_strategy(d):
    return (
        st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(unit)
    )


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e200])
def test_unit_is_unit_at_every_scale(scale):
    # the squared norm of the smallest vector underflows, that of the
    # largest overflows
    u = unit(scale * np.array([3.0, -4.0]))
    np.testing.assert_allclose(u, [0.6, -0.8], rtol=1e-15)
    assert abs(float(np.linalg.norm(u)) - 1.0) <= 1e-15


def test_unit_rejects_the_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        unit([0.0, 0.0])


# ---------------------------------------------------------------------------
# caps and reference volumes


def test_ball_volume_closed_forms():
    assert ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert ball_volume(4) == pytest.approx(math.pi**2 / 2.0, rel=1e-14)


def test_sphere_area_closed_forms():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_cap_volume_matches_circular_segment():
    # independent route: segment area r^2 arccos((r-e)/r) - (r-e) sqrt(2re-e^2)
    for r, eps in [(1.0, 0.5), (1.0, 0.1), (0.7, 0.3), (2.0, 1.3)]:
        seg = r**2 * math.acos((r - eps) / r) - (r - eps) * math.sqrt(
            2 * r * eps - eps**2
        )
        assert cap_volume_ball(2, r, eps) == pytest.approx(seg, abs=1e-10)


def test_cap_volume_full_width_is_whole_ball():
    for d in (1, 2, 3, 4):
        for r in (1.0, 0.35):
            whole = ball_volume(d) * r**d
            assert cap_volume_ball(d, r, 2 * r) == pytest.approx(whole, rel=1e-8)


def test_cap_volume_one_dimensional_is_interval_length():
    assert cap_volume_ball(1, 1.0, 0.25) == pytest.approx(0.25, abs=1e-12)


def test_cap_volume_monotone_in_width():
    eps = np.linspace(0.05, 1.95, 20)
    vals = [cap_volume_ball(3, 1.0, e) for e in eps]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_cap_area_sphere_closed_forms():
    # d=3: area of a spherical cap of width eps is 2 pi R eps
    assert cap_area_sphere(3, 1.0, 0.3) == pytest.approx(
        2.0 * math.pi * 0.3, abs=1e-10
    )
    assert cap_area_sphere(3, 0.5, 0.2) == pytest.approx(
        2.0 * math.pi * 0.5 * 0.2, abs=1e-10
    )
    # d=2: arc length of a circular cap of width eps is 2 r arccos((r-eps)/r)
    assert cap_area_sphere(2, 1.0, 1.0 - math.cos(math.pi / 4)) == pytest.approx(
        math.pi / 2.0, abs=1e-10
    )


def test_cap_area_full_width_is_whole_sphere():
    for d in (2, 3, 4):
        assert cap_area_sphere(d, 1.0, 2.0) == pytest.approx(
            sphere_area(d), rel=1e-8
        )


def test_cap_rejects_bad_widths():
    with pytest.raises(ValueError):
        cap_volume_ball(2, 1.0, -0.1)
    with pytest.raises(ValueError):
        cap_volume_ball(2, 1.0, 2.5)
    with pytest.raises(ValueError, match="cap height"):
        cap_area_sphere(3, 1.0, 2.5)
    with pytest.raises(ValueError, match="cap height"):
        cap_volume_ball(2, 1.0, math.nan)
    with pytest.raises(ValueError, match="cap height"):
        cap_share(1.5, 0.25, np.array([0.1, 0.6]))
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        cap_area_sphere(1, 1.0, 0.5)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        cap_volume_ball(0, 1.0, 0.5)


# mpmath at 50 digits, where the quadrature of beta_{d-1} (x(2r - x))^((d-1)/2)
# and the incomplete beta function agree to 1e-51
@pytest.mark.parametrize(
    "d, r, eps, ref",
    [
        (4, 0.3, 1e-3, 2.4580997855867814199e-8),
        (4, 1.0, 1e-3, 1.4978243847115795966e-7),
        (6, 1.0, 2e-3, 3.0378451919682080451e-9),
    ],
)
def test_cap_volume_matches_high_precision_references(d, r, eps, ref):
    assert cap_volume_ball(d, r, eps) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("r", [1.0, 0.35, 2.0])
def test_cap_shares_of_complementary_heights_sum_to_one(a, r):
    eps = np.linspace(0.0, 2.0 * r, 41)
    assert cap_share(a, r, eps) + cap_share(a, r, 2.0 * r - eps) == pytest.approx(1.0, abs=1e-15)


def test_cap_share_array_call_equals_its_scalar_calls():
    eps = np.geomspace(1e-4, 1.9, 57)
    shares = cap_share(1.5, 0.95, eps)
    assert shares.tolist() == [cap_share(1.5, 0.95, e) for e in eps]
    assert type(cap_share(1.5, 0.95, 0.3)) is float


# ---------------------------------------------------------------------------
# the subadditivity constant


def test_c_alpha_value_at_half():
    assert c_alpha(0.5) == pytest.approx(2.0**-0.5, abs=1e-6)


def test_c_alpha_closed_form_regions():
    assert c_alpha(1.0) == pytest.approx(1.0, abs=1e-12)
    assert c_alpha(2.0) == pytest.approx(1.0, abs=1e-12)
    assert c_alpha(0.25) == pytest.approx(2.0**-0.75, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 3.0, 5.0])
def test_c_alpha_matches_grid_minimum(alpha):
    # a log-spaced grid can only overshoot the infimum, which is attained at
    # t = 1 or approached at the ends of the t-range
    t = np.logspace(-6, 6, 2001)
    grid = float(np.min((1.0 + t) ** alpha / (1.0 + t**alpha)))
    closed = c_alpha(alpha)
    assert closed - 1e-12 <= grid <= closed + 1e-4


def test_c_alpha_subadditivity_inequality():
    rng = np.random.Generator(np.random.Philox(12345))
    t = np.exp(rng.uniform(-8, 8, 10000))
    alpha = rng.uniform(0.05, 4.0, 10000)
    c = np.array([c_alpha(a) for a in alpha])
    lhs = (1.0 + t) ** alpha
    rhs = c * (1.0 + t**alpha)
    assert np.all(lhs >= rhs * (1.0 - 1e-12))


# ---------------------------------------------------------------------------
# support functions


def test_ball_support_closed_form():
    b = Ball(center=[0.5, -0.25], radius=2.0)
    u = unit([3.0, 4.0])
    assert support(b, u) == pytest.approx(u @ [0.5, -0.25] + 2.0, abs=1e-12)


def test_square_support_closed_form():
    assert support(SQUARE, unit([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    assert support(SQUARE, unit([1.0, 1.0])) == pytest.approx(
        math.sqrt(2.0), abs=1e-12
    )


def test_ellipsoid_support_axis_aligned():
    e = Ellipsoid(
        center=[1.0, 0.0], semi_axes=[2.0, 0.5], rotation=np.eye(2)
    )
    assert support(e, np.array([1.0, 0.0])) == pytest.approx(3.0, abs=1e-12)
    assert support(e, np.array([0.0, 1.0])) == pytest.approx(0.5, abs=1e-12)


def test_ellipsoid_support_rotation_invariance():
    theta = 0.7
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    e0 = Ellipsoid(center=[0.0, 0.0], semi_axes=[2.0, 0.5], rotation=np.eye(2))
    e1 = Ellipsoid(center=[0.0, 0.0], semi_axes=[2.0, 0.5], rotation=rot)
    u = unit([0.3, -0.9])
    # rotating the body then the direction recovers the original value
    assert support(e1, rot @ u) == pytest.approx(support(e0, u), abs=1e-12)


def test_support_batch_matches_single():
    dirs = np.array([unit([1.0, 2.0]), unit([-1.0, 0.3]), unit([0.0, -1.0])])
    for body in (BALL2, SQUARE):
        batch = support_batch(body, dirs)
        singles = [support(body, u) for u in dirs]
        np.testing.assert_allclose(batch, singles, atol=1e-12)


@given(units_strategy(2), units_strategy(2))
# u + v = [1.3e-158, 0], whose squared norm underflows
@example(u=np.array([0.0, 1.0]), v=np.array([1.3373889e-158, -1.0]))
def test_support_subadditive_on_square(u, v):
    huv = homogeneous_support(SQUARE, u + v)
    hu, hv = support_batch(SQUARE, np.array([u, v]))
    assert huv <= hu + hv + 1e-9


def test_ball_width_constant():
    b = Ball(center=[0.3, 0.1], radius=0.8)
    for u in (unit([1.0, 0.0]), unit([2.0, -1.0])):
        width = support_batch(b, np.array([u, -u])).sum()
        assert width == pytest.approx(1.6, abs=1e-12)


# ---------------------------------------------------------------------------
# gauge, membership, polarity


def test_gauge_shifted_ball_closed_form():
    b = Ball(center=[0.5, 0.0], radius=1.0)
    assert minkowski_functional(b, np.array([1.0, 0.0])) == pytest.approx(
        2.0 / 3.0, abs=1e-12
    )


def test_gauge_square_closed_form():
    assert minkowski_functional(SQUARE, np.array([0.5, 0.25])) == pytest.approx(
        0.5, abs=1e-10
    )


@given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2).map(np.array))
def test_gauge_one_iff_membership(x):
    if np.linalg.norm(x) < 1e-6:
        return
    for body in (BALL2, SQUARE, Ellipsoid(center=[0.0, 0.0], semi_axes=[1.5, 0.5], rotation=np.eye(2))):
        g = minkowski_functional(body, x)
        assert contains(body, x, tol=1e-9) == (g <= 1.0 + 1e-9)


def test_gauge_is_positively_homogeneous():
    x = np.array([0.4, -0.7])
    for body in (BALL2, SQUARE):
        g1 = minkowski_functional(body, x)
        g2 = minkowski_functional(body, 2.5 * x)
        assert g2 == pytest.approx(2.5 * g1, rel=1e-9)


@given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2).map(np.array))
def test_support_equals_polar_gauge(x):
    if np.linalg.norm(x) < 1e-6:
        return
    # each body and its polar, a centered ball or ellipsoid with reciprocal radii
    for body, polar in (
        (Ball(center=[0.0, 0.0], radius=1.7), Ball(center=[0.0, 0.0], radius=1.0 / 1.7)),
        (
            Ellipsoid(center=[0.0, 0.0], semi_axes=[2.0, 0.5], rotation=np.eye(2)),
            Ellipsoid(center=[0.0, 0.0], semi_axes=[0.5, 2.0], rotation=np.eye(2)),
        ),
    ):
        h = homogeneous_support(body, x)
        assert h == pytest.approx(minkowski_functional(polar, x), rel=1e-9, abs=1e-12)


def test_canonical_center_values():
    np.testing.assert_allclose(canonical_center(BALL2), [0.0, 0.0])
    np.testing.assert_allclose(canonical_center(SQUARE), [0.0, 0.0], atol=1e-15)
    bump = BumpBall(radius=1.0, bump_scale=0.1, amplitude=0.02, direction=[0.0, 1.0])
    np.testing.assert_allclose(canonical_center(bump), [0.0, 0.0])


# ---------------------------------------------------------------------------
# dented ball


def test_bump_eta_shape():
    assert bump_eta(0.5) == 0.0
    assert bump_eta(1.0) == 0.0
    assert bump_eta(0.75) == pytest.approx(1.0, abs=1e-12)
    x = np.linspace(-1.0, 2.0, 400)
    y = np.asarray(bump_eta(x))
    assert np.all(y >= 0.0)
    assert np.all(y[(x <= 0.5) | (x >= 1.0)] == 0.0)
    assert y.max() <= 1.0 + 1e-12


def test_bump_profile_peaks_at_zero():
    assert bump_profile(0.0) == pytest.approx(1.0, abs=1e-12)
    assert bump_profile(1.0) == 0.0
    assert bump_profile(-1.0) == 0.0
    s = np.linspace(-1.0, 1.0, 201)
    y = np.asarray(bump_profile(s))
    np.testing.assert_allclose(y, y[::-1], atol=1e-12)


def test_bump_profile_mass_matches_quadrature():
    from scipy.integrate import quad

    direct, _ = quad(lambda s: float(bump_profile(s)), -1.0, 1.0, epsabs=1e-12)
    assert bump_profile_mass(2) == pytest.approx(direct, rel=1e-9)


def test_bump_support_at_pole_is_dented_radius():
    bump = BumpBall(radius=1.0, bump_scale=0.1, amplitude=0.02, direction=[0.0, 1.0])
    assert support(bump, np.array([0.0, 1.0])) == pytest.approx(
        1.0 - 0.02 * 0.1**2, abs=1e-12
    )
    # away from the dent window the ball is intact
    assert support(bump, np.array([0.0, -1.0])) == pytest.approx(1.0, abs=1e-12)
    assert support(bump, np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)


def test_bump_support_never_exceeds_ball():
    bump = BumpBall(radius=1.0, bump_scale=0.2, amplitude=0.02, direction=[1.0, 0.0])
    rng = np.random.Generator(np.random.Philox(5))
    dirs = rng.normal(size=(256, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = support_batch(bump, dirs)
    assert np.all(vals <= 1.0 + 1e-12)
    assert np.all(vals >= 1.0 - 0.02 * 0.2**2 - 1e-12)


def test_bump_membership_at_pole():
    bump = BumpBall(radius=1.0, bump_scale=0.1, amplitude=0.02, direction=[0.0, 1.0])
    depth = 0.02 * 0.1**2
    pole = np.array([0.0, 1.0])
    assert contains(bump, (1.0 - depth - 1e-6) * pole)
    assert not contains(bump, (1.0 - depth + 1e-6) * pole)
    assert contains(bump, np.array([0.0, -1.0]))


def test_bump_gauge_consistent_with_membership():
    bump = BumpBall(radius=1.0, bump_scale=0.15, amplitude=0.02, direction=[0.0, 1.0])
    x = np.array([0.004, 0.9])
    g = minkowski_functional(bump, x)
    assert contains(bump, x / g * (1.0 - 1e-9))
    assert not contains(bump, x / g * (1.0 + 1e-6))


def test_bump_dent_depth_field():
    bump = BumpBall(radius=2.0, bump_scale=0.1, amplitude=0.03, direction=[1.0, 0.0])
    assert bump.dent_depth == pytest.approx(0.03 * 0.01, abs=1e-15)


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize(
    "body",
    [
        Ball(center=[0.25, -1.0], radius=0.75),
        Ellipsoid(
            center=[0.0, 0.5],
            semi_axes=[1.5, 0.25],
            rotation=np.array([[0.8, -0.6], [0.6, 0.8]]),
        ),
        SQUARE,
        BumpBall(radius=1.0, bump_scale=0.1, amplitude=0.02, direction=[0.0, 1.0]),
    ],
    ids=["ball", "ellipsoid", "polytope", "bump"],
)
def test_body_dict_round_trip(body, tmp_path):
    doc = body_to_dict(body)
    back = body_from_dict(doc)
    assert type(back) is type(body)
    u = unit([0.3, 0.9])
    assert support(back, u) == pytest.approx(support(body, u), abs=1e-14)

    path = tmp_path / "body.json"
    save_body(body, path)
    loaded = load_body(path)
    assert support(loaded, u) == pytest.approx(support(body, u), abs=1e-14)


def test_body_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        body_from_dict({"kind": "torus"})


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"kind": "ball", "center": [0.0, 0.0], "radius": NaN}', "radius"),
        ('{"kind": "ball", "center": [0.0, Infinity], "radius": 1.0}', "center"),
        (
            '{"kind": "ellipsoid", "center": [0.0, 0.0], "semi_axes": [1.0, NaN],'
            ' "rotation": [[1.0, 0.0], [0.0, 1.0]]}',
            "semi_axes",
        ),
        (
            '{"kind": "polytope_v", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, NaN]]}',
            "vertices",
        ),
        (
            '{"kind": "bump_ball", "radius": 1.0, "bump_scale": 0.1, "amplitude": 0.02,'
            ' "direction": [NaN, 1.0]}',
            "direction",
        ),
    ],
    ids=["ball-radius", "ball-center", "ellipsoid", "polytope", "bump"],
)
def test_body_from_dict_rejects_non_finite_parameters(text, field):
    # Python's json reads the NaN and Infinity tokens
    with pytest.raises(ValueError, match=f" {field} must be finite"):
        body_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# polytope containment, facet by facet

SIMPLEX3 = PolytopeV(vertices=np.vstack([np.zeros(3), np.eye(3)]))
RANDOM4 = PolytopeV(vertices=np.random.default_rng(17).standard_normal((14, 4)))


def _contains_by_max(body, points, tol):
    """The single-max form of the facet test: max over facets of a.x + b <= tol."""
    eqs = body.facet_inequalities()
    return np.max(points @ eqs[:, :-1].T + eqs[:, -1], axis=1) <= tol


def _facet_probes(body, tol):
    """Facet points and their shifts by -2tol..2tol along each outward normal."""
    eqs = body.facet_inequalities()
    verts = body.vertices
    rows = []
    for a, b in zip(eqs[:, :-1], eqs[:, -1]):
        on = verts[np.abs(verts @ a + b) <= 1e-12]
        foot = on.mean(axis=0)
        rows.append(on)
        for k in (-2.0, -1.0, 0.0, 1.0, 2.0):
            rows.append((foot + k * tol * a)[None, :])
    rng = np.random.default_rng(3)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    rows.append(lo + (hi - lo) * rng.random((500, body.dim)))
    pts = np.vstack(rows)
    pts[::37] = np.nan
    pts[5, 0] = np.nan
    return pts


@pytest.mark.parametrize("body", [SQUARE, SIMPLEX3, RANDOM4], ids=["square", "simplex3", "random4"])
@pytest.mark.parametrize("tol", [1e-12, 1e-9, 0.0])
def test_polytope_contains_matches_max_form(body, tol):
    pts = _facet_probes(body, max(tol, 1e-12))
    got = contains_batch(body, pts, tol)
    assert got.dtype == bool and got.shape == (len(pts),)
    np.testing.assert_array_equal(got, _contains_by_max(body, pts, tol))
    assert not got[np.isnan(pts).any(axis=1)].any()
    assert got.any() and not got.all()


def test_polytope_contains_square_exact_cases():
    tol = 2.0**-40  # 1 + k*tol is exact, and so are the square's facet rows
    pts = np.array(
        [
            [1.0, 0.0],
            [1.0 + tol, 0.0],
            [1.0 + 2 * tol, 0.0],
            [1.0 - tol, 0.0],
            [-1.0, -1.0],
            [-1.0 - 2 * tol, 0.5],
            [np.nan, 0.0],
        ]
    )
    got = contains_batch(SQUARE, pts, tol)
    np.testing.assert_array_equal(got, [True, True, False, True, True, False, False])
    np.testing.assert_array_equal(got, _contains_by_max(SQUARE, pts, tol))


@pytest.mark.parametrize("body", [SQUARE, SIMPLEX3, RANDOM4], ids=["square", "simplex3", "random4"])
def test_polytope_contains_empty_input(body):
    got = contains_batch(body, np.empty((0, body.dim)))
    assert got.dtype == bool and got.shape == (0,)


# A random 4-d polytope whose facet product rounds differently when it is
# computed as A @ points.T, or row by row (the gemv path of a one-row block),
# on at least one row's largest facet value: found by search over seeds with
# OpenBLAS 0.3.31, and kept here so that such a change to contains_batch
# flips a verdict below.
def _box_points(body, n, rng):
    lo, hi = body.vertices.min(axis=0), body.vertices.max(axis=0)
    return lo + (hi - lo) * rng.random((n, body.dim))


_PINNED_RNG = np.random.default_rng(3)
PINNED4 = PolytopeV(vertices=_PINNED_RNG.standard_normal((14, 4)))
PINNED4_POINTS = _box_points(PINNED4, 1025, _PINNED_RNG)


@pytest.mark.parametrize(
    "body, pts",
    [
        (SQUARE, _box_points(SQUARE, 1025, np.random.default_rng(5))),
        (SIMPLEX3, _box_points(SIMPLEX3, 1025, np.random.default_rng(6))),
        (RANDOM4, _box_points(RANDOM4, 1025, np.random.default_rng(7))),
        (PINNED4, PINNED4_POINTS),
    ],
    ids=["square", "simplex3", "random4", "pinned4"],
)
def test_polytope_contains_is_exact_at_reference_facet_values(body, pts):
    # tol set to a row's largest reference facet value (points @ A.T)[i, j] + b[j]
    # keeps that row inside, and the next float below puts it outside; so any
    # change in how a row's binding facet value rounds flips a verdict.  1025
    # rows leave a one-row tail under any power-of-two blocking up to 1024.
    eqs = body.facet_inequalities()
    largest = np.max(pts @ eqs[:, :-1].T + eqs[:, -1], axis=1)
    for t in largest:
        for tol in (t, np.nextafter(t, -np.inf)):
            got = contains_batch(body, pts, tol)
            np.testing.assert_array_equal(got, largest <= tol)


# ---------------------------------------------------------------------------
# pulling triangulation of a polytope

CUBE = PolytopeV(vertices=[[a, b, c] for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)])
# a square with two points inside it, which are no vertices
SQUARE_WITH_INNER = PolytopeV(vertices=np.vstack([SQUARE.vertices, [[0.1, 0.2], [-0.3, 0.0]]]))
TRIANGULATED = {
    "square": SQUARE,
    "square_with_inner": SQUARE_WITH_INNER,
    "cube": CUBE,
    "simplex3": SIMPLEX3,
    "random4": RANDOM4,
    "simplex7": PolytopeV(vertices=np.vstack([np.zeros(7), np.eye(7)]) + 1e3),
}


@pytest.mark.parametrize("name", sorted(TRIANGULATED))
def test_triangulation_volumes_sum_to_the_hull_volume(name):
    from scipy.spatial import ConvexHull

    body = TRIANGULATED[name]
    apex, edges, volumes = body.triangulation()
    d = body.dim
    assert edges.shape == (len(volumes), d, d)
    assert volumes.min() > 0
    assert volumes.sum() == pytest.approx(ConvexHull(body.vertices).volume, rel=1e-9)
    # every simplex spans polytope vertices from a vertex of the hull
    assert any(np.array_equal(apex, v) for v in body.vertices[ConvexHull(body.vertices).vertices])
    corners = (edges + apex).reshape(-1, d)
    scale = float(np.abs(body.vertices).max())
    assert all(np.min(np.abs(body.vertices - c).max(axis=1)) <= 1e-15 * scale for c in corners)


def test_triangulation_of_a_simplex_is_the_simplex():
    for d in (2, 3, 7):
        body = PolytopeV(vertices=np.vstack([np.zeros(d), np.eye(d)]))
        assert body.triangulation().volumes.tolist() == [pytest.approx(1.0 / math.factorial(d))]


def test_triangulation_is_built_once_on_first_use(tmp_path):
    path = tmp_path / "cube.json"
    save_body(CUBE, path)
    body = load_body(path)
    assert body._hull is None and body._triangulation is None and body._facets is None
    tri = body.triangulation()
    assert body.triangulation() is tri
    np.testing.assert_array_equal(body.facet_inequalities(), CUBE.facet_inequalities())


@pytest.mark.parametrize("name", sorted(TRIANGULATED))
@pytest.mark.parametrize("first", ["facets", "triangulation"])
def test_facets_and_triangulation_share_one_qhull_call(monkeypatch, name, first):
    import scipy.spatial

    vertices = TRIANGULATED[name].vertices
    # the arrays as built from two separate Qhull calls
    facets = np.unique(scipy.spatial.ConvexHull(vertices).equations, axis=0)
    tri = PolytopeV(vertices=vertices).triangulation()
    hull_class = scipy.spatial.ConvexHull
    calls = []

    def counted(points):
        calls.append(len(points))
        return hull_class(points)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", counted)
    body = PolytopeV(vertices=vertices)
    if first == "facets":
        body.facet_inequalities()
    got_tri, got_facets = body.triangulation(), body.facet_inequalities()
    assert calls == [len(vertices)]
    assert got_facets.tobytes() == facets.tobytes()
    for want, got in zip(tri, got_tri):
        assert got.tobytes() == want.tobytes()
