"""Class constants, deviation tails, and cap-mass membership checks."""

import math
from dataclasses import fields

import numpy as np
import pytest

from randhull.bounds import (
    ClassParams,
    MembershipReport,
    check_class_membership,
    class_params_boundary,
    class_params_smooth,
    deviation_bound,
    fit_class_l,
    make_deviation_bound,
    rate_exponent,
)
from randhull.geometry import Ball, Ellipsoid, PolytopeV, support
from randhull.sampling import derived_seed, sample, stream, unit_directions

SMOOTH2 = class_params_smooth(2, 1.0)


# ---------------------------------------------------------------------------
# class constants


def test_smooth_params_closed_form_d2():
    assert SMOOTH2.alpha == pytest.approx(1.5, abs=1e-15)
    assert SMOOTH2.big_l == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-14)
    assert SMOOTH2.eps0 == pytest.approx(1.0, abs=1e-15)


def test_smooth_params_closed_form_d3():
    p = class_params_smooth(3, 1.0)
    assert p.alpha == pytest.approx(2.0, abs=1e-15)
    assert p.big_l == pytest.approx(0.375, abs=1e-14)


def test_boundary_params_closed_form():
    p = class_params_boundary(2, 1.0)
    assert (p.alpha, p.big_l, p.eps0) == pytest.approx((0.5, 1.0, 1.0))
    q = class_params_boundary(2, 0.25)
    assert (q.alpha, q.big_l, q.eps0) == pytest.approx((0.5, 0.5, 0.25))


def test_params_validation():
    with pytest.raises(ValueError):
        ClassParams(alpha=0.0, big_l=1.0, eps0=1.0)
    with pytest.raises(ValueError):
        ClassParams(alpha=1.0, big_l=-1.0, eps0=1.0)
    with pytest.raises(ValueError):
        ClassParams(alpha=1.0, big_l=1.0, eps0=1.5)
    with pytest.raises(ValueError):
        ClassParams(alpha=1.0, big_l=1.0, eps0=0.0)


def test_params_dict_round_trip():
    doc = SMOOTH2.to_dict()
    assert set(doc) == {"alpha", "L", "eps0"}
    back = ClassParams.from_dict(doc)
    assert back == SMOOTH2


# ---------------------------------------------------------------------------
# deviation bound


def test_bound_scales_closed_form():
    b = make_deviation_bound(SMOOTH2, 2, 10000)
    # alpha * L = 1.5 * 4/(3 pi) = 2/pi, so tau1 = d / (2/pi) = pi
    assert b.tau1 == pytest.approx(math.pi, abs=1e-12)
    assert b.a_n == pytest.approx(
        (math.pi * math.log(10000) / 10000) ** (2.0 / 3.0), abs=1e-15
    )
    assert b.b_n == pytest.approx(10000 ** (-2.0 / 3.0), abs=1e-18)


def test_threshold_is_affine():
    b = make_deviation_bound(SMOOTH2, 2, 10000)
    assert b.threshold(0.0) == pytest.approx(2.0 * b.a_n, abs=1e-15)
    assert b.threshold(5.0) == pytest.approx(2.0 * b.a_n + 10.0 * b.b_n, abs=1e-15)


def test_tail_closed_form_in_main_zone():
    b = make_deviation_bound(SMOOTH2, 2, 10000)
    x = 20.0
    expected = min(
        1.0, 12.0**2 * math.exp(-SMOOTH2.big_l * x**1.5)
    )  # c_alpha(1.5) = 1
    assert b.tail(x) == pytest.approx(expected, rel=1e-12)
    assert b.tail(0.0) == 1.0


def test_tail_clipping_zones():
    # params chosen so all three zones are reachable and distinguishable
    p = ClassParams(alpha=1.0, big_l=1.0, eps0=0.5)
    b = make_deviation_bound(p, 2, 1000)
    x_clip = (p.eps0 - b.a_n) / b.b_n
    assert 0.0 < x_clip < (1.0 - b.a_n) / b.b_n  # zone layout as intended
    # inside the guaranteed zone the bound moves with x
    assert b.tail(10.0) > b.tail(20.0) > 0.0
    # beyond eps0 the bound freezes at its clip value
    frozen = b.tail(x_clip)
    assert frozen > 0.0
    assert b.tail(x_clip + 100.0) == pytest.approx(frozen, rel=1e-9)
    assert b.tail(x_clip + 400.0) == pytest.approx(frozen, rel=1e-9)
    # beyond width 1 nothing is possible at all
    x_far = (1.0 - b.a_n) / b.b_n + 1.0
    assert b.tail(x_far) == 0.0


def test_tail_frozen_at_one_when_eps0_unreachable():
    p = ClassParams(alpha=1.0, big_l=1.0, eps0=0.01)
    b = make_deviation_bound(p, 2, 10)
    if b.a_n > p.eps0:
        assert b.tail(1.0) == 1.0


def test_tail_nonincreasing():
    b = make_deviation_bound(SMOOTH2, 2, 10000)
    xs = np.linspace(0.0, 500.0, 300)
    vals = np.array([b.tail(x) for x in xs])
    assert np.all(np.diff(vals) <= 1e-15)


def test_deviation_bound_wrapper_consistent():
    ev = deviation_bound(SMOOTH2, 2, 10000, 20.0)
    b = make_deviation_bound(SMOOTH2, 2, 10000)
    assert ev.threshold == pytest.approx(b.threshold(20.0), abs=1e-15)
    assert ev.tail == pytest.approx(b.tail(20.0), rel=1e-12)
    assert ev.tau1 == pytest.approx(b.tau1, abs=1e-15)


def test_bound_rejects_tiny_n():
    with pytest.raises(ValueError):
        make_deviation_bound(SMOOTH2, 2, 1)


# ---------------------------------------------------------------------------
# membership


def test_ball_interior_membership_analytic():
    rep = check_class_membership(Ball(center=[0.0, 0.0], radius=1.0), "interior", SMOOTH2)
    assert rep.analytic
    assert rep.slack == 0.0
    assert rep.verdict
    # the worst width is the full one: half the mass over L gives 3 pi / 8
    assert rep.worst_ratio == pytest.approx(3.0 * math.pi / 8.0, rel=1e-10)
    assert rep.argmin_eps == pytest.approx(1.0)


def test_ball_interior_membership_fails_with_inflated_l():
    inflated = ClassParams(
        alpha=SMOOTH2.alpha, big_l=10.0 * SMOOTH2.big_l, eps0=SMOOTH2.eps0
    )
    rep = check_class_membership(
        Ball(center=[0.0, 0.0], radius=1.0), "interior", inflated
    )
    assert not rep.verdict
    assert rep.worst_ratio < 1.0


def test_small_circle_boundary_membership_analytic():
    body = Ball(center=[0.0, 0.0], radius=0.25)
    params = class_params_boundary(2, 0.25)
    rep = check_class_membership(body, "boundary", params)
    assert rep.analytic and rep.verdict
    # smallest grid width eps = 1e-3 * eps0 gives the minimum ratio
    eps = 1e-3 * 0.25
    expected = math.acos(1.0 - eps / 0.25) / (math.pi * 0.5 * math.sqrt(eps))
    assert rep.worst_ratio == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize(
    "body",
    [Ball(center=[0.0, 0.0], radius=1.0), PolytopeV([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])],
    ids=["ball", "polytope"],
)
def test_unknown_mode_is_rejected_on_either_path(body):
    with pytest.raises(ValueError, match="unknown mode 'edge'"):
        check_class_membership(body, "edge", class_params_boundary(2, 0.25))


def test_ball_narrower_than_the_widest_probed_cap_is_rejected():
    with pytest.raises(ValueError, match="cap height"):
        check_class_membership(
            Ball(center=[0.0, 0.0], radius=0.25), "interior", ClassParams(1.5, 1.0, 1.0)
        )


def test_unit_circle_boundary_falls_short_of_nominal_constant():
    # the stated constant r^((d-1)/2) = 1 is not met by the unit circle at
    # small widths: arc mass / sqrt(eps) tends to sqrt(2)/pi < 1/2
    rep = check_class_membership(
        Ball(center=[0.0, 0.0], radius=1.0), "boundary", class_params_boundary(2, 1.0)
    )
    assert not rep.verdict
    eps = 1e-3
    expected = math.acos(1.0 - eps) / (math.pi * math.sqrt(eps))
    assert rep.worst_ratio == pytest.approx(expected, rel=1e-10)


def test_monte_carlo_membership_for_ellipsoid():
    body = Ellipsoid(center=[0.0, 0.0], semi_axes=[1.0, 0.8], rotation=np.eye(2))
    params = class_params_smooth(2, body.rolling_radius)
    rep = check_class_membership(body, "interior", params, n_mc=40000, seed=5)
    assert not rep.analytic
    assert rep.slack > 0.0
    assert rep.verdict


def per_probe_membership(body, mode, params, u_probes, eps_grid, n_mc, seed):
    """The Monte Carlo check one probe at a time, each row reduced on its own."""
    eps = np.geomspace(1e-3 * params.eps0, params.eps0, eps_grid)
    floor = params.big_l * eps**params.alpha
    measurable = floor * n_mc >= 30.0
    eps, floor = eps[measurable], floor[measurable]
    worst, slack, argmin_eps = math.inf, 0.0, float("nan")
    for j, u in enumerate(unit_directions(stream(seed, 101), u_probes, body.dim)):
        proj = np.sort(sample(body, mode, n_mc, derived_seed(seed, j)).points @ u)
        counts = n_mc - np.searchsorted(proj, support(body, u) - eps, side="left")
        p_hat = counts / n_mc
        ratios = p_hat / floor
        k = int(np.argmin(ratios))
        if ratios[k] < worst:
            worst = float(ratios[k])
            sd = math.sqrt(max(0.0, p_hat[k] * (1.0 - p_hat[k]) / n_mc))
            slack = 3.0 * sd / floor[k]
            argmin_eps = float(eps[k])
    grid = (
        f"{u_probes} directions x {len(eps)} measurable widths "
        f"log-spaced in [{eps[0]:g}, {eps[-1]:g}]"
    )
    return MembershipReport(
        worst_ratio=worst,
        verdict=bool(worst >= 1.0 - slack),
        grid=grid,
        slack=slack,
        analytic=False,
        argmin_eps=argmin_eps,
        params=params,
        mode=mode,
    )


ELLIPSE = Ellipsoid(center=[0.0, 0.0], semi_axes=[1.0, 0.8], rotation=np.eye(2))

MONTE_CARLO_CASES = {
    "ellipse": (ELLIPSE, "interior", class_params_smooth(2, ELLIPSE.rolling_radius)),
    "square": (
        PolytopeV(vertices=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        "interior",
        ClassParams(alpha=2.0, big_l=0.5, eps0=1.0),
    ),
    "simplex3": (
        PolytopeV(vertices=np.vstack([np.zeros(3), np.eye(3)])),
        "interior",
        ClassParams(alpha=3.0, big_l=0.5, eps0=0.5),
    ),
    "ellipse_boundary": (ELLIPSE, "boundary", ClassParams(alpha=0.5, big_l=0.25, eps0=0.64)),
    "ellipse_inflated_l": (
        ELLIPSE,
        "interior",
        ClassParams(alpha=1.5, big_l=10.0 * class_params_smooth(2, 0.64).big_l, eps0=0.64),
    ),
}


@pytest.mark.parametrize("case", sorted(MONTE_CARLO_CASES))
def test_monte_carlo_table_matches_the_per_probe_reduction(case):
    body, mode, params = MONTE_CARLO_CASES[case]
    args = (body, mode, params, 6, 48, 20000, 13)
    rep = check_class_membership(*args)
    ref = per_probe_membership(*args)
    for f in fields(MembershipReport):
        assert getattr(rep, f.name) == getattr(ref, f.name), f.name
    assert rep.verdict is (case != "ellipse_inflated_l")


def test_fitted_constant_normalizes_worst_ratio():
    square = PolytopeV(vertices=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    fitted = fit_class_l(square, "interior", alpha=2.0, eps0=1.0, n_mc=40000, seed=7)
    assert fitted.alpha == 2.0
    assert fitted.big_l > 0.0
    rep = check_class_membership(
        square, "interior", fitted, n_mc=40000, seed=7
    )
    assert rep.worst_ratio == pytest.approx(1.0, rel=1e-9)
    assert rep.verdict


# ---------------------------------------------------------------------------
# rate exponents


def test_rate_exponent_table():
    assert rate_exponent("smooth_interior", 2) == pytest.approx(2.0 / 3.0)
    assert rate_exponent("smooth_interior", 3) == pytest.approx(0.5)
    assert rate_exponent("polytope_interior", 2) == pytest.approx(0.5)
    assert rate_exponent("polytope_interior", 3) == pytest.approx(1.0 / 3.0)
    assert rate_exponent("smooth_boundary", 2) == pytest.approx(2.0)
    assert rate_exponent("smooth_boundary", 3) == pytest.approx(1.0)


def test_rate_exponent_rejects_unknown():
    with pytest.raises(ValueError):
        rate_exponent("mystery", 2)
    with pytest.raises(ValueError):
        rate_exponent("smooth_interior", 1)
