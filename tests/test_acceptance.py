"""End-to-end acceptance checks, one test per numbered criterion.

Every test records a one-line PASS/FAIL verdict through the shared recorder
before asserting, so a red run still prints the full scoreboard for whatever
managed to execute.  The heavy Monte Carlo configurations are frozen (seeds,
grids, replication counts), which makes the slope values below exactly
reproducible; the pass windows are wide enough that the verdicts are about
the underlying convergence rates, not about lucky seeds.
"""

import json
import math

import numpy as np
import pytest

from randhull.bounds import (
    ClassParams,
    check_class_membership,
    class_params_boundary,
    class_params_smooth,
)
from randhull.estimators import HullMetric, MetricSpec, pairwise_hausdorff_certified
from randhull.geometry import Ball, PolytopeV, ball_volume, c_alpha, cap_volume_ball
from randhull.nets import build_net, decompose
from randhull.experiments import (
    ExperimentConfig,
    build_lower_bound_family,
    bump_volume_defect_exact,
    bump_volume_defect_mc,
    report_to_csv,
    run_deviation_experiment,
    run_rate_experiment,
)
from randhull.sampling import SampleCloud, stream, unit_directions

from conftest import record_criterion

BALL2 = Ball(center=[0.0, 0.0], radius=1.0)
BALL3 = Ball(center=[0.0, 0.0, 0.0], radius=1.0)
SQUARE = PolytopeV(vertices=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

RATE_GRID = [1000, 3000, 10000, 30000, 100000]


def smooth_rate_config() -> ExperimentConfig:
    return ExperimentConfig(
        body=BALL2,
        mode="interior",
        n_grid=list(RATE_GRID),
        reps=200,
        q=1.0,
        metric="hausdorff",
        master_seed=1005,
    )


@pytest.fixture(scope="module")
def smooth_rate_report():
    return run_rate_experiment(smooth_rate_config())


# criterion 1: cap volumes against independent closed forms


def test_cap_volume_oracles():
    # circular segment of height 1/2 on the unit disc:
    # r^2 acos((r-h)/r) - (r-h) sqrt(2rh - h^2)
    seg = math.acos(0.5) - 0.5 * math.sqrt(0.75)
    err_seg = abs(cap_volume_ball(2, 1.0, 0.5) - seg)
    err_full = 0.0
    for d in (1, 2, 3, 4):
        for r in (1.0, 0.6):
            whole = ball_volume(d) * r**d
            err_full = max(
                err_full, abs(cap_volume_ball(d, r, 2.0 * r) / whole - 1.0)
            )
    ok = err_seg < 1e-8 and err_full < 1e-8
    record_criterion(
        1,
        ok,
        f"segment abs err {err_seg:.2e}, full-ball rel err {err_full:.2e} "
        f"(tolerance 1e-8)",
    )
    assert ok


# criterion 2: the subadditivity constant and its defining inequality


def test_subadditivity_constant():
    err_half = abs(c_alpha(0.5) - 2.0**-0.5)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20250825)))
    t = np.exp(rng.uniform(-8.0, 8.0, 10000))
    alpha = rng.uniform(0.05, 4.0, 10000)
    c = np.array([c_alpha(a) for a in alpha])
    holds = np.all((1.0 + t) ** alpha >= c * (1.0 + t**alpha) * (1.0 - 1e-12))
    ok = err_half < 1e-6 and bool(holds)
    record_criterion(
        2,
        ok,
        f"c_alpha(0.5) err {err_half:.2e} (tol 1e-6), "
        f"inequality on 10^4 pairs: {'holds' if holds else 'violated'}",
    )
    assert ok


# criterion 3: packing / cardinality / covering / decomposition invariants


def test_net_invariants():
    details = []
    ok = True
    probes_by_dim = {
        d: unit_directions(stream(314159, d), 100000, d) for d in (2, 3)
    }
    for d in (2, 3):
        for delta in (0.3, 0.1):
            net = build_net(d, delta, seed=0)
            packing = net.min_pairwise_distance()
            card_bound = (3.0 / delta) ** d
            cover = float(net.coverage_distances(probes_by_dim[d]).max())
            dec_err = 0.0
            for u in unit_directions(stream(777, d), 16, d):
                dec_err = max(dec_err, decompose(net, u, 8).error)
            good = (
                packing >= delta * (1.0 - 1e-12)
                and len(net) <= card_bound
                and cover <= delta * (1.0 + 1e-12)
                and dec_err <= delta**9 * (1.0 + 1e-9)
            )
            ok = ok and good
            details.append(
                f"d={d} delta={delta}: pack {packing:.4f}, size {len(net)}"
                f"<={card_bound:.0f}, cover {cover:.4f}, "
                f"depth-8 residual {dec_err:.1e}<={delta**9:.1e}"
            )
    record_criterion(3, ok, "; ".join(details))
    assert ok


# criterion 4: hull distance for inscribed regular polygons


def test_hull_distance_oracle_on_spaced_circle_points():
    delta_net = 1e-3
    net = build_net(2, delta_net, seed=0)
    ok = True
    details = []
    for m in (4, 16, 64):
        ang = 2.0 * math.pi * np.arange(m) / m
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        cloud = SampleCloud(points=pts, body=BALL2, mode="boundary", seed=0, n=m)
        true_gap = 1.0 - math.cos(math.pi / m)
        net_value = HullMetric(MetricSpec("hausdorff"), BALL2, net=net).reading(cloud.points)
        good = true_gap - 8.0 * delta_net <= net_value <= true_gap + 1e-12
        ok = ok and good
        details.append(f"m={m}: {net_value:.6f} vs {true_gap:.6f}")
    record_criterion(4, ok, "; ".join(details) + f" (window width {8 * delta_net})")
    assert ok


# criterion 5: interior sampling of a disc, Hausdorff error rate


def test_interior_rate_ball(smooth_rate_report):
    rep = smooth_rate_report
    ok = 0.55 <= rep.slope <= 0.80
    record_criterion(
        5,
        ok,
        f"slope {rep.slope:.4f} (ci half-width {rep.ci_half:.4f}) "
        f"in [0.55, 0.80] around 2/3",
    )
    assert ok


# criterion 6: interior sampling of a square, Hausdorff error rate


def test_interior_rate_square():
    config = ExperimentConfig(
        body=SQUARE,
        mode="interior",
        n_grid=list(RATE_GRID),
        reps=200,
        q=1.0,
        metric="hausdorff",
        master_seed=1006,
    )
    rep = run_rate_experiment(config)
    ok = 0.38 <= rep.slope <= 0.62
    record_criterion(
        6,
        ok,
        f"slope {rep.slope:.4f} (ci half-width {rep.ci_half:.4f}) "
        f"in [0.38, 0.62] around 1/2",
    )
    assert ok


# criterion 7: boundary sampling rates in d = 2 and d = 3


def test_boundary_rates():
    rep2 = run_rate_experiment(
        ExperimentConfig(
            body=BALL2,
            mode="boundary",
            n_grid=[100, 300, 1000, 3000],
            reps=100,
            q=1.0,
            metric="hausdorff",
            net_delta=1e-3,
            master_seed=1072,
        )
    )
    rep3 = run_rate_experiment(
        ExperimentConfig(
            body=BALL3,
            mode="boundary",
            n_grid=[100, 300, 1000, 3000],
            reps=100,
            q=1.0,
            metric="hausdorff",
            net_delta=1.5e-2,
            master_seed=1073,
        )
    )
    ok = 1.7 <= rep2.slope <= 2.3 and 0.85 <= rep3.slope <= 1.15
    record_criterion(
        7,
        ok,
        f"d=2 slope {rep2.slope:.4f} in [1.7, 2.3]; "
        f"d=3 slope {rep3.slope:.4f} in [0.85, 1.15]",
    )
    assert ok


# criterion 8: mean-width plug-in error decays without the log factor


def test_functional_rate_drops_log():
    config = ExperimentConfig(
        body=BALL2,
        mode="interior",
        n_grid=list(RATE_GRID),
        reps=60,
        q=1.0,
        metric="functional(S,1)",
        quad_n=2048,
        master_seed=1008,
    )
    rep = run_rate_experiment(config)
    ok = -0.80 <= rep.slope <= -0.55 and rep.fit_kind == "log_n"
    record_criterion(
        8,
        ok,
        f"slope {rep.slope:.4f} (vs log n) in [-0.80, -0.55] around -2/3",
    )
    assert ok


# criterion 9: the explicit tail bound dominates the empirical survival


def test_tail_bound_dominates_empirical_survival():
    config = ExperimentConfig(
        body=BALL2,
        mode="interior",
        n_grid=[10000],
        reps=2000,
        q=1.0,
        metric="hausdorff",
        master_seed=1009,
    )
    rep = run_deviation_experiment(config, np.linspace(0.0, 30.0, 61))
    gap = max(
        e - t for e, t in zip(rep.empirical, rep.theoretical)
    )
    ok = rep.violations == 0
    record_criterion(
        9,
        ok,
        f"{rep.violations} violations over {len(rep.x_grid)} grid points "
        f"at n=10^4, reps=2000 (max empirical-theoretical gap {gap:.3g})",
    )
    assert ok


# criterion 10: cap-mass class membership verdicts


def test_class_membership_verdicts():
    ball_rep = check_class_membership(
        BALL2, "interior", class_params_smooth(2, 1.0)
    )
    circle = Ball(center=[0.0, 0.0], radius=0.25)
    circ_params = class_params_boundary(2, 0.25)
    circ_rep = check_class_membership(circle, "boundary", circ_params)

    def inflate(p: ClassParams) -> ClassParams:
        return ClassParams(alpha=p.alpha, big_l=10.0 * p.big_l, eps0=p.eps0)

    ball_flip = check_class_membership(
        BALL2, "interior", inflate(class_params_smooth(2, 1.0))
    )
    circ_flip = check_class_membership(circle, "boundary", inflate(circ_params))
    ok = (
        ball_rep.analytic
        and ball_rep.verdict
        and ball_rep.worst_ratio >= 1.0
        and circ_rep.analytic
        and circ_rep.verdict
        and not ball_flip.verdict
        and not circ_flip.verdict
    )
    record_criterion(
        10,
        ok,
        f"interior worst ratio {ball_rep.worst_ratio:.4f} >= 1, "
        f"boundary worst ratio {circ_rep.worst_ratio:.4f} >= 1, "
        f"10x L verdicts: {ball_flip.verdict}/{circ_flip.verdict} (want False)",
    )
    assert ok


# criterion 11: dented-ball family defect scaling and pairwise separation


def test_dented_ball_family_geometry():
    amp = 0.02
    details = []
    ok = True
    ratios = []
    pair_net = build_net(2, 0.01, seed=3)
    for i, delta in enumerate((0.1, 0.05)):
        fam = build_lower_bound_family(2, 1.0, delta, amp, packing_seed=5)
        bump = fam[1]
        exact = bump_volume_defect_exact(bump)
        mc = bump_volume_defect_mc(bump, 1_000_000, seed=99 + i)
        rel = abs(mc / exact - 1.0)
        ratios.append(exact / delta**3)
        b1, b2 = fam[1], fam[2]
        extra = np.vstack([b1.direction, b2.direction])
        net_val, cert = pairwise_hausdorff_certified(b1, b2, pair_net, extra)
        expected = amp * delta**2
        good = (
            rel < 0.05
            and abs(net_val - expected) <= 1e-12
            and cert >= expected
        )
        ok = ok and good
        details.append(
            f"delta={delta}: MC defect rel err {rel:.4f}, "
            f"pairwise {net_val:.2e} = {expected:.2e} (certified <= {cert:.2e})"
        )
    scale_drift = abs(ratios[0] / ratios[1] - 1.0)
    ok = ok and scale_drift < 1e-12
    details.append(f"defect/delta^3 drift {scale_drift:.1e}")
    record_criterion(11, ok, "; ".join(details))
    assert ok


# criterion 12: rerunning the frozen rate configuration reproduces the bytes


def test_rate_report_byte_determinism(smooth_rate_report):
    again = run_rate_experiment(smooth_rate_config())
    csv_same = report_to_csv(again) == report_to_csv(smooth_rate_report)
    json_same = json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
        smooth_rate_report.to_dict(), sort_keys=True
    )
    ok = csv_same and json_same
    record_criterion(
        12,
        ok,
        f"csv bytes identical: {csv_same}, json bytes identical: {json_same}",
    )
    assert ok
