"""Monte Carlo harness for convergence-rate and deviation-bound experiments.

A rate experiment draws `reps` independent clouds at each sample size in
`n_grid`, evaluates one error metric of the hull against the generating body,
averages the q-th powers, and fits a log-log slope: against log(ln n / n) for
sup-type metrics, whose theory carries the logarithm, and against log n for
finite-p functional and L^p errors, where it drops.  A deviation experiment
fixes n, estimates the survival function of the Hausdorff error over a grid of
deviation arguments, and compares it pointwise with the theoretical tail.

Everything is replayable: replication seeds are derived from the master seed
by index (never by execution order), nets and quadrature directions get their
own derived streams, and reports serialize to byte-stable CSV/JSON.

The lower-bound family generator produces the dented-ball collection used to
show the rates are tight: one reference ball plus one dent per direction of a
delta-packing, with the dent sized so that all bodies stay convex, pairwise
Hausdorff distances are exactly amplitude * delta^2, and each dent removes
volume proportional to delta^(d+1).
"""

from __future__ import annotations

import json
import logging
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import yaml
from scipy import stats

from .bounds import (
    ClassParams,
    class_params_boundary,
    class_params_smooth,
    make_deviation_bound,
    rate_exponent,
)
from .geometry import (
    Ball,
    BodySpec,
    BumpBall,
    body_from_dict,
    body_to_dict,
    bump_profile_mass,
    canonical_center,
    support_batch,
)
from .estimators import HullPoints, _power_mean, hull_points
from .nets import SphereNet, blocked_max_dot, build_net, sup_certificate
from .sampling import SampleCloud, derived_seed, philox, sample, unit_directions

log = logging.getLogger("randhull")


# ---------------------------------------------------------------------------
# metric naming


@dataclass(frozen=True)
class MetricSpec:
    kind: str  # hausdorff | dl | lp | functional
    p: float | None = None
    which: str | None = None  # T or S for functionals

    @property
    def drops_log(self) -> bool:
        """Finite-p functional and L^p errors are fitted against log n.

        p = inf recovers a sup-type metric, which keeps the log factor.
        """
        if self.p is None or math.isinf(self.p):
            return False
        return self.kind in ("lp", "functional")


def parse_metric(text: str) -> MetricSpec:
    s = text.strip()
    if s == "hausdorff":
        return MetricSpec("hausdorff")
    if s == "dl":
        return MetricSpec("dl")
    m = re.fullmatch(r"lp\(\s*([^)\s]+)\s*\)", s)
    if m:
        p = float(m.group(1))
        if p < 1:
            raise ValueError("lp metric needs p >= 1")
        return MetricSpec("lp", p=p)
    m = re.fullmatch(r"functional\(\s*([TS])\s*,\s*([^)\s]+)\s*\)", s)
    if m:
        tok = m.group(2)
        p = math.inf if tok in ("inf", "oo") else float(tok)
        if p < 1:
            raise ValueError("functional metric needs p >= 1")
        return MetricSpec("functional", p=p, which=m.group(1))
    raise ValueError(f"cannot parse metric {text!r}")


# ---------------------------------------------------------------------------
# configuration


_FIT_ALPHA = {
    "smooth_interior": lambda d: (d + 1) / 2.0,
    "polytope_interior": lambda d: float(d),
    "smooth_boundary": lambda d: (d - 1) / 2.0,
}


@dataclass
class ExperimentConfig:
    body: BodySpec
    mode: str
    family: str
    n_grid: list[int]
    reps: int
    q: float = 1.0
    metric: str = "hausdorff"
    net_delta: float | None = None
    net_streak: int | None = None
    quad_n: int | None = None
    master_seed: int = 0

    def __post_init__(self):
        self.n_grid = [int(n) for n in self.n_grid]
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.reps < 2:
            raise ValueError("reps must be >= 2")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.net_streak is not None and self.net_streak < 1:
            raise ValueError("net_streak must be >= 1")
        if self.mode not in ("interior", "boundary"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.family not in _FIT_ALPHA:
            raise ValueError(f"unknown family {self.family!r}")
        parse_metric(self.metric)

    def to_dict(self) -> dict:
        return {
            "body": body_to_dict(self.body),
            "mode": self.mode,
            "family": self.family,
            "n_grid": list(self.n_grid),
            "reps": self.reps,
            "q": self.q,
            "metric": self.metric,
            "net_delta": self.net_delta,
            "net_streak": self.net_streak,
            "quad_n": self.quad_n,
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return cls(
            body=body_from_dict(doc["body"]),
            mode=doc["mode"],
            family=doc["family"],
            n_grid=list(doc["n_grid"]),
            reps=int(doc["reps"]),
            q=float(doc.get("q", 1.0)),
            metric=doc.get("metric", "hausdorff"),
            net_delta=None if doc.get("net_delta") is None else float(doc["net_delta"]),
            net_streak=None if doc.get("net_streak") is None else int(doc["net_streak"]),
            quad_n=None if doc.get("quad_n") is None else int(doc["quad_n"]),
            master_seed=int(doc.get("master_seed", 0)),
        )

    def resolved_net_delta(self) -> float:
        """Explicit value, or min(1e-2, 0.1 * a_n at the smallest grid n).

        Sizing against the largest signal on the grid keeps the net-induced
        under-read a small fraction of every measured value while keeping net
        cardinality (and with it the per-replication cost) moderate.  When the
        class constants are not derivable from the body (no rolling radius),
        a_n falls back to (ln n / n)^(1/alpha) with tau1 = 1.
        """
        if self.net_delta is not None:
            return float(self.net_delta)
        n_ref = self.n_grid[0]
        a_n = None
        try:
            params = _family_params(self.family, self.body)
            a_n = make_deviation_bound(params, self.body.dim, n_ref).a_n
        except (ValueError, AttributeError, TypeError):
            alpha = _FIT_ALPHA[self.family](self.body.dim)
            a_n = (math.log(n_ref) / n_ref) ** (1.0 / alpha)
        return min(1e-2, 0.1 * a_n)

    def resolved_quad_n(self) -> int:
        return 2048 if self.quad_n is None else int(self.quad_n)


def _family_params(family: str, body: BodySpec) -> ClassParams:
    r = getattr(body, "rolling_radius", None)
    if r is None:
        raise ValueError(f"no analytic class parameters for {type(body).__name__}")
    if family == "smooth_interior":
        return class_params_smooth(body.dim, min(1.0, r))
    if family == "smooth_boundary":
        return class_params_boundary(body.dim, min(1.0, r))
    raise ValueError(f"family {family!r} has no analytic class parameters")


def load_experiment_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(yaml.safe_load(fh))


def save_experiment_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=True)


# ---------------------------------------------------------------------------
# seeding: keyed by role and replication index, never by execution order

_KEY_REP, _KEY_NET, _KEY_QUAD = 1, 2, 3


def replication_seed(master: int, n_index: int, rep: int) -> int:
    return derived_seed(master, _KEY_REP, n_index, rep)


# ---------------------------------------------------------------------------
# metric engine: per-replication evaluation against precomputed body data


class _MetricEngine:
    def __init__(self, config: ExperimentConfig):
        self.spec = parse_metric(config.metric)
        body = config.body
        d = body.dim
        self.net: SphereNet | None = None
        self.net_delta: float | None = None
        self.quad_n: int | None = None
        if self.spec.kind in ("hausdorff", "dl"):
            self.net_delta = config.resolved_net_delta()
            self.net = build_net(
                d,
                self.net_delta,
                derived_seed(config.master_seed, _KEY_NET),
                streak=config.net_streak,
            )
            log.debug(
                "net: %d directions, cover radius %.6g, certified %s",
                len(self.net),
                self.net.cover_radius,
                self.net.certified,
            )
            dirs = self.net.points
        else:
            self.quad_n = config.resolved_quad_n()
            dirs = unit_directions(
                philox(derived_seed(config.master_seed, _KEY_QUAD)), self.quad_n, d
            )
            if self.spec.kind == "functional" and self.spec.which == "S":
                dirs = np.vstack([dirs, -dirs])
        self.dirs = dirs
        self.body_vals = support_batch(body, dirs)
        if self.spec.kind == "dl":
            center = canonical_center(body)
            self.shift = dirs @ center
            self.denom = self.body_vals - self.shift
            if float(self.denom.min()) <= 0:
                raise ValueError("body center is not interior; dl metric undefined")
        if self.spec.kind == "functional":
            self.body_functional = self._functional(self.body_vals)

    def _functional(self, vals: np.ndarray) -> float:
        if self.spec.which == "S":
            m = len(vals) // 2
            vals = vals[:m] + vals[m:]
        return _power_mean(np.maximum(vals, 0.0), self.spec.p)

    def value(self, cloud: SampleCloud) -> tuple[float, HullPoints]:
        """The metric of conv(cloud), and the hull points it was computed on."""
        hull = hull_points(cloud)
        return self._metric(blocked_max_dot(self.dirs, hull.points)), hull

    def _metric(self, hull_vals: np.ndarray) -> float:
        if self.spec.kind == "hausdorff":
            return float((self.body_vals - hull_vals).max())
        if self.spec.kind == "dl":
            return float((1.0 - (hull_vals - self.shift) / self.denom).max())
        if self.spec.kind == "lp":
            deficit = np.maximum(self.body_vals - hull_vals, 0.0)
            return _power_mean(deficit, self.spec.p)
        return abs(self.body_functional - self._functional(hull_vals))


def _run_replications(config: ExperimentConfig, engine: _MetricEngine, threads: int) -> np.ndarray:
    """(len(n_grid), reps) array of raw metric values, slot-indexed by seed key."""
    out = np.empty((len(config.n_grid), config.reps))
    reduced = np.zeros(out.shape, dtype=bool)
    qhull_input = np.zeros(out.shape, dtype=np.int64)

    def task(i_n: int, rep: int) -> None:
        cloud = sample(
            config.body,
            config.mode,
            config.n_grid[i_n],
            replication_seed(config.master_seed, i_n, rep),
        )
        out[i_n, rep], hull = engine.value(cloud)
        reduced[i_n, rep], qhull_input[i_n, rep] = hull.reduced, hull.qhull_input

    jobs = [(i, r) for i in range(len(config.n_grid)) for r in range(config.reps)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda ir: task(*ir), jobs))
    else:
        for i, r in jobs:
            task(i, r)
    log.debug(
        "hull reduction: %d clouds reduced, %d fell back to the full cloud",
        int(reduced.sum()),
        int(reduced.size - reduced.sum()),
    )
    log.debug(
        "hull pre-filter: %d of %d sampled points passed to Qhull",
        int(qhull_input.sum()),
        sum(config.n_grid) * config.reps,
    )
    return out


# ---------------------------------------------------------------------------
# rate experiment


@dataclass
class RateReport:
    config: dict
    means: list[float]
    stderrs: list[float]
    slope: float
    ci_half: float
    expected_slope: float
    theoretical_exponent: float
    fit_kind: str  # log_lognn_over_n | log_n
    resolved_net_delta: float | None
    resolved_quad_n: int | None

    def to_dict(self) -> dict:
        return {
            "kind": "rate_report",
            "config": self.config,
            "means": self.means,
            "stderrs": self.stderrs,
            "slope": self.slope,
            "ci_half": self.ci_half,
            "expected_slope": self.expected_slope,
            "theoretical_exponent": self.theoretical_exponent,
            "fit_kind": self.fit_kind,
            "resolved_net_delta": self.resolved_net_delta,
            "resolved_quad_n": self.resolved_quad_n,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RateReport":
        if doc.get("kind") != "rate_report":
            raise ValueError("not a rate report")
        return cls(**{k: v for k, v in doc.items() if k != "kind"})


def run_rate_experiment(config: ExperimentConfig, threads: int = 1) -> RateReport:
    if len(config.n_grid) < 2:
        raise ValueError("need >= 2 grid points for slope")
    engine = _MetricEngine(config)
    raw = _run_replications(config, engine, threads)
    powered = raw**config.q
    means = powered.mean(axis=1)
    stderrs = powered.std(axis=1, ddof=1) / math.sqrt(config.reps)
    if not np.all(np.isfinite(means)) or np.any(means <= 0):
        raise ValueError("metric means must be finite and positive to fit a log slope")

    spec = parse_metric(config.metric)
    ns = np.asarray(config.n_grid, dtype=float)
    if spec.drops_log:
        x = np.log(ns)
        fit_kind = "log_n"
        sign = -1.0
    else:
        x = np.log(np.log(ns) / ns)
        fit_kind = "log_lognn_over_n"
        sign = 1.0
    fit = stats.linregress(x, np.log(means))
    ci_half = float(stats.t.ppf(0.975, len(ns) - 2) * fit.stderr) if len(ns) > 2 else math.inf
    exponent = config.q * rate_exponent(config.family, config.body.dim)

    return RateReport(
        config=config.to_dict(),
        means=[float(v) for v in means],
        stderrs=[float(v) for v in stderrs],
        slope=float(fit.slope),
        ci_half=ci_half,
        expected_slope=float(sign * exponent),
        theoretical_exponent=float(exponent),
        fit_kind=fit_kind,
        resolved_net_delta=engine.net_delta,
        resolved_quad_n=engine.quad_n,
    )


# ---------------------------------------------------------------------------
# deviation experiment


@dataclass
class DeviationReport:
    config: dict
    x_grid: list[float]
    thresholds: list[float]
    empirical: list[float]
    theoretical: list[float]
    violations: int
    tau1: float
    a_n: float
    b_n: float
    resolved_net_delta: float

    def to_dict(self) -> dict:
        return {
            "kind": "deviation_report",
            "config": self.config,
            "x_grid": self.x_grid,
            "thresholds": self.thresholds,
            "empirical": self.empirical,
            "theoretical": self.theoretical,
            "violations": self.violations,
            "tau1": self.tau1,
            "a_n": self.a_n,
            "b_n": self.b_n,
            "resolved_net_delta": self.resolved_net_delta,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DeviationReport":
        if doc.get("kind") != "deviation_report":
            raise ValueError("not a deviation report")
        return cls(**{k: v for k, v in doc.items() if k != "kind"})


def run_deviation_experiment(
    config: ExperimentConfig, x_grid, threads: int = 1
) -> DeviationReport:
    x_grid = [float(x) for x in np.asarray(x_grid, dtype=float)]
    if len(x_grid) == 0:
        raise ValueError("x_grid must be nonempty")
    if len(config.n_grid) != 1:
        raise ValueError("deviation experiments run at a single n")
    if parse_metric(config.metric).kind != "hausdorff":
        raise ValueError("deviation experiments are defined for the hausdorff metric")
    params = _family_params(config.family, config.body)
    bound = make_deviation_bound(params, config.body.dim, config.n_grid[0])

    engine = _MetricEngine(config)
    values = _run_replications(config, engine, threads)[0]

    xs = np.asarray(x_grid)
    thresholds = bound.threshold(xs)
    empirical = (values[None, :] >= thresholds[:, None]).mean(axis=1)
    theoretical = bound.tail(xs)
    slack = 3.0 * np.sqrt(empirical * (1.0 - empirical) / config.reps)
    violations = int(np.sum(empirical > theoretical + slack))
    largest = float(values.max())
    exceeded = xs[largest >= thresholds]
    log.debug(
        "deviation tightness: largest distance %.6g, %.6g of the first threshold, "
        "smallest x exceeded %s",
        largest,
        largest / float(thresholds[0]),
        repr(float(exceeded.min())) if len(exceeded) else "none",
    )

    return DeviationReport(
        config=config.to_dict(),
        x_grid=x_grid,
        thresholds=[float(v) for v in thresholds],
        empirical=[float(v) for v in empirical],
        theoretical=[float(v) for v in theoretical],
        violations=violations,
        tau1=float(bound.tau1),
        a_n=float(bound.a_n),
        b_n=float(bound.b_n),
        resolved_net_delta=float(engine.net_delta),
    )


# ---------------------------------------------------------------------------
# lower-bound family


def bump_volume_defect_exact(body: BumpBall) -> float:
    """Volume removed by the dent: amplitude * delta^2 * (R*delta/2)^(d-1) * mass.

    The dented and intact boundaries differ by exactly the dent height over
    the dent window, so the defect is the integral of that height.
    """
    d = body.dim
    return (
        body.dent_depth
        * (body.radius * body.bump_scale / 2.0) ** (d - 1)
        * bump_profile_mass(d)
    )


def bump_volume_defect_mc(body: BumpBall, n_pts: int, seed: int) -> float:
    """Monte Carlo volume of ball-minus-dented-body, localized to the dent slab."""
    d = body.dim
    R, delta = body.radius, body.bump_scale
    half_w = R * delta / 2.0
    s_min = math.sqrt(R**2 - half_w**2) - body.dent_depth
    rng = philox(seed, 7)
    t = half_w * (2.0 * rng.random((n_pts, d - 1)) - 1.0)
    s = s_min + (R - s_min) * rng.random(n_pts)
    t_norm = np.linalg.norm(t, axis=1)
    sphere = np.sqrt(np.maximum(R**2 - t_norm**2, 0.0))
    inside_defect = (s <= sphere) & (s > body.dent_height(t_norm))
    box_volume = (2.0 * half_w) ** (d - 1) * (R - s_min)
    return box_volume * float(inside_defect.mean())


def pairwise_hausdorff_certified(
    b1: BodySpec, b2: BodySpec, net: SphereNet, extra_dirs: np.ndarray | None = None
) -> tuple[float, float]:
    """(net value, certified upper bound) for sup |h_b1 - h_b2| over the sphere.

    extra_dirs are appended to the net evaluation (useful when the sup is
    attained at known directions sharper than the net resolution); the
    certificate stays valid because adding directions only tightens net_sup.
    The certificate is sup_certificate at the bodies' larger radius bound.
    """
    dirs = net.points
    if extra_dirs is not None:
        dirs = np.vstack([dirs, np.atleast_2d(extra_dirs)])
    gap = np.abs(support_batch(b1, dirs) - support_batch(b2, dirs))
    net_value = float(gap.max())
    radius = max(b1.max_norm_bound(), b2.max_norm_bound())
    return net_value, sup_certificate(net, net_value, radius)


def build_lower_bound_family(
    d: int, R: float, delta: float, alpha_bump: float, packing_seed: int = 0
) -> list[BodySpec]:
    """Reference ball plus one dented ball per direction of a delta-packing.

    The construction rests on two geometric facts: the dented boundary stays
    convex (checked here, since alpha_bump is user input), and two bodies with
    directions at distance >= delta have disjoint dent windows, so their
    Hausdorff distance is exactly alpha_bump * delta^2 (attained at a pole;
    the tests check it by support evaluation).
    """
    if not (0.0 < R <= 1.0):
        raise ValueError("R must lie in (0, 1]")
    net = build_net(d, delta, packing_seed)
    bodies: list[BodySpec] = [Ball(np.zeros(d), R)]
    for u in net.points:
        bodies.append(BumpBall(R, delta, alpha_bump, u))

    probe: BumpBall = bodies[1]
    if not probe.profile_is_concave():
        raise ValueError(
            f"alpha_bump={alpha_bump} breaks convexity at delta={delta}; reduce it"
        )
    return bodies


# ---------------------------------------------------------------------------
# report emission


def _csv_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def emit_report(report, path, fmt: str) -> None:
    """Write a report; identical reports produce identical bytes."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(report, DeviationReport) and len(report.x_grid) == 0:
        raise ValueError("refusing to emit an empty deviation report")
    if fmt == "json":
        doc = report.to_dict() if hasattr(report, "to_dict") else dict(report)
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return
    with open(path, "w") as fh:
        fh.write(report_to_csv(report))


def report_to_csv(report) -> str:
    if isinstance(report, RateReport):
        lines = ["n,mean_metric_q,stderr,reps"]
        reps = report.config["reps"]
        for n, mean, err in zip(report.config["n_grid"], report.means, report.stderrs):
            lines.append(f"{int(n)},{_csv_cell(mean)},{_csv_cell(err)},{int(reps)}")
        return "\n".join(lines) + "\n"
    if isinstance(report, DeviationReport):
        lines = ["x,threshold,empirical_survival,theoretical_tail"]
        for x, thr, emp, theo in zip(
            report.x_grid, report.thresholds, report.empirical, report.theoretical
        ):
            lines.append(
                f"{_csv_cell(x)},{_csv_cell(thr)},{_csv_cell(emp)},{_csv_cell(theo)}"
            )
        return "\n".join(lines) + "\n"
    raise TypeError(f"no CSV schema for {type(report).__name__}")


def load_report(path):
    with open(path) as fh:
        doc = json.load(fh)
    kind = doc.get("kind")
    if kind == "rate_report":
        return RateReport.from_dict(doc)
    if kind == "deviation_report":
        return DeviationReport.from_dict(doc)
    raise ValueError(f"unknown report kind {kind!r}")
