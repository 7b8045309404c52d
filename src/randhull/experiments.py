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
own derived streams, and configs and reports serialize from their dataclass
fields to byte-stable CSV/JSON, every CSV through `csv_text`.

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
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .bounds import family_params, make_deviation_bound, rate_exponent
from .geometry import (
    Ball,
    BodySpec,
    BumpBall,
    PolytopeV,
    body_from_dict,
    body_to_dict,
    bump_profile_mass,
    read_fields,
)
from .estimators import HullMetric, parse_metric, quadrature_directions
from .nets import SphereNet, build_net
from .sampling import derived_seed, sample, stream

log = logging.getLogger("randhull")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    body: BodySpec
    mode: str
    n_grid: list[int]
    reps: int
    q: float = 1.0
    metric: str = "hausdorff"
    net_delta: float | None = None
    quad_n: int | None = None
    master_seed: int = 0

    def __post_init__(self):
        self.n_grid = [_integral("n_grid", n) for n in self.n_grid]
        self.reps = _integral("reps", self.reps)
        self.q = float(self.q)
        self.master_seed = _integral("master_seed", self.master_seed)
        if self.net_delta is not None:
            self.net_delta = float(self.net_delta)
        if self.quad_n is not None:
            self.quad_n = _integral("quad_n", self.quad_n)
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.reps < 2:
            raise ValueError("reps must be >= 2")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.mode not in ("interior", "boundary"):
            raise ValueError(f"unknown mode {self.mode!r}")
        parse_metric(self.metric)

    @property
    def family(self) -> str:
        """The rate family, which the sampling mode and the body's class fix."""
        if self.mode == "boundary":
            return "smooth_boundary"
        return "polytope_interior" if isinstance(self.body, PolytopeV) else "smooth_interior"

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**doc, "body": body_to_dict(self.body), "n_grid": list(self.n_grid)}

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """A missing optional key takes its default, a missing required one is a
        ValueError that names it, and extra keys, such as a derived family, are ignored."""
        kw = read_fields(cls, doc)
        return cls(**{**kw, "body": body_from_dict(kw["body"])})

    def resolved_net_delta(self) -> float:
        """Explicit value, or min(1e-2, 0.1 * a_n at the smallest grid n).

        Sizing against the largest signal on the grid keeps the net-induced
        under-read a small fraction of every measured value while keeping net
        cardinality (and with it the per-replication cost) moderate.  When the
        class constants are not derivable from the body (no rolling radius),
        a_n falls back to (ln n / n)^(1/alpha) with tau1 = 1.
        """
        if self.net_delta is not None:
            return self.net_delta
        n_ref = self.n_grid[0]
        a_n = None
        try:
            params = family_params(self.family, self.body)
            a_n = make_deviation_bound(params, self.body.dim, n_ref).a_n
        except ValueError:
            a_n = (math.log(n_ref) / n_ref) ** rate_exponent(self.family, self.body.dim)
        return min(1e-2, 0.1 * a_n)

    def resolved_quad_n(self) -> int:
        return 2048 if self.quad_n is None else self.quad_n


def _integral(name: str, value) -> int:
    """value as an int, or a ValueError naming the field if int() would change it."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return n


def load_experiment_config(path) -> ExperimentConfig:
    import yaml

    with open(path) as fh:
        return ExperimentConfig.from_dict(yaml.safe_load(fh))


def save_experiment_config(config: ExperimentConfig, path) -> None:
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=True)


# ---------------------------------------------------------------------------
# seeding: keyed by role and replication index, never by execution order

_KEY_REP, _KEY_NET, _KEY_QUAD = 1, 2, 3


def replication_seed(master: int, n_index: int, rep: int) -> int:
    return derived_seed(master, _KEY_REP, n_index, rep)


# ---------------------------------------------------------------------------
# the metric and its replications


def _hull_metric(config: ExperimentConfig) -> tuple[HullMetric, float | None, int | None]:
    """The experiment's metric, with its resolved net delta or quadrature size.

    A Hausdorff or dl metric gets a net built by the first replication that
    falls back from the facets, from a seed derived from the master seed, so
    it is the same net at any thread count; an L^p or functional metric gets
    its quadrature directions up front.  The other resolved value is None.
    """
    spec = parse_metric(config.metric)
    body = config.body
    if not spec.on_net:
        quad_n = config.resolved_quad_n()
        dirs = quadrature_directions(body.dim, quad_n, derived_seed(config.master_seed, _KEY_QUAD))
        return HullMetric(spec, body, dirs=dirs), None, quad_n
    net_delta = config.resolved_net_delta()

    def build() -> SphereNet:
        seed = derived_seed(config.master_seed, _KEY_NET)
        net = build_net(body.dim, net_delta, seed)
        log.debug(
            "net: %d directions, cover radius %.6g, certified %s",
            len(net),
            net.cover_radius,
            net.certified,
        )
        return net

    return HullMetric(spec, body, net=build), net_delta, None


def _run_replications(config: ExperimentConfig, metric: HullMetric, threads: int) -> np.ndarray:
    """(len(n_grid), reps) array of raw metric values, slot-indexed by seed key."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    out = np.empty((len(config.n_grid), config.reps))
    exact = np.zeros(out.shape, dtype=bool)
    reduced = np.zeros(out.shape, dtype=bool)
    qhull_input = np.zeros(out.shape, dtype=np.int64)

    def task(i_n: int, rep: int) -> None:
        cloud = sample(
            config.body,
            config.mode,
            config.n_grid[i_n],
            replication_seed(config.master_seed, i_n, rep),
        )
        out[i_n, rep], hull, exact[i_n, rep] = metric.value(cloud.points)
        reduced[i_n, rep], qhull_input[i_n, rep] = hull.reduced, hull.qhull_input

    jobs = [(i, r) for i in range(len(config.n_grid)) for r in range(config.reps)]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda ir: task(*ir), jobs))
    else:
        for i, r in jobs:
            task(i, r)
    if metric.spec.on_net:
        log.debug(
            "metric path: %d exact, %d net fallback",
            int(exact.sum()),
            int(exact.size - exact.sum()),
        )
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
        return {"kind": "rate_report", **asdict(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "RateReport":
        if doc.get("kind") != "rate_report":
            raise ValueError("not a rate report")
        kw = {k: v for k, v in doc.items() if k != "kind"}
        if kw["ci_half"] is None:  # the inf of a two-point fit, written as null
            kw["ci_half"] = math.inf
        return cls(**kw)


def run_rate_experiment(config: ExperimentConfig, threads: int = 1) -> RateReport:
    if len(config.n_grid) < 2:
        raise ValueError("need >= 2 grid points for slope")
    metric, net_delta, quad_n = _hull_metric(config)
    raw = _run_replications(config, metric, threads)
    powered = raw**config.q
    means = powered.mean(axis=1)
    stderrs = powered.std(axis=1, ddof=1) / math.sqrt(config.reps)
    if not np.all(np.isfinite(means)) or np.any(means <= 0):
        raise ValueError("metric means must be finite and positive to fit a log slope")

    ns = np.asarray(config.n_grid, dtype=float)
    if metric.spec.drops_log:
        x = np.log(ns)
        fit_kind = "log_n"
        sign = -1.0
    else:
        x = np.log(np.log(ns) / ns)
        fit_kind = "log_lognn_over_n"
        sign = 1.0
    from scipy import stats

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
        resolved_net_delta=net_delta,
        resolved_quad_n=quad_n,
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
        return {"kind": "deviation_report", **asdict(self)}

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
    params = family_params(config.family, config.body)
    bound = make_deviation_bound(params, config.body.dim, config.n_grid[0])

    metric, net_delta, _ = _hull_metric(config)
    values = _run_replications(config, metric, threads)[0]

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
    q50, q90, q99 = np.quantile(values / bound.a_n, (0.5, 0.9, 0.99))
    log.debug(
        "deviation quantiles: d_H / a_n at 0.5, 0.9, 0.99: %.6g %.6g %.6g", q50, q90, q99
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
        resolved_net_delta=float(net_delta),
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
    rng = stream(seed, 7)
    t = half_w * (2.0 * rng.random((n_pts, d - 1)) - 1.0)
    s = s_min + (R - s_min) * rng.random(n_pts)
    t_norm = np.linalg.norm(t, axis=1)
    sphere = np.sqrt(np.maximum(R**2 - t_norm**2, 0.0))
    inside_defect = (s <= sphere) & (s > body.dent_height(t_norm))
    box_volume = (2.0 * half_w) ** (d - 1) * (R - s_min)
    return box_volume * float(inside_defect.mean())


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


def write_text(text: str, path) -> None:
    """Write text to path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _strict(value):
    """The document with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_json(doc, path) -> None:
    """Write doc as strict JSON, a non-finite float as null, to path or stdout."""
    write_text(json.dumps(_strict(doc), sort_keys=True, indent=2, allow_nan=False) + "\n", path)


def emit_report(report, path, fmt: str) -> None:
    """Write a report, or a dict of one row of scalars, to path or stdout (None).

    Identical reports produce identical bytes.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(report, DeviationReport) and len(report.x_grid) == 0:
        raise ValueError("refusing to emit an empty deviation report")
    if fmt == "json":
        write_json(report if isinstance(report, dict) else report.to_dict(), path)
    else:
        write_text(report_to_csv(report), path)


def csv_text(header, rows) -> str:
    """A header line of column names, then one line of _csv_cell cells per row."""
    lines = [",".join(header)] + [",".join(_csv_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def report_to_csv(report) -> str:
    if isinstance(report, dict):
        return csv_text(report, [report.values()])
    if isinstance(report, RateReport):
        reps = int(report.config["reps"])
        rows = zip(report.config["n_grid"], report.means, report.stderrs)
        return csv_text(
            ("n", "mean_metric_q", "stderr", "reps"),
            [(int(n), mean, err, reps) for n, mean, err in rows],
        )
    if isinstance(report, DeviationReport):
        return csv_text(
            ("x", "threshold", "empirical_survival", "theoretical_tail"),
            zip(report.x_grid, report.thresholds, report.empirical, report.theoretical),
        )
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
