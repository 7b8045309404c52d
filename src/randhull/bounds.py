"""Mass-of-caps classes and the finite-sample deviation bound.

A pair (measure, body) sits in the class M(alpha, L, eps0) when every cap of
width eps <= eps0 carries mass at least L * eps^alpha.  The calculator turns
class parameters into the explicit tail bound

    P[ d_H(hull_n, body) >= 2*a_n + 2*b_n*x ] <= 12^d * exp(-C_alpha * L * x^alpha)

with a_n = (tau1 * ln n / n)^(1/alpha), b_n = n^(-1/alpha) and
tau1 = max(1, d / (C_alpha * alpha * L)), valid while a_n + b_n*x <= eps0.
Past eps0 the tail freezes at its eps0 value (it is nonincreasing), and once
the threshold argument exceeds 1 it drops to 0 because the distance is never
above 2 for unit-class bodies.

The membership checker fills one direction-by-width table of cap masses:
closed-form shares for a ball, seeded Monte Carlo hit counts otherwise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import (
    Ball,
    BodySpec,
    ball_volume,
    c_alpha,
    cap_share,
    support,
)
from .sampling import derived_seed, sample, stream, unit_directions


@dataclass
class ClassParams:
    alpha: float
    big_l: float
    eps0: float

    def __post_init__(self):
        if self.alpha <= 0 or self.big_l <= 0:
            raise ValueError("alpha and L must be positive")
        if not (0.0 < self.eps0 <= 1.0):
            raise ValueError("eps0 must lie in (0, 1]")

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "L": self.big_l, "eps0": self.eps0}

    @classmethod
    def from_dict(cls, doc: dict) -> "ClassParams":
        return cls(float(doc["alpha"]), float(doc["L"]), float(doc["eps0"]))


def class_params_smooth(d: int, r: float) -> ClassParams:
    """Uniform measure in a body with a radius-r rolling ball, r in (0,1]."""
    if not (0.0 < r <= 1.0):
        raise ValueError("r must lie in (0, 1]")
    alpha = (d + 1) / 2.0
    big_l = 2.0 * ball_volume(d - 1) * r ** ((d - 1) / 2.0) / (ball_volume(d) * (d + 1))
    return ClassParams(alpha=alpha, big_l=big_l, eps0=r)


def class_params_boundary(d: int, r: float) -> ClassParams:
    """Uniform measure on the boundary of a body with a radius-r rolling ball."""
    if d < 2:
        raise ValueError("boundary case needs d >= 2")
    if not (0.0 < r <= 1.0):
        raise ValueError("r must lie in (0, 1]")
    return ClassParams(alpha=(d - 1) / 2.0, big_l=r ** ((d - 1) / 2.0), eps0=r)


def family_params(family: str, body: BodySpec) -> ClassParams:
    """A smooth family's class parameters at r = min(1, the body's rolling radius)."""
    r = body.rolling_radius
    if not r > 0:
        raise ValueError(
            f"no analytic class parameters for {type(body).__name__}, "
            "which states no rolling radius"
        )
    if family == "smooth_interior":
        return class_params_smooth(body.dim, min(1.0, r))
    if family == "smooth_boundary":
        return class_params_boundary(body.dim, min(1.0, r))
    raise ValueError(f"family {family!r} has no analytic class parameters")


# ---------------------------------------------------------------------------
# deviation bound


@dataclass
class DeviationBound:
    params: ClassParams
    d: int
    n: int
    tau1: float
    a_n: float
    b_n: float

    def threshold(self, x):
        return 2.0 * self.a_n + 2.0 * self.b_n * np.asarray(x, dtype=float)

    def _raw_tail(self, x):
        p = self.params
        return np.minimum(
            1.0, 12.0**self.d * np.exp(-c_alpha(p.alpha) * p.big_l * x**p.alpha)
        )

    def tail(self, x):
        """Tail bound at x, with both out-of-range clippings applied."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("x must be >= 0")
        reach = self.a_n + self.b_n * x
        x_clip = max(0.0, (self.params.eps0 - self.a_n) / self.b_n)
        out = np.where(reach <= self.params.eps0, self._raw_tail(x), self._raw_tail(x_clip))
        out = np.where(reach > 1.0, 0.0, out)
        return out if out.ndim else float(out)


def make_deviation_bound(params: ClassParams, d: int, n: int) -> DeviationBound:
    if n < 2:
        raise ValueError("n must be >= 2")
    tau1 = max(1.0, d / (c_alpha(params.alpha) * params.alpha * params.big_l))
    a_n = (tau1 * math.log(n) / n) ** (1.0 / params.alpha)
    b_n = n ** (-1.0 / params.alpha)
    return DeviationBound(params=params, d=d, n=n, tau1=tau1, a_n=a_n, b_n=b_n)


@dataclass
class BoundEvaluation:
    x: float
    threshold: float
    tail: float
    a_n: float
    b_n: float
    tau1: float


def deviation_bound(params: ClassParams, d: int, n: int, x: float) -> BoundEvaluation:
    """Threshold 2a_n + 2b_n*x and the clipped tail bound at a single x."""
    bound = make_deviation_bound(params, d, n)
    return BoundEvaluation(
        tau1=bound.tau1,
        a_n=bound.a_n,
        b_n=bound.b_n,
        x=float(x),
        threshold=float(bound.threshold(x)),
        tail=float(bound.tail(x)),
    )


# ---------------------------------------------------------------------------
# membership checking


@dataclass
class MembershipReport:
    worst_ratio: float
    verdict: bool
    grid: str
    slack: float
    analytic: bool
    argmin_eps: float
    params: ClassParams
    mode: str

    def to_dict(self) -> dict:
        return {**asdict(self), "params": self.params.to_dict()}


def check_class_membership(
    body: BodySpec,
    mode: str,
    params: ClassParams,
    u_probes: int = 64,
    eps_grid: int = 64,
    n_mc: int = 100_000,
    seed: int = 0,
) -> MembershipReport:
    """Probe the cap-mass condition mu(C(u, eps)) >= L * eps^alpha.

    The probes fill one (rows x widths) table of cap masses: a ball gets one
    row of closed-form shares (its caps do not depend on the direction), any
    other body one row of cap hits per probe direction, each from its own
    seeded cloud.  The Monte Carlo rows only probe widths whose stated floor
    L * eps^alpha predicts at least 30 expected hits; below that the counts
    are pure noise and could neither confirm nor refute the condition.  The
    worst ratio is the table's first minimum in row-major order, and the
    verdict allows 3 binomial standard deviations of slack there.
    """
    if mode not in ("interior", "boundary"):
        raise ValueError(f"unknown mode {mode!r}")
    if u_probes < 1 or eps_grid < 1:
        raise ValueError("probe counts must be >= 1")
    eps = np.geomspace(1e-3 * params.eps0, params.eps0, eps_grid)
    floor = params.big_l * eps**params.alpha
    grid = f"{u_probes} directions x {eps_grid} widths log-spaced in [{eps[0]:g}, {eps[-1]:g}]"

    analytic = isinstance(body, Ball)
    if analytic:
        a = (body.dim + 1) / 2.0 if mode == "interior" else (body.dim - 1) / 2.0
        p_hat = cap_share(a, body.radius, eps)[None, :]
        sd = np.zeros_like(p_hat)
    else:
        measurable = floor * n_mc >= 30.0
        if not measurable.any():
            raise ValueError(
                "n_mc too small to resolve the stated cap-mass floor at any width"
            )
        eps = eps[measurable]
        floor = floor[measurable]
        grid = (
            f"{u_probes} directions x {len(eps)} measurable widths "
            f"log-spaced in [{eps[0]:g}, {eps[-1]:g}]"
        )
        p_hat = np.empty((u_probes, len(eps)))
        for j, u in enumerate(unit_directions(stream(seed, 101), u_probes, body.dim)):
            # the name keeps each cloud alive until the next one is drawn, and
            # the projection is sorted in place: per 4-probe fit, freeing the
            # cloud sooner costs about 1300 more minor page faults, and sorting
            # into a new array about 1950
            cloud = sample(body, mode, n_mc, derived_seed(seed, j))
            proj = cloud.points @ u
            proj.sort()
            p_hat[j] = (n_mc - np.searchsorted(proj, support(body, u) - eps, side="left")) / n_mc
        sd = np.sqrt(np.maximum(0.0, p_hat * (1.0 - p_hat) / n_mc))

    ratios = p_hat / floor
    i, k = np.unravel_index(np.argmin(ratios), ratios.shape)
    worst = float(ratios[i, k])
    slack = float(3.0 * sd[i, k] / floor[k])
    return MembershipReport(
        worst_ratio=worst,
        verdict=bool(worst >= 1.0 - slack),
        grid=grid,
        slack=slack,
        analytic=analytic,
        argmin_eps=float(eps[k]),
        params=params,
        mode=mode,
    )


def fit_class_l(
    body: BodySpec,
    mode: str,
    alpha: float,
    eps0: float,
    u_probes: int = 64,
    eps_grid: int = 64,
    n_mc: int = 100_000,
    seed: int = 0,
) -> ClassParams:
    """L estimated as the smallest probed ratio mu(C)/eps^alpha at the given alpha.

    Families without analytic class constants (uniform measure in a polytope
    has alpha = d but body-dependent L) need their L estimated.  It is the
    worst ratio of the membership check at L = 1, so over the widths that are
    measurable there (eps^alpha * n_mc >= 30).  The fitted L need not pass
    its own check: at L > 1 the check also probes smaller widths, measurable
    at that L, whose ratios can fall below L.  Its worst ratio can then fall
    below 1, and its verdict passes only when that shortfall is inside the
    3-sd slack.
    """
    probe = check_class_membership(
        body, mode, ClassParams(alpha, 1.0, eps0), u_probes, eps_grid, n_mc, seed
    )
    if probe.worst_ratio <= 0:
        raise ValueError("probed cap mass vanished; eps0 too large for this body")
    return ClassParams(alpha=alpha, big_l=probe.worst_ratio, eps0=eps0)


# ---------------------------------------------------------------------------
# rate exponents


RATE_FAMILIES = ("smooth_interior", "polytope_interior", "smooth_boundary")


def rate_exponent(family: str, d: int) -> float:
    """Exponent of (ln n / n) for E d_H at q = 1, per sampling family."""
    if d < 2:
        raise ValueError("rate families are defined for d >= 2")
    if family == "smooth_interior":
        return 2.0 / (d + 1)
    if family == "polytope_interior":
        return 1.0 / d
    if family == "smooth_boundary":
        return 2.0 / (d - 1)
    raise ValueError(f"unknown family {family!r}; expected one of {RATE_FAMILIES}")
