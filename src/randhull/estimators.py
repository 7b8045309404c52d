"""Support-function estimators built on the convex hull of a sample cloud.

The hull's support function is the max of dot products against the cloud,
evaluated in blocked matrix products.  Only points on the hull can attain that
max, so interior clouds in d <= 3 are first cut to the vertices Qhull finds
(Barber, Dobkin and Huhdanpaa 1996), plus the points it keeps as coplanar
with a facet; the max over that subset is the max over the cloud.  Boundary
clouds, where every point is a vertex, and clouds in d >= 4, where Qhull
costs more than the max-dot it saves, keep the full cloud.  Every metric here
(Hausdorff deficit over a net, center-relative scaling distance, L^p deficits,
plug-in functionals) consumes only support evaluations, so the same code path
works whether the "body" is an analytic spec or another cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .geometry import BodySpec, support_batch
from .nets import SphereNet, blocked_max_dot, sup_certificate
from .sampling import SampleCloud, philox, unit_directions

# largest dimension in which computing the hull costs less than the max-dot
# over the full cloud it replaces
_HULL_MAX_DIM = 3


def hull_points(cloud: SampleCloud) -> tuple[np.ndarray, bool]:
    """The points of the cloud that can attain its hull's support function.

    Returns (points, reduced).  For an interior cloud in d = 2 or 3 these are
    the Qhull vertices together with the points Qhull reports as coplanar
    (its default Qc option), so a point that ties a vertex in floating point
    stays in.  Otherwise, or when Qhull rejects the cloud (n <= d, flat or
    repeated points), it is the full cloud and reduced is False.
    """
    points = cloud.points
    if len(points) == 0:
        raise ValueError("empty cloud has no support function")
    if cloud.mode != "interior" or not 2 <= cloud.dim <= _HULL_MAX_DIM:
        return points, False
    try:
        hull = ConvexHull(points)
    except QhullError:
        return points, False
    keep = np.union1d(hull.vertices, hull.coplanar[:, 0])
    return points[keep], True


@dataclass
class HullSupport:
    """Support function of conv(cloud): a max of dot products over hull_points."""

    cloud: SampleCloud
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.points = hull_points(self.cloud)[0]

    def __call__(self, dirs: np.ndarray) -> np.ndarray:
        return blocked_max_dot(dirs, self.points)


def hull_support_batch(cloud: SampleCloud, dirs: np.ndarray) -> np.ndarray:
    return HullSupport(cloud)(dirs)


def hull_support(cloud: SampleCloud, u: np.ndarray) -> float:
    u = np.asarray(u, dtype=float)
    return float(hull_support_batch(cloud, u[None, :])[0])


def support_values(obj, dirs: np.ndarray) -> np.ndarray:
    """Dispatch support evaluation over body specs, clouds and hull wrappers."""
    if isinstance(obj, SampleCloud):
        return hull_support_batch(obj, dirs)
    if isinstance(obj, HullSupport):
        return obj(dirs)
    return support_batch(obj, dirs)


def _dim_of(obj) -> int:
    if isinstance(obj, SampleCloud):
        return obj.dim
    if isinstance(obj, HullSupport):
        return obj.cloud.dim
    return obj.dim


# ---------------------------------------------------------------------------
# Hausdorff distance to the generating body


@dataclass
class DistanceResult:
    net_value: float
    certified_upper: float
    net_delta: float


def hausdorff_to_body(body: BodySpec, cloud: SampleCloud, net: SphereNet) -> DistanceResult:
    """sup of h_body - h_hull over the net, with a chaining upper certificate.

    For a cloud drawn from the body the hull is nested inside it, so this sup
    is the Hausdorff distance; the net value reads it from below and the
    certificate (sup_certificate, at the larger of the body's radius bound and
    the largest point norm) bounds it from above, or is inf on an uncertified
    net.
    """
    deficit = support_batch(body, net.points) - hull_support_batch(cloud, net.points)
    net_value = float(deficit.max())
    radius = max(body.max_norm_bound(), float(np.linalg.norm(cloud.points, axis=1).max()))
    return DistanceResult(
        net_value=net_value,
        certified_upper=sup_certificate(net, net_value, radius),
        net_delta=net.delta,
    )


# ---------------------------------------------------------------------------
# center-relative scaling distance


def d_l_ratios(
    body: BodySpec, center: np.ndarray, cloud: SampleCloud, dirs: np.ndarray
) -> np.ndarray:
    """1 - (h_hull - <c,u>)/(h_body - <c,u>) on each direction row."""
    center = np.asarray(center, dtype=float)
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    shift = dirs @ center
    denom = support_batch(body, dirs) - shift
    if np.min(denom) <= 0:
        raise ValueError("center must lie in the interior of the body")
    numer = hull_support_batch(cloud, dirs) - shift
    return 1.0 - numer / denom


def d_l_estimate(
    body: BodySpec, center: np.ndarray, cloud: SampleCloud, net: SphereNet
) -> float:
    """Smallest ratio shrinking the body about the center to fit inside the hull.

    Equals the Hausdorff deficit when the body is the unit ball about the
    center; unlike the Hausdorff distance the ratio at corresponding
    directions is invariant under invertible affine maps of the whole scene.
    """
    return float(d_l_ratios(body, center, cloud, net.points).max())


# ---------------------------------------------------------------------------
# L^p deficits and plug-in functionals


def _quad_dirs(d: int, quad_n: int, quad_seed: int) -> np.ndarray:
    if quad_n < 1:
        raise ValueError("quad_n must be >= 1")
    return unit_directions(philox(quad_seed), quad_n, d)


def _power_mean(vals: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(vals.max())
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(np.mean(vals**p) ** (1.0 / p))


def lp_error(
    body: BodySpec, cloud: SampleCloud, p: float, quad_n: int, quad_seed: int
) -> float:
    """L^p norm of the support deficit h_body - h_hull over the uniform sphere.

    Monte Carlo quadrature on quad_n seeded directions.  Deficits are clipped
    at zero: the hull of a cloud from the body never exceeds it, so negative
    values can only be roundoff.
    """
    dirs = _quad_dirs(_dim_of(body), quad_n, quad_seed)
    deficit = support_batch(body, dirs) - hull_support_batch(cloud, dirs)
    return _power_mean(np.maximum(deficit, 0.0), p)


def _nonnegative(vals: np.ndarray, what: str) -> np.ndarray:
    if float(vals.min()) < -1e-9:
        raise ValueError(f"{what} is negative; the functional needs 0 inside")
    return np.maximum(vals, 0.0)


def functional_t(obj, p: float, quad_n: int, quad_seed: int) -> float:
    """T_p: L^p norm of the support function over the normalized sphere."""
    dirs = _quad_dirs(_dim_of(obj), quad_n, quad_seed)
    vals = _nonnegative(support_values(obj, dirs), "support value")
    return _power_mean(vals, p)


def functional_s(obj, p: float, quad_n: int, quad_seed: int) -> float:
    """S_p: L^p norm of the width h(u) + h(-u) over the normalized sphere."""
    dirs = _quad_dirs(_dim_of(obj), quad_n, quad_seed)
    if isinstance(obj, SampleCloud):
        obj = HullSupport(obj)  # one reduction serves both direction sets
    widths = support_values(obj, dirs) + support_values(obj, -dirs)
    return _power_mean(_nonnegative(widths, "width"), p)
