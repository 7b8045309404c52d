"""Support-function estimators built on the convex hull of a sample cloud.

The hull's support function is the max of dot products against the cloud,
evaluated in blocked matrix products.  Only points on the hull can attain that
max, so interior clouds in d <= 3 are first cut to the vertices Qhull finds
(Barber, Dobkin and Huhdanpaa 1996); the max over that subset is the max over
the cloud.  Boundary clouds, where every point is a vertex, and clouds in
d >= 4, where Qhull costs more than the max-dot it saves, keep the full cloud.
Before Qhull, a large 2-d cloud drops the points deep inside the octagon
through its extreme points along eight fixed directions (the Akl-Toussaint
pre-filter; Akl and Toussaint 1978).  None of them can be a vertex, so Qhull
returns the same points from about a tenth of a disc cloud.  Every metric here
(Hausdorff deficit over a net, center-relative scaling distance, L^p deficits,
plug-in functionals) consumes only support evaluations, so the same code path
works whether the "body" is an analytic spec or another cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .geometry import BodySpec, support_batch
from .nets import SphereNet, blocked_max_dot, sup_certificate
from .sampling import SampleCloud, philox, unit_directions

# largest dimension in which computing the hull costs less than the max-dot
# over the full cloud it replaces
_HULL_MAX_DIM = 3
# smallest 2-d cloud on which the octagon pre-filter costs less than the Qhull
# work it saves (crossover measured in BENCH_hull_prefilter.json)
_PREFILTER_MIN_POINTS = 2000
# the filter runs when a probe of every _PREFILTER_PROBE_STRIDE-th point finds
# at least this share deep inside the octagon; below it, the octagon fits the
# cloud too loosely (a thin ellipse across the axes) to repay its cost
_PREFILTER_PROBE_STRIDE = 64
_PREFILTER_MIN_DEEP = 0.5
# how far inside the octagon, as a fraction of the largest coordinate, a point
# must lie to be dropped; far above the roundoff of the edge tests and of
# Qhull's own distance tests, so no point on or outside an edge is dropped
_PREFILTER_MARGIN = 1e-9


class HullPoints(NamedTuple):
    points: np.ndarray
    reduced: bool
    qhull_input: int  # points handed to Qhull; 0 when it did not run


def _octagon(x: np.ndarray, y: np.ndarray) -> list | None:
    """Corners of the counter-clockwise polygon through the cloud's extremes.

    The extremes are along x, x+y, y, y-x and their negatives.  None when an
    extreme is not finite or fewer than 3 are distinct.
    """
    # one temporary holds x+y, then x-y
    diag = x + y
    extremes = [x.argmax(), diag.argmax(), y.argmax(), 0, x.argmin(), diag.argmin(), y.argmin(), 0]
    np.subtract(x, y, out=diag)
    extremes[3], extremes[7] = diag.argmin(), diag.argmax()
    corners = list(zip(x[extremes].tolist(), y[extremes].tolist()))
    if not all(math.isfinite(c) for corner in corners for c in corner):
        return None
    # repeated extremes would make edges of zero length
    poly = [a for a, b in zip(corners, corners[-1:] + corners[:-1]) if a != b]
    return poly if len(poly) >= 3 else None


def _deep_inside(x: np.ndarray, y: np.ndarray, poly: list) -> np.ndarray:
    """Mask of the points left of every edge of poly by more than the margin."""
    margin = _PREFILTER_MARGIN * max(abs(c) for corner in poly for c in corner)
    deep = np.ones(len(x), dtype=bool)
    inside = np.empty(len(x), dtype=bool)
    cross, term = np.empty(len(x)), np.empty(len(x))
    for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]):
        ex, ey = bx - ax, by - ay
        # (b - a) x (p - a) > margin * |b - a|, with the p-free part moved right
        np.multiply(y, ex, out=cross)
        np.multiply(x, ey, out=term)
        cross -= term
        np.greater(cross, ex * ay - ey * ax + margin * math.hypot(ex, ey), out=inside)
        deep &= inside
    return deep


def _octagon_survivors(points: np.ndarray) -> np.ndarray | None:
    """Indices of the 2-d points not deep inside the octagon of the extremes.

    A point strictly left of each edge of the octagon, by more than the
    margin, has positive winding number about it, so lies inside the hull of
    the extremes and is no hull vertex or coplanar point.  The extremes
    include the coordinate-wise min and max, so Qhull sees the same bounding
    box and tolerances.  A probe of every _PREFILTER_PROBE_STRIDE-th point,
    against its own octagon, decides first whether the filter pays.  None
    when it does not, or when the octagon is None.
    """
    x, y = points[:, 0], points[:, 1]
    probe = slice(None, None, _PREFILTER_PROBE_STRIDE)
    poly = _octagon(x[probe], y[probe])
    if poly is None or _deep_inside(x[probe], y[probe], poly).mean() < _PREFILTER_MIN_DEEP:
        return None
    poly = _octagon(x, y)
    if poly is None:
        return None
    return np.flatnonzero(~_deep_inside(x, y, poly))


def _qhull_keep(points: np.ndarray) -> np.ndarray | None:
    """Sorted indices of the Qhull vertices and coplanar points, or None
    when Qhull rejects the points."""
    try:
        hull = ConvexHull(points)
    except QhullError:
        return None
    return np.union1d(hull.vertices, hull.coplanar[:, 0])


def _x_tied(xs: np.ndarray, keep: np.ndarray) -> bool:
    """Whether two of the points share the x-coordinate of a kept point."""
    kept_x = np.unique(xs[keep])
    at = np.searchsorted(kept_x, xs).clip(max=len(kept_x) - 1)
    return np.count_nonzero(kept_x[at] == xs) > len(kept_x)


def hull_points(cloud: SampleCloud) -> HullPoints:
    """The points of the cloud that can attain its hull's support function.

    Returns (points, reduced, qhull_input).  For an interior cloud in d = 2
    or 3 these are the Qhull vertices, with any points Qhull lists as
    coplanar; scipy runs Qhull without its Qc option, so that list is empty.
    Otherwise, or when Qhull rejects the cloud (n <= d, flat, repeated or
    non-finite points), it is the full cloud and reduced is False.
    qhull_input counts the points handed to Qhull.

    A 2-d cloud of at least _PREFILTER_MIN_POINTS first drops its points deep
    inside the octagon of its extremes (Akl and Toussaint 1978), and the
    result is the same array, in the same order, as from Qhull on the full
    cloud.  Among exact ties Qhull keeps whichever point it meets first, and
    dropping points changes that order, so when a hull point shares its
    x-coordinate with another survivor (never, in a continuous sample) the
    cloud goes to Qhull whole.
    """
    points = cloud.points
    if len(points) == 0:
        raise ValueError("empty cloud has no support function")
    if cloud.mode != "interior" or not 2 <= cloud.dim <= _HULL_MAX_DIM:
        return HullPoints(points, False, 0)
    qhull_input = 0
    if cloud.dim == 2 and len(points) >= _PREFILTER_MIN_POINTS:
        survivors = _octagon_survivors(points)
        if survivors is not None:
            candidates = points[survivors]
            qhull_input = len(candidates)
            keep = _qhull_keep(candidates)
            if keep is not None and not _x_tied(candidates[:, 0], keep):
                return HullPoints(points[survivors[keep]], True, qhull_input)
    qhull_input += len(points)
    keep = _qhull_keep(points)
    if keep is None:
        return HullPoints(points, False, qhull_input)
    return HullPoints(points[keep], True, qhull_input)


@dataclass
class HullSupport:
    """Support function of conv(cloud): a max of dot products over hull_points."""

    cloud: SampleCloud
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.points = hull_points(self.cloud).points

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
