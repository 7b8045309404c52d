"""Estimators of the distance between a body and the convex hull of a cloud.

Two paths read that distance.  The exact path takes the facets a_i.x <= b_i of
the hull P, as Qhull (Barber, Dobkin and Huhdanpaa 1996) computes them.  With
c strictly inside P, the Hausdorff distance of P to a ball of radius R about c
is max(R - min_i (b_i - a_i.c), max_x |x - c| - R), the first term alone when
P lies in the ball, and the center-relative distance d_L to any body K is
1 - min_i (b_i - a_i.c) / (h_K(a_i) - a_i.c): the shortest way from c out of
P ends on a facet, and so does the largest copy of K about c inside P.

The net path reads a metric from support evaluations on a set of directions:
the hull's support function is the max of dot products against the cloud,
evaluated in blocked matrix products.  Only points on the hull can attain that
max, so interior clouds in d <= 3 are first cut to the vertices Qhull finds;
the max over that subset is the max over the cloud.  Boundary clouds, where
every point is a vertex, and clouds in d >= 4, where Qhull costs more than the
max-dot it saves, keep the full cloud.  Before Qhull, a large 2-d cloud drops
the points deep inside polygons through its extreme points (the Akl-Toussaint
pre-filter; Akl and Toussaint 1978): first those inside a disc inscribed in
the octagon of a probe, then those inside the octagon through the extremes
along eight fixed directions, and on a cloud with many survivors those inside
the 16-gon through sixteen.  None of them can be a vertex, so Qhull returns
the same points from about 3% of a disc cloud.  Hausdorff deficits over a
net, L^p deficits and plug-in functionals use only support evaluations, so
they work whether the "body" is an analytic spec or another cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import Ball, BodySpec, support_batch
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
# how far inside a polygon, as a fraction of the largest coordinate, a point
# must lie to be dropped; far above the roundoff of the edge and disc tests and
# of Qhull's own distance tests, so no point on or outside an edge is dropped
_PREFILTER_MARGIN = 1e-9
# extreme directions of the octagon and the 16-gon, counter-clockwise over half
# a turn; the other half are their negatives
_OCTAGON = ((1, 0), (1, 1), (0, 1), (-1, 1))
_SIXTEEN_GON = ((1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1))
# fewest octagon survivors on which the 16-gon costs less than the Qhull work
# it saves (crossover measured in BENCH_prefilter_cascade.json)
_PREFILTER_16GON_MIN = 1000


class HullPoints(NamedTuple):
    points: np.ndarray
    reduced: bool
    qhull_input: int  # points handed to Qhull; 0 when it did not run
    # Qhull's facet rows [a, -b], |a| = 1, of the hull a.x <= b; None when
    # Qhull did not run or rejected the cloud
    equations: np.ndarray | None


def _polygon(x: np.ndarray, y: np.ndarray, directions: tuple) -> list | None:
    """Corners of the counter-clockwise polygon through the cloud's extremes.

    directions lists integer pairs (a, b) counter-clockwise from (1, 0) over
    half a turn, so (1, 0) and (0, 1) are the only ones with a zero entry;
    the extremes are the argmax of a*x + b*y and then, for the opposite
    directions, its argmin.  Each entry is at most 2 in magnitude, so the
    products are exact and only the sum rounds.  None when an extreme is not
    finite or fewer than 3 are distinct.
    """
    buf = np.empty(len(x))
    highs, lows = [], []
    for a, b in directions:
        if b == 0:
            proj = x
        elif a == 0:
            proj = y
        else:
            proj = np.multiply(x, a, out=buf)
            proj += y if b == 1 else b * y
        highs.append(proj.argmax())
        lows.append(proj.argmin())
    extremes = highs + lows
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


def _inradius(poly: list, cx: float, cy: float) -> float:
    """Least signed distance from (cx, cy) to the edge lines of poly."""
    return min(
        ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) / math.hypot(bx - ax, by - ay)
        for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1])
    )


def _disc_centre(poly: list) -> tuple[float, float, float]:
    """(c_x, c_y, inradius) for whichever of two centres lies deeper in poly.

    The candidates are the mean m of the corners and the area centroid, taken
    about m so that a polygon far from the origin loses no digits.  Several
    extremes at one vertex of a polygonal body pull m toward it; the
    centroid stays central.
    """
    mx = sum(corner[0] for corner in poly) / len(poly)
    my = sum(corner[1] for corner in poly) / len(poly)
    best = (mx, my, _inradius(poly, mx, my))
    rel = [(ax - mx, ay - my) for ax, ay in poly]
    edges = list(zip(rel, rel[1:] + rel[:1]))
    cross = [ax * by - bx * ay for (ax, ay), (bx, by) in edges]
    area2 = sum(cross)  # twice the area
    if not area2 > 0:
        return best
    cx = mx + sum((a[0] + b[0]) * c for (a, b), c in zip(edges, cross)) / (3 * area2)
    cy = my + sum((a[1] + b[1]) * c for (a, b), c in zip(edges, cross)) / (3 * area2)
    inradius = _inradius(poly, cx, cy)
    return (cx, cy, inradius) if inradius > best[2] else best


def _outside_disc(x: np.ndarray, y: np.ndarray, poly: list) -> np.ndarray | None:
    """Mask of the points not deep inside a disc inscribed in poly.

    The disc is centred on the c of _disc_centre, with radius the least
    signed distance from c to an edge line, less the margin at a scale s no
    smaller than any coordinate of the cloud in magnitude: s = max(|c_x|,
    |c_y|) plus the largest distance from c.  A point within the shrunk disc lies left of
    every edge by more than that margin, so is deep inside poly as
    _deep_inside has it.  None when the shrunk disc is empty or not finite.
    """
    cx, cy, inradius = _disc_centre(poly)
    dist2 = np.subtract(x, cx)
    dist2 *= dist2
    term = np.subtract(y, cy)
    term *= term
    dist2 += term
    scale = max(abs(cx), abs(cy)) + math.sqrt(dist2.max())
    radius = inradius - _PREFILTER_MARGIN * scale
    if not radius > 0:
        return None
    # a NaN row has already made the scale NaN and skipped the cut; compared
    # this way it would be kept all the same, for the octagon to catch
    return ~(dist2 < radius * radius)


def _prefilter_survivors(points: np.ndarray) -> np.ndarray | None:
    """Indices of the 2-d points not deep inside the hull of their extremes.

    A cascade of cuts, each dropping only points left of every edge of a
    polygon through points of the cloud by more than the margin: such a
    point has positive winding number about the polygon, so lies inside the
    hull of its corners and is no hull vertex or coplanar point.

    1. A probe of every _PREFILTER_PROBE_STRIDE-th point, against the octagon
       of its own extremes, decides whether the filter pays.
    2. The points inside a disc inscribed in the probe's octagon, about the
       centre _disc_centre picks, go, at a few array passes per point.
    3. The octagon through the survivors' extremes along x, x+y, y, y-x and
       their negatives cuts the rest.  No hull vertex lies in the disc, so
       these are the cloud's own extremes, coordinate-wise min and max
       included, and Qhull sees the same bounding box and tolerances.
    4. Above _PREFILTER_16GON_MIN survivors, the 16-gon through the extremes
       along the _SIXTEEN_GON directions cuts again.

    None when the probe says the filter does not pay, or when an octagon is
    None.
    """
    x, y = points[:, 0], points[:, 1]
    probe = slice(None, None, _PREFILTER_PROBE_STRIDE)
    poly = _polygon(x[probe], y[probe], _OCTAGON)
    if poly is None or _deep_inside(x[probe], y[probe], poly).mean() < _PREFILTER_MIN_DEEP:
        return None
    outside = _outside_disc(x, y, poly)
    kept = np.arange(len(x)) if outside is None else np.flatnonzero(outside)
    for directions, min_points in ((_OCTAGON, 0), (_SIXTEEN_GON, _PREFILTER_16GON_MIN)):
        if len(kept) < min_points:
            break
        xs, ys = x[kept], y[kept]
        poly = _polygon(xs, ys, directions)
        if poly is None:
            return None
        kept = kept[~_deep_inside(xs, ys, poly)]
    return kept


def _qhull_keep(points: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Sorted indices of the Qhull vertices and coplanar points, and the
    facet equations; None when Qhull rejects the points."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points)
    except QhullError:
        return None
    return np.union1d(hull.vertices, hull.coplanar[:, 0]), hull.equations


def _x_tied(xs: np.ndarray, keep: np.ndarray) -> bool:
    """Whether two of the points share the x-coordinate of a kept point."""
    kept_x = np.unique(xs[keep])
    at = np.searchsorted(kept_x, xs).clip(max=len(kept_x) - 1)
    return np.count_nonzero(kept_x[at] == xs) > len(kept_x)


def hull_points(cloud: SampleCloud, facets: bool = False) -> HullPoints:
    """The points of the cloud that can attain its hull's support function.

    Returns (points, reduced, qhull_input, equations).  For an interior cloud
    in d = 2 or 3 these are the Qhull vertices, with any points Qhull lists as
    coplanar; scipy runs Qhull without its Qc option, so that list is empty.
    Otherwise, or when Qhull rejects the cloud (n <= d, flat, repeated or
    non-finite points), it is the full cloud and reduced is False.
    qhull_input counts the points handed to Qhull, and equations holds the
    facets of the hull Qhull built.  With facets, a boundary cloud in d = 2
    or 3 also goes to Qhull, for its facets only: its points stay the full
    cloud.

    A 2-d cloud of at least _PREFILTER_MIN_POINTS first drops its points deep
    inside the polygons of _prefilter_survivors (Akl and Toussaint 1978), and
    the result is the same array, in the same order, as from Qhull on the
    full cloud; the facets are those of the survivors' hull, which is the same
    hull.  Among exact ties Qhull keeps whichever point it meets first, and
    dropping points changes that order, so when a hull point shares its
    x-coordinate with another survivor (never, in a continuous sample) the
    cloud goes to Qhull whole.
    """
    points = cloud.points
    if len(points) == 0:
        raise ValueError("empty cloud has no support function")
    if not 2 <= cloud.dim <= _HULL_MAX_DIM:
        return HullPoints(points, False, 0, None)
    if cloud.mode != "interior":
        if not facets:
            return HullPoints(points, False, 0, None)
        hull = _qhull_keep(points)
        return HullPoints(points, False, len(points), None if hull is None else hull[1])
    qhull_input = 0
    if cloud.dim == 2 and len(points) >= _PREFILTER_MIN_POINTS:
        survivors = _prefilter_survivors(points)
        if survivors is not None:
            candidates = points[survivors]
            qhull_input = len(candidates)
            hull = _qhull_keep(candidates)
            if hull is not None and not _x_tied(candidates[:, 0], hull[0]):
                return HullPoints(points[survivors[hull[0]]], True, qhull_input, hull[1])
    qhull_input += len(points)
    hull = _qhull_keep(points)
    if hull is None:
        return HullPoints(points, False, qhull_input, None)
    return HullPoints(points[hull[0]], True, qhull_input, hull[1])


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
    """sup of h_body - h_hull over the net, with an upper certificate.

    For a cloud drawn from the body the hull is nested inside it, so this sup
    is the Hausdorff distance; the net value reads it from below.  The
    certificate is exact for a ball in d = 2 or 3 when Qhull builds the hull
    and the hull holds the center c strictly inside: then the Hausdorff
    distance is max(R - min_i (b_i - a_i.c), max_x |x - c| - R), the first
    term the ball's farthest reach outside the hull (ball_hausdorff_exact),
    the second the hull's outside the ball, so points that round past the
    sphere keep the certificate.  Otherwise it is the chaining bound
    (sup_certificate, at the larger of the body's radius bound and the
    largest point norm), or inf on an uncertified net.
    """
    is_ball = isinstance(body, Ball)
    hull = hull_points(cloud, facets=is_ball)
    deficit = support_batch(body, net.points) - blocked_max_dot(net.points, hull.points)
    net_value = float(deficit.max())
    certified = None
    if is_ball and hull.equations is not None:
        inner = ball_hausdorff_exact(body, hull.equations)
        if inner is not None:
            reach = float(np.linalg.norm(cloud.points - body.center, axis=1).max())
            certified = max(inner, reach - body.radius)
    if certified is None:
        radius = max(body.max_norm_bound(), float(np.linalg.norm(cloud.points, axis=1).max()))
        certified = sup_certificate(net, net_value, radius)
    return DistanceResult(net_value=net_value, certified_upper=certified, net_delta=net.delta)


def _facet_gaps(equations: np.ndarray, center: np.ndarray) -> np.ndarray:
    """b_i - a_i.c for the facets a_i.x <= b_i held as Qhull's rows [a_i, -b_i]."""
    return -(equations[:, :-1] @ center + equations[:, -1])


def ball_hausdorff_exact(ball: Ball, equations: np.ndarray) -> float | None:
    """Hausdorff distance of a hull inside the ball, from the hull's facets.

    R - min_i (b_i - a_i.c): the point of the ball farthest from the hull
    lies on the ray from the center c through the facet nearest to it.  None
    unless c lies strictly inside the hull, where the formula fails.
    """
    inradius = float(_facet_gaps(equations, ball.center).min())
    if not inradius > 0:
        return None
    return ball.radius - inradius


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


def d_l_exact(body: BodySpec, center: np.ndarray, equations: np.ndarray) -> float | None:
    """d_L of a hull from its facets: 1 - min_i (b_i - a_i.c)/(h_body(a_i) - a_i.c).

    The body shrunk about the center by a factor t fits inside the hull if
    and only if it fits under every facet, so the largest such t is the
    smallest facet ratio.  None unless the center lies strictly inside the
    hull, where the facet normals need not reach the sup.
    """
    center = np.asarray(center, dtype=float)
    gaps = _facet_gaps(equations, center)
    if not float(gaps.min()) > 0:
        return None
    normals = equations[:, :-1]
    denom = support_batch(body, normals) - normals @ center
    if np.min(denom) <= 0:
        raise ValueError("center must lie in the interior of the body")
    return float(1.0 - (gaps / denom).min())


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
