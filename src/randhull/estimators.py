"""Estimators of the distance between a body and the convex hull of a cloud.

Two paths read that distance.  The exact path takes the facets a_i.x <= b_i of
the hull P, as Qhull (Barber, Dobkin and Huhdanpaa 1996) computes them, and
the body's support values on their normals.  If a ball of radius rho rolls
freely inside K, as Blaschke's rolling theorem gives for a smooth body, and
m = max_i (h_K(a_i) - b_i) < rho, then the centres of the rolling balls lie
strictly inside P, the point of K farthest from P lies over a facet's
interior, and the Hausdorff distance of P to K is m: R - min_i (b_i - a_i.c)
for a ball about c.  With c strictly inside P, the center-relative distance
d_L to any body K is 1 - min_i (b_i - a_i.c) / (h_K(a_i) - a_i.c): the
largest copy of K about c inside P fits under every facet.

The net path reads a metric from support evaluations on a set of directions:
the hull's support function is the max of dot products against the cloud,
evaluated in blocked matrix products.  Only points on the hull can attain that
max, so clouds in d <= 3 are first cut to the vertices Qhull finds, which also
gives the facets the exact path reads.  A point on a hull edge that is not a
vertex is dropped with the rest, so where its dot product rounds above both
edge ends' the reduced max reads one ulp under the full cloud's.  Clouds
in d >= 4, where Qhull costs more than the max-dot it saves, keep the full cloud.
Before Qhull, a large 2-d cloud drops the points deep inside polygons through
its extreme points (the Akl-Toussaint pre-filter; Akl and Toussaint 1978):
first those inside a disc inscribed in the octagon of a probe, then those
inside the octagon through the extremes along eight fixed directions, and on a
cloud with many survivors those inside the 16-gon through sixteen.  None of
them can be a vertex, so Qhull returns the same points from about 3% of a disc
cloud.  A boundary cloud, with no point deep inside, fails the probe and goes
to Qhull whole.

A ball or ellipsoid interior cloud in d = 2 or 3 can skip the cascade: its
sampler records the points outside an inner homothet c + s (K - c), about 1%
of a 1e5-point disc cloud (sampling gives s), and sample_hull_points hands
Qhull only those.  It keeps their hull when the homothet clears every facet
a.x <= b by the pre-filter's margin at the body's scale,
a.c + s (h_K(a) - a.c) < b - margin, checked with one support evaluation on
the facet normals.  Every other point lies in the homothet, up to roundoff
far below the margin, so strictly inside the hull: it is no vertex, and the
hull is the full cloud's, with its extremes.  Otherwise the full cloud is
reduced as above.  Polytopes, dented balls, boundary clouds, d >= 4 and
`randhull distance`, which reads its cloud from a file, keep hull_points.

HullMetric is the one reader of both paths: built once from a metric spec,
a body and a direction source (a net, a net built on first need, or
quadrature directions), it decides which path an array of points takes, and
on request bounds a Hausdorff reading from above (HullMetric.certified).
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import BodySpec, canonical_center, support_batch
from .nets import SphereNet, blocked_max_dot, sup_certificate
from .sampling import SampleCloud, stream, unit_directions

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
# of Qhull's own distance tests, so no point on or outside an edge is dropped;
# the shell cut's coverage check takes the same margin at the body's norm bound
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
    """Sorted indices of the Qhull vertices, and the facet equations; None
    when Qhull rejects the points."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points)
    except QhullError:
        return None
    return np.sort(hull.vertices), hull.equations


def _x_tied(xs: np.ndarray, keep: np.ndarray) -> bool:
    """Whether two of the points share the x-coordinate of a kept point."""
    kept_x = np.unique(xs[keep])
    at = np.searchsorted(kept_x, xs).clip(max=len(kept_x) - 1)
    return np.count_nonzero(kept_x[at] == xs) > len(kept_x)


def _subset_hull(points: np.ndarray, subset: np.ndarray) -> HullPoints | None:
    """The Qhull hull of points[subset], subset ascending; None when Qhull
    rejects them or a hull point shares its x-coordinate with another of them."""
    candidates = points[subset]
    hull = _qhull_keep(candidates)
    if hull is None or _x_tied(candidates[:, 0], hull[0]):
        return None
    return HullPoints(candidates[hull[0]], True, len(candidates), hull[1])


def hull_points(points: np.ndarray) -> HullPoints:
    """The points of an (n, d) cloud that can attain its hull's support function.

    Returns (points, reduced, qhull_input, equations).  In d = 2 or 3 these
    are the Qhull vertices.  scipy runs Qhull without its Qc option, so a
    point on a hull edge that is not a vertex is dropped, and the reduced
    max-dot can read one ulp under the full cloud's.  Otherwise, or when
    Qhull rejects the cloud (n <= d, flat, repeated or non-finite points), it
    is the full cloud and reduced is False.  qhull_input counts the points
    handed to Qhull, and equations holds the facets of the hull Qhull built.

    A 2-d cloud of at least _PREFILTER_MIN_POINTS first drops its points deep
    inside the polygons of _prefilter_survivors (Akl and Toussaint 1978), and
    the result is the same array, in the same order, as from Qhull on the
    full cloud; the facets are those of the survivors' hull, which is the same
    hull.  Among exact ties Qhull keeps whichever point it meets first, and
    dropping points changes that order, so when a hull point shares its
    x-coordinate with another survivor (never, in a continuous sample) the
    cloud goes to Qhull whole.
    """
    if len(points) == 0:
        raise ValueError("empty cloud has no support function")
    d = points.shape[1]
    if not 2 <= d <= _HULL_MAX_DIM:
        return HullPoints(points, False, 0, None)
    qhull_input = 0
    if d == 2 and len(points) >= _PREFILTER_MIN_POINTS:
        survivors = _prefilter_survivors(points)
        if survivors is not None:
            hull = _subset_hull(points, survivors)
            if hull is not None:
                return hull
            qhull_input = len(survivors)
    qhull_input += len(points)
    hull = _qhull_keep(points)
    if hull is None:
        return HullPoints(points, False, qhull_input, None)
    return HullPoints(points[hull[0]], True, qhull_input, hull[1])


def _homothet_inside(cloud: SampleCloud, equations: np.ndarray) -> bool:
    """Whether the inner homothet c + s (K - c) clears every facet a.x <= b
    of Qhull's rows [a, -b]: a.c + s (h_K(a) - a.c) < b - margin, the margin
    _PREFILTER_MARGIN times the body's norm bound."""
    normals, offsets = equations[:, :-1], equations[:, -1]
    body = cloud.body
    shift = normals @ body.center
    reach = shift + cloud.inner_scale * (support_batch(body, normals) - shift)
    return bool(np.all(reach < -offsets - _PREFILTER_MARGIN * body.max_norm_bound()))


def sample_hull_points(cloud: SampleCloud) -> tuple[HullPoints, bool | None]:
    """hull_points(cloud.points), reached through the cloud's outer points
    when the sampler recorded them, and whether that cut held (None: no cut).

    The cut holds when Qhull takes the outer points (more than d of them,
    none tied in x with a hull point, as in hull_points) and the inner
    homothet clears their hull's facets (_homothet_inside).  Every other
    point then lies in the homothet, up to the sampler's roundoff, far below
    the margin, so strictly inside that hull: it is no Qhull vertex or
    coplanar point, the hull is the full cloud's, with the cloud's own
    extremes, and the points are the same array, in the same order, as from
    hull_points.  The facets are the same hull's, though Qhull can round
    them differently in the last bits.  When the cut fails, the full cloud
    is reduced by hull_points, and qhull_input counts both Qhull inputs.
    """
    outer = cloud.outer
    if outer is None:
        return hull_points(cloud.points), None
    tried = 0
    if len(outer) > cloud.dim:
        tried = len(outer)
        hull = _subset_hull(cloud.points, outer)
        if hull is not None and _homothet_inside(cloud, hull.equations):
            return hull, True
    full = hull_points(cloud.points)
    return full._replace(qhull_input=tried + full.qhull_input), False


# ---------------------------------------------------------------------------
# metric naming and quadrature


@dataclass(frozen=True)
class MetricSpec:
    kind: str  # hausdorff | dl | lp | functional
    p: float | None = None
    which: str | None = None  # T or S for functionals

    @property
    def on_net(self) -> bool:
        """Hausdorff and dl metrics read a net; the others quadrature directions."""
        return self.kind in ("hausdorff", "dl")

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


def quadrature_directions(d: int, quad_n: int, seed: int) -> np.ndarray:
    """quad_n seeded uniform directions, the nodes of L^p and functional metrics."""
    if quad_n < 1:
        raise ValueError("quad_n must be >= 1")
    return unit_directions(stream(seed), quad_n, d)


# ---------------------------------------------------------------------------
# the hull metric


def _center_room(body_vals: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """h_body(u) - u.c on each direction: the denominators of d_L."""
    room = body_vals - shift
    if np.min(room) <= 0:
        raise ValueError("center must lie in the interior of the body")
    return room


def _power_mean(vals: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(vals.max())
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(np.mean(vals**p) ** (1.0 / p))


def _functional(vals: np.ndarray, which: str, p: float) -> float:
    """T_p of support values, or S_p of the widths h(u) + h(-u) when vals
    stacks the values on u over those on -u.  Values below zero are clipped."""
    if which == "S":
        m = len(vals) // 2
        vals = vals[:m] + vals[m:]
    return _power_mean(np.maximum(vals, 0.0), p)


class HullMetric:
    """One metric of the hull of a cloud against a body.

    Hausdorff and dl metrics read a net: a SphereNet, or a callable that
    builds one, called under a lock by the first cloud that needs it, so it
    is built at most once at any thread count.  L^p and functional metrics
    read the quadrature directions dirs.  A dl metric is taken about center,
    by default the body's canonical center.  A functional(T, p) metric needs
    0 inside the body, so a body support value below -1e-9 is a ValueError;
    the hull's support values, like the S widths, are clipped at 0.

    value(points) reads every dl metric, and a Hausdorff metric on a body with
    a positive rolling radius, from the hull's Qhull facets (facet_value);
    when the hull has no facets (d >= 4, or Qhull rejects the cloud) or the
    facet rule does not hold, and for every other metric, it returns
    reading(hull points), the metric over the directions alone.
    """

    def __init__(self, spec: MetricSpec, body: BodySpec, net=None, dirs=None, center=None):
        self.spec = spec
        self.body = body
        self.exact = spec.kind == "dl" or (spec.kind == "hausdorff" and body.rolling_radius > 0)
        if spec.kind == "dl":
            self.center = np.asarray(canonical_center(body) if center is None else center, dtype=float)
        self._net = net
        self._lock = threading.Lock()
        self.dirs: np.ndarray | None = None
        if not spec.on_net:
            if spec.which == "S":
                dirs = np.vstack([dirs, -dirs])
            self._set_dirs(dirs)
            if spec.kind == "functional":
                if spec.which == "T" and float(self.body_vals.min()) < -1e-9:
                    raise ValueError("support value is negative; T_p needs 0 inside the body")
                self._body_functional = _functional(self.body_vals, spec.which, spec.p)

    def _set_dirs(self, dirs: np.ndarray) -> None:
        self.body_vals = support_batch(self.body, dirs)
        if self.spec.kind == "dl":
            self.shift = dirs @ self.center
            self.denom = _center_room(self.body_vals, self.shift)
        self.dirs = dirs

    def _directions(self) -> np.ndarray:
        with self._lock:
            if self.dirs is None:
                if self._net is None:
                    raise ValueError("no facet reading here, and the fallback needs a net")
                if callable(self._net):
                    self._net = self._net()
                self._set_dirs(self._net.points)
            return self.dirs

    def facet_value(self, equations: np.ndarray | None) -> float | None:
        """The metric from the hull's facets, Qhull's rows [a_i, -b_i], by the
        module docstring's rules; None where Qhull built no facets (equations
        is None) or the rule does not hold."""
        if equations is None:
            return None
        normals, offsets = equations[:, :-1], equations[:, -1]
        body_vals = support_batch(self.body, normals)
        if self.spec.kind == "hausdorff":
            m = float((body_vals + offsets).max())
            return m if m < self.body.rolling_radius else None
        shift = normals @ self.center
        gaps = -(shift + offsets)
        if not float(gaps.min()) > 0:
            return None
        return float(1.0 - (gaps / _center_room(body_vals, shift)).min())

    def reading(self, points: np.ndarray) -> float:
        """The metric of conv(points) over the directions."""
        hull_vals = blocked_max_dot(self._directions(), points)
        kind = self.spec.kind
        if kind == "hausdorff":
            return float((self.body_vals - hull_vals).max())
        if kind == "dl":
            return float((1.0 - (hull_vals - self.shift) / self.denom).max())
        if kind == "lp":
            return _power_mean(np.maximum(self.body_vals - hull_vals, 0.0), self.spec.p)
        return abs(self._body_functional - _functional(hull_vals, self.spec.which, self.spec.p))

    def value(
        self, points: np.ndarray, hull: HullPoints | None = None
    ) -> tuple[float, HullPoints, bool]:
        """The metric of conv(points), the hull points it was computed on, and
        whether it was read from the facets; hull, when given, is
        hull_points(points) already built."""
        if hull is None:
            hull = hull_points(points)
        exact = self.facet_value(hull.equations) if self.exact else None
        if exact is not None:
            return exact, hull, True
        return self.reading(hull.points), hull, False

    def certified(self, points: np.ndarray) -> tuple[float, float]:
        """(value, certificate) of a Hausdorff metric: value <= d_H <= certificate.

        On the facet path the value is the body's exact reach outside the hull
        and the certificate adds the body's outward bound over all the points,
        so a point Qhull dropped still counts; a cloud inside a ball or an
        ellipsoid gets value == certificate.  On the net path one max-dot gives
        both the value and the net's largest |h_body - h_hull|, and the
        certificate is sup_certificate on that gap, at the larger of the body's
        radius bound and the cloud's largest norm; inf on an uncertified net.
        """
        if self.spec.kind != "hausdorff":
            raise ValueError("only a Hausdorff metric is certified")
        hull = hull_points(points)
        value = self.facet_value(hull.equations) if self.exact else None
        if value is not None:
            return value, max(value, float(self.body.outward(points).max()))
        hull_vals = blocked_max_dot(self._directions(), hull.points)
        gap = self.body_vals - hull_vals
        radius = max(self.body.max_norm_bound(), float(np.linalg.norm(points, axis=1).max()))
        return float(gap.max()), sup_certificate(self._net, float(np.abs(gap).max()), radius)


# ---------------------------------------------------------------------------
# sup distances


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
