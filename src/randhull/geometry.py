"""Analytic geometry of the supported convex body families.

Every body here is described exactly: support functions, membership tests and
Minkowski functionals are closed-form (or, for the dented ball, resolved to
~1e-9 by a fine boundary parametrization).  All distance machinery downstream
works purely through support-function evaluations, which is why this module is
the only place that knows what the bodies actually look like.

Conventions
-----------
Vectors are 1-d float64 arrays.  Direction arguments must be unit vectors
(checked to 1e-9).  Batched evaluation takes an (m, d) array of directions and
returns an (m,) array; scalar wrappers exist for the single-direction case.
Every body states its rolling_radius, the radius of a ball that rolls freely
inside it, or 0.0 where none is known, and if it is positive, outward(points).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import NamedTuple

import numpy as np


_UNIT_TOL = 1e-9


# ---------------------------------------------------------------------------
# dimensional constants


def ball_volume(p: int) -> float:
    """Volume of the unit ball in R^p: pi^(p/2) / Gamma(p/2 + 1)."""
    if p < 1:
        raise ValueError("dimension must be >= 1")
    return math.pi ** (p / 2) / math.gamma(p / 2 + 1)


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere S^(d-1) in R^d: d * beta_d."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return d * ball_volume(d)


def c_alpha(alpha: float) -> float:
    """inf over t > 0 of (1+t)^alpha / (1+t^alpha).

    Closed form min(1, 2^(alpha-1)): for alpha <= 1 the symmetry t <-> 1/t puts
    the minimizer at t = 1 where the ratio is 2^(alpha-1); for alpha >= 1 the
    ratio is >= 1 everywhere with infimum 1 approached as t -> 0.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return min(1.0, 2.0 ** (alpha - 1.0))


# ---------------------------------------------------------------------------
# direction helpers


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize a nonzero vector to the unit sphere.

    v is divided by its largest absolute entry first, so that its norm
    neither underflows nor overflows.
    """
    v = np.asarray(v, dtype=float)
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        raise ValueError("cannot normalize the zero vector")
    v = v / scale
    return v / float(np.linalg.norm(v))


def require_unit(u: np.ndarray, tol: float = _UNIT_TOL) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if abs(float(np.linalg.norm(u)) - 1.0) > tol:
        raise ValueError(f"direction is not unit (norm off by more than {tol:g})")
    return u


def _require_unit_rows(dirs: np.ndarray, tol: float = _UNIT_TOL) -> np.ndarray:
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) > tol:
        raise ValueError("direction rows must be unit vectors")
    return dirs


# ---------------------------------------------------------------------------
# body specs


def _require_finite(body, *names: str) -> None:
    for name in names:
        if not np.all(np.isfinite(getattr(body, name))):
            raise ValueError(f"{type(body).__name__} {name} must be finite")


@dataclass
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.radius = float(self.radius)
        _require_finite(self, "center", "radius")
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def rolling_radius(self) -> float:
        return self.radius

    def outward(self, points: np.ndarray) -> np.ndarray:
        """Each point's distance outside the ball; <= 0 inside."""
        return np.linalg.norm(points - self.center, axis=1) - self.radius

    def max_norm_bound(self) -> float:
        return float(np.linalg.norm(self.center)) + self.radius


@dataclass
class Ellipsoid:
    """center + rotation @ diag(semi_axes) applied to the unit ball."""

    center: np.ndarray
    semi_axes: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.semi_axes = np.asarray(self.semi_axes, dtype=float)
        self.rotation = np.asarray(self.rotation, dtype=float)
        _require_finite(self, "center", "semi_axes", "rotation")
        d = self.center.size
        if self.semi_axes.shape != (d,) or self.rotation.shape != (d, d):
            raise ValueError("inconsistent ellipsoid dimensions")
        if np.any(self.semi_axes <= 0):
            raise ValueError("semi-axes must be positive")
        if np.max(np.abs(self.rotation @ self.rotation.T - np.eye(d))) > 1e-9:
            raise ValueError("rotation must be orthogonal")

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def rolling_radius(self) -> float:
        # least radius of curvature, min semi-axis^2 / max semi-axis (Blaschke)
        s = self.semi_axes
        return float(np.min(s) ** 2 / np.max(s))

    def outward(self, points: np.ndarray) -> np.ndarray:
        """A bound on each point's distance outside the ellipsoid, (|z| - 1) s_max
        for z = diag(s)^-1 R^T (x - c): c + R diag(s) z / |z| is that close to
        x.  Exact for a ball, whose |x - c| - R it is; <= 0 inside."""
        z = (points - self.center) @ self.rotation / self.semi_axes
        return (np.linalg.norm(z, axis=1) - 1.0) * float(np.max(self.semi_axes))

    def max_norm_bound(self) -> float:
        return float(np.linalg.norm(self.center) + np.max(self.semi_axes))


class Triangulation(NamedTuple):
    """Simplices [apex, f_1, ..., f_d] that tile a polytope."""

    apex: np.ndarray  # (d,)
    edges: np.ndarray  # (k, d, d); edges[i, r] = f_r - apex for simplex i
    volumes: np.ndarray  # (k,)


# a facet whose hyperplane passes within this fraction of the largest vertex
# coordinate of the apex holds the apex, up to Qhull's roundoff, and spans no
# simplex with it
_APEX_PLANE_TOL = 1e-12


@dataclass
class PolytopeV:
    vertices: np.ndarray
    rolling_radius = 0.0  # a vertex admits no rolling ball

    def __post_init__(self):
        self.vertices = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        _require_finite(self, "vertices")
        m, d = self.vertices.shape
        if m < d + 1:
            raise ValueError("need at least d+1 vertices")
        if np.linalg.matrix_rank(self.vertices[1:] - self.vertices[0]) < d:
            raise ValueError("vertices are not full-dimensional")
        self._hull = None
        self._facets = None
        self._triangulation = None

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def _qhull(self):
        """Qhull's hull of the vertices, built on first use and cached.

        The one Qhull call behind the facet inequalities and the
        triangulation.  Two threads may both build it; they build the same
        arrays.
        """
        if self._hull is None:
            from scipy.spatial import ConvexHull

            self._hull = ConvexHull(self.vertices)
        return self._hull

    def facet_inequalities(self) -> np.ndarray:
        """Rows [a, b] with the body = {x : a.x + b <= 0}.

        Facets of a handful of fixed vertices; the random-hull estimator never
        goes through here.
        """
        if self._facets is None:
            self._facets = np.unique(self._qhull().equations, axis=0)
        return self._facets

    def triangulation(self) -> Triangulation:
        """Pulling triangulation from the first hull vertex a (cached).

        One simplex [a, F] for each of Qhull's simplicial facets F whose
        hyperplane misses a, with volume |det(F - a)| / d!.  The cones from a
        over the facets it does not lie on tile the polytope, so a simplex
        gives one simplex and the volumes sum to the polytope's.
        """
        if self._triangulation is None:
            hull = self._qhull()
            apex = self.vertices[hull.vertices[0]]
            # Qhull's rows [n, b], |n| = 1, hold the inside as n.x + b <= 0
            depth = -(hull.equations[:, :-1] @ apex + hull.equations[:, -1])
            far = depth > _APEX_PLANE_TOL * float(np.max(np.abs(self.vertices)))
            edges = self.vertices[hull.simplices[far]] - apex
            volumes = np.abs(np.linalg.det(edges)) / math.factorial(self.dim)
            self._triangulation = Triangulation(apex, edges, volumes)
        return self._triangulation

    def max_norm_bound(self) -> float:
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))


@dataclass
class BumpBall:
    """Ball of radius R, centered at 0, with a smooth dent at the pole R*u.

    The dent depth along the pole axis is amplitude * bump_scale^2 *
    bump_profile(2|t|/(R*bump_scale)) where t is the coordinate orthogonal to
    the axis; it vanishes for |t| >= R*bump_scale/2.
    """

    radius: float
    bump_scale: float
    amplitude: float
    direction: np.ndarray
    rolling_radius = 0.0  # none known

    def __post_init__(self):
        self.radius = float(self.radius)
        self.bump_scale = float(self.bump_scale)
        self.amplitude = float(self.amplitude)
        self.direction = np.asarray(self.direction, dtype=float)
        _require_finite(self, "radius", "bump_scale", "amplitude", "direction")
        self.direction = require_unit(self.direction, 1e-9)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.bump_scale <= 0 or self.amplitude <= 0:
            raise ValueError("bump_scale and amplitude must be positive")
        if self.direction.size < 2:
            raise ValueError("bump ball needs dimension >= 2")
        if self.amplitude * self.bump_scale**2 >= self.radius:
            raise ValueError("dent deeper than the ball")

    @property
    def dim(self) -> int:
        return self.direction.size

    @property
    def dent_depth(self) -> float:
        return self.amplitude * self.bump_scale**2

    def max_norm_bound(self) -> float:
        return self.radius

    def dent_height(self, t: np.ndarray) -> np.ndarray:
        """Height of the dented boundary over the orthogonal coordinate |t|."""
        t = np.abs(np.asarray(t, dtype=float))
        R, delta = self.radius, self.bump_scale
        sphere = np.sqrt(np.maximum(R**2 - t**2, 0.0))
        return sphere - self.dent_depth * bump_profile(2.0 * t / (R * delta))

    def profile_is_concave(self, n_grid: int = 4001, tol: float = 1e-9) -> bool:
        """Numeric convexity check of the dented boundary (and hence the body).

        The dented upper boundary is a radial graph s = f(|t|); the body is
        convex iff f is concave and nonincreasing on the dent window (f'(0)=0
        by symmetry).  Checked by second differences on a fine grid.
        """
        R, delta = self.radius, self.bump_scale
        t = np.linspace(0.0, R * delta / 2.0, n_grid)
        f = self.dent_height(t)
        h = t[1] - t[0]
        d2 = (f[2:] - 2 * f[1:-1] + f[:-2]) / h**2
        d1 = (f[2:] - f[:-2]) / (2 * h)
        return bool(np.all(d2 <= tol) and np.all(d1 <= tol))


BodySpec = Ball | Ellipsoid | PolytopeV | BumpBall


def canonical_center(body: BodySpec) -> np.ndarray:
    """The body's natural center (used by d_L and the CLI defaults)."""
    if isinstance(body, (Ball, Ellipsoid)):
        return body.center.copy()
    if isinstance(body, PolytopeV):
        return body.vertices.mean(axis=0)
    if isinstance(body, BumpBall):
        return np.zeros(body.dim)
    raise TypeError(f"unknown body kind {type(body).__name__}")


# ---------------------------------------------------------------------------
# the bump profile


def bump_eta(x) -> np.ndarray | float:
    """e^4 * g(2x-1) * g(2-2x) with g(y) = exp(-1/y) for y > 0, else 0.

    Supported on (1/2, 1), C-infinity, maximum 1 attained at x = 3/4.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.5) & (x < 1.0)
    xi = x[inside]
    out[inside] = np.exp(4.0 - 1.0 / (2.0 * xi - 1.0) - 1.0 / (2.0 - 2.0 * xi))
    return out if out.ndim else float(out)


def bump_profile(s) -> np.ndarray | float:
    """Even dent profile: bump_eta recentred to peak 1 at s=0, support (-1,1)."""
    return bump_eta((3.0 + np.asarray(s, dtype=float)) / 4.0)


def bump_profile_mass(d: int) -> float:
    """Integral of bump_profile(|s|) over the (d-1)-dimensional dent plane."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    from scipy import integrate

    k = d - 1
    if k == 1:
        val, _ = integrate.quad(lambda s: bump_profile(s), -1.0, 1.0, epsabs=1e-12)
        return val
    surf = k * ball_volume(k)  # area of S^(k-1)
    val, _ = integrate.quad(
        lambda rho: bump_profile(rho) * rho ** (k - 2), 0.0, 1.0, epsabs=1e-12
    )
    return surf * val


# ---------------------------------------------------------------------------
# support functions


def support_batch(body: BodySpec, dirs: np.ndarray) -> np.ndarray:
    """h_body evaluated on an (m, d) array of unit directions."""
    dirs = _require_unit_rows(dirs)
    if dirs.shape[1] != body.dim:
        raise ValueError("direction dimension does not match the body")
    return _support_rows(body, dirs)


def _support_rows(body: BodySpec, dirs: np.ndarray) -> np.ndarray:
    if isinstance(body, Ball):
        return dirs @ body.center + body.radius
    if isinstance(body, Ellipsoid):
        rot_dirs = dirs @ body.rotation  # rows are R^T u
        return dirs @ body.center + np.linalg.norm(rot_dirs * body.semi_axes, axis=1)
    if isinstance(body, PolytopeV):
        return np.max(dirs @ body.vertices.T, axis=1)
    if isinstance(body, BumpBall):
        return _bump_support_rows(body, dirs)
    raise TypeError(f"unknown body kind {type(body).__name__}")


def _bump_support_rows(body: BumpBall, dirs: np.ndarray, n_grid: int = 4097) -> np.ndarray:
    """Support of the dented ball: max of <v, x> over the boundary.

    Directions outside the dent's angular window see the intact sphere (h = R).
    Inside the window the maximum is taken over a fine parametrization of the
    dented surface (the window-edge sphere points are the grid endpoints); one
    parabolic step locates a refined parameter, and the surface is re-evaluated
    there so every reported value is attained at a true boundary point.  This
    is the support of the point set itself, i.e. of its convex hull, so it is
    valid even for amplitudes that break convexity, and it never exceeds the
    support of the intact ball.
    """
    R, delta = body.radius, body.bump_scale
    cos_t = np.clip(dirs @ body.direction, -1.0, 1.0)
    sin_t = np.sqrt(np.maximum(1.0 - cos_t**2, 0.0))
    h = np.full(len(dirs), R)
    mask = (cos_t > 0.0) & (sin_t < delta / 2.0)
    if not np.any(mask):
        return h
    xi = np.linspace(-1.0, 1.0, n_grid)
    t = (R * delta / 2.0) * xi
    s_dent = body.dent_height(t)
    vals = np.outer(sin_t[mask], t) + np.outer(cos_t[mask], s_dent)
    k = np.argmax(vals, axis=1)
    best = vals[np.arange(len(k)), k]
    interior = (k > 0) & (k < n_grid - 1)
    if np.any(interior):
        ki = k[interior]
        rows = np.arange(len(k))[interior]
        y0, y1, y2 = vals[rows, ki - 1], vals[rows, ki], vals[rows, ki + 1]
        denom = y0 - 2 * y1 + y2
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = np.where(np.abs(denom) > 0, 0.5 * (y0 - y2) / denom, 0.0)
        shift = np.clip(shift, -1.0, 1.0)
        step = t[1] - t[0]
        t_ref = t[ki] + shift * step
        refined = sin_t[mask][rows] * t_ref + cos_t[mask][rows] * body.dent_height(t_ref)
        best[interior] = np.maximum(best[interior], refined)
    h[mask] = best
    return h


def support(body: BodySpec, u: np.ndarray) -> float:
    """h_body(u) = max over x in body of <u, x>."""
    u = require_unit(u)
    return float(support_batch(body, u[None, :])[0])


# ---------------------------------------------------------------------------
# membership


def contains_batch(body: BodySpec, points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(body, Ball):
        return np.linalg.norm(points - body.center, axis=1) <= body.radius + tol
    if isinstance(body, Ellipsoid):
        z = (points - body.center) @ body.rotation / body.semi_axes
        return np.linalg.norm(z, axis=1) <= 1.0 + tol
    if isinstance(body, PolytopeV):
        eqs = body.facet_inequalities()
        return np.all(points @ eqs[:, :-1].T + eqs[:, -1] <= tol, axis=1)
    if isinstance(body, BumpBall):
        r2 = np.einsum("ij,ij->i", points, points)
        s = points @ body.direction
        t = np.sqrt(np.maximum(r2 - s**2, 0.0))
        return (r2 <= body.radius**2 + tol) & (s <= body.dent_height(t) + tol)
    raise TypeError(f"unknown body kind {type(body).__name__}")


def contains(body: BodySpec, x: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(contains_batch(body, np.asarray(x, dtype=float)[None, :], tol)[0])


# ---------------------------------------------------------------------------
# Minkowski functional


def _origin_interior_margin(body: BodySpec) -> float:
    """How far strictly inside the body the origin sits (<= 0 means not inside)."""
    if isinstance(body, Ball):
        return body.radius - float(np.linalg.norm(body.center))
    if isinstance(body, Ellipsoid):
        z = (-body.center) @ body.rotation / body.semi_axes
        return float(np.min(body.semi_axes)) * (1.0 - float(np.linalg.norm(z)))
    if isinstance(body, PolytopeV):
        eqs = body.facet_inequalities()
        return float(np.min(-eqs[:, -1] / np.linalg.norm(eqs[:, :-1], axis=1)))
    if isinstance(body, BumpBall):
        return body.radius - body.dent_depth
    raise TypeError(f"unknown body kind {type(body).__name__}")


def minkowski_functional(body: BodySpec, x: np.ndarray) -> float:
    """min lambda >= 0 with x in lambda * body; requires 0 interior to the body."""
    x = np.asarray(x, dtype=float)
    if _origin_interior_margin(body) <= 0:
        raise ValueError("Minkowski functional needs 0 in the interior of the body")
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        return 0.0
    if isinstance(body, Ball):
        return _gauge_shifted_ball(x, body.center, body.radius)
    if isinstance(body, Ellipsoid):
        xp = (x @ body.rotation) / body.semi_axes
        cp = (body.center @ body.rotation) / body.semi_axes
        return _gauge_shifted_ball(xp, cp, 1.0)
    if isinstance(body, PolytopeV):
        eqs = body.facet_inequalities()
        ratios = (eqs[:, :-1] @ x) / (-eqs[:, -1])
        return max(0.0, float(np.max(ratios)))
    if isinstance(body, BumpBall):
        # star-shaped about 0: bisection on membership along the ray.  The
        # radial function lies in [R - dent_depth, R], which brackets the gauge.
        lo = nx / body.radius
        hi = nx / (body.radius - body.dent_depth)
        if contains(body, x / lo):
            return lo
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if contains(body, x / mid):
                hi = mid
            else:
                lo = mid
        return hi
    raise TypeError(f"unknown body kind {type(body).__name__}")


def _gauge_shifted_ball(x: np.ndarray, c: np.ndarray, r: float) -> float:
    """Minkowski functional of c + r*B at x (0 strictly inside required)."""
    xc = float(x @ c)
    denom = r**2 - float(c @ c)
    return (-xc + math.sqrt(xc**2 + denom * float(x @ x))) / denom


# ---------------------------------------------------------------------------
# cap measures


def cap_share(a: float, r: float, eps):
    """Share of a radius-r ball's volume (a = (d+1)/2) or sphere's area (a = (d-1)/2)
    in the cap of height eps: (1/2) I_x(a, 1/2) with x = eps(2r - eps)/r^2 and
    I the regularized incomplete beta function (Li 2011).

    Past the hemisphere eps and 2r - eps give the same x, so the share there
    is one minus it.  Vectorized over eps.
    """
    eps = np.asarray(eps, dtype=float)
    if a <= 0:
        raise ValueError("a must be positive")
    if not np.all((0.0 <= eps) & (eps <= 2.0 * r)):
        raise ValueError("cap height must lie in [0, 2r]")
    from scipy.special import betainc

    half = 0.5 * betainc(a, 0.5, eps * (2.0 * r - eps) / r**2)
    out = np.where(eps > r, 1.0 - half, half)
    return out if out.ndim else float(out)


def cap_volume_ball(d: int, r: float, eps: float) -> float:
    """d-volume of the cap of height eps in a radius-r ball in R^d."""
    return ball_volume(d) * r**d * cap_share((d + 1) / 2.0, r, eps)


def cap_area_sphere(d: int, r: float, eps: float) -> float:
    """Surface area of a spherical cap of height eps on the radius-r sphere in R^d."""
    return sphere_area(d) * r ** (d - 1) * cap_share((d - 1) / 2.0, r, eps)


# ---------------------------------------------------------------------------
# JSON (de)serialization of body specs


_BODY_KINDS = {"ball": Ball, "ellipsoid": Ellipsoid, "polytope_v": PolytopeV, "bump_ball": BumpBall}


def read_fields(cls, doc: dict) -> dict:
    """The dataclass cls's fields in doc, by name; extra keys are ignored, and a
    missing field without a default is a ValueError that names it."""
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING:
            raise ValueError(f"{cls.__name__} needs the key {f.name!r}")
    return {f.name: doc[f.name] for f in fields(cls) if f.name in doc}


def plain_fields(record) -> dict:
    """A dataclass record's fields by name, with arrays as nested lists."""
    doc = {f.name: getattr(record, f.name) for f in fields(record)}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}


def body_to_dict(body: BodySpec) -> dict:
    for kind, cls in _BODY_KINDS.items():
        if isinstance(body, cls):
            return {"kind": kind, **plain_fields(body)}
    raise TypeError(f"unknown body kind {type(body).__name__}")


def body_from_dict(doc: dict) -> BodySpec:
    """The body that a dict in body_to_dict's form describes; extra keys are ignored."""
    kind = doc.get("kind")
    cls = _BODY_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown body kind {kind!r}")
    return cls(**read_fields(cls, doc))


def save_body(body: BodySpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(body_to_dict(body), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_body(path) -> BodySpec:
    with open(path) as fh:
        return body_from_dict(json.load(fh))
