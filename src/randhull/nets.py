"""Finite direction nets on the unit sphere.

A net at scale delta is a delta-packing (pairwise Euclidean distance > delta)
that is also a delta-covering (every unit vector within delta of some net
point).

* d = 2: the m equally spaced directions with the fewest m >= 3 that cover at
  delta.  Closed form and exact.
* d >= 3: a repair that grows the net from the cross-polytope +-e_i, a
  delta-packing at every delta <= 1, and admits only points farther than
  delta from everything already kept.  It inserts spherical Voronoi vertices
  that sit farther than delta from their generators, iterating until none
  remain.  The covering radius of a point set on the sphere is attained at a
  Voronoi vertex (the vertices are the facet normals of the set's convex
  hull), so the repair is exact and deterministic in every dimension, and
  every net it returns is certified.

Neighbor queries against large point sets go through blocked matrix products,
so no step holds more than _BLOCK_ELEMS products at a time and peak memory
stays flat.  A net serializes to JSON from its dataclass fields, which
`SphereNet.__post_init__` casts to Python types.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import plain_fields, read_fields

_BLOCK_ELEMS = 4_000_000


def blocked_max_dot(dirs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Row-wise max of dirs @ points.T without materializing the full product.

    The chunk product goes into one reused buffer, so the call does pure BLAS
    work regardless of how many chunks the points split into.
    """
    dirs = np.ascontiguousarray(np.atleast_2d(np.asarray(dirs, dtype=float)))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = len(dirs)
    out = np.full(m, -np.inf)
    step = max(1, _BLOCK_ELEMS // max(1, m))
    buf = np.empty((m, min(step, len(points))))
    for lo in range(0, len(points), step):
        chunk = points[lo : lo + step]
        if len(chunk) == buf.shape[1]:
            np.dot(dirs, chunk.T, out=buf)
            np.maximum(out, buf.max(axis=1), out=out)
        else:
            np.maximum(out, (dirs @ chunk.T).max(axis=1), out=out)
    return out


# ---------------------------------------------------------------------------
# the net object


@dataclass
class SphereNet:
    dim: int
    delta: float
    points: np.ndarray
    seed: int
    cover_radius: float
    certified: bool

    def __post_init__(self):
        self.dim = int(self.dim)
        self.delta = float(self.delta)
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.seed = int(self.seed)
        self.cover_radius = float(self.cover_radius)
        self.certified = bool(self.certified)

    def __len__(self) -> int:
        return len(self.points)

    def nearest(self, v: np.ndarray) -> tuple[int, float]:
        """Index of the nearest net point to unit v and the Euclidean distance."""
        dots = self.points @ np.asarray(v, dtype=float)
        i = int(np.argmax(dots))
        return i, math.sqrt(max(0.0, 2.0 - 2.0 * float(dots[i])))

    def coverage_distances(self, dirs: np.ndarray) -> np.ndarray:
        """Distance from each probe direction to the net."""
        dots = np.clip(blocked_max_dot(dirs, self.points), -1.0, 1.0)
        return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots))

    def min_pairwise_distance(self) -> float:
        """Packing margin; quadratic in the net size, meant for small nets."""
        p = self.points
        best = -np.inf
        step = max(1, _BLOCK_ELEMS // max(1, len(p)))
        for lo in range(0, len(p), step):
            prod = p[lo : lo + step] @ p.T
            rows = np.arange(prod.shape[0])
            prod[rows, rows + lo] = -np.inf
            best = max(best, float(prod.max()))
        return math.sqrt(max(0.0, 2.0 - 2.0 * min(1.0, best)))


# ---------------------------------------------------------------------------
# construction


def build_net(d: int, delta: float, seed: int) -> SphereNet:
    """Delta-net: closed form in d = 2, grown from the cross-polytope above.

    In d = 2 the net is the m directions at angles 2 pi k / m, k = 0 ... m - 1,
    for the smallest m >= 3 with 2 sin(pi / (2m)) <= delta.  The farthest
    direction from the net is a gap midpoint, so that chord is the exact
    cover radius and the net is certified.  It packs: for m > 3, minimality
    gives 2 sin(pi / (2(m - 1))) > delta, and pi / m > pi / (2(m - 1)) with
    both angles in (0, pi / 2], so the pairwise distance 2 sin(pi / m) exceeds
    delta; for m = 3 it is sqrt(3) > 1 >= delta.

    In d >= 3 the net starts from the 2d points +-e_i, which lie sqrt(2) or 2
    apart and so pack at every delta <= 1.  The repair inserts only points
    farther than delta from everything kept, so the net stays a packing while
    the repair closes every coverage gap.  It reads the gaps from the Voronoi
    vertices, exactly, so cover_radius is the exact covering radius and the
    net is certified.

    `seed` changes no net in any dimension; the net only records it.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must be in (0, 1]")
    if d == 2:
        # start one below the rounded count, so rounding cannot skip the least m
        m = max(3, math.ceil(math.pi / (2.0 * math.asin(delta / 2.0))) - 1)
        while 2.0 * math.sin(math.pi / (2 * m)) > delta:
            m += 1
        ang = 2.0 * math.pi * np.arange(m) / m
        points = np.column_stack([np.cos(ang), np.sin(ang)])
        cover = 2.0 * math.sin(math.pi / (2 * m))
    else:
        points, cover = _repair_sphere(np.vstack([np.eye(d), -np.eye(d)]), delta)
    return SphereNet(
        dim=d, delta=delta, points=points, seed=seed, cover_radius=cover, certified=True
    )


def _append_far(pts: np.ndarray, cand: np.ndarray, delta: float) -> np.ndarray:
    """pts plus, in order, each candidate farther than delta from those appended before it."""
    thresh = 1.0 - delta**2 / 2.0
    buf = np.empty((len(cand), pts.shape[1]))
    k = 0
    for v in cand:
        if k and float(np.max(buf[:k] @ v)) > thresh:
            continue
        buf[k] = v
        k += 1
    return np.vstack([pts, buf[:k]])


def _voronoi_vertex_distances(pts: np.ndarray):
    """Spherical Voronoi vertices of pts and their distance to the net.

    Each vertex is equidistant from its incident generators and at least that
    far from every other point, so one incident generator per vertex suffices.
    """
    from scipy.spatial import SphericalVoronoi

    sv = SphericalVoronoi(pts, radius=1.0, threshold=1e-10)
    gen = np.full(len(sv.vertices), -1, dtype=np.int64)
    for i, region in enumerate(sv.regions):
        for v in region:
            if gen[v] < 0:
                gen[v] = i
    verts = sv.vertices / np.linalg.norm(sv.vertices, axis=1)[:, None]
    dist = np.linalg.norm(verts - pts[gen], axis=1)
    return verts, dist


def _repair_sphere(
    pts: np.ndarray, delta: float, max_rounds: int = 60
) -> tuple[np.ndarray, float]:
    """Insert uncovered Voronoi vertices until none is farther than delta.

    Returns the net and its exact covering radius.
    """
    for _ in range(max_rounds):
        verts, dist = _voronoi_vertex_distances(pts)
        far = np.argsort(dist)[::-1]
        far = far[dist[far] > delta]
        if len(far) == 0:
            return pts, float(dist.max())
        pts = _append_far(pts, verts[far], delta)
    raise RuntimeError(
        f"the d = {pts.shape[1]} net at delta = {delta} did not converge in "
        f"{max_rounds} repair rounds; use a larger delta"
    )


# ---------------------------------------------------------------------------
# chaining decomposition


@dataclass
class Decomposition:
    """u = net[base] - sum_j coeff_j * net[index_j] - residual, exactly."""

    base: int
    terms: list[tuple[float, int]]
    residual: np.ndarray

    @property
    def error(self) -> float:
        return float(np.linalg.norm(self.residual))

    def approximation(self, net: SphereNet) -> np.ndarray:
        out = net.points[self.base].copy()
        for coeff, idx in self.terms:
            out -= coeff * net.points[idx]
        return out


def decompose(net: SphereNet, u: np.ndarray, depth: int) -> Decomposition:
    """Peel u into net directions with geometrically shrinking coefficients.

    On a delta-covering net the j-th coefficient is at most delta^j and the
    final residual at most delta^(depth+1): each step rescales the residual by
    the distance from its direction to the net.
    """
    u = np.asarray(u, dtype=float)
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-9:
        raise ValueError("u must be a unit vector")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    base, _ = net.nearest(u)
    r = net.points[base] - u
    terms: list[tuple[float, int]] = []
    for _ in range(depth):
        nr = float(np.linalg.norm(r))
        if nr < 1e-15:
            break
        idx, _ = net.nearest(r / nr)
        terms.append((nr, idx))
        r = r - nr * net.points[idx]
    return Decomposition(base=base, terms=terms, residual=r)


# ---------------------------------------------------------------------------
# certified sup bound


def sup_certificate(net: SphereNet, net_sup: float, radius: float = 1.0) -> float:
    """Upper bound on the sup over the sphere of a support-function gap, from its net max.

    For h_1 - h_2 or |h_1 - h_2|, with both bodies inside the ball of the given
    radius R about the origin, each support function is R-Lipschitz on the
    sphere, so over a net covering at delta the gap is at most
    net_sup + 2 R delta; inf, proving nothing, when the covering is uncertified,
    as only a net read from JSON can be.
    """
    if not net.certified:
        return math.inf
    return net_sup + 2.0 * radius * net.delta


# ---------------------------------------------------------------------------
# JSON (de)serialization


def net_to_dict(net: SphereNet) -> dict:
    return plain_fields(net)


def net_from_dict(doc: dict) -> SphereNet:
    return SphereNet(**read_fields(SphereNet, doc))


def load_net(path) -> SphereNet:
    with open(path) as fh:
        return net_from_dict(json.load(fh))
