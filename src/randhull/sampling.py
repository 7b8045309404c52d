"""Seeded i.i.d. point clouds inside a body or on its boundary.

Streams are SFC64 generators, each seeded from the SeedSequence keyed by
(seed, spawn_key) alone (``stream``), so the same (body, mode, n, seed) always
reproduces the identical cloud bit for bit, whatever the thread count or the
order in which streams are drawn.  Ellipsoid interiors are the
affine image of the unit-ball draw with the same stream; that identity is load
bearing (tests rely on it), so do not reorder the draws.

Interior modes: ball by radial scaling, ellipsoid by affine pushforward,
polytope by a direct draw when it is its bounding box and by its
triangulation otherwise, dented ball by rejection from its enclosing ball.
Boundary modes: ball via normalized Gaussians, ellipsoid via
Jacobian-reweighted rejection off the sphere (exact area uniformity, no mesh).

A polytope's interior draw is exact and rejects nothing.  When its vertices
include all 2^d corners of their bounding box [lo, hi] (compared exactly), it
is that box, and the sampler draws an (n, d) block of uniforms U on the
interior stream and returns lo + (hi - lo) * U.  Otherwise (Devroye 1986,
Non-Uniform Random Variate Generation, ch. XI) its pulling triangulation
(PolytopeV.triangulation) tiles it with simplices [a, f_1, ..., f_d] of
volumes V_1..V_k.  On the interior stream the sampler draws, in this order:

1. when k > 1, n uniforms u; point i goes to the simplex m with
   c_(m-1) <= u_i < c_m, where c_0 = 0 and
   c_m = (V_1 + ... + V_m) / (V_1 + ... + V_k);
2. a (d, n) block of uniforms v, row r holding the r-th uniform of every
   point.

With s_1 <= s_2 <= ... <= s_d a point's d uniforms sorted, its weights are
the spacings w_1 = s_1, w_2 = s_2 - s_1, ..., w_d = s_d - s_(d-1), and the
point is x_j = a_j + w_1 (f_1 - a)_j + ... + w_d (f_d - a)_j, the terms added
in that order.  The spacings of d sorted uniforms, with 1 - s_d as the apex's
weight, are Dirichlet(1, ..., 1) (Devroye 1986, ch. V, uniform spacings):
uniform barycentric coordinates.  The uniforms are multiples of 2^-53 in
[0, 1), so every spacing is exact and the weights sum to s_d < 1.

The hot kernels make each RNG draw whole, over all n points, then do the
per-point arithmetic in blocks of _BLOCK_ROWS rows, column by column: a
broadcast against a last axis of length d runs a d-element inner loop per
row, which costs more than the arithmetic, and full-length passes over a
large cloud spill the L2 cache.  Within a block each column is worked in a
reused contiguous buffer and written into the output once.  The
triangulation sampler sorts each point's uniforms with a compare-exchange
network of np.minimum / np.maximum over the block's rows; any sorting network
gives the same sorted values.  Each operation is the IEEE operation the
per-point form would do on the same operands, in the same order, so every
cloud is the one the per-point form gives, bit for bit, whatever the block
size.  Row norms are summed column by column only up to
d = 7; from d = 8 on numpy's own reduction sums in another order, so
``np.linalg.norm`` is called there.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Ball,
    BodySpec,
    BumpBall,
    Ellipsoid,
    PolytopeV,
    Triangulation,
    contains_batch,
)

log = logging.getLogger("randhull")

_MODE_KEYS = {"interior": 0, "boundary": 1}
_MAX_REJECTION_ROUNDS = 500
# rows of the per-point sampler arithmetic done at a time, so that a block's
# weights, norms and output columns stay in the L2 cache (measured sweep in
# BENCH_sampler_blocks.json)
_BLOCK_ROWS = 16384


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent SFC64 stream for a given seed and spawn key path."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(int(seed), spawn_key=tuple(key)))
    )


def derived_seed(seed: int, *key: int) -> int:
    """A seed for the role or replication keyed by key, fixed by (seed, key) alone."""
    return int(np.random.SeedSequence(int(seed), spawn_key=tuple(key)).generate_state(1)[0])


# numpy's add.reduce over a row of a C-contiguous array adds the row's
# entries in sequence up to 7 columns and in unrolled partial sums from 8 on
_SEQUENTIAL_NORM_MAX_D = 7


def _row_norms(g: np.ndarray) -> np.ndarray:
    """np.linalg.norm(g, axis=1) of a C-contiguous g, bit for bit."""
    d = g.shape[1]
    if d > _SEQUENTIAL_NORM_MAX_D:
        return np.linalg.norm(g, axis=1)
    n = len(g)
    out = np.empty(n)
    sq = np.empty(min(n, _BLOCK_ROWS))
    for s in range(0, n, _BLOCK_ROWS):
        t = min(s + _BLOCK_ROWS, n)
        block, term = out[s:t], sq[: t - s]
        np.multiply(g[s:t, 0], g[s:t, 0], out=block)
        for j in range(1, d):
            np.multiply(g[s:t, j], g[s:t, j], out=term)
            block += term
        np.sqrt(block, out=block)
    return out


def _scale_shift_columns(pts: np.ndarray, scale, shift) -> np.ndarray:
    """pts[:, j] = shift[j] + scale[j] * pts[:, j] in place; the bits of shift + scale * pts."""
    for j in range(pts.shape[1]):
        col = pts[:, j]
        col *= scale[j]
        col += shift[j]
    return pts


def _gaussian_rows(rng: np.random.Generator, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gaussian rows in R^d and their norms, rows of norm under 1e-12 redrawn."""
    g = rng.standard_normal((n, d))
    norms = _row_norms(g)
    bad = norms < 1e-12
    while np.any(bad):
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms[bad] = _row_norms(g[bad])
        bad = norms < 1e-12
    return g, norms


def _ball_draw(
    rng: np.random.Generator, n: int, d: int, interior: bool, radius=None, center=None
) -> np.ndarray:
    """Uniform directions, or unit-ball points (direction times U^(1/d)),
    times radius plus center when given.

    The draws are whole; each column is then divided, scaled and shifted
    _BLOCK_ROWS rows at a time in a contiguous buffer, in the order of
    center + radius * ((g / norms) * radii), so the bits are those of that
    expression.
    """
    g, norms = _gaussian_rows(rng, n, d)
    radii = rng.random(n) ** (1.0 / d) if interior else None
    acc = np.empty(min(n, _BLOCK_ROWS))
    for s in range(0, n, _BLOCK_ROWS):
        t = min(s + _BLOCK_ROWS, n)
        col = acc[: t - s]
        for j in range(d):
            np.divide(g[s:t, j], norms[s:t], out=col)
            if interior:
                col *= radii[s:t]
            if radius is not None:
                col *= radius
                col += center[j]
            g[s:t, j] = col
    return g


def unit_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Uniform draw from the unit sphere: normalised Gaussian rows."""
    return _ball_draw(rng, n, d, interior=False)


def unit_ball_points(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Uniform draw from the unit ball: direction times U^(1/d) radius."""
    return _ball_draw(rng, n, d, interior=True)


@dataclass
class SampleCloud:
    points: np.ndarray
    body: BodySpec
    mode: str
    seed: int
    n: int

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.mode not in _MODE_KEYS:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n != len(self.points):
            raise ValueError("n does not match the point count")

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def sample(body: BodySpec, mode: str, n: int, seed: int) -> SampleCloud:
    """n i.i.d. points, uniform in d-volume (interior) or surface area (boundary)."""
    if mode not in _MODE_KEYS:
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = stream(seed, _MODE_KEYS[mode])
    if mode == "interior":
        pts = _sample_interior(body, n, rng)
    else:
        pts = _sample_boundary(body, n, rng)
    return SampleCloud(points=pts, body=body, mode=mode, seed=int(seed), n=n)


def _sample_interior(body: BodySpec, n: int, rng: np.random.Generator) -> np.ndarray:
    d = body.dim
    if isinstance(body, Ball):
        return _ball_draw(rng, n, d, True, body.radius, body.center)
    if isinstance(body, Ellipsoid):
        z = unit_ball_points(rng, n, d)
        return body.center + (z * body.semi_axes) @ body.rotation.T
    if isinstance(body, PolytopeV):
        lo = body.vertices.min(axis=0)
        hi = body.vertices.max(axis=0)
        if _is_box(body.vertices, lo, hi):
            log.debug("polytope sampler: box path")
            return _scale_shift_columns(rng.random((n, d)), hi - lo, lo)
        tri = body.triangulation()
        log.debug("polytope sampler: triangulation path, simplices %d", len(tri.volumes))
        return _triangulation_points(tri, n, rng)
    if isinstance(body, BumpBall):

        def propose(m: int) -> np.ndarray:
            pts = body.radius * unit_ball_points(rng, m, d)
            return np.compress(contains_batch(body, pts), pts, axis=0)

        return _collect(body, "interior", n, propose)
    raise TypeError(f"unknown body kind {type(body).__name__}")


def _is_box(vertices: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the vertices include all 2^d corners of the box [lo, hi].

    The comparisons are exact.  Every vertex lies in [lo, hi], so when they
    include its corners their hull is that box.
    """
    m, d = vertices.shape
    if m < 2**d:
        return False
    at_lo, at_hi = vertices == lo, vertices == hi
    corners = at_hi[np.all(at_lo | at_hi, axis=1)]
    return len(np.unique(corners, axis=0)) == 2**d


def _triangulation_points(tri: Triangulation, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform points of the union of the simplices [a, f_1, ..., f_d].

    The draw order is documented in the module docstring.  The draws are
    whole; the arithmetic then runs _BLOCK_ROWS points at a time: each
    point's d uniforms sorted by a compare-exchange network over the block's
    rows (the rows are views, the reused block buffer the spare), the
    spacings taken in place, and each output column summed in a contiguous
    block buffer and written into pts once.
    """
    k, d, _ = tri.edges.shape
    if k > 1:
        cum = np.cumsum(tri.volumes)
        which = np.searchsorted(cum[:-1] / cum[-1], rng.random(n), side="right")
    u = rng.random((d, n))
    pts = np.empty((n, d))
    rows = min(n, _BLOCK_ROWS)
    spare, acc, term = np.empty(rows), np.empty(rows), np.empty(rows)
    for s in range(0, n, _BLOCK_ROWS):
        t = min(s + _BLOCK_ROWS, n)
        w, tmp, col, buf = list(u[:, s:t]), spare[: t - s], acc[: t - s], term[: t - s]
        # odd-even transposition network: d rounds sort any d rows
        for p in range(d):
            for i in range(p % 2, d - 1, 2):
                np.minimum(w[i], w[i + 1], out=tmp)
                np.maximum(w[i], w[i + 1], out=w[i + 1])
                w[i], tmp = tmp, w[i]
        for r in range(d - 1, 0, -1):
            w[r] -= w[r - 1]
        for j in range(d):
            for r in range(d):
                # w[r] E_rj, E_rj the entry j of each point's edge f_(r+1) - a,
                # into col for r = 0 (w[0] E_0j + a_j is the IEEE sum
                # a_j + w[0] E_0j)
                out = col if r == 0 else buf
                if k == 1:
                    np.multiply(w[r], tri.edges[0, r, j], out=out)
                else:
                    np.take(tri.edges[:, r, j], which[s:t], out=out)
                    out *= w[r]
                col += tri.apex[j] if r == 0 else buf
            pts[s:t, j] = col
    return pts


def _sample_boundary(body: BodySpec, n: int, rng: np.random.Generator) -> np.ndarray:
    d = body.dim
    if isinstance(body, Ball):
        return _ball_draw(rng, n, d, False, body.radius, body.center)
    if isinstance(body, Ellipsoid):
        s = body.semi_axes
        s_min = float(np.min(s))

        def propose(m: int) -> np.ndarray:
            theta = unit_directions(rng, m, d)
            accept_prob = s_min * _row_norms(theta / s)
            keep = rng.random(m) < accept_prob
            return theta[keep]

        theta = _collect(body, "boundary", n, propose)
        return body.center + (theta * s) @ body.rotation.T
    raise ValueError(
        f"boundary sampling is not supported for {type(body).__name__}"
    )


def _collect(body: BodySpec, mode: str, n: int, propose_accepted) -> np.ndarray:
    """Run batched proposals until n points are accepted; keep the first n."""
    chunks = []
    got = 0
    batch = max(1024, n)
    for rounds in range(1, _MAX_REJECTION_ROUNDS + 1):
        pts = propose_accepted(batch)
        if len(pts):
            chunks.append(pts)
            got += len(pts)
        if got >= n:
            log.debug(
                "rejection sampler: accepted %d of %d proposed (%.4g)",
                got,
                rounds * batch,
                got / (rounds * batch),
            )
            return np.vstack(chunks)[:n]
    raise RuntimeError(
        f"rejection sampler for the {type(body).__name__} {mode} draw of n = {n} "
        f"accepted {got} of {_MAX_REJECTION_ROUNDS * batch} proposed points: the "
        "body's acceptance rate is too low for this rejection sampler; use a body "
        "that fills more of its proposal region (a less elongated ellipsoid, a "
        "shallower dent)"
    )


# ---------------------------------------------------------------------------
# point CSV I/O (one point per row, decimal literals that round-trip)


def points_to_csv(points: np.ndarray) -> str:
    """CSV text with an x0,...,x{d-1} header; floats written via repr (lossless)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    header = ",".join(f"x{j}" for j in range(points.shape[1]))
    body = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in points)
    return header + "\n" + body


def load_points(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("x0"):
                continue
            rows.append([float(tok) for tok in line.split(",")])
    return np.asarray(rows, dtype=float)
