"""Four-parameter family of fixed-area quadrilaterals.

A member of the family is determined by (a1, a2, c, S1) together with the
half-area scale S: it is the quadrilateral with vertices

    (-c, 0), (a1, S1/c), (c, 0), (a2, -S2/c),      S2 = 2S - S1,

listed counterclockwise.  Its area is always 2S.  The distinguished member
(0, 0, sqrt(S), S) is the rotated square of side sqrt(2S).  The module also
provides the piecewise linear maps between the rotated reference square and a
general member, the pullback inner-product identities those maps satisfy, and
an approximate Hausdorff distance to the equal-area square.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import integrate_triangles, segment_rule
from ._records import Record
from .errors import ContractError, GeometryError, ParameterDomainError

__all__ = [
    "QuadParams",
    "EdgeId",
    "EDGE_IDS",
    "PiecewiseLinearMap",
    "quad_vertices",
    "reference_square_vertices",
    "polygon_area",
    "polygon_centroid",
    "edge_endpoints",
    "edge_length",
    "perimeter",
    "interior_angles",
    "is_convex",
    "map_forward",
    "map_inverse",
    "pullback_inner_products",
    "PullbackCheck",
    "hausdorff_distance_to_square",
]


@dataclass(frozen=True)
class QuadParams(Record):
    """Parameters (a1, a2, c, S1; S) of one quadrilateral of area 2S."""

    a1: float
    a2: float
    c: float
    S1: float
    S: float = 1.0

    def __post_init__(self):
        for name in ("a1", "a2", "c", "S1", "S"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterDomainError(f"{name} must be finite, got {value!r}")
        if self.S <= 0.0:
            raise ParameterDomainError(f"S must be positive, got {self.S}")
        if self.c <= 0.0:
            raise ParameterDomainError(f"c must be positive, got {self.c}")
        if not 0.0 < self.S1 < 2.0 * self.S:
            raise ParameterDomainError(
                f"S1 must lie in (0, 2S) = (0, {2.0 * self.S}), got {self.S1}"
            )

    @property
    def S2(self) -> float:
        return 2.0 * self.S - self.S1

    @property
    def c0(self) -> float:
        """c-value of the square member, sqrt(S)."""
        return math.sqrt(self.S)

    @classmethod
    def square(cls, S: float = 1.0) -> "QuadParams":
        return cls(0.0, 0.0, math.sqrt(S), S, S)

    def is_square(self, tol: float = 0.0) -> bool:
        return (
            abs(self.a1) <= tol
            and abs(self.a2) <= tol
            and abs(self.c - self.c0) <= tol
            and abs(self.S1 - self.S) <= tol
        )

    def reflected(self) -> "QuadParams":
        """The mirror image across the x-axis, (a2, a1, c, S2)."""
        return QuadParams(self.a2, self.a1, self.c, self.S2, self.S)


@dataclass(frozen=True)
class EdgeId:
    """Boundary segment label (i, j): half j in {1: upper, 2: lower}, leg i.

    Leg i = 1 runs from (-c, 0) to the apex of half j; leg i = 2 runs from the
    apex to (c, 0).  The four labels enumerate the boundary exactly once.
    """

    i: int
    j: int

    def __post_init__(self):
        if self.i not in (1, 2) or self.j not in (1, 2):
            raise ParameterDomainError(f"edge indices must be in {{1,2}}, got {self}")

    @property
    def sign(self) -> float:
        """(-1)^(i+1): +1 for the leg meeting (-c,0), -1 for the one at (c,0)."""
        return 1.0 if self.i == 1 else -1.0


EDGE_IDS = (EdgeId(1, 1), EdgeId(2, 1), EdgeId(1, 2), EdgeId(2, 2))


def reference_square_vertices(S: float = 1.0) -> np.ndarray:
    """Vertices of the rotated reference square, CCW from (-sqrt(S), 0)."""
    r = math.sqrt(S)
    return np.array([[-r, 0.0], [0.0, r], [r, 0.0], [0.0, -r]])


def quad_vertices(p: QuadParams) -> np.ndarray:
    """Vertices (4, 2) of the quadrilateral in boundary-label order.

    Starts at (-c, 0) and follows the upper half first, so that the segment
    from vertex k to vertex k+1 carries the k-th label of EDGE_IDS.  This
    traversal runs clockwise; the signed shoelace area is -2S.
    """
    return np.array(
        [
            [-p.c, 0.0],
            [p.a1, p.S1 / p.c],
            [p.c, 0.0],
            [p.a2, -p.S2 / p.c],
        ]
    )


def _next_vertices(v: np.ndarray) -> np.ndarray:
    """Coordinate rows (x, y) of each vertex's successor: np.roll(v, -1, 0).T
    without np.roll's overhead, which dominates at 4 vertices."""
    return np.concatenate([v[1:], v[:1]]).T


def polygon_area(vertices: np.ndarray) -> float:
    """Signed shoelace area (positive for CCW orientation)."""
    v = np.asarray(vertices, dtype=float)
    x, y = v.T
    x1, y1 = _next_vertices(v)
    return 0.5 * float(np.dot(x, y1) - np.dot(y, x1))


def polygon_centroid(vertices: np.ndarray) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    x, y = v.T
    x1, y1 = _next_vertices(v)
    cross = x * y1 - x1 * y
    area = 0.5 * cross.sum()
    cx = np.dot(x + x1, cross) / (6.0 * area)
    cy = np.dot(y + y1, cross) / (6.0 * area)
    return np.array([cx, cy])


def edge_endpoints(p: QuadParams, e: EdgeId) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of the boundary segment labelled e, in leg order."""
    aj = p.a1 if e.j == 1 else p.a2
    Sj = p.S1 if e.j == 1 else p.S2
    apex = np.array([aj, Sj / p.c if e.j == 1 else -Sj / p.c])
    if e.i == 1:
        return np.array([-p.c, 0.0]), apex
    return apex, np.array([p.c, 0.0])


def edge_length(p: QuadParams, e: EdgeId) -> float:
    """Length of boundary segment e: sqrt(Sj^2/c^2 + (aj + (-1)^(i+1) c)^2)."""
    aj = p.a1 if e.j == 1 else p.a2
    Sj = p.S1 if e.j == 1 else p.S2
    return math.hypot(Sj / p.c, aj + e.sign * p.c)


def perimeter(p: QuadParams) -> float:
    return sum(edge_length(p, e) for e in EDGE_IDS)


def interior_angles(p: QuadParams) -> np.ndarray:
    """Interior angles at the four vertices, in radians, each in (0, 2*pi).

    Works for the non-convex members of the family too (a reflex vertex
    reports its angle above pi).  Raises GeometryError for a collinear
    vertex triple, i.e. a degenerate quadrilateral.
    """
    v = quad_vertices(p)
    e = v - v[[3, 0, 1, 2]]  # row k: the edge into vertex k
    # every dot product and squared length in one matmul, rounded as np.dot
    gram = (e @ e.T).tolist()
    x, y = e.T.tolist()
    angles = np.empty(4)
    for k in range(4):
        j = (k + 1) % 4  # the edge out of vertex k
        # the cross product e_k x e_j, negated: quad_vertices runs clockwise
        cross = y[k] * x[j] - x[k] * y[j]
        scale = math.sqrt(gram[k][k]) * math.sqrt(gram[j][j])
        if scale == 0.0 or abs(cross) <= 1e-14 * scale:
            raise GeometryError(f"collinear vertex triple at vertex {k} of {p}")
        angles[k] = math.pi - math.atan2(cross, gram[k][j])
    return angles


def is_convex(p: QuadParams) -> bool:
    try:
        return bool(np.all(interior_angles(p) < math.pi))
    except GeometryError:
        return False


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """A linear map per closed half-plane, continuous across y = 0.

    ``upper`` applies where y >= 0, ``lower`` where y < 0 (the halves agree on
    the shared segment, so the choice at y = 0 is immaterial).
    """

    upper: np.ndarray
    lower: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out = np.where(
            (pts[:, 1] >= 0.0)[:, None],
            pts @ self.upper.T,
            pts @ self.lower.T,
        )
        return out[0] if single else out


def map_forward(p: QuadParams) -> PiecewiseLinearMap:
    """Map from the reference square onto the quadrilateral.

    Sends (+-sqrt(S), 0) to (+-c, 0) and (0, +-sqrt(S)) to the apexes.  The
    upper block has determinant S1/S, the lower S2/S.
    """
    c0 = p.c0
    upper = np.array(
        [[p.c / c0, p.a1 * c0 / p.S], [0.0, c0 * p.S1 / (p.c * p.S)]]
    )
    lower = np.array(
        [[p.c / c0, -p.a2 * c0 / p.S], [0.0, c0 * p.S2 / (p.c * p.S)]]
    )
    return PiecewiseLinearMap(upper, lower)


def map_inverse(p: QuadParams) -> PiecewiseLinearMap:
    """Map from the quadrilateral back onto the reference square."""
    c0 = p.c0
    upper = np.array(
        [[c0 / p.c, -p.a1 * c0 / p.S1], [0.0, p.c * p.S / (c0 * p.S1)]]
    )
    lower = np.array(
        [[c0 / p.c, p.a2 * c0 / p.S2], [0.0, p.c * p.S / (c0 * p.S2)]]
    )
    return PiecewiseLinearMap(upper, lower)


@dataclass(frozen=True)
class PullbackCheck:
    """Both sides of the interior and per-edge pullback identities."""

    interior_lhs: float
    interior_rhs: float
    edge_lhs: np.ndarray
    edge_rhs: np.ndarray

    @property
    def interior_mismatch(self) -> float:
        return abs(self.interior_lhs - self.interior_rhs)

    @property
    def edge_mismatch(self) -> np.ndarray:
        return np.abs(self.edge_lhs - self.edge_rhs)


def pullback_inner_products(
    p: QuadParams, u, v, order: int = 24, cross_order: int = 31
) -> PullbackCheck:
    """Evaluate both sides of the change-of-variables identities numerically.

    Interior:  <u o L, v o L>_{ref square} against
               (S/S1) <u, v>_{upper half} + (S/S2) <u, v>_{lower half},
    per edge:  <u, v>_{edge} against (|edge| / |ref edge|) <u o L, v o L>
               over the matching reference edge.

    ``u`` and ``v`` are callables taking an (k, 2) array of points on the
    quadrilateral.  The two sides use quadrature rules of different order
    (``order`` vs ``cross_order``) so the agreement is a genuine check rather
    than an algebraic identity of one point set.
    """
    fwd = map_forward(p)
    rS = math.sqrt(p.S)
    ref_upper = [(np.array([-rS, 0.0]), np.array([rS, 0.0]), np.array([0.0, rS]))]
    ref_lower = [(np.array([-rS, 0.0]), np.array([rS, 0.0]), np.array([0.0, -rS]))]

    def composed(pts):
        values = u(fwd.apply(pts)) * v(fwd.apply(pts))
        if not np.all(np.isfinite(values)):
            raise ContractError("sample functions returned non-finite values")
        return values

    lhs = integrate_triangles(composed, ref_upper + ref_lower, order=order)

    verts = quad_vertices(p)
    phys_upper = [(verts[0], verts[2], verts[1])]
    phys_lower = [(verts[0], verts[2], verts[3])]

    def product(pts):
        values = u(pts) * v(pts)
        if not np.all(np.isfinite(values)):
            raise ContractError("sample functions returned non-finite values")
        return values

    rhs = (p.S / p.S1) * integrate_triangles(product, phys_upper, order=cross_order)
    rhs += (p.S / p.S2) * integrate_triangles(product, phys_lower, order=cross_order)

    ref_len = math.sqrt(2.0 * p.S)
    square = QuadParams.square(p.S)
    edge_lhs = np.empty(4)
    edge_rhs = np.empty(4)
    for k, e in enumerate(EDGE_IDS):
        q0, q1 = edge_endpoints(p, e)
        pts, w = segment_rule(q0, q1, cross_order)
        edge_lhs[k] = float(np.dot(w, product(pts)))
        r0, r1 = edge_endpoints(square, e)
        pts0, w0 = segment_rule(r0, r1, order)
        ratio = edge_length(p, e) / ref_len
        edge_rhs[k] = ratio * float(np.dot(w0, composed(pts0)))
    return PullbackCheck(lhs, rhs, edge_lhs, edge_rhs)


def _sample_boundary(vertices: np.ndarray, per_edge: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, per_edge, endpoint=False)
    chunks = []
    for k in range(len(vertices)):
        a = vertices[k]
        b = vertices[(k + 1) % len(vertices)]
        chunks.append(a[None, :] + t[:, None] * (b - a)[None, :])
    return np.concatenate(chunks, axis=0)


# (rotation, boundary sample, quad edge) triples per array pass of the
# square -> quad direction: 256 KiB per temporary array, whatever the sample
# count; at 250 samples per edge a pass covers 8 rotations.
_BLOCK_POINTS = 32_768


def _sq_dist_outside(px, py, polygons) -> np.ndarray:
    """Squared distance from points to a polygon's boundary, 0 inside it.

    ``polygons`` holds vertex rows, shape ``(..., n, 2)``; ``px``, ``py`` hold
    point coordinates, shape ``(..., m)``, whose leading axes broadcast
    against the polygons'.  The result, shape ``(..., m)``, measures each
    point against its own polygon; a point inside it (crossing-number test)
    counts 0.  All (point, edge) pairs are one array pass, and every pair's
    value comes from the same elementwise operations, whatever the shapes.
    """
    # edge k runs from vertex k to vertex k+1; the edge axis leads, so the
    # points' axis is the long inner loop of every array pass
    polygons = polygons.reshape((1,) * (px.ndim + 1 - polygons.ndim) + polygons.shape)
    a = np.moveaxis(polygons, -2, 0)[..., None, :]  # (n, ..., 1, 2)
    b = np.concatenate([a[1:], a[:1]])
    ax, ay, bx, by = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    abx, aby = bx - ax, by - ay
    dx, dy = px - ax, py - ay  # (n, ..., m)
    # a horizontal edge crosses no horizontal ray, so its slope is never read
    slope = np.divide(abx, aby, out=np.zeros(abx.shape), where=aby != 0.0)
    hit = (py < ay) != (py < by)
    hit &= dx < dy * slope
    inside = np.logical_xor.reduce(hit)
    # t = clip((d . ab) / |ab|^2, 0, 1), then d - t ab is the offset from the
    # nearest point of the edge
    inv = 1.0 / (abx * abx + aby * aby)
    t = dx * (abx * inv)
    t += dy * (aby * inv)
    np.clip(t, 0.0, 1.0, out=t)
    dx -= t * abx
    dy -= t * aby
    np.square(dx, out=dx)
    dx += np.square(dy, out=dy)
    best = dx.min(axis=0)
    best[inside] = 0.0
    return best


@functools.lru_cache(maxsize=8)
def _quarter_turn_residues(rotations: int):
    """Rotation rows for the grid 2 pi i / rotations, taken modulo pi/2.

    With g = gcd(rotations, 4) the residues are the ``rotations // g`` angles
    (pi/2) g k / rotations: the grid's first quarter when g = 4, and a grid
    2 or 4 times finer over [0, pi/2) when g = 2 or 1.  Returns the
    read-only array ``turn`` (2, 2, residues, 2): ``turn[0]`` holds the x and
    y rows that rotate a point by theta, ``turn[1]`` those that rotate it by
    -theta.
    """
    g = math.gcd(rotations, 4)
    angles = np.arange(rotations // g) * (2.0 * math.pi / rotations * (g / 4))
    cos, sin = np.cos(angles), np.sin(angles)
    turn = np.stack(
        [
            [np.column_stack([cos, -sin]), np.column_stack([sin, cos])],
            [np.column_stack([cos, sin]), np.column_stack([-sin, cos])],
        ]
    )
    turn.flags.writeable = False
    return turn


def _rotation_bounds(square, quad, rotations: int, convex: bool):
    """Per rotation theta, bounds ``lo <= F <= hi`` on the squared search value.

    F(theta) is the larger of the squared quad -> square distance (exact, at
    the quad's vertices) and the squared square -> quad distance sampled on
    the square's boundary.  The square and its samples map onto themselves
    under a quarter turn, so F(theta + pi/2) = F(theta), and only the grid's
    residues modulo pi/2 are evaluated (``_quarter_turn_residues``).  The
    square rotated by -theta against the fixed quad has the distances of the
    quad rotated by theta against the fixed square, so the square -> quad
    direction rotates the square, by the rows ``to_x``, ``to_y``
    (residues, 2) returned with ``lo`` and ``hi``.

    - ``lo``: the square's vertices are samples.
    - ``hi``: the quad is the union of convex pieces, itself when ``convex``,
      else its upper and lower triangles, which share the diagonal on
      y = 0.  The distance to a convex piece is convex along a square edge,
      so its larger endpoint value bounds the edge, and the least such bound
      over the pieces bounds the distance to the quad.  For a convex quad
      ``hi`` is ``lo``.
    """
    turn = _quarter_turn_residues(rotations)
    to_x, to_y = turn[1]
    # (direction, coordinate, residue, vertex): the quad's vertices rotated
    # by theta, then the square's rotated by -theta
    px, py = (turn @ np.stack([quad.T, square.T])[:, None]).transpose(1, 0, 2, 3)
    d = _sq_dist_outside(px, py, np.stack([square, quad])[:, None])
    sq = d[0].max(axis=1)
    lo = np.maximum(sq, d[1].max(axis=1))
    if convex:
        return to_x, to_y, lo, lo
    pieces = np.stack([quad[[0, 1, 2]], quad[[2, 3, 0]]])[:, None]
    d = _sq_dist_outside(px[1], py[1], pieces)
    edge = np.maximum(d, np.concatenate([d[..., 1:], d[..., :1]], axis=-1)).min(axis=0)
    return to_x, to_y, lo, np.maximum(sq, edge.max(axis=1))


def _sampled_search(to_x, to_y, lo, square, quad, samples_per_edge: int) -> float:
    """min over the given rotations of max(lo, sampled square -> quad), squared.

    Samples ``samples_per_edge`` points per square edge, vertices included,
    against the possibly non-convex quad; ``lo`` already holds the vertices'
    values.  Rotations are evaluated as arrays, in blocks of about 32k
    (rotation, sample, quad edge) triples, so the temporaries stay small.
    """
    samples = _sample_boundary(square, samples_per_edge).T
    n = len(lo)
    block = min(n, max(1, _BLOCK_POINTS // len(quad) // samples.shape[1]))
    best = np.inf
    for start in range(0, n, block):
        rows = slice(start, start + block)
        back = _sq_dist_outside(to_x[rows] @ samples, to_y[rows] @ samples, quad)
        best = min(best, np.maximum(lo[rows], back.max(axis=1)).min())
    return best


def hausdorff_distance_to_square(
    p: QuadParams, rotations: int = 720, samples_per_edge: int = 1000
) -> float:
    """Approximate Hausdorff distance to the equal-area square.

    Aligns centroids, then minimises over ``rotations`` uniformly spaced
    rotations of the quadrilateral the larger of the two directed distances.
    The square and its boundary samples map onto themselves under a quarter
    turn, so the value repeats every pi/2, and the search runs once over the
    grid's ``rotations // gcd(rotations, 4)`` residues modulo pi/2: one
    search over the 45 quarter-turn residues of 180 rotations, or the 180 of
    the default 720.  Per rotation:

    - quad -> square is exact: the distance to the convex square is convex
      along each quad edge, so its supremum sits at one of the 4 rotated
      vertices;
    - square -> quad is the maximum over ``samples_per_edge`` points per
      square edge (vertices included) against the possibly non-convex quad.

    Each rotation is first bounded from vertices alone
    (``_rotation_bounds``).  For a convex quad the bounds coincide, so
    square -> quad is exact too and no sample is taken.  Otherwise only the
    undecided rotations are sampled, those whose lower bound lies under the
    least upper bound: no other rotation can attain the minimum, so the
    result is the same number as the full sampled search.

    This is not the isometry-minimised set distance.  No translation is
    searched: the centroids stay aligned, and the best translation of a
    non-square quad generally lies elsewhere, so the value can lie above the
    minimised distance (a median 16% above it on random shapes).  The
    rotation search is discrete, and for a non-convex quad the square -> quad
    distance is a sampled supremum.  Raises ParameterDomainError unless both
    counts are at least 1.
    """
    if rotations < 1 or samples_per_edge < 1:
        raise ParameterDomainError(
            "rotations and samples_per_edge must be >= 1, got "
            f"{rotations} and {samples_per_edge}"
        )
    square = reference_square_vertices(p.S)
    quad = quad_vertices(p)
    quad -= polygon_centroid(quad)
    to_x, to_y, lo, hi = _rotation_bounds(square, quad, rotations, is_convex(p))
    best = hi.min()
    rows = np.flatnonzero(lo < best)
    if rows.size:
        best = min(
            best, _sampled_search(to_x[rows], to_y[rows], lo[rows], square, quad, samples_per_edge)
        )
    return float(np.sqrt(best))
