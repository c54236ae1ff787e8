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
    return np.array(_vertex_rows(p))


def _vertex_rows(p: QuadParams) -> list[list[float]]:
    """quad_vertices as rows of Python floats."""
    return [[-p.c, 0.0], [p.a1, p.S1 / p.c], [p.c, 0.0], [p.a2, -p.S2 / p.c]]


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


def _corner_turns(p: QuadParams) -> list[tuple[float, float]]:
    """(cross, dot) of the edges into and out of each vertex, in vertex order.

    ``cross`` is their cross product negated, since quad_vertices runs
    clockwise, so it is positive exactly where the interior angle is below
    pi; ``dot`` is their dot product.  Raises GeometryError at the first
    collinear vertex triple, ``|cross| <= 1e-14 |e_in| |e_out|``.
    """
    v = _vertex_rows(p)
    e = [[v[k][0] - v[k - 1][0], v[k][1] - v[k - 1][1]] for k in range(4)]
    a = np.array(e)
    # every dot product and squared length in one matmul, rounded as np.dot
    gram = (a @ a.T).tolist()
    turns = []
    for k in range(4):
        j = (k + 1) % 4  # the edge out of vertex k
        cross = e[k][1] * e[j][0] - e[k][0] * e[j][1]
        scale = math.sqrt(gram[k][k]) * math.sqrt(gram[j][j])
        if scale == 0.0 or abs(cross) <= 1e-14 * scale:
            raise GeometryError(f"collinear vertex triple at vertex {k} of {p}")
        turns.append((cross, gram[k][j]))
    return turns


def interior_angles(p: QuadParams) -> np.ndarray:
    """Interior angles at the four vertices, in radians, each in (0, 2*pi).

    Works for the non-convex members of the family too (a reflex vertex
    reports its angle above pi).  Raises GeometryError for a collinear
    vertex triple, i.e. a degenerate quadrilateral.
    """
    return np.array([math.pi - math.atan2(cross, dot) for cross, dot in _corner_turns(p)])


def is_convex(p: QuadParams) -> bool:
    """Whether every interior angle lies below pi; False when degenerate."""
    try:
        return all(cross > 0.0 for cross, _ in _corner_turns(p))
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


# (rotation, boundary sample, quad edge) triples per array pass of the
# square -> quad direction: 256 KiB per temporary array, whatever the sample
# count; at 250 samples per edge a pass covers 8 rotations.
_BLOCK_POINTS = 32_768


def _edges(vertices, start, end, ndim: int) -> np.ndarray:
    """The constants of ``_edge_pass`` for the edges ``start[k] -> end[k]``.

    ``vertices`` holds vertex rows of Python floats.  Returns the rows
    (ax, ay, by, slope, abx / |ab|^2, aby / |ab|^2, abx, aby), shape
    ``(8, edges) + (1,) * ndim``, so that they broadcast against points with
    ``ndim`` axes.
    """
    rows = []
    for i, j in zip(start, end):
        (ax, ay), (bx, by) = vertices[i], vertices[j]
        abx, aby = bx - ax, by - ay
        # a horizontal edge crosses no horizontal ray, so its slope is never read
        slope = abx / aby if aby != 0.0 else 0.0
        inv = 1.0 / (abx * abx + aby * aby)
        rows.append((ax, ay, by, slope, abx * inv, aby * inv, abx, aby))
    return np.array(rows).T.reshape((8, len(rows)) + (1,) * ndim)


def _edge_pass(px, py, edges):
    """Crossing-number hits and squared distances, per (edge, point).

    ``edges`` comes from ``_edges``; ``px``, ``py`` hold point coordinates.
    Returns ``hit``, whether the rightward ray from the point crosses the
    edge, and the squared distance from the point to the edge, both of shape
    ``(edges,) + px.shape``.  Every (point, edge) value comes from the same
    elementwise operations, whatever the shapes.
    """
    ax, ay, by, slope, ux, uy, abx, aby = edges
    dx, dy = px - ax, py - ay
    hit = (py < ay) != (py < by)
    hit &= dx < dy * slope
    # t = clip((d . ab) / |ab|^2, 0, 1), then d - t ab is the offset from the
    # nearest point of the edge
    t = dx * ux
    t += dy * uy
    np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
    dx -= t * abx
    dy -= t * aby
    np.square(dx, out=dx)
    dx += np.square(dy, out=dy)
    return hit, dx


def _sq_dist_outside_box(uv: np.ndarray, h: float) -> np.ndarray:
    """Squared distance from points to the box ``|u|, |v| <= h``, 0 inside it.

    ``uv`` holds the u and v coordinates, shape ``(..., 2, m)``; the result
    has shape ``(..., m)``.  The reference square ``|x| + |y| <= sqrt(S)``
    turned by pi/4 is this box with ``h = sqrt(S/2)``.
    """
    d = np.abs(uv)
    d -= h
    np.maximum(d, 0.0, out=d)
    d *= d
    return d[..., 0, :] + d[..., 1, :]


@functools.lru_cache(maxsize=8)
def _quarter_turn_residues(rotations: int):
    """Rotation rows for the grid 2 pi i / rotations, taken modulo pi/2.

    With g = gcd(rotations, 4) the residues are the ``rotations // g`` angles
    theta = (pi/2) g k / rotations: the grid's first quarter when g = 4, and
    a grid 2 or 4 times finer over [0, pi/2) when g = 2 or 1.  Returns the
    read-only array ``turn`` (2, 2, residues, 2): ``turn[0]`` holds the x and
    y rows that rotate a point by theta + pi/4, ``turn[1]`` those that rotate
    it by -theta.
    """
    g = math.gcd(rotations, 4)
    angles = np.arange(rotations // g) * (2.0 * math.pi / rotations * (g / 4))
    cos, sin = np.cos(angles), np.sin(angles)
    cos4, sin4 = np.cos(angles + 0.25 * math.pi), np.sin(angles + 0.25 * math.pi)
    turn = np.stack(
        [
            [np.column_stack([cos4, -sin4]), np.column_stack([sin4, cos4])],
            [np.column_stack([cos, sin]), np.column_stack([-sin, cos])],
        ]
    )
    turn.flags.writeable = False
    return turn


@functools.lru_cache(maxsize=8)
def _turned_square(rotations: int, r: float):
    """The vertices of the square of circumradius r rotated by -theta.

    Over the quarter-turn residues theta of the grid: the read-only array
    (2, 4, residues) of their x and y coordinates, in the vertex order of
    ``reference_square_vertices``.  Each coordinate is the single product
    ``r cos`` or ``r sin`` that the rows ``turn[1]`` applied to those
    vertices round to.
    """
    cos, sin = r * _quarter_turn_residues(rotations)[1, 0].T
    turned = np.stack([[-cos, sin, cos, -sin], [sin, cos, -sin, -cos]])
    turned.flags.writeable = False
    return turned


# the quad's edges 0 -> 1, 2 -> 3, 1 -> 2, 3 -> 0, so the upper triangle's two
# quad edges are rows 0 and 2 and the lower's rows 1 and 3, then the diagonal
# 0 -> 2 on which the triangles meet
_EDGE_START = (0, 2, 1, 3, 0)
_EDGE_END = (1, 3, 2, 0, 2)


def _rotation_bounds(square, quad, rotations: int, convex: bool):
    """Per rotation theta, bounds ``lo <= F <= hi`` on the squared search value.

    F(theta) is the larger of the squared quad -> square distance (exact, at
    the quad's vertices) and the squared square -> quad distance sampled on
    the square's boundary.  The square and its samples map onto themselves
    under a quarter turn, so F(theta + pi/2) = F(theta), and only the grid's
    residues modulo pi/2 are evaluated (``_quarter_turn_residues``).
    ``square`` is ``reference_square_vertices(S)``.

    - quad -> square, closed form: turned by a further pi/4 the square is the
      box ``|u|, |v| <= sqrt(S/2)``, so one matmul turns the 4 vertices by
      theta + pi/4 and ``_sq_dist_outside_box`` measures them.
    - square -> quad: the square turned by -theta against the fixed quad has
      the distances of the quad turned by theta against the fixed square.
      The square's turned vertices are cached as ``_turned_square``.  One
      array pass over the quad's 4 edges, plus its diagonal from vertex 0 to
      vertex 2 when not ``convex``, gives every squared distance and
      crossing-number hit that both bounds need.

    ``lo`` takes the square's vertices as samples.  For ``hi`` the quad is
    the union of convex pieces, itself when ``convex``, else its upper and
    lower triangles.  They share the diagonal, which lies on y = 0 before
    centring, so no horizontal ray crosses it and a triangle's crossing test
    is its two quad edges'.  The distance to a convex piece is convex along a
    square edge, so its larger endpoint value bounds the edge, and the least
    such bound over the pieces bounds the distance to the quad.  For a convex
    quad ``hi`` is ``lo``.
    """
    turn = _quarter_turn_residues(rotations)
    n = turn.shape[2]
    r = float(square[2, 0])
    # (vertex, residue) arrays throughout: reducing over the short leading
    # axis is an elementwise pass over rows
    uv = (quad @ turn[0].reshape(2 * n, 2).T).reshape(4, 2, n)
    sq = _sq_dist_outside_box(uv, r / math.sqrt(2.0))
    count = 4 if convex else 5
    px, py = _turned_square(rotations, r)
    hit, d = _edge_pass(px, py, _edges(quad.tolist(), _EDGE_START[:count], _EDGE_END[:count], 2))
    back = d[:4].min(axis=0)
    np.putmask(back, np.logical_xor.reduce(hit), 0.0)
    lo = np.maximum(sq, back).max(axis=0)
    if convex:
        return lo, lo
    pieces = np.minimum(d[:2], d[2:4])
    np.minimum(pieces, d[4], out=pieces)
    np.putmask(pieces, hit[:2] ^ hit[2:4], 0.0)
    edge = np.maximum(pieces, pieces[:, [1, 2, 3, 0]]).min(axis=0)
    return lo, np.maximum(sq, edge).max(axis=0)


def _sampled_search(px, py, lo, quad, samples_per_edge: int) -> float:
    """min over the given rotations of max(lo, sampled square -> quad), squared.

    ``px``, ``py`` (4, rotations) hold the turned square's vertices, rows of
    ``_turned_square``.  Edge k's samples are the ``samples_per_edge`` points
    v_k + (j / samples_per_edge) (v_{k+1} - v_k), vertices included, measured
    against the possibly non-convex quad by the vertex pass's ``_edge_pass``
    and reduced as it reduces them; ``lo`` already holds the vertices'
    values.  Rotations are evaluated as arrays, in blocks of about 32k
    (rotation, sample, quad edge) triples, so the temporaries stay small.
    """
    t = np.linspace(0.0, 1.0, samples_per_edge, endpoint=False)
    edges = _edges(quad.tolist(), _EDGE_START[:4], _EDGE_END[:4], 3)
    # (rotation, square edge, sample) points: the samples are the long last axis
    ax, ay = px.T[:, :, None], py.T[:, :, None]
    abx, aby = ax[:, [1, 2, 3, 0]] - ax, ay[:, [1, 2, 3, 0]] - ay
    n = len(lo)
    # each rotation measures 4 * samples_per_edge points against 4 quad edges
    block = min(n, max(1, _BLOCK_POINTS // (16 * samples_per_edge)))
    best = np.inf
    for start in range(0, n, block):
        rows = slice(start, start + block)
        hit, d = _edge_pass(ax[rows] + t * abx[rows], ay[rows] + t * aby[rows], edges)
        back = d.min(axis=0)
        np.putmask(back, np.logical_xor.reduce(hit), 0.0)
        best = min(best, np.maximum(lo[rows], back.max(axis=(1, 2))).min())
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
      vertices, and it is closed-form there (the square turned by pi/4 is
      an axis-aligned box);
    - square -> quad is the maximum over ``samples_per_edge`` points along
      each edge of the square turned by -theta (vertices included), against
      the possibly non-convex quad.

    The vertices, centroid and convexity are Python floats; each rotation is
    then bounded from vertices alone, both bounds from one array pass over
    the quad's edges (``_rotation_bounds``).  For a convex quad the bounds
    coincide, so square -> quad is exact too and no sample is taken.
    Otherwise only the undecided rotations are sampled, those whose lower
    bound lies under the least upper bound: no other rotation can attain the
    minimum, so the result is the same number as the full sampled search.

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
    v = _vertex_rows(p)
    # polygon_centroid's shoelace sums, in Python floats
    w = v[1:] + v[:1]
    cross = [x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(v, w)]
    area6 = 3.0 * sum(cross)
    cx = sum((x0 + x1) * t for (x0, _), (x1, _), t in zip(v, w, cross)) / area6
    cy = sum((y0 + y1) * t for (_, y0), (_, y1), t in zip(v, w, cross)) / area6
    quad = np.array([[x - cx, y - cy] for x, y in v])
    square = reference_square_vertices(p.S)
    lo, hi = _rotation_bounds(square, quad, rotations, is_convex(p))
    best = hi.min()
    rows = np.flatnonzero(lo < best)
    if rows.size:
        px, py = _turned_square(rotations, float(square[2, 0]))[:, :, rows]
        best = min(best, _sampled_search(px, py, lo[rows], quad, samples_per_edge))
    return float(np.sqrt(best))
