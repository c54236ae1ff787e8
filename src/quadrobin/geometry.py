"""Four-parameter family of fixed-area quadrilaterals.

A member of the family is determined by (a1, a2, c, S1) together with the
half-area scale S: it is the quadrilateral with vertices

    (-c, 0), (a1, S1/c), (c, 0), (a2, -S2/c),      S2 = 2S - S1,

listed counterclockwise.  Its area is always 2S.  The distinguished member
(0, 0, sqrt(S), S) is the rotated square of side sqrt(2S).  The module also
provides the piecewise linear map from the rotated reference square onto a
general member and an approximate Hausdorff distance to the equal-area
square.  The pullback identities that map satisfies are checked in
``oracles``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._records import Record
from .errors import GeometryError, ParameterDomainError

__all__ = [
    "QuadParams",
    "EdgeId",
    "EDGE_IDS",
    "PiecewiseLinearMap",
    "quad_vertices",
    "reference_square_vertices",
    "edge_length",
    "perimeter",
    "interior_angles",
    "is_convex",
    "map_forward",
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

    def is_square(self) -> bool:
        return self.a1 == 0.0 and self.a2 == 0.0 and self.c == self.c0 and self.S1 == self.S


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


def edge_length(p: QuadParams, e: EdgeId) -> float:
    """Length of boundary segment e: sqrt(Sj^2/c^2 + (aj + (-1)^(i+1) c)^2)."""
    aj = p.a1 if e.j == 1 else p.a2
    Sj = p.S1 if e.j == 1 else p.S2
    return math.hypot(Sj / p.c, aj + e.sign * p.c)


def perimeter(p: QuadParams) -> float:
    return sum(edge_length(p, e) for e in EDGE_IDS)


def _centroid(p: QuadParams) -> tuple[float, float]:
    """The centroid ``((S1 a1 + S2 a2) / (6S), (S1 - S2) / (3c))``.

    It is the area-weighted mean of the centroids (a_j / 3, +-S_j / (3c)) of
    the upper and lower triangles, of areas S1 and S2, and exactly 0 at the
    square.
    """
    S1, S2 = p.S1, p.S2
    return (S1 * p.a1 + S2 * p.a2) / (6.0 * p.S), (S1 - S2) / (3.0 * p.c)


def _corner_turns(p: QuadParams) -> list[tuple[float, float]]:
    """(cross, dot) of the edges into and out of each vertex, in vertex order.

    ``cross`` is their cross product negated, since quad_vertices runs
    clockwise, so it is positive exactly where the interior angle is below
    pi; ``dot`` is their dot product, a plain float sum.  Vertices 0 and 2
    lie on the x-axis, so the cross products have closed forms in the apex
    heights h_j = S_j / c: at an apex the single product 2 c h_j, and at
    (-c, 0) and (c, 0) two terms that differ in sign only where the angle
    exceeds pi/2.  So no sharp corner loses digits to cancellation.  Raises
    GeometryError at the first collinear vertex triple,
    ``|cross| <= 1e-14 |e_in| |e_out|``.
    """
    a1, a2, c = p.a1, p.a2, p.c
    h1, h2 = p.S1 / c, p.S2 / c
    # the edge into each vertex of _vertex_rows
    e = [(-c - a2, h2), (a1 + c, h1), (c - a1, -h1), (a2 - c, -h2)]
    crosses = [(a1 + c) * h2 + (a2 + c) * h1, 2.0 * c * h1,
               (c - a2) * h1 + (c - a1) * h2, 2.0 * c * h2]
    lengths = [math.sqrt(x * x + y * y) for x, y in e]
    turns = []
    for k, cross in enumerate(crosses):
        j = (k + 1) % 4  # the edge out of vertex k
        (x0, y0), (x1, y1) = e[k], e[j]
        scale = lengths[k] * lengths[j]
        if scale == 0.0 or abs(cross) <= 1e-14 * scale:
            raise GeometryError(f"collinear vertex triple at vertex {k} of {p}")
        turns.append((cross, x0 * x1 + y0 * y1))
    return turns


def _interior_angles(p: QuadParams) -> list[float]:
    """``interior_angles`` as a list of Python floats."""
    return [
        math.atan2(cross, -dot) + (0.0 if cross > 0.0 else 2.0 * math.pi)
        for cross, dot in _corner_turns(p)
    ]


def interior_angles(p: QuadParams) -> np.ndarray:
    """Interior angles at the four vertices, in radians, each in (0, 2*pi).

    Works for the non-convex members of the family too (a reflex vertex
    reports its angle above pi).  Each angle is ``atan2(cross, -dot)`` of the
    turn between the edges in and out, plus 2 pi at a reflex vertex, where
    the cross product is negative.  That form has no cancellation at sharp
    corners, unlike ``pi - atan2(cross, dot)``.  Raises GeometryError for a
    collinear vertex triple, i.e. a degenerate quadrilateral.
    """
    return np.array(_interior_angles(p))


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


# (rotation, boundary sample, quad edge) triples per array pass of the
# sampled search: 512 KiB per complex temporary, whatever the sample count;
# at 250 samples per edge a pass covers 8 rotations.
_BLOCK_POINTS = 32_768


def _sq_dist_outside_box(z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Squared distance from the points z = u + iv to a box, 0 inside it.

    The box is ``|u| <= h_u, |v| <= h_v``, its half-widths interleaved as
    ``z.view(float)`` interleaves u and v: ``h`` is a float array that
    broadcasts against that view, with the last axis twice that of ``z``.
    The reference square ``|x| + |y| <= sqrt(S)`` turned by pi/4 is the box
    ``h_u = h_v = sqrt(S/2)``; the segment from -l to l on the u-axis is the
    box ``h_u = l, h_v = 0``.
    """
    d = np.abs(z.view(np.float64))
    d -= h
    np.maximum(d, 0.0, out=d)
    d *= d
    return d[..., ::2] + d[..., 1::2]


def _edge_pass(z, turn, start, box):
    """The points z in the frames ``(turn, start, box)``: ``(w, d)``.

    Each frame takes z to ``w = (z - start) turn``, and ``d`` is the squared
    distance from w to the box ``box`` (``_sq_dist_outside_box``).  The
    arguments broadcast against each other, and every value comes from the
    same elementwise operations whatever the shapes.  For a quad edge
    a -> b the frame is ``(conj(b - a) / |b - a|, (a + b) / 2)`` and the box
    the segment of half-length ``|b - a| / 2``: one complex product gives
    the position along the edge (``w.real``) and the signed offset from its
    line (``w.imag``), negative to the right of the edge, which is the
    inside of the clockwise quad.
    """
    w = z - start
    w *= turn
    return w, _sq_dist_outside_box(w, box)


# the quad's edges 0 -> 1, 2 -> 3, 1 -> 2, 3 -> 0, so the upper triangle's two
# quad edges are rows 0 and 2 and the lower's rows 1 and 3, then the diagonal
# 0 -> 2 on which the triangles meet
_EDGE_START = (0, 2, 1, 3, 0)
_EDGE_END = (1, 3, 2, 0, 2)
# the turns at vertices 1, 2, 3, 0 as (edge in, edge out) rows
_CORNERS = ((0, 2), (2, 1), (1, 3), (3, 0))
# per triangle, upper then lower: whether it lies below the diagonal
_BELOW_DIAGONAL = np.array([False, True]).reshape(2, 1, 1)


def _quad_frames(q: list, r: float) -> tuple[np.ndarray, bool]:
    """The frames of ``_edge_pass`` for the centred quad, and its convexity.

    ``q`` holds the quad's vertices as Python complex numbers, in the order
    of ``quad_vertices``; ``r`` is the square's circumradius.  Returns the
    complex array (6, 6) whose row k holds four turns, the start and the
    box half-width of frame k.  Row 0 measures the quad's 4 vertices,
    turned by a point of the unit circle, against the square turned by
    pi/4, the box ``|u|, |v| <= h``, ``h = r sqrt(1/2)``.  Rows 1-5
    measure points against the quad edges of ``_EDGE_START`` /
    ``_EDGE_END``, repeating their turn 4 times.  ``sqrt(1/2)`` rounds to
    cos(pi/4) as ``_quarter_turn_residues`` rounds it, so the square's own
    turned vertices lie in the box; ``r / sqrt(2)`` can round an ulp below
    ``r cos(pi/4)`` and leave them just outside.

    The quad is convex when, at every vertex, the sine of the turn from the
    edge in to the edge out, ``(turn_in * conj(turn_out)).imag``, lies below
    -1e-14: a clockwise turn, with the margin ``is_convex`` puts on
    collinear triples.  A quad that fails it takes the non-convex path,
    which is exact for convex quads too.
    """
    h = r * math.sqrt(0.5)
    rows = q + [0.0, h]
    turns = []
    for i, j in zip(_EDGE_START, _EDGE_END):
        a, b = q[i], q[j]
        length = abs(b - a)
        turn = (b - a).conjugate() / length
        turns.append(turn)
        rows += [turn, turn, turn, turn, 0.5 * (a + b), 0.5 * length]
    convex = all((turns[i] * turns[j].conjugate()).imag < -1e-14 for i, j in _CORNERS)
    return np.array(rows, complex).reshape(6, 6), convex


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
def _vertex_table(rotations: int, r: float):
    """The points the vertex pass measures, per quarter-turn residue theta.

    Returns the read-only arrays ``(points, units)``.  ``points`` is complex
    (6, 4, residues): row 0 holds e^{i (theta + pi/4)} 4 times, the turn of
    the quad's vertices in frame 0 of ``_quad_frames``; rows 1-5 each hold
    the vertices of the square of circumradius r turned by -theta, in the
    vertex order of ``reference_square_vertices``, for the 5 edge frames.
    Each coordinate is the single product ``r cos`` or ``r sin`` that the
    rows ``turn[1]`` of ``_quarter_turn_residues`` applied to those vertices
    round to.  ``units`` (6, 1, 2 residues) spreads each frame's box
    half-width over u and v: frame 0 is a box, the edge frames segments.
    """
    turn = _quarter_turn_residues(rotations)
    n = turn.shape[2]
    cos, sin = r * turn[1, 0].T
    points = np.empty((6, 4, n), complex)
    points[0].real, points[0].imag = turn[0, 0, :, 0], turn[0, 1, :, 0]
    points[1:].real = [-cos, sin, cos, -sin]
    points[1:].imag = [sin, cos, -sin, -cos]
    units = np.ones((6, 1, 2 * n))
    units[1:, :, 1::2] = 0.0
    points.flags.writeable = units.flags.writeable = False
    return points, units


def _vertex_bounds(frames, rotations: int, r: float, convex: bool):
    """Per rotation theta, bounds ``lo <= F <= hi`` on the squared search value.

    F(theta) is the larger of the squared quad -> square distance (exact, at
    the quad's vertices) and the squared square -> quad distance sampled on
    the square's boundary.  The square and its samples map onto themselves
    under a quarter turn, so F(theta + pi/2) = F(theta), and only the grid's
    residues modulo pi/2 are evaluated (``_quarter_turn_residues``).
    ``frames`` are ``_quad_frames(q, r)`` of the centred vertices q, ``r``
    the square's circumradius sqrt(S).

    Both directions are one ``_edge_pass`` in complex coordinates:

    - quad -> square, closed form: turned by a further pi/4 the square is the
      box ``|u|, |v| <= sqrt(S/2)``, so frame 0 turns the 4 vertices by
      theta + pi/4 and measures them against that box.
    - square -> quad: the square turned by -theta against the fixed quad has
      the distances of the quad turned by theta against the fixed square.
      The square's turned vertices are cached (``_vertex_table``) and
      measured in the frames of the quad's 4 edges, plus its diagonal from
      vertex 0 to vertex 2 when not ``convex``.

    A square point y inside the quad needs no inside test.  Its distance to
    the quad's boundary is some depth t, the disc of radius t about y lies
    in the quad, and the point of that disc at t along an outward normal of
    the square at y lies t from the square.  The quad -> square distance is
    its largest at a vertex of the quad's hull, so it is at least t.  Then
    the larger of the two directions is the same whether y counts t or 0.

    ``lo`` takes the square's vertices as samples.  For ``hi`` the quad is
    the union of convex pieces, itself when ``convex``, else its upper and
    lower triangles, which every member of the family is.  The distance to
    a convex piece, 0 inside it, is convex along a square edge, so its
    larger endpoint value bounds the edge, and the least such bound over
    the pieces bounds the distance to the quad.  A point lies inside a
    triangle when the imaginary parts of its frames say it lies to the
    right of the triangle's two quad edges and on its side of the diagonal.
    For a convex quad ``hi`` is ``lo``.
    """
    rows = 5 if convex else 6
    points, units = _vertex_table(rotations, r)
    w, d = _edge_pass(
        points[:rows],
        frames[:rows, :4, None],
        frames[:rows, 4, None, None],
        frames[:rows, 5, None, None].real * units[:rows],
    )
    # (vertex, residue) arrays throughout: reducing over the short leading
    # axis is an elementwise pass over rows.  d[0] holds the quad's vertices'
    # squared distances to the square, d[1:5] the square's vertices' to the
    # quad's 4 edges.
    lo = np.maximum(d[0], d[1:5].min(axis=0)).max(axis=0)
    if convex:
        return lo, lo
    # the upper and lower triangles: the least over each one's three edges,
    # 0 inside it, that is right of its two quad edges and on its side of
    # the diagonal
    pieces = np.minimum(d[1:3], d[3:5])
    np.minimum(pieces, d[5], out=pieces)
    below = w[1:].imag < 0.0
    inside = below[0:2] & below[2:4]
    inside &= below[4] == _BELOW_DIAGONAL
    np.putmask(pieces, inside, 0.0)
    edge = np.maximum(pieces, pieces[:, [1, 2, 3, 0]]).min(axis=0)
    return lo, np.maximum(d[0], edge).max(axis=0)


def _sampled_search(turned, frames, lo, samples_per_edge: int) -> float:
    """min over the given rotations of max(lo, sampled square -> quad), squared.

    ``turned`` (4, rotations) holds the turned square's vertices, a row of
    ``_vertex_table``, and ``frames`` the frames of ``_quad_frames``' 4 quad
    edges.  Edge k's samples are the ``samples_per_edge`` points v_k + (j /
    samples_per_edge) (v_{k+1} - v_k), vertices included, measured against
    the possibly non-convex quad's edges by the vertex pass's
    ``_edge_pass``; ``lo`` already holds the vertices' values, and a sample
    inside the quad needs no inside test (``_vertex_bounds``).  Rotations
    are evaluated as arrays, in blocks of about 32k (rotation, sample, quad
    edge) triples, so the temporaries stay small.
    """
    t = np.linspace(0.0, 1.0, samples_per_edge, endpoint=False)
    turn, start = frames[:, 0, None, None], frames[:, 4, None, None]
    box = frames[:, 5, None, None].real * np.tile([1.0, 0.0], 4 * samples_per_edge)
    # (rotation, square edge, sample) points: the samples are the long last axis
    a = turned.T[:, :, None]
    ab = a[:, [1, 2, 3, 0]] - a
    n = len(lo)
    # each rotation measures 4 * samples_per_edge points against 4 quad edges
    block = min(n, max(1, _BLOCK_POINTS // (16 * samples_per_edge)))
    best = np.inf
    for first in range(0, n, block):
        rows = slice(first, first + block)
        z = a[rows] + t * ab[rows]
        _, d = _edge_pass(z.reshape(len(z), -1), turn, start, box)
        best = min(best, np.maximum(lo[rows], d.min(axis=0).max(axis=1)).min())
    return best


def _count(name: str, value) -> int:
    """``value`` as an int of at least 1; ParameterDomainError otherwise."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ParameterDomainError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < 1:
        raise ParameterDomainError(f"{name} must be >= 1, got {value}")
    return value


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

    The centroid is the family's closed form ``((S1 a1 + S2 a2) / (6S),
    (S1 - S2) / (3c))``, the area-weighted mean of the centroids of the
    upper and lower triangles, which is exactly 0 at the square.  The
    centred vertices and the edge frames are Python complex numbers, and
    convexity is read from the turns between the edge directions
    (``_quad_frames``).  Each rotation is then bounded from vertices alone,
    both bounds from one complex array pass over the quad's edges
    (``_vertex_bounds``).  For a convex quad the bounds coincide, so
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
    counts are integers (numpy integers included, bools not) of at least 1.
    """
    rotations = _count("rotations", rotations)
    samples_per_edge = _count("samples_per_edge", samples_per_edge)
    cx, cy = _centroid(p)
    # reference_square_vertices(p.S)'s circumradius
    r = math.sqrt(p.S)
    frames, convex = _quad_frames([complex(x - cx, y - cy) for x, y in _vertex_rows(p)], r)
    lo, hi = _vertex_bounds(frames, rotations, r, convex)
    best = hi.min()
    if not convex:  # a convex quad's bounds coincide
        rows = np.flatnonzero(lo < best)
        if rows.size:
            turned = _vertex_table(rotations, r)[0][1][:, rows]
            best = min(best, _sampled_search(turned, frames[1:5], lo[rows], samples_per_edge))
    return math.sqrt(best)
