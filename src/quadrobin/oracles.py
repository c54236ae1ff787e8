"""Independent cross-checks of the identities the runtime relies on.

The runtime never imports this module; the tests do.  Each function here
reaches a quantity the package computes in closed form or by assembly by a
second route: quadrature, shoelace sums, explicit integer relabelling.

- Gauss-Legendre rules on intervals, segments and (Duffy-collapsed)
  triangles;
- geometry: the shoelace area and centroid, the edge endpoints, the inverse
  piecewise linear map and both sides of the pullback identities;
- the square: its norms by tensor quadrature, zeta and d lambda / d alpha
  by the chain rule on the root equation;
- assembly: the directional stiffness forms, the unit boundary masses and
  the plain-mass pullback pencil, home of the constant-trial bound;
- mesh: the node permutations of the square's reflections;
- certificates: z(p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .assembly import (
    _EDGE_W, AssembledSystem, _check_mesh, _pencil_weights, _stiffness_from, affine_combination
)
from .certificates import _z, l_value, z_denominator
from .coefficients import coefficient_values
from .errors import ContractError, DomainError
from .geometry import (
    EDGE_IDS,
    EdgeId,
    PiecewiseLinearMap,
    QuadParams,
    edge_length,
    map_forward,
    quad_vertices,
)
from .mesh import Mesh, _label_key
from .square_exact import SquareSolution, _axis_factor, g_prime, solve_square

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "gauss_legendre",
    "interval_rule",
    "segment_rule",
    "triangle_rule",
    "integrate_triangles",
    "polygon_area",
    "polygon_centroid",
    "edge_endpoints",
    "map_inverse",
    "PullbackCheck",
    "pullback_inner_products",
    "zeta",
    "dlambda_dalpha_chain",
    "SquareNorms",
    "quadrature_norms",
    "plain_coefficient_values",
    "assemble_plain_mass",
    "boundary_mass_matrices",
    "directional_stiffness",
    "symmetry_permutation",
    "z_value",
]


# -- quadrature rules ----------------------------------------------------------


@lru_cache(maxsize=64)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def interval_rule(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [a, b]."""
    x, w = gauss_legendre(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def segment_rule(p0, p1, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (k, 2) and weights for a line integral along the segment p0-p1."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    t, wt = interval_rule(0.0, 1.0, order)
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    return pts, wt * float(np.hypot(*(p1 - p0)))


def triangle_rule(v0, v1, v2, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Duffy-collapsed tensor rule on the triangle (v0, v1, v2).

    Exact only in the limit, but converges spectrally for smooth integrands;
    order 16 already reaches ~1e-15 for the analytic integrands used here.
    """
    v0 = np.asarray(v0, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    x, wx = interval_rule(0.0, 1.0, order)
    # reference map (s, t) -> s*(1-t), s*t sends the unit square onto the
    # unit triangle with Jacobian s
    s, t = np.meshgrid(x, x, indexing="ij")
    lam1 = (s * (1.0 - t)).ravel()
    lam2 = (s * t).ravel()
    w = (np.outer(wx * x, wx)).ravel()
    pts = (
        v0[None, :]
        + lam1[:, None] * (v1 - v0)[None, :]
        + lam2[:, None] * (v2 - v0)[None, :]
    )
    area2 = abs(
        (v1[0] - v0[0]) * (v2[1] - v0[1]) - (v2[0] - v0[0]) * (v1[1] - v0[1])
    )
    return pts, w * area2


def integrate_triangles(f, triangles, order: int = 24) -> float:
    """Integrate f(points) -> values over a list of vertex triples."""
    total = 0.0
    for v0, v1, v2 in triangles:
        pts, w = triangle_rule(v0, v1, v2, order)
        total += float(np.dot(w, f(pts)))
    return total


# -- geometry ------------------------------------------------------------------


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
    """Shoelace centroid of a simple polygon."""
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


# -- the square ----------------------------------------------------------------


def zeta(alpha: float, C: float, S: float = 1.0) -> float:
    """grad_norm_sq + alpha * C * boundary_norm_sq for the square eigenpair.

    Requires alpha < 0 and C strictly inside (0, 1).  Negative for every
    alpha < 0 when C >= 1/2 (the closed forms give the sharp criterion
    sinh(t) cosh(t) (1 - 2C) < t with t = g^{-1}(-alpha L)); for C < 1/2 the
    value turns positive once |alpha| is large enough.
    """
    if not 0.0 < C < 1.0:
        raise DomainError(f"C must lie in (0, 1), got {C}")
    if alpha >= 0.0:
        raise DomainError(f"alpha must be negative, got {alpha}")
    sol = solve_square(alpha, S)
    return sol.grad_norm_sq + alpha * C * sol.boundary_norm_sq


def dlambda_dalpha_chain(sol: SquareSolution) -> float:
    """d lambda1 / d alpha through the chain rule on g(L sqrt(-lambda/2)) = -alpha L.

    Differentiating the root equation gives
        d lambda / d alpha = -2 L lambda / (t g'(t)) = 4 t / (L g'(t)),
    which agrees with the boundary-trace identity d lambda1 / d alpha =
    ``sol.boundary_norm_sq`` to roundoff.
    """
    if sol.alpha >= 0.0:
        raise DomainError("chain-rule form is defined on the alpha < 0 branch")
    t = sol.t_star
    return -2.0 * sol.L * sol.lambda1 / (t * g_prime(t))


@dataclass(frozen=True)
class SquareNorms:
    """Quadrature evaluations of the norms and half-domain inner products.

    ``edges`` follows the boundary-label order (1,1), (2,1), (1,2), (2,2).
    The plus/minus suffixes refer to the halves y > 0 and y < 0.
    """

    l2: float
    grad: float
    edges: np.ndarray
    d1_sq: float
    d2_sq: float
    d1d2_plus: float
    d1d2_minus: float
    d1_sq_plus: float
    d1_sq_minus: float
    d2_sq_plus: float
    d2_sq_minus: float


def _axis_factor_deriv(sol: SquareSolution, s):
    arg = sol.t_star * np.asarray(s, dtype=float) / sol.L
    scale = sol.t_star / sol.L
    return scale * (np.sinh(arg) if sol.alpha < 0.0 else -np.sin(arg))


def _tensor_integral(func, L: float, order: int) -> float:
    x, w = interval_rule(-L, L, order)
    uu, vv = np.meshgrid(x, x, indexing="ij")
    return float(np.einsum("i,j,ij->", w, w, func(uu, vv)))


def _half_integral(func, L: float, order: int, upper: bool) -> float:
    """Integral over the half u + v > 0 (upper) or u + v < 0."""
    xv, wv = interval_rule(-L, L, order)
    base, wbase = gauss_legendre(order)
    total = 0.0
    for v_node, v_weight in zip(xv, wv):
        lo, hi = (-v_node, L) if upper else (-L, -v_node)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        u_nodes = mid + half * base
        total += v_weight * half * float(np.dot(wbase, func(u_nodes, v_node)))
    return total


def quadrature_norms(sol: SquareSolution, order: int = 32) -> SquareNorms:
    """Norms of the eigenfunction by tensor Gauss-Legendre in (u, v).

    The eigenfunction separates in the rotated coordinates, so moderate order
    already reproduces the closed forms to machine precision; this is the
    independent route used to validate them and the symmetry constants.
    """
    N = sol.norm_const
    A = lambda s: _axis_factor(sol, s)
    D = lambda s: _axis_factor_deriv(sol, s)
    L = sol.L

    def psi_sq(u, v):
        return (N * A(u) * A(v)) ** 2

    def du_sq(u, v):
        return (N * D(u) * A(v)) ** 2

    def dv_sq(u, v):
        return (N * A(u) * D(v)) ** 2

    # d1 = (du - dv)/sqrt2, d2 = (du + dv)/sqrt2 in the rotated frame
    def d1_sq(u, v):
        return 0.5 * (N * (D(u) * A(v) - A(u) * D(v))) ** 2

    def d2_sq(u, v):
        return 0.5 * (N * (D(u) * A(v) + A(u) * D(v))) ** 2

    def d1d2(u, v):
        return 0.5 * ((N * D(u) * A(v)) ** 2 - (N * A(u) * D(v)) ** 2)

    l2 = _tensor_integral(psi_sq, L, order)
    grad = _tensor_integral(du_sq, L, order) + _tensor_integral(dv_sq, L, order)

    xe, we = interval_rule(-L, L, order)
    edge_uL = float(np.dot(we, (N * A(L) * A(xe)) ** 2))
    edge_umL = float(np.dot(we, (N * A(-L) * A(xe)) ** 2))
    edge_vL = float(np.dot(we, (N * A(xe) * A(L)) ** 2))
    edge_vmL = float(np.dot(we, (N * A(xe) * A(-L)) ** 2))
    # boundary labels (1,1), (2,1), (1,2), (2,2) sit on v=L, u=L, u=-L, v=-L
    edges = np.array([edge_vL, edge_uL, edge_umL, edge_vmL])

    return SquareNorms(
        l2=l2,
        grad=grad,
        edges=edges,
        d1_sq=_tensor_integral(d1_sq, L, order),
        d2_sq=_tensor_integral(d2_sq, L, order),
        d1d2_plus=_half_integral(d1d2, L, order, upper=True),
        d1d2_minus=_half_integral(d1d2, L, order, upper=False),
        d1_sq_plus=_half_integral(d1_sq, L, order, upper=True),
        d1_sq_minus=_half_integral(d1_sq, L, order, upper=False),
        d2_sq_plus=_half_integral(d2_sq, L, order, upper=True),
        d2_sq_minus=_half_integral(d2_sq, L, order, upper=False),
    )


# -- assembly and mesh ---------------------------------------------------------


def plain_coefficient_values(p: QuadParams) -> np.ndarray:
    """The plain-mass coefficients at p, (12,): each half's ``coefficient_values``
    over its mass weight Sj/S, so interior Dinv Dinv^T, boundary S |edge| /
    (Sj |ref edge|), unit mass."""
    w = coefficient_values(p)
    return np.concatenate([w[:6] / w[3], w[6:] / w[9]])


def assemble_plain_mass(p: QuadParams, alpha: float, mesh: Mesh) -> AssembledSystem:
    """The pullback form with ``plain_coefficient_values``: unweighted mass.

    For S1 = S it is ``assembly.assemble_transformed`` entrywise (the weights
    are 1).  Off that slice it hides a weight jump across y = 0, and its
    lowest eigenvalue differs from the quadrilateral's, on either side: at
    alpha = -1 it lies below for (0.3, -0.2, 1.3, 0.55) and above for (0,
    -0.13, 0.74, 0.75).  Its all-ones Rayleigh quotient is (alpha/2) l(p).
    """
    _check_mesh(p, alpha, mesh)
    w = plain_coefficient_values(p)
    K, M = (affine_combination(mesh, w * mask) for mask in _pencil_weights(alpha))
    return AssembledSystem(K, M, mesh.dof_count, p, alpha, mesh, "plain")


def boundary_mass_matrices(mesh: Mesh) -> list[sp.csr_matrix]:
    """Unit-weight boundary mass matrix for each of the four edge labels."""
    return [affine_combination(mesh, np.eye(12)[b]) for b in _EDGE_W]


def directional_stiffness(mesh: Mesh, i: int, j: int, half: str | None = None) -> sp.csr_matrix:
    """Assembled form  int (d_i phi)(d_j phi)  over the square or one half.

    Used by the symmetry checks on discrete eigenvectors; i, j in {1, 2}.
    """
    E = np.zeros((2, 2))
    E[i - 1, j - 1] += 0.5
    E[j - 1, i - 1] += 0.5
    if half is None:
        keep = np.ones(len(mesh.triangles), dtype=bool)
    elif half == "upper":
        keep = mesh.tri_upper
    elif half == "lower":
        keep = ~mesh.tri_upper
    else:
        raise ValueError(f"unknown half {half!r}")
    tris = mesh.triangles[keep]
    G = np.broadcast_to(E, (len(tris), 2, 2))
    return _stiffness_from(mesh.nodes, tris, mesh.dof_count, G)


def symmetry_permutation(mesh: Mesh, which: str) -> np.ndarray:
    """Node permutation realising a reflection of the square.

    which = "x":    x -> -x        (u, v) -> (v, u)
    which = "y":    y -> -y        (u, v) -> (-v, -u)
    which = "swap": (x, y) -> (y, x):  (u, v) -> (u, -v)

    Exact because nodes carry integer (u, v) labels.
    """
    if mesh.qu is None:
        raise ContractError("mesh lacks integer labels")
    qu, qv, den = mesh.qu, mesh.qv, mesh.q_den
    images = {"x": (qv, qu), "y": (-qv, -qu), "swap": (qu, -qv)}
    if which not in images:
        raise ValueError(f"unknown symmetry {which!r}")
    ids = np.full((2 * den + 1) ** 2, -1, dtype=np.int64)
    ids[_label_key(qu, qv, den)] = np.arange(len(qu))
    return ids[_label_key(*images[which], den)]


# -- certificates --------------------------------------------------------------


def z_value(p: QuadParams) -> float:
    """z(p) = (S l / (4 sqrt(2) c0) - 1) / z_denominator(p); 0/0 at the square."""
    den = z_denominator(p)
    if den == 0.0:
        raise DomainError("z is 0/0 at the square")
    return _z(p, l_value(p), den)
