"""Closed-form first Robin eigenpair on the rotated reference square.

For the square with vertices (+-sqrt(S), 0), (0, +-sqrt(S)) and Robin
parameter alpha, the first eigenfunction separates in the rotated coordinates
u = (x+y)/sqrt(2), v = (y-x)/sqrt(2):

    psi(u, v) = N * A(t u / L) * A(t v / L),      L = sqrt(S/2),

with A = cosh and lambda1 = -2 (t/L)^2, t = g^{-1}(-alpha L), g(t) = t tanh t
when alpha < 0, and A = cos, lambda1 = +2 (t/L)^2, t = f^{-1}(alpha L),
f(t) = t tan t on (0, pi/2) when alpha > 0.  All norms of psi then reduce to
one-dimensional integrals with elementary antiderivatives, so this module
carries exact values for the quantities the rest of the package consumes:
lambda1, the L2 normalisation, the boundary trace norm and the gradient norm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import gauss_legendre, interval_rule
from .errors import DomainError

__all__ = [
    "g",
    "g_prime",
    "f",
    "f_prime",
    "g_inverse",
    "f_inverse",
    "SquareSolution",
    "solve_square",
    "eval_eigenfunction",
    "zeta",
    "dlambda_dalpha",
    "dlambda_dalpha_chain",
    "SquareNorms",
    "quadrature_norms",
]

_ROOT_TOL = 1e-13


def g(t):
    """g(t) = t * tanh(t) for t >= 0."""
    return t * np.tanh(t)


def g_prime(t):
    t = np.asarray(t, dtype=float)
    # sech(t)^2 written overflow-safe as 4 e^{-2|t|} / (1 + e^{-2|t|})^2
    decay = np.exp(-2.0 * np.abs(t))
    sech_sq = 4.0 * decay / (1.0 + decay) ** 2
    out = np.tanh(t) + t * sech_sq
    return float(out) if out.ndim == 0 else out


def f(t):
    """f(t) = t * tan(t); used here on the branch (0, pi/2)."""
    return t * np.tan(t)


def f_prime(t):
    return np.tan(t) + t / np.cos(t) ** 2


def _bisect_newton(func, dfunc, target, lo, hi, tol):
    """Bracketed bisection narrowed enough for Newton to finish quadratically."""
    flo = func(lo) - target
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = func(mid) - target
        if fmid == 0.0:
            lo = hi = mid
            break
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= 1e-6 * max(1.0, abs(lo)):
            break
    t = 0.5 * (lo + hi)
    for _ in range(12):
        resid = func(t) - target
        if abs(resid) <= tol:
            break
        step = resid / dfunc(t)
        t_new = t - step
        if not lo <= t_new <= hi:
            t_new = 0.5 * (lo + hi)
        if func(t_new) - target > 0.0:
            hi = t_new
        else:
            lo = t_new
        t = t_new
    return t


def g_inverse(x: float) -> float:
    """The unique t >= 0 with t * tanh(t) = x.

    Strictly increasing in x; |g(t) - x| <= 1e-13 * max(1, x).
    """
    x = float(x)
    if x < 0.0:
        raise DomainError(f"g_inverse requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    # g(t) >= t - 1 for t >= 0, so the root lies in [0, x + 2]
    return _bisect_newton(g, g_prime, x, 0.0, x + 2.0, _ROOT_TOL * max(1.0, x))


def f_inverse(x: float) -> float:
    """The unique t in (0, pi/2) with t * tan(t) = x, for x > 0."""
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"f_inverse requires x > 0, got {x}")
    half_pi = 0.5 * math.pi
    # f blows up like (pi/2)/(pi/2 - t); back off the pole far enough that
    # f(hi) > x is guaranteed while keeping the bracket tight for large x
    hi = half_pi - min(0.5, 0.25 * half_pi / x)
    while f(hi) < x:  # parked too far from the pole; approach it
        hi = 0.5 * (hi + half_pi)
    return _bisect_newton(f, f_prime, x, 1e-300, hi, _ROOT_TOL * max(1.0, x))


def _sinhc_minus_one(y: float) -> float:
    """sinh(y)/y - 1, accurate near 0."""
    if abs(y) < 1e-2:
        y2 = y * y
        return y2 / 6.0 * (1.0 + y2 / 20.0 * (1.0 + y2 / 42.0))
    return math.sinh(y) / y - 1.0


def _one_minus_sinc(y: float) -> float:
    """1 - sin(y)/y, accurate near 0."""
    if abs(y) < 1e-2:
        y2 = y * y
        return y2 / 6.0 * (1.0 - y2 / 20.0 * (1.0 - y2 / 42.0))
    return 1.0 - math.sin(y) / y


@dataclass(frozen=True)
class SquareSolution:
    """First Robin eigenpair data on the rotated square of area 2S.

    ``norm_const`` scales the separated product so the eigenfunction has unit
    L2 norm; ``boundary_norm_sq`` and ``grad_norm_sq`` are the squared
    boundary-trace and gradient norms of that normalised eigenfunction.
    """

    alpha: float
    S: float
    L: float
    t_star: float
    lambda1: float
    norm_const: float
    boundary_norm_sq: float
    grad_norm_sq: float

    @property
    def k(self) -> float:
        """Coefficient in the product form: psi ~ A(k(x+y)) A(k(y-x))."""
        return self.t_star / (math.sqrt(2.0) * self.L)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "S": self.S,
            "L": self.L,
            "t_star": self.t_star,
            "lambda1": self.lambda1,
            "norm_const": self.norm_const,
            "boundary_norm_sq": self.boundary_norm_sq,
            "grad_norm_sq": self.grad_norm_sq,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "SquareSolution":
        return cls(**{k: float(data[k]) for k in (
            "alpha", "S", "L", "t_star", "lambda1", "norm_const",
            "boundary_norm_sq", "grad_norm_sq")})

    @classmethod
    def from_json(cls, text: str) -> "SquareSolution":
        return cls.from_dict(json.loads(text))


def solve_square(alpha: float, S: float = 1.0) -> SquareSolution:
    """Exact first eigenpair on the rotated square of area 2S.

    alpha = 0 is outside the contract (the Neumann ground state is the
    constant, a different closed form) and raises DomainError.
    """
    alpha = float(alpha)
    S = float(S)
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")
    if not 0.0 < S < math.inf:
        raise DomainError(f"S must be positive and finite, got {S}")
    if alpha == 0.0:
        raise DomainError("alpha = 0 (Neumann) is outside this solver's contract")
    L = math.sqrt(S / 2.0)
    if alpha < 0.0:
        t = g_inverse(-alpha * L)
        lam = -2.0 * (t / L) ** 2
        # m = int A^2 over one direction, dint = int A'^2, A = cosh(t s / L)
        m = L * (2.0 + _sinhc_minus_one(2.0 * t))
        dint = (t * t / L) * _sinhc_minus_one(2.0 * t)
        trace = math.cosh(t) ** 2
    else:
        t = f_inverse(alpha * L)
        lam = 2.0 * (t / L) ** 2
        m = L * (2.0 - _one_minus_sinc(2.0 * t))
        dint = (t * t / L) * _one_minus_sinc(2.0 * t)
        trace = math.cos(t) ** 2
    return SquareSolution(
        alpha=alpha,
        S=S,
        L=L,
        t_star=t,
        lambda1=lam,
        norm_const=1.0 / m,
        boundary_norm_sq=4.0 * trace / m,
        grad_norm_sq=2.0 * dint / m,
    )


def _axis_factor(sol: SquareSolution, s):
    arg = sol.t_star * np.asarray(s, dtype=float) / sol.L
    return np.cosh(arg) if sol.alpha < 0.0 else np.cos(arg)


def _axis_factor_deriv(sol: SquareSolution, s):
    arg = sol.t_star * np.asarray(s, dtype=float) / sol.L
    scale = sol.t_star / sol.L
    return scale * (np.sinh(arg) if sol.alpha < 0.0 else -np.sin(arg))


def eval_eigenfunction(sol: SquareSolution, x, y):
    """Normalised eigenfunction at points of the closed square.

    Accepts scalars or arrays; raises DomainError if any point lies outside
    the closure of the domain (|x| + |y| <= sqrt(S), up to roundoff slack).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = math.sqrt(sol.S)
    if np.any(np.abs(x) + np.abs(y) > r * (1.0 + 1e-12) + 1e-12):
        raise DomainError("point outside the closed reference square")
    u = (x + y) / math.sqrt(2.0)
    v = (y - x) / math.sqrt(2.0)
    value = sol.norm_const * _axis_factor(sol, u) * _axis_factor(sol, v)
    return float(value) if value.ndim == 0 else value


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


def dlambda_dalpha(sol: SquareSolution) -> float:
    """d lambda1 / d alpha, which equals the squared boundary trace norm."""
    return sol.boundary_norm_sq


def dlambda_dalpha_chain(sol: SquareSolution) -> float:
    """Same derivative through the chain rule on g(L sqrt(-lambda/2)) = -alpha L.

    Differentiating the root equation gives
        d lambda / d alpha = -2 L lambda / (t g'(t)) = 4 t / (L g'(t)),
    which agrees with the boundary-trace identity to roundoff.
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
    sqrt2 = math.sqrt(2.0)

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
