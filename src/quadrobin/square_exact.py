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
``oracles.quadrature_norms`` recomputes the norms by quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._records import Record
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
]

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


def _newton(func, dfunc, target, t, lo, hi):
    """Newton on func(t) = target from t, for an increasing func.

    Stops once a step moves t by no more than 4 ulps, so the root keeps a
    relative accuracy of a few ulps whatever its size.  Each residual's
    sign narrows the bracket [lo, hi], and a step that would leave it
    bisects it instead.
    """
    for _ in range(12):
        resid = float(func(t) - target)
        if resid == 0.0:
            break
        if resid > 0.0:
            hi = t
        else:
            lo = t
        step = resid / float(dfunc(t))
        if not lo <= t - step <= hi:
            step = t - 0.5 * (lo + hi)
        t -= step
        if abs(step) <= 4.0 * np.finfo(float).eps * abs(t):
            break
    return t


def _bisect_newton(func, dfunc, target, lo, hi):
    """Bracketed bisection narrowed enough for Newton to finish quadratically."""
    flo = func(lo) - target
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = func(mid) - target
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= 1e-6 * max(1.0, abs(lo)):
            break
    return _newton(func, dfunc, target, 0.5 * (lo + hi), lo, hi)


# below this x, t tanh t and t tan t are t^2 (1 + O(t^2)), so sqrt(x) is off
# their root by a relative O(x) and _newton starts there; a bracket would
# waste its bisection steps on an absolute width
_SMALL_X = 1e-4


def g_inverse(x: float) -> float:
    """The unique t >= 0 with t * tanh(t) = x.

    Strictly increasing in x.  t is found to a relative accuracy of a few
    ulps: Newton finishes the root until a step moves it by no more than 4
    ulps, from sqrt(x) below x = 1e-4 and from a bracket above.
    """
    x = float(x)
    if x < 0.0:
        raise DomainError(f"g_inverse requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x < _SMALL_X:
        return _newton(g, g_prime, x, math.sqrt(x), 0.0, math.inf)
    # g(t) >= t - 1 for t >= 0, so the root lies in [0, x + 2]
    return _bisect_newton(g, g_prime, x, 0.0, x + 2.0)


def f_inverse(x: float) -> float:
    """The unique t in (0, pi/2) with t * tan(t) = x, for finite x > 0.

    t is found to a relative accuracy of a few ulps, as in ``g_inverse``.

    Above x ~ 2.6e16 the root lies beyond math.pi/2, the double nearest
    pi/2, so no double in (0, pi/2) is left to return: DomainError.
    """
    return _f_root(x)[0]


# pi/2 = _HALF_PI + _HALF_PI_LO: the double nearest pi/2 and the remainder
_HALF_PI = 0.5 * math.pi
_HALF_PI_LO = 6.123233995736766e-17
# above this x the root is found as e = pi/2 - t (see _f_root), so that e
# keeps nearly every digit
_POLE_X = 1.0


def _f_root(x: float) -> tuple[float, float]:
    """(t, e): the root t of t tan t = x and its distance e = pi/2 - t to the pole.

    For x <= _POLE_X the root is bracketed in t.  Above, t nears pi/2 like
    pi/2 - (pi/2) / (x + 1), and a double t keeps only an absolute accuracy of
    one ulp of pi/2 while cos t = sin e shrinks like 1/x.  So e is solved for
    instead, from x tan e + e = pi/2 (that is (pi/2 - e) cot e = x), and keeps
    its relative accuracy; t is then rounded down where it would round to
    math.pi/2, so that it stays below pi/2.
    """
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"f_inverse requires finite x > 0, got {x}")
    if x < _SMALL_X:
        t = _newton(f, f_prime, x, math.sqrt(x), 0.0, math.inf)
        return t, _HALF_PI - t
    if x <= _POLE_X:
        # f(hi) > x: f blows up like (pi/2)/(pi/2 - t)
        hi = _HALF_PI - min(0.5, 0.25 * _HALF_PI / x)
        t = _bisect_newton(f, f_prime, x, 1e-300, hi)
        return t, _HALF_PI - t
    # tan e >= e puts the root below (pi/2) / (x + 1), and tan e <= 1.06 e
    # there puts it above half that
    e = _bisect_newton(
        lambda e: x * math.tan(e) + e,
        lambda e: x / math.cos(e) ** 2 + 1.0,
        _HALF_PI,
        0.25 * math.pi / (x + 1.0),
        0.5 * math.pi / (x + 1.0),
    )
    if e <= _HALF_PI_LO:
        raise DomainError(f"closed forms are not finite: t tan t = {x} has no double root")
    return min(_HALF_PI - (e - _HALF_PI_LO), math.nextafter(_HALF_PI, 0.0)), e


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
class SquareSolution(Record):
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


def solve_square(alpha: float, S: float = 1.0) -> SquareSolution:
    """Exact first eigenpair on the rotated square of area 2S.

    alpha = 0 is outside the contract (the Neumann ground state is the
    constant, a different closed form) and raises DomainError.  The frozen
    result is cached per (alpha, S), so callers that need the same square
    (the certificates of one ``certify_all``) share one solve.
    """
    return _solve_square(float(alpha), float(S))


@functools.lru_cache(maxsize=64)
def _solve_square(alpha: float, S: float) -> SquareSolution:
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")
    if not 0.0 < S < math.inf:
        raise DomainError(f"S must be positive and finite, got {S}")
    if alpha == 0.0:
        raise DomainError("alpha = 0 (Neumann) is outside this solver's contract")
    L = math.sqrt(S / 2.0)
    # cosh(t)^2 and sinh(2t) overflow once alpha sqrt(S) falls below about -500
    try:
        with np.errstate(over="raise"):
            if alpha < 0.0:
                t = g_inverse(-alpha * L)
                lam = -2.0 * (t / L) ** 2
                # m = int A^2 over one direction, dint = int A'^2, A = cosh(t s / L)
                m = L * (2.0 + _sinhc_minus_one(2.0 * t))
                dint = (t * t / L) * _sinhc_minus_one(2.0 * t)
                trace = math.cosh(t) ** 2
            else:
                t, e = _f_root(alpha * L)
                lam = 2.0 * (t / L) ** 2
                m = L * (2.0 - _one_minus_sinc(2.0 * t))
                dint = (t * t / L) * _one_minus_sinc(2.0 * t)
                trace = math.sin(e) ** 2  # cos(t)^2 without t's absolute error
            fields = (t, lam, 1.0 / m, 4.0 * trace / m, 2.0 * dint / m)
    except ArithmeticError:
        fields = (math.inf,)
    if not all(map(math.isfinite, fields)):
        raise DomainError(f"closed forms are not finite at alpha = {alpha}, S = {S}")
    return SquareSolution(alpha, S, L, *fields)


def _axis_factor(sol: SquareSolution, s):
    arg = sol.t_star * np.asarray(s, dtype=float) / sol.L
    return np.cosh(arg) if sol.alpha < 0.0 else np.cos(arg)


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
