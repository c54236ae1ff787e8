"""The pullback coefficients and their closed-form parameter derivatives.

The transported pencil is affine in a few scalar coefficients, each a
function of one half's (aj, c, Sj) (eps = -1 for the upper half, +1 for the
lower): the entries of

    Ghat_j = [[Sj/c^2 + aj^2/Sj,  eps aj c / Sj],
              [eps aj c / Sj,     c^2 / Sj     ]],

the edge ratios sqrt(Sj^2/c^2 + (aj +- c)^2) / sqrt(2S) and the mass weight
Sj/S.  ``_half`` writes out their values, gradients and Hessians by hand; a
fixed linear Jacobian (S2 = 2S - S1) carries them to (a1, a2, c, S1).  The
formulas live only here; the assembly takes its weights from
``coefficient_values``.  Finite differences are only a validation oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import QuadParams

__all__ = [
    "PARAMS",
    "PAIRS",
    "CoefficientDerivatives",
    "first_tables",
    "second_tables",
    "coefficient_values",
]

PARAMS = ("a1", "a2", "c", "S1")
PAIRS = tuple(
    (PARAMS[i], PARAMS[j]) for i in range(4) for j in range(i, 4)
)

# d(aj, c, Sj) / d(a1, a2, c, S1) for the upper and the lower half
_JACOBIANS = (
    np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
    np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0]]),
)


@dataclass(frozen=True)
class CoefficientDerivatives:
    """Every assembly coefficient, or its derivative in one parameter direction.

    G_upper / G_lower   (2, 2) interior coefficient per half
    edge                (4,)   |edge|/|ref edge| per edge label (EDGE_IDS order)
    mass                (2,)   per-half mass weight Sj/S
    """

    G_upper: np.ndarray
    G_lower: np.ndarray
    edge: np.ndarray
    mass: np.ndarray


def _half(a: float, c: float, s: float, eps: float, S: float):
    """Coefficients of one half as functions of (aj, c, Sj).

    Rows: G11, G12, G22 of Ghat_j, the edge ratios of the legs i = 1
    (aj + c) and i = 2 (aj - c), and Sj/S.  Returns the values (6,), the
    gradients (6, 3) and the Hessians (6, 3, 3).
    """
    val = np.empty(6)
    grad = np.zeros((6, 3))
    hess = np.zeros((6, 3, 3))
    val[0] = s / c**2 + a**2 / s
    grad[0] = 2 * a / s, -2 * s / c**3, 1 / c**2 - a**2 / s**2
    hess[0] = [[2 / s, 0, -2 * a / s**2],
               [0, 6 * s / c**4, -2 / c**3],
               [-2 * a / s**2, -2 / c**3, 2 * a**2 / s**3]]
    val[1] = eps * a * c / s
    grad[1] = eps * c / s, eps * a / s, -eps * a * c / s**2
    hess[1] = eps * np.array([[0, 1 / s, -c / s**2],
                              [1 / s, 0, -a / s**2],
                              [-c / s**2, -a / s**2, 2 * a * c / s**3]])
    val[2] = c**2 / s
    grad[2] = 0, 2 * c / s, -c**2 / s**2
    hess[2] = [[0, 0, 0], [0, 2 / s, -2 * c / s**2], [0, -2 * c / s**2, 2 * c**2 / s**3]]
    # edge ratio q / ell0, q = |(u, d)| with u = s/c, d = a +- c.  The Hessian
    # form (w w^T / q^2 + u d2u) / q avoids the cancellation in
    # d2f / (2q) - df df^T / (4q^3) when u is small against d
    ell0 = math.sqrt(2.0 * S)
    u = s / c
    d2u = np.array([[0, 0, 0], [0, 2 * u / c**2, -1 / c**2], [0, -1 / c**2, 0]])
    for k, sign in ((3, 1.0), (4, -1.0)):
        d = a + sign * c
        q = math.hypot(u, d)
        w = np.array([-u, -u * (d + sign * c) / c, d / c])
        val[k] = q / ell0
        grad[k] = np.array([d, sign * d - u * u / c, u / c]) / (q * ell0)
        hess[k] = (np.outer(w, w) / q**2 + u * d2u) / (q * ell0)
    val[5] = s / S
    grad[5, 2] = 1 / S
    return val, grad, hess


def _tables(p: QuadParams):
    """Per half: values (6,), gradients (6, 4), Hessians (6, 4, 4) in PARAMS."""
    out = []
    for (a, s, eps), J in zip(((p.a1, p.S1, -1.0), (p.a2, p.S2, 1.0)), _JACOBIANS):
        val, grad, hess = _half(a, p.c, s, eps, p.S)
        out.append((val, grad @ J, J.T @ hess @ J))
    return out


def _pack(u: np.ndarray, l: np.ndarray) -> CoefficientDerivatives:
    return CoefficientDerivatives(
        G_upper=np.array([[u[0], u[1]], [u[1], u[2]]]),
        G_lower=np.array([[l[0], l[1]], [l[1], l[2]]]),
        edge=np.array([u[3], u[4], l[3], l[4]]),
        mass=np.array([u[5], l[5]]),
    )


def first_tables(p: QuadParams) -> dict[str, CoefficientDerivatives]:
    """Coefficient derivatives d/dv at p, keyed by parameter name."""
    (_, gu, _), (_, gl, _) = _tables(p)
    return {v: _pack(gu[:, i], gl[:, i]) for i, v in enumerate(PARAMS)}


def second_tables(p: QuadParams) -> dict[tuple[str, str], CoefficientDerivatives]:
    """Coefficient derivatives d^2/dv1 dv2 at p, keyed by ordered pair."""
    (_, _, hu), (_, _, hl) = _tables(p)
    out = {}
    for v1, v2 in PAIRS:
        i, j = PARAMS.index(v1), PARAMS.index(v2)
        out[(v1, v2)] = out[(v2, v1)] = _pack(hu[:, i, j], hl[:, i, j])
    return out


def coefficient_values(p: QuadParams, transported: bool = True) -> CoefficientDerivatives:
    """Every assembly coefficient at p.

    The plain-mass normalisation divides each half's coefficients by its mass
    weight Sj/S: interior Dinv Dinv^T, boundary S |edge| / (Sj |ref edge|),
    unit mass.
    """
    (u, _, _), (l, _, _) = _tables(p)
    return _pack(u, l) if transported else _pack(u / u[5], l / l[5])

