"""The pullback coefficients and their closed-form parameter derivatives.

The transported pencil is affine in 12 scalar coefficients, six per half,
each a function of that half's (aj, c, Sj) (eps = -1 for the upper half, +1
for the lower): the entries of

    Ghat_j = [[Sj/c^2 + aj^2/Sj,  eps aj c / Sj],
              [eps aj c / Sj,     c^2 / Sj     ]],

the mass weight Sj/S and the edge ratios sqrt(Sj^2/c^2 + (aj +- c)^2) /
sqrt(2S).  They travel as one vector w of shape (12,), in the order of the
affine blocks (``assembly.affine_combination``):

    index 6j + r, j = 0 upper half, j = 1 lower half
    r = 0   G11 of Ghat_j
    r = 1   G12, the weight of the E12 + E21 block
    r = 2   G22
    r = 3   Sj/S, the weight of the half's mass block
    r = 4   edge ratio of leg 1 (aj + c), edge label EDGE_IDS[2j]
    r = 5   edge ratio of leg 2 (aj - c), edge label EDGE_IDS[2j + 1]

``_half`` writes out the values, gradients and Hessians of one half by hand;
a fixed linear Jacobian (S2 = 2S - S1) carries them to (a1, a2, c, S1).  The
formulas live only here; the assembly takes its weights from
``coefficient_values``.  Finite differences are only a validation oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import QuadParams

__all__ = ["PARAMS", "first_tables", "second_tables", "coefficient_values"]

PARAMS = ("a1", "a2", "c", "S1")

# d(aj, c, Sj) / d(a1, a2, c, S1) for the upper and the lower half
_JACOBIANS = (
    np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
    np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0]]),
)


def _half(a: float, c: float, s: float, eps: float, S: float):
    """Coefficients of one half as functions of (aj, c, Sj).

    Rows r = 0..5 in the module's order.  Returns the values (6,), the
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
    val[3] = s / S
    grad[3, 2] = 1 / S
    # edge ratio q / ell0, q = |(u, d)| with u = s/c, d = a +- c.  The Hessian
    # form (w w^T / q^2 + u d2u) / q avoids the cancellation in
    # d2f / (2q) - df df^T / (4q^3) when u is small against d
    ell0 = math.sqrt(2.0 * S)
    u = s / c
    d2u = np.array([[0, 0, 0], [0, 2 * u / c**2, -1 / c**2], [0, -1 / c**2, 0]])
    for k, sign in ((4, 1.0), (5, -1.0)):
        d = a + sign * c
        q = math.hypot(u, d)
        w = np.array([-u, -u * (d + sign * c) / c, d / c])
        val[k] = q / ell0
        grad[k] = np.array([d, sign * d - u * u / c, u / c]) / (q * ell0)
        hess[k] = (np.outer(w, w) / q**2 + u * d2u) / (q * ell0)
    return val, grad, hess


def _tables(p: QuadParams):
    """Values (12,), gradients (12, 4) and Hessians (12, 4, 4) in PARAMS."""
    out = []
    for (a, s, eps), J in zip(((p.a1, p.S1, -1.0), (p.a2, p.S2, 1.0)), _JACOBIANS):
        val, grad, hess = _half(a, p.c, s, eps, p.S)
        out.append((val, grad @ J, J.T @ hess @ J))
    return [np.concatenate(half) for half in zip(*out)]


def first_tables(p: QuadParams) -> np.ndarray:
    """Coefficient derivatives at p, (12, 4): column i is d/dPARAMS[i]."""
    return _tables(p)[1]


def second_tables(p: QuadParams) -> np.ndarray:
    """Second derivatives at p, (12, 4, 4): [:, i, j] is d2/dPARAMS[i] dPARAMS[j]."""
    return _tables(p)[2]


def coefficient_values(p: QuadParams) -> np.ndarray:
    """Every assembly coefficient at p, (12,)."""
    return _tables(p)[0]
