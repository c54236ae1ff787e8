"""Gauss-Legendre quadrature helpers (1-D, tensor, triangle via Duffy map)."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


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
