"""Symmetric crisscross triangulation of the rotated reference square.

The square is meshed in the rotated frame u = (x+y)/sqrt(2), v = (y-x)/sqrt(2)
where it becomes [-L, L]^2, L = sqrt(S/2): an n-by-n grid of cells, each cut
into four triangles by its diagonals.  Every node coordinate is L*q/n for an
integer q, so the three reflections x -> -x, y -> -y and (x, y) -> (y, x) map
the node set onto itself exactly (they act on the integer labels).  The line
y = 0 is the anti-diagonal v = -u of the grid and is a union of element
edges, so no triangle straddles it: piecewise-constant coefficients per half
are constant per triangle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ContractError, ParameterDomainError

__all__ = ["Mesh", "build_mesh", "refine_mesh"]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Mesh:
    """Triangulation of the rotated square of area 2S.

    nodes          (N, 2) x-y coordinates
    triangles      (T, 3) node indices, counterclockwise
    bedge_nodes    (B, 2) node indices of boundary segments
    bedge_side     (B,)   index into EDGE_IDS for each boundary segment
    tri_upper      (T,)   True where the triangle lies in {y >= 0}
    refinement_level  nodes per half-diagonal; mesh size h = sqrt(2S)/level

    A mesh never changes once made: it takes ownership of its arrays and
    makes them read-only, and its fields cannot be reassigned, so nothing
    cached on it (affine blocks, the split scan) can go stale.  An edited
    mesh is a new one, e.g. ``dataclasses.replace(mesh, nodes=moved)``.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    bedge_nodes: np.ndarray
    bedge_side: np.ndarray
    tri_upper: np.ndarray
    refinement_level: int
    S: float
    # integer labels (u, v) = L*(qu, qv)/q_den; kept for exact symmetry lookups
    qu: np.ndarray = field(repr=False, default=None)
    qv: np.ndarray = field(repr=False, default=None)
    q_den: int = 0
    # unit blocks of the pullback form, built on first use (assembly.affine_blocks)
    affine_blocks: object = field(default=None, init=False, repr=False, compare=False)
    # the band factor's slot maps, built on first use (solver._band_maps)
    band_maps: object = field(default=None, init=False, repr=False, compare=False)
    # whether no triangle crosses y = 0, scanned on first assembly (assembly._check_mesh)
    split_ok: bool | None = field(default=None, init=False, repr=False, compare=False)
    # set by build_mesh only: the arrays are exactly its layout for (level, S)
    _built: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def dof_count(self) -> int:
        return len(self.nodes)

    @property
    def h(self) -> float:
        return math.sqrt(2.0 * self.S) / self.refinement_level


# a cell's corners sw, se, ne, nw in (iu, iv) steps from its sw corner; cell
# triangle t of build_mesh is (corner t, corner t + 1, centre) in this order
_CELL_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


def _build_layout(n: int):
    """Integer labels, triangles, half flags and boundary segments of build_mesh(n).

    Cells run in (iu, iv) order.  Corner (iu, iv) has id iu * (n + 1) + iv; the
    centre of cell (iu, iv) has id (n + 1)^2 + iu * n + iv.  Returns qu, qv,
    triangles, tri_upper, bedge_nodes and bedge_side.
    """
    # integer u,v labels: corners at even multiples, cell centres at odd ones
    corner = np.arange(-n, n + 1, 2, dtype=np.int64)
    centre = np.arange(-n + 1, n, 2, dtype=np.int64)
    qu = np.concatenate([np.repeat(corner, n + 1), np.repeat(centre, n)])
    qv = np.concatenate([np.tile(corner, n + 1), np.tile(centre, n)])

    iu, iv = np.divmod(np.arange(n * n, dtype=np.int64), n)
    ids = [(iu + du) * (n + 1) + iv + dv for du, dv in _CELL_CORNERS]
    sw, se, ne, nw = ids
    ctr = (n + 1) * (n + 1) + iu * n + iv
    tris = np.stack(
        [x for t in range(4) for x in (ids[t], ids[(t + 1) % 4], ctr)], axis=1
    ).reshape(-1, 3)
    # y > 0 where qu + qv > 0; over triangle t of cell (iu, iv) the labels sum
    # to 6 (iu + iv - n) + 4 (t = 0, 3) or + 8 (t = 1, 2)
    upper = ((iu + iv - n)[:, None] + np.array([0, 1, 1, 0]) >= 0).ravel()
    # per cell, in this order: v = +L, u = +L, u = -L, v = -L (EDGE_IDS order)
    sides = np.stack([ne, nw, se, ne, nw, sw, sw, se], axis=1).reshape(-1, 4, 2)
    on_side = np.stack([iv == n - 1, iu == n - 1, iu == 0, iv == 0], axis=1)
    return qu, qv, tris, upper, sides[on_side], np.nonzero(on_side)[1]


def _label_nodes(qu: np.ndarray, qv: np.ndarray, den: int, S: float) -> np.ndarray:
    """x-y coordinates of the labels (u, v) = L * (qu, qv) / den, L = sqrt(S/2)."""
    L = math.sqrt(S / 2.0)
    u = L * qu / den
    v = L * qv / den
    return np.column_stack([(u - v) * _INV_SQRT2, (u + v) * _INV_SQRT2])


_BUILT_KEYS = 3  # (level, S) meshes kept: the level-8 companion and solve levels


def build_mesh(n: int, S: float = 1.0) -> Mesh:
    """Crisscross mesh with n cells per grid direction (h = sqrt(2S)/n).

    The meshes of the last ``_BUILT_KEYS`` keys (n, S) are kept: a repeat
    returns the same object, so the blocks ``assembly`` caches on it serve
    every solve at that key.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterDomainError(f"refinement level must be an integer >= 2, got {n}")
    if not 0.0 < S < math.inf:
        raise ParameterDomainError(f"S must be positive and finite, got {S}")
    return _cached_build(int(n), float(S))


@functools.lru_cache(maxsize=_BUILT_KEYS)
def _cached_build(n: int, S: float) -> Mesh:
    qu, qv, tris, upper, bedge_nodes, bedge_side = _build_layout(n)
    mesh = Mesh(
        nodes=_label_nodes(qu, qv, n, S),
        triangles=tris,
        bedge_nodes=bedge_nodes,
        bedge_side=bedge_side,
        tri_upper=upper,
        refinement_level=n,
        S=S,
        qu=qu,
        qv=qv,
        q_den=n,
    )
    object.__setattr__(mesh, "_built", True)
    return mesh


def refine_mesh(mesh: Mesh) -> Mesh:
    """Midpoint (red) refinement: nested, symmetry- and split-preserving.

    Each triangle is divided into four congruent children, so discrete
    eigenvalues are non-increasing from mesh to refine_mesh(mesh).  The
    result has mesh size h/2 but a different topology from
    build_mesh(2 * level).
    """
    if mesh.qu is None:
        raise ContractError("mesh lacks integer labels; cannot refine")
    den = 2 * mesh.q_den
    n_old = mesh.dof_count
    i, j, k = mesh.triangles.T
    # edge midpoints (ij, jk, ki) per triangle, labelled by the sum of the end
    # labels; numbered after the old nodes in the order triangles reach them
    ends = np.stack([i, j, j, k, k, i], axis=1).reshape(-1, 2)
    mu, mv = mesh.qu[ends].sum(axis=1), mesh.qv[ends].sum(axis=1)
    keys, first, inverse = np.unique(
        _label_key(mu, mv, den), return_index=True, return_inverse=True
    )
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    mij, mjk, mki = (n_old + rank[inverse]).reshape(-1, 3).T
    tris = np.stack(
        [i, mij, mki, mij, j, mjk, mki, mjk, k, mij, mjk, mki], axis=1
    ).reshape(-1, 3)
    a, b = mesh.bedge_nodes.T
    bkeys = _label_key(mesh.qu[a] + mesh.qu[b], mesh.qv[a] + mesh.qv[b], den)
    m = n_old + rank[np.searchsorted(keys, bkeys)]

    new = np.sort(first)
    qu = np.concatenate([2 * mesh.qu, mu[new]])
    qv = np.concatenate([2 * mesh.qv, mv[new]])
    return Mesh(
        nodes=_label_nodes(qu, qv, den, mesh.S),
        triangles=tris,
        bedge_nodes=np.stack([a, m, m, b], axis=1).reshape(-1, 2),
        bedge_side=np.repeat(mesh.bedge_side, 2),
        tri_upper=np.repeat(mesh.tri_upper, 4),
        refinement_level=2 * mesh.refinement_level,
        S=mesh.S,
        qu=qu,
        qv=qv,
        q_den=den,
    )


def _label_key(qu: np.ndarray, qv: np.ndarray, den: int) -> np.ndarray:
    """One integer per label pair (qu, qv) in [-den, den]^2."""
    return (qu + den) * (2 * den + 1) + (qv + den)
