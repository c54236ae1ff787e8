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

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ParameterDomainError
from .geometry import EDGE_IDS, EdgeId

__all__ = ["Mesh", "build_mesh", "refine_mesh", "symmetry_permutation"]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# boundary side order matches EDGE_IDS: (1,1) v=L, (2,1) u=L, (1,2) u=-L, (2,2) v=-L
_SIDE_OF_EDGE = {e: k for k, e in enumerate(EDGE_IDS)}


@dataclass
class Mesh:
    """Triangulation of the rotated square of area 2S.

    nodes          (N, 2) x-y coordinates
    triangles      (T, 3) node indices, counterclockwise
    bedge_nodes    (B, 2) node indices of boundary segments
    bedge_side     (B,)   index into EDGE_IDS for each boundary segment
    tri_upper      (T,)   True where the triangle lies in {y >= 0}
    refinement_level  nodes per half-diagonal; mesh size h = sqrt(2S)/level
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
    # whether no triangle crosses y = 0, scanned on first assembly (assembly._check_mesh)
    split_ok: bool | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dof_count(self) -> int:
        return len(self.nodes)

    @property
    def h(self) -> float:
        return math.sqrt(2.0 * self.S) / self.refinement_level

    @property
    def boundary_edges(self) -> list[tuple[tuple[int, int], EdgeId]]:
        return [
            ((int(a), int(b)), EDGE_IDS[s])
            for (a, b), s in zip(self.bedge_nodes, self.bedge_side)
        ]

    def triangle_areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def to_dict(self) -> dict:
        return {
            "refinement_level": self.refinement_level,
            "S": self.S,
            "nodes": self.nodes.tolist(),
            "triangles": self.triangles.tolist(),
            "boundary_edges": [
                {"nodes": [int(a), int(b)], "i": EDGE_IDS[s].i, "j": EDGE_IDS[s].j}
                for (a, b), s in zip(self.bedge_nodes, self.bedge_side)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def save_text(self, path) -> None:
        """Whitespace node/element lists: counts, then nodes, then triangles."""
        with open(path, "w") as fh:
            fh.write(f"{len(self.nodes)} {len(self.triangles)}\n")
            for x, y in self.nodes:
                fh.write(f"{float(x)!r} {float(y)!r}\n")
            for i, j, k in self.triangles:
                fh.write(f"{i} {j} {k}\n")


# a cell's corners sw, se, ne, nw in (iu, iv) steps from its sw corner; cell
# triangle t of build_mesh is (corner t, corner t + 1, centre) in this order
_CELL_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


def _build_layout(n: int):
    """Integer labels, triangles and per-cell ids of build_mesh(n).

    Cells run in (iu, iv) order.  Corner (iu, iv) has id iu * (n + 1) + iv; the
    centre of cell (iu, iv) has id (n + 1)^2 + iu * n + iv.  Returns qu, qv,
    triangles and (iu, iv, sw, se, ne, nw) per cell.
    """
    # integer u,v labels: corners at even multiples, cell centres at odd ones
    corner = np.arange(-n, n + 1, 2, dtype=np.int64)
    centre = np.arange(-n + 1, n, 2, dtype=np.int64)
    qu = np.concatenate([np.repeat(corner, n + 1), np.repeat(centre, n)])
    qv = np.concatenate([np.tile(corner, n + 1), np.tile(centre, n)])

    iu, iv = np.divmod(np.arange(n * n, dtype=np.int64), n)
    ids = [(iu + du) * (n + 1) + iv + dv for du, dv in _CELL_CORNERS]
    ctr = (n + 1) * (n + 1) + iu * n + iv
    tris = np.stack(
        [x for t in range(4) for x in (ids[t], ids[(t + 1) % 4], ctr)], axis=1
    ).reshape(-1, 3)
    return qu, qv, tris, (iu, iv, *ids)


def _label_nodes(qu: np.ndarray, qv: np.ndarray, den: int, S: float) -> np.ndarray:
    """x-y coordinates of the labels (u, v) = L * (qu, qv) / den, L = sqrt(S/2)."""
    L = math.sqrt(S / 2.0)
    u = L * qu / den
    v = L * qv / den
    return np.column_stack([(u - v) * _INV_SQRT2, (u + v) * _INV_SQRT2])


def build_mesh(n: int, S: float = 1.0) -> Mesh:
    """Crisscross mesh with n cells per grid direction (h = sqrt(2S)/n)."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterDomainError(f"refinement level must be an integer >= 2, got {n}")
    if S <= 0.0:
        raise ParameterDomainError(f"S must be positive, got {S}")
    n = int(n)
    qu, qv, tris, (iu, iv, sw, se, ne, nw) = _build_layout(n)
    upper = (qu[tris] + qv[tris]).sum(axis=1) > 0
    # per cell, in this order: v = +L, u = +L, u = -L, v = -L (EDGE_IDS order)
    sides = np.stack([ne, nw, se, ne, nw, sw, sw, se], axis=1).reshape(-1, 4, 2)
    on_side = np.stack([iv == n - 1, iu == n - 1, iu == 0, iv == 0], axis=1)
    return Mesh(
        nodes=_label_nodes(qu, qv, n, S),
        triangles=tris,
        bedge_nodes=sides[on_side],
        bedge_side=np.nonzero(on_side)[1],
        tri_upper=upper,
        refinement_level=n,
        S=S,
        qu=qu,
        qv=qv,
        q_den=n,
    )


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
