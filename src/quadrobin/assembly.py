"""P1 finite-element assembly of the Robin forms on the reference square.

The pullback pencil is affine in the 12 coefficients of ``coefficients``.
``affine_blocks`` builds their unit blocks on one CSR pattern once per mesh
and caches them on it; every pullback matrix (both pencils, the boundary
masses, all parameter derivatives) is a weighted sum of them.  The blocks
are coded: a small table of the distinct 12-vectors of block values and one
code per pattern slot, so a weighted sum is one gather, (table @ w)[code].
A mesh never changes, and ``build_mesh`` returns one mesh per recent
(level, S), so each key's blocks are built once.  A ``build_mesh`` mesh gets
the pattern, the slots and the codes from (iu, iv) index arithmetic and each
triangle's local matrices from one of four fixed cell kinds, so its table
has 28 rows (26 at level 2).  Every other mesh (``refine_mesh`` output, a
hand-made mesh or a ``dataclasses.replace`` copy) takes the generic builder,
which sorts all pattern keys and computes each triangle's geometry, with
up to one table row per slot; it is also the stencil's test oracle.

Two assemblies of the same spectral problem are provided.

``assemble_transformed``
    The pullback of the Robin form through the piecewise linear map, with the
    per-half weights that make the transport unitary: interior coefficient
    (Sj/S) * Ginv_j, boundary weight alpha * |edge| / |ref edge| and a
    (Sj/S)-weighted mass.  Its generalized eigenvalues coincide with those of
    the direct assembly on the mapped mesh exactly (same matrices up to
    roundoff), realising the isospectral reduction at the discrete level.

``assemble_direct``
    Standard Robin assembly on the physical quadrilateral, using the mesh
    pushed forward through the map.  Shares no coefficient formulas with the
    transformed route; agreement between the two is a real cross-check.

The pullback's plain-mass normalisation (unweighted mass), a different
pencil off the slice S1 = S, is ``oracles.assemble_plain_mass``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .coefficients import coefficient_values
from .errors import ContractError, DomainError
from .geometry import QuadParams, map_forward
from .mesh import _CELL_CORNERS, Mesh, _build_layout, _label_nodes

if TYPE_CHECKING:  # scipy loads on first use, in the functions that call it
    import scipy.sparse as sp

__all__ = [
    "AssembledSystem",
    "BoundaryLayerWarning",
    "assemble_transformed",
    "assemble_direct",
    "affine_blocks",
    "affine_combination",
    "affine_images",
]


class BoundaryLayerWarning(UserWarning):
    """Mesh too coarse for the O(1/|alpha|) boundary layer."""


@dataclass
class AssembledSystem:
    """Sparse pencil (stiffness_plus_boundary, mass) for one (p, alpha, mesh)."""

    stiffness_plus_boundary: sp.csr_matrix
    mass: sp.csr_matrix
    dof_count: int
    params: QuadParams
    alpha: float
    mesh: Mesh
    kind: str  # "transformed" | "direct" ("plain" from oracles.assemble_plain_mass)


def _respects_split(mesh: Mesh) -> bool:
    """Whether every triangle lies on its labelled side of the line y = 0."""
    y = mesh.nodes[:, 1][mesh.triangles]
    tol = 1e-12 * math.sqrt(mesh.S)
    bad_up = mesh.tri_upper & (y < -tol).any(axis=1)
    bad_dn = ~mesh.tri_upper & (y > tol).any(axis=1)
    return not (bad_up.any() or bad_dn.any())


def _check_mesh(p: QuadParams, alpha: float, mesh: Mesh) -> None:
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")
    if abs(mesh.S - p.S) > 1e-12 * max(1.0, p.S):
        raise ContractError(f"mesh built for S={mesh.S}, parameters have S={p.S}")
    if mesh.split_ok is None:  # the scan depends on the mesh alone: once per mesh
        object.__setattr__(mesh, "split_ok", _respects_split(mesh))
    if not mesh.split_ok:
        raise ContractError("mesh has triangles crossing the line y = 0")


def _warn_boundary_layer(p: QuadParams, alpha: float, mesh: Mesh) -> None:
    """Warn, naming the line that called this function's caller."""
    if abs(alpha) * math.sqrt(2.0 * p.S) > 30.0 and mesh.h > 0.2 / abs(alpha):
        warnings.warn(
            f"mesh size h={mesh.h:.3g} does not resolve the boundary layer "
            f"width ~{1.0 / abs(alpha):.3g}; refine to h <= {0.2 / abs(alpha):.3g}",
            BoundaryLayerWarning,
            stacklevel=3,
        )


def _triangle_geometry(nodes: np.ndarray, triangles: np.ndarray):
    p = nodes[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    area = 0.5 * det
    # gradients of the three barycentric basis functions, shape (T, 3, 2)
    grads = np.empty((len(triangles), 3, 2))
    grads[:, 1, 0] = d2[:, 1]
    grads[:, 1, 1] = -d2[:, 0]
    grads[:, 2, 0] = -d1[:, 1]
    grads[:, 2, 1] = d1[:, 0]
    grads[:, 1:] /= det[:, None, None]
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return area, grads


def _scatter(local: np.ndarray, triangles: np.ndarray, n: int) -> sp.csr_matrix:
    import scipy.sparse as sp

    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


def _stiffness_from(nodes, triangles, n, G: np.ndarray) -> sp.csr_matrix:
    """Assemble sum_T area_T grad^T G_T grad with G of shape (T, 2, 2)."""
    area, grads = _triangle_geometry(nodes, triangles)
    local = np.einsum("t,tai,tij,tbj->tab", area, grads, G, grads, optimize=True)
    local = 0.5 * (local + np.transpose(local, (0, 2, 1)))
    return _scatter(local, triangles, n)


_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0
_EDGE_PATTERN = (np.ones((2, 2)) + np.eye(2)) / 6.0
# the coefficient-vector index of each edge label's block (EDGE_IDS order)
_EDGE_W = (4, 5, 10, 11)


def _mass_from(nodes, triangles, n, weights: np.ndarray) -> sp.csr_matrix:
    area, _ = _triangle_geometry(nodes, triangles)
    local = (weights * area)[:, None, None] * _MASS_PATTERN[None, :, :]
    return _scatter(local, triangles, n)


def _boundary_from(nodes, bedge_nodes, n, edge_weights: np.ndarray) -> sp.csr_matrix:
    """1-D mass matrices on boundary segments, 3-point Gauss per segment."""
    import scipy.sparse as sp

    if len(bedge_nodes) == 0:
        return sp.csr_matrix((n, n))
    t, w = np.polynomial.legendre.leggauss(3)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    shape = np.stack([1.0 - t, t])  # (2, q)
    pattern = np.einsum("q,aq,bq->ab", w, shape, shape)
    a = nodes[bedge_nodes[:, 0]]
    b = nodes[bedge_nodes[:, 1]]
    lengths = np.linalg.norm(b - a, axis=1)
    local = (edge_weights * lengths)[:, None, None] * pattern[None, :, :]
    rows = np.repeat(bedge_nodes, 2, axis=1).ravel()
    cols = np.tile(bedge_nodes, (1, 2)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


@dataclass
class _AffineBlocks:
    """Unit blocks of the pullback form on one shared CSR pattern of a mesh.

    The blocks are coded: ``table`` holds their distinct 12-vectors of values,
    pairwise distinct bit for bit, and ``code[s]`` is the row of pattern slot
    s, so block b is table[code[s], b] at slot s (``coefficients`` gives the
    order of b).  On a build_mesh mesh every cell is a translate of one
    stencil, so the 230,145 slots of mesh 128 carry 28 distinct rows, like
    those of every level from 3 to 256 measured, and the pattern and the
    codes make up nearly all of its ~2 MB (~8 MB at mesh 256).  A build_mesh
    mesh gets them from the cell stencil (``_stencil_pattern``), any other
    mesh from the sorted builder (``_sorted_pattern``), with up to one row per
    slot; the two agree in pattern exactly and in decoded blocks to roundoff.
    Every array is read-only, like the mesh's own.
    """

    indptr: np.ndarray
    indices: np.ndarray
    table: np.ndarray
    code: np.ndarray


def _unit_locals(nodes: np.ndarray, triangles: np.ndarray):
    """Per-triangle 3x3 E11, E12 + E21, E22 stiffness and mass, one at a time."""
    area, grads = _triangle_geometry(nodes, triangles)
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    for f, g in ((gx, gx), (gx, gy), (gy, gy)):
        local = f[:, :, None] * g[:, None, :]
        if f is not g:  # the mixed block is E12 + E21
            local = local + local.transpose(0, 2, 1)
        yield area[:, None, None] * local
    yield area[:, None, None] * _MASS_PATTERN


def _sorted_pattern(mesh: Mesh):
    """Any mesh: the pattern by sorting all 9 keys per triangle, geometry per
    triangle and boundary segment, and each slot a class of its own."""
    n, tris = mesh.dof_count, mesh.triangles
    keys = (np.repeat(tris, 3, axis=1) * n + np.tile(tris, (1, 3))).ravel()
    pattern, slot = np.unique(keys, return_inverse=True)
    del keys
    indptr = np.searchsorted(pattern, np.arange(n + 1) * n).astype(np.int32)
    indices = (pattern % n).astype(np.int32)
    slot = slot.reshape(len(tris), 9)
    classes = np.arange(len(indices), dtype=np.int32)
    ends = mesh.nodes[mesh.bedge_nodes]
    lengths = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    return indptr, indices, slot, classes, lambda sel: _unit_locals(mesh.nodes, tris[sel]), lengths


def _cell_slots() -> np.ndarray:
    """Entry (a, b) of cell triangle t, as its candidate among the 45 in the
    cell's rows (_stencil_pattern): corners 0..3 in _CELL_CORNERS order, then
    the centre, 9 candidates each."""
    code = [2 * du + dv for du, dv in _CELL_CORNERS]  # sw 0, se 2, ne 3, nw 1
    k = np.empty((4, 3, 3), dtype=np.intp)
    for t in range(4):
        ab = np.array([code[t], code[(t + 1) % 4]])
        k[t, :2, :2] = 2 + ab[None, :] - ab[:, None]  # grid step 2 du + dv
        k[t, :2, 2] = 8 - ab  # the cell at (du, dv) = -corner
        k[t, 2] = [*ab, 4]
        k[t] += 9 * np.array([t, (t + 1) % 4, 4])[:, None]
    return k.ravel()


def _stencil_pattern(mesh: Mesh):
    """A build_mesh mesh: pattern, slots and slot classes by (iu, iv)
    arithmetic; every cell is a translate of the one at the origin, so each
    of the 4 triangle kinds has fixed local matrices."""
    n = mesh.refinement_level
    nc = (n + 1) ** 2
    c = np.arange(nc, dtype=np.int32)
    iu, iv = np.divmod(c, n + 1)
    cell = nc + iu * n + iv
    # a corner row's candidate columns, in column order: the grid neighbours
    # (du, dv) = (-1, 0), (0, -1), self, (0, 1), (1, 0), then the centres of
    # the cells at (-1, -1), (-1, 0), (0, -1), (0, 0); those in the grid are
    # present.  A centre row holds its sw, nw, se, ne corners, then itself.
    cand = np.stack(
        [c - n - 1, c - 1, c, c + 1, c + n + 1, cell - n - 1, cell - n, cell - 1, cell], 1
    )
    lo_u, lo_v, hi_u, hi_v = iu > 0, iv > 0, iu < n, iv < n
    in_cells = [lo_u & lo_v, lo_u & hi_v, hi_u & lo_v, hi_u & hi_v]
    present = np.stack([lo_u, lo_v, np.ones(nc, bool), hi_v, hi_u] + in_cells, 1)
    centre = np.arange(n * n, dtype=np.int32)
    sw = centre // n * (n + 1) + centre % n
    indices = np.concatenate(
        [cand[present], np.stack([sw, sw + 1, sw + n + 1, sw + n + 2, nc + centre], 1).ravel()]
    )
    indptr = np.zeros(nc + n * n + 1, dtype=np.int32)
    np.cumsum(np.concatenate([present.sum(axis=1), np.full(n * n, 5)]), out=indptr[1:])
    # row_slot[r, k]: the slot of candidate k in row r
    row_slot = np.zeros((len(indptr) - 1, 9), dtype=np.int32)
    row_slot[:nc] = indptr[:nc, None] + np.cumsum(present, axis=1, dtype=np.int32) - 1
    row_slot[nc:, :5] = indptr[nc:-1, None] + np.arange(5, dtype=np.int32)
    tri = mesh.triangles.reshape(n * n, 12)
    rows = row_slot[np.column_stack([tri[:, 0:12:3], tri[:, 2]])].reshape(n * n, 45)
    slot = rows[:, _cell_slots()].reshape(-1, 9)

    # A slot's values depend only on the triangles and boundary segments that
    # meet at it, so on its candidate and its row's class.  A corner row's
    # class is where it lies on each grid axis (low end, inside, high end),
    # which fixes the cells and segments around it, and its offset
    # d = iu + iv - n from the line y = 0 clipped to [-1, 1], which fixes the
    # half of each triangle at it: triangle t of cell (iu', iv') is upper where
    # iu' + iv' - n + (0, 1, 1, 0)[t] >= 0, and that sum is d - 1 or d on
    # the 8 triangles at the corner.  A centre row's class is its cell's
    # offset clipped to [-2, 0], after the 27 corner classes.
    place = (lo_u.astype(np.int32) + ~hi_u) * 3 + lo_v + ~hi_v
    corner_class = place * 3 + np.clip(iu + iv - n, -1, 1) + 1
    centre_class = 29 + np.clip(centre // n + centre % n - n, -2, 0)
    classes = np.concatenate(
        [
            (corner_class[:, None] * 9 + np.arange(9, dtype=np.int32))[present],
            (centre_class[:, None] * 9 + np.arange(5, dtype=np.int32)).ravel(),
        ]
    )

    qu, qv, tris, *_ = _build_layout(1)  # the cell at the origin
    nodes = _label_nodes(qu, qv, n, mesh.S)
    # kinds[q, t]: block q's 3x3 local matrix on cell triangle t
    kinds = np.stack(list(_unit_locals(nodes, tris)))
    # every boundary segment is a cell side, like the one from corner 0 to 1
    lengths = np.full(len(mesh.bedge_nodes), np.linalg.norm(nodes[1] - nodes[0]))
    # triangle i of a build_mesh mesh is cell triangle i % 4
    return indptr, indices, slot, classes, lambda sel: kinds[:, sel % 4], lengths


def _build_blocks(mesh: Mesh, build) -> _AffineBlocks:
    """The coded blocks of ``mesh`` from pattern builder ``build``, all arrays
    read-only.  The builder puts the slots into classes whose members have
    equal values; each class is assembled on one member only, then rows that
    agree bit for bit merge."""
    indptr, indices, slot, classes, locals_of, lengths = build(mesh)
    nnz = len(indices)
    member = np.full(classes.max() + 1, -1)
    member[classes] = np.arange(nnz)  # one slot of each class, whichever
    assembled = member[member >= 0]
    rows = len(assembled)
    row = np.full(nnz, -1, dtype=np.int32)  # an assembled slot's table row
    row[assembled] = np.arange(rows, dtype=np.int32)
    table = np.zeros((rows, 12))
    at = row[slot]
    for j, half in enumerate((mesh.tri_upper, ~mesh.tri_upper)):
        sel = np.flatnonzero(half & (at >= 0).any(axis=1))
        where = at[sel]
        hit = where >= 0
        for q, local in enumerate(locals_of(sel)):
            table[:, 6 * j + q] = np.bincount(where[hit], local.reshape(-1, 9)[hit], rows)
    del at
    n, ends = mesh.dof_count, mesh.bedge_nodes
    pattern = np.repeat(np.arange(n), np.diff(indptr)) * n + indices  # sorted row * n + col
    edge_at = row[np.searchsorted(pattern, np.repeat(ends, 2, axis=1) * n + np.tile(ends, (1, 2)))]
    del pattern
    local = lengths[:, None] * _EDGE_PATTERN.ravel()
    for s, b in enumerate(_EDGE_W):
        on = (mesh.bedge_side == s)[:, None] & (edge_at >= 0)
        table[:, b] = np.bincount(edge_at[on], local[on], rows)
    _, first, merged = np.unique(
        table.view(np.dtype((np.void, table.itemsize * 12))).ravel(),
        return_index=True,
        return_inverse=True,
    )
    table, code = table[first], merged.astype(np.int32)[row[member[classes]]]
    for array in (indptr, indices, table, code):
        array.setflags(write=False)  # an in-place edit would corrupt every matrix
    return _AffineBlocks(indptr, indices, table, code)


def affine_blocks(mesh: Mesh) -> _AffineBlocks:
    """The mesh's affine blocks, built on first use and cached on the mesh:
    from the cell stencil for a build_mesh mesh, else by the sorted builder."""
    if mesh.affine_blocks is None:
        build = _stencil_pattern if mesh._built else _sorted_pattern
        object.__setattr__(mesh, "affine_blocks", _build_blocks(mesh, build))
    return mesh.affine_blocks


def affine_combination(mesh: Mesh, w: np.ndarray) -> sp.csr_matrix:
    """sum_b w[b] (block b) on the shared pattern, w (12,) in ``coefficients``' order."""
    import scipy.sparse as sp

    blocks = affine_blocks(mesh)
    n = mesh.dof_count
    data = (blocks.table @ w)[blocks.code]
    return sp.csr_matrix((data, blocks.indices, blocks.indptr), shape=(n, n))


def affine_images(mesh: Mesh, x: np.ndarray) -> np.ndarray:
    """Y[b] = (block b) @ x for all 12 blocks, (12, n), in ``affine_combination``'s
    order: any combination's product is then w @ Y, with no matrix built.

    One sparse product: row i of the (n, rows) matrix with x[col] at column
    code[s] for each slot s of row i, times the table (duplicate codes sum)."""
    import scipy.sparse as sp

    blocks = affine_blocks(mesh)
    shape = (mesh.dof_count, len(blocks.table))
    codes = sp.csr_matrix((x[blocks.indices], blocks.code, blocks.indptr), shape=shape)
    return (codes @ blocks.table).T


def _pencil_weights(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks (wK, wM) that split a coefficient vector w into the stiffness
    part w * wK (interior 1, mass 0, edges alpha) and the mass part w * wM."""
    wK = np.tile([1.0, 1.0, 1.0, 0.0, alpha, alpha], 2)
    return wK, np.tile([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 2)


def assemble_transformed(p: QuadParams, alpha: float, mesh: Mesh) -> AssembledSystem:
    """Pullback assembly on the reference square (unitary normalisation).

    Interior coefficient per half from ``coefficient_values``, boundary weight
    alpha |edge|/|ref edge| per edge label, (Sj/S)-weighted mass.  At the
    square all weights reduce to the plain Robin form on the reference
    square.  Generalized eigenvalues agree with ``assemble_direct`` to
    roundoff on the matched mesh.
    """
    _check_mesh(p, alpha, mesh)
    _warn_boundary_layer(p, alpha, mesh)
    w = coefficient_values(p)
    wK, wM = _pencil_weights(alpha)
    K = affine_combination(mesh, w * wK)
    M = affine_combination(mesh, w * wM)
    return AssembledSystem(K, M, mesh.dof_count, p, alpha, mesh, "transformed")


def assemble_direct(p: QuadParams, alpha: float, mesh: Mesh) -> AssembledSystem:
    """Standard Robin assembly on the mapped (physical) mesh."""
    import scipy.sparse as sp

    _check_mesh(p, alpha, mesh)
    _warn_boundary_layer(p, alpha, mesh)
    phys = map_forward(p).apply(mesh.nodes)
    n = mesh.dof_count
    G = np.broadcast_to(np.eye(2), (len(mesh.triangles), 2, 2))
    K = _stiffness_from(phys, mesh.triangles, n, G).tocoo()
    B = _boundary_from(phys, mesh.bedge_nodes, n, np.full(len(mesh.bedge_nodes), alpha)).tocoo()
    # summed as COO, since K + B drops the exact zeros of right-angled cells
    # and would leave K on a smaller pattern than M
    K = sp.coo_matrix(
        (np.r_[K.data, B.data], (np.r_[K.row, B.row], np.r_[K.col, B.col])), shape=(n, n)
    )
    M = _mass_from(phys, mesh.triangles, n, np.ones(len(mesh.triangles)))
    return AssembledSystem(K.tocsr(), M.tocsr(), n, p, alpha, mesh, "direct")
