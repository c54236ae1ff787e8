"""P1 finite-element assembly of the Robin forms on the reference square.

The pullback pencil is affine in the scalar coefficients of ``coefficients``.
``affine_blocks`` builds its unit blocks once per mesh, on one shared CSR
pattern cached on the mesh; every pullback matrix (both pencils, the boundary
masses, all parameter derivatives) is a weighted sum of them.  A mesh whose
triangles and nodes are exactly ``build_mesh``'s for its level and S gets the
pattern and slots from (iu, iv) index arithmetic and each triangle's local
matrices from one of four fixed cell kinds.  Every other mesh (``refine_mesh``
output, a hand-made or an edited mesh) takes the generic builder, which sorts
all pattern keys and computes each triangle's geometry; it is also the
stencil's test oracle.

Three assemblies of the same spectral problem are provided.

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

``assemble_plain_mass``
    The pullback form in its plain-mass normalisation: interior coefficient
    Ginv_j, boundary weight alpha * S * |edge| / (Sj * |ref edge|), unweighted
    mass.  For S1 = S it coincides entrywise with the transported system
    (weights are 1), in particular on the square.  For S1 != S it is a
    different pencil: the plain-mass normalisation hides a weight jump across
    y = 0, and its lowest eigenvalue lies strictly below the quadrilateral's.
    It is exposed because several closed-form identities (for instance the
    all-ones Rayleigh quotient (alpha/2) * l(p)) are identities of this form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._quadrature import gauss_legendre
from .coefficients import boundary_weights_transformed, coefficient_values, pullback_matrices
from .errors import ContractError, DomainError
from .geometry import QuadParams, map_forward
from .mesh import _CELL_CORNERS, Mesh, _build_layout, _label_nodes

__all__ = [
    "AssembledSystem",
    "BoundaryLayerWarning",
    "assemble_transformed",
    "assemble_direct",
    "assemble_plain_mass",
    "pullback_matrices",
    "boundary_weights_transformed",
    "affine_blocks",
    "affine_combination",
    "boundary_mass_matrices",
    "directional_stiffness",
    "export_coo",
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
    kind: str  # "transformed" | "direct" | "plain"


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
        mesh.split_ok = _respects_split(mesh)
    if not mesh.split_ok:
        raise ContractError("mesh has triangles crossing the line y = 0")


def _warn_boundary_layer(p: QuadParams, alpha: float, mesh: Mesh) -> None:
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
_NO_G = (np.zeros((2, 2)), np.zeros((2, 2)))


def _mass_from(nodes, triangles, n, weights: np.ndarray) -> sp.csr_matrix:
    area, _ = _triangle_geometry(nodes, triangles)
    local = (weights * area)[:, None, None] * _MASS_PATTERN[None, :, :]
    return _scatter(local, triangles, n)


def _boundary_from(nodes, bedge_nodes, n, edge_weights: np.ndarray) -> sp.csr_matrix:
    """1-D mass matrices on boundary segments, 3-point Gauss per segment."""
    if len(bedge_nodes) == 0:
        return sp.csr_matrix((n, n))
    t, w = gauss_legendre(3)
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

    halves[j] = (slots, E): the pattern slots touched by half j (upper, then
    lower) and, on those slots, E[0..3] = the E11, E12 + E21 and E22
    stiffness and the mass of that half.  edges[s] = (slots, B): the unit
    boundary mass of edge label s (EDGE_IDS order).  Storing each half on its
    own slots (about half the pattern) keeps the cache to ~10 MiB at mesh 128.
    A build_mesh mesh gets them from the cell stencil (``_stencil_pattern``),
    any other mesh from the sorted builder (``_sorted_pattern``); the two
    agree in pattern and slots exactly and in values to roundoff.
    """

    indptr: np.ndarray
    indices: np.ndarray
    halves: list
    edges: list


def _on_slots(slot: np.ndarray, nnz: int):
    """Distinct slots of ``slot`` (sorted) and each entry's position among them."""
    used = np.zeros(nnz, dtype=bool)
    used[slot] = True
    return np.flatnonzero(used), (np.cumsum(used) - 1)[slot]


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
    """Any mesh: the pattern by sorting all 9 keys per triangle, geometry per triangle."""
    n, tris = mesh.dof_count, mesh.triangles
    keys = (np.repeat(tris, 3, axis=1) * n + np.tile(tris, (1, 3))).ravel()
    pattern, slot = np.unique(keys, return_inverse=True)
    del keys
    indptr = np.searchsorted(pattern, np.arange(n + 1) * n).astype(np.int32)
    indices = (pattern % n).astype(np.int32)
    slot = slot.reshape(len(tris), 9)
    return indptr, indices, slot, lambda sel: _unit_locals(mesh.nodes, tris[sel])


def _is_built(mesh: Mesh) -> bool:
    """Whether the mesh has build_mesh's triangles and nodes for its level and S."""
    qu, qv, tris, _ = _build_layout(mesh.refinement_level)
    nodes = _label_nodes(qu, qv, mesh.refinement_level, mesh.S)
    return np.array_equal(mesh.triangles, tris) and np.array_equal(mesh.nodes, nodes)


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


_CELL_SLOTS = _cell_slots()


def _stencil_pattern(mesh: Mesh):
    """A build_mesh mesh: pattern and slots by (iu, iv) arithmetic; every cell
    is a translate of the one at the origin, so each of the 4 triangle kinds
    has fixed local matrices."""
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
    slot = rows[:, _CELL_SLOTS].reshape(-1, 9)

    qu, qv, tris, _ = _build_layout(1)  # the cell at the origin
    # kinds[q, t]: block q's 3x3 local matrix on cell triangle t
    kinds = np.stack(list(_unit_locals(_label_nodes(qu, qv, n, mesh.S), tris)))
    kind = np.tile(np.arange(4, dtype=np.int8), n * n)

    def locals_of(sel):
        of_sel = kind[sel]
        return (np.take(E, of_sel, axis=0) for E in kinds)

    return indptr, indices, slot, locals_of


def affine_blocks(mesh: Mesh) -> _AffineBlocks:
    """The mesh's affine blocks, built on first use and cached on the mesh."""
    if mesh.affine_blocks is not None:
        return mesh.affine_blocks
    build = _stencil_pattern if _is_built(mesh) else _sorted_pattern
    indptr, indices, slot, locals_of = build(mesh)
    nnz = len(indices)
    halves = []
    for sel in (mesh.tri_upper, ~mesh.tri_upper):
        slots, where = _on_slots(slot[sel].ravel(), nnz)
        E = np.empty((4, len(slots)))
        for q, local in enumerate(locals_of(sel)):
            E[q] = np.bincount(where, local.ravel(), len(slots))
        halves.append((slots, E))
    n, ends = mesh.dof_count, mesh.bedge_nodes
    pattern = np.repeat(np.arange(n), np.diff(indptr)) * n + indices  # sorted row * n + col
    edge_slot = np.searchsorted(pattern, np.repeat(ends, 2, axis=1) * n + np.tile(ends, (1, 2)))
    lengths = np.linalg.norm(mesh.nodes[ends[:, 1]] - mesh.nodes[ends[:, 0]], axis=1)
    edges = []
    for s in range(4):
        on = mesh.bedge_side == s
        slots, where = _on_slots(edge_slot[on].ravel(), nnz)
        local = lengths[on, None, None] * _EDGE_PATTERN
        edges.append((slots, np.bincount(where, local.ravel(), len(slots))))
    for shared in (indptr, indices):  # an in-place edit would corrupt every matrix
        shared.setflags(write=False)
    mesh.affine_blocks = _AffineBlocks(indptr, indices, halves, edges)
    return mesh.affine_blocks


def affine_combination(mesh: Mesh, G=_NO_G, edge=(0.0,) * 4, mass=(0.0, 0.0)) -> sp.csr_matrix:
    """sum_j [G_j : E_j + mass_j M_j] + sum_s edge_s B_s on the shared pattern.

    G = (G_upper, G_lower) are symmetric 2x2 interior coefficients, ``edge``
    the boundary weight per edge label and ``mass`` the mass weight per half.
    """
    blocks = affine_blocks(mesh)
    data = np.zeros(len(blocks.indices))
    for (slots, E), Gj, mj in zip(blocks.halves, G, mass):
        data[slots] += E.T @ np.array([Gj[0, 0], Gj[0, 1], Gj[1, 1], mj])
    for (slots, B), w in zip(blocks.edges, edge):
        if w != 0.0:
            data[slots] += w * B
    n = mesh.dof_count
    return sp.csr_matrix((data, blocks.indices, blocks.indptr), shape=(n, n))


def boundary_mass_matrices(mesh: Mesh) -> list[sp.csr_matrix]:
    """Unit-weight boundary mass matrix for each of the four edge labels."""
    return [affine_combination(mesh, edge=np.eye(4)[s]) for s in range(4)]


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


def _assemble_pullback(p, alpha, mesh, transported: bool, kind: str) -> AssembledSystem:
    _check_mesh(p, alpha, mesh)
    _warn_boundary_layer(p, alpha, mesh)
    v = coefficient_values(p, transported)
    K = affine_combination(mesh, (v.G_upper, v.G_lower), alpha * v.edge)
    M = affine_combination(mesh, mass=v.mass)
    return AssembledSystem(K, M, mesh.dof_count, p, alpha, mesh, kind)


def assemble_transformed(p: QuadParams, alpha: float, mesh: Mesh) -> AssembledSystem:
    """Pullback assembly on the reference square (unitary normalisation).

    Interior coefficient per half from ``pullback_matrices``, boundary weight
    alpha |edge|/|ref edge| per edge label, (Sj/S)-weighted mass.  At the
    square all weights reduce to the plain Robin form on the reference
    square.  Generalized eigenvalues agree with ``assemble_direct`` to
    roundoff on the matched mesh.
    """
    return _assemble_pullback(p, alpha, mesh, transported=True, kind="transformed")


def assemble_plain_mass(p: QuadParams, alpha: float, mesh: Mesh) -> AssembledSystem:
    """Pullback assembly in the plain-mass normalisation (see module docs)."""
    return _assemble_pullback(p, alpha, mesh, transported=False, kind="plain")


def assemble_direct(p: QuadParams, alpha: float, mesh: Mesh) -> AssembledSystem:
    """Standard Robin assembly on the mapped (physical) mesh."""
    _check_mesh(p, alpha, mesh)
    _warn_boundary_layer(p, alpha, mesh)
    phys = map_forward(p).apply(mesh.nodes)
    n = mesh.dof_count
    G = np.broadcast_to(np.eye(2), (len(mesh.triangles), 2, 2))
    K = _stiffness_from(phys, mesh.triangles, n, G)
    K = K + _boundary_from(
        phys, mesh.bedge_nodes, n, np.full(len(mesh.bedge_nodes), alpha)
    )
    M = _mass_from(phys, mesh.triangles, n, np.ones(len(mesh.triangles)))
    return AssembledSystem(K.tocsr(), M.tocsr(), n, p, alpha, mesh, "direct")


def export_coo(matrix: sp.spmatrix, path) -> None:
    """Write a matrix as whitespace 'row col value' lines (0-based indices)."""
    coo = matrix.tocoo()
    with open(path, "w") as fh:
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {float(v)!r}\n")
