"""P1 finite-element assembly of the Robin forms on the reference square.

The pullback pencil is affine in the scalar coefficients of ``coefficients``.
``affine_blocks`` builds its unit blocks once per mesh, on one shared CSR
pattern cached on the mesh; every pullback matrix (both pencils, the boundary
masses, all parameter derivatives) is a weighted sum of them.

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
from .mesh import Mesh

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
    y = mesh.nodes[mesh.triangles][:, :, 1]
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


def affine_blocks(mesh: Mesh) -> _AffineBlocks:
    """The mesh's affine blocks, built on first use and cached on the mesh."""
    if mesh.affine_blocks is not None:
        return mesh.affine_blocks
    n, tris = mesh.dof_count, mesh.triangles
    keys = (np.repeat(tris, 3, axis=1) * n + np.tile(tris, (1, 3))).ravel()
    pattern, slot = np.unique(keys, return_inverse=True)
    slot = slot.reshape(len(tris), 9)
    del keys
    halves = []
    for sel in (mesh.tri_upper, ~mesh.tri_upper):
        area, grads = _triangle_geometry(mesh.nodes, tris[sel])
        gx, gy = grads[:, :, 0], grads[:, :, 1]
        slots, where = _on_slots(slot[sel].ravel(), len(pattern))
        E = np.empty((4, len(slots)))
        for q, (f, g) in enumerate(((gx, gx), (gx, gy), (gy, gy))):
            local = f[:, :, None] * g[:, None, :]
            if f is not g:  # the mixed block is E12 + E21
                local = local + local.transpose(0, 2, 1)
            E[q] = np.bincount(where, (area[:, None, None] * local).ravel(), len(slots))
        E[3] = np.bincount(where, (area[:, None, None] * _MASS_PATTERN).ravel(), len(slots))
        halves.append((slots, E))
    edges = []
    for s in range(4):
        ends = mesh.bedge_nodes[mesh.bedge_side == s]
        lengths = np.linalg.norm(mesh.nodes[ends[:, 1]] - mesh.nodes[ends[:, 0]], axis=1)
        keys = (np.repeat(ends, 2, axis=1) * n + np.tile(ends, (1, 2))).ravel()
        slots, where = _on_slots(np.searchsorted(pattern, keys), len(pattern))
        local = lengths[:, None, None] * _EDGE_PATTERN
        edges.append((slots, np.bincount(where, local.ravel(), len(slots))))
    indptr = np.searchsorted(pattern, np.arange(n + 1) * n).astype(np.int32)
    indices = (pattern % n).astype(np.int32)
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
