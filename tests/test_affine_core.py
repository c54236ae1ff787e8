"""The affine block core: derivative matrices and the shared CSR pattern."""

import numpy as np
import pytest

from quadrobin import assembly
from quadrobin.assembly import (
    affine_blocks,
    affine_combination,
    affine_images,
    assemble_transformed,
)
from quadrobin.coefficients import PARAMS
from quadrobin.geometry import QuadParams
from quadrobin.mesh import build_mesh, refine_mesh
from quadrobin.oracles import directional_stiffness
from quadrobin.sensitivity import Workspace
from quadrobin.solver import solve_quad

POINT = QuadParams(0.35, -0.2, 1.15, 0.85)
ALPHA = -1.3


def _K(mesh, **shift):
    p = QuadParams(**{**POINT.to_dict(), **{v: getattr(POINT, v) + h for v, h in shift.items()}})
    return assemble_transformed(p, ALPHA, mesh).stiffness_plus_boundary.toarray()


def _M(mesh, S1):
    p = QuadParams(**{**POINT.to_dict(), "S1": S1})
    return assemble_transformed(p, ALPHA, mesh).mass.toarray()


def _assert_close(got, expected, rtol):
    assert np.abs(got.toarray() - expected).max() <= rtol * np.abs(expected).max()


def test_derivative_matrices_match_central_differences():
    mesh = build_mesh(8)
    ws = Workspace(solve_quad(POINT, ALPHA, mesh))
    h = 1e-5
    for v in PARAMS:
        fd = (_K(mesh, **{v: h}) - _K(mesh, **{v: -h})) / (2 * h)
        _assert_close(ws.stiffness_derivative(v), fd, 1e-8)

    h = 1e-4
    fd = (
        _K(mesh, a1=h, c=h) - _K(mesh, a1=h, c=-h) - _K(mesh, a1=-h, c=h) + _K(mesh, a1=-h, c=-h)
    ) / (4 * h * h)
    _assert_close(ws.stiffness_second_derivative("a1", "c"), fd, 1e-6)
    fd = (_K(mesh, S1=h) - 2 * _K(mesh) + _K(mesh, S1=-h)) / (h * h)
    _assert_close(ws.stiffness_second_derivative("S1", "S1"), fd, 1e-6)

    h = 1e-5
    fd = (_M(mesh, POINT.S1 + h) - _M(mesh, POINT.S1 - h)) / (2 * h)
    _assert_close(ws.mass_derivative("S1"), fd, 1e-9)
    assert all(ws.mass_derivative(v) is None for v in ("a1", "a2", "c"))

    # one pattern for the pencil and every derivative matrix
    matrices = [ws.K, ws.M, ws.mass_derivative("S1"), ws.stiffness_second_derivative("c", "S1")]
    matrices += [ws.stiffness_derivative(v) for v in PARAMS]
    for A in matrices:
        assert np.shares_memory(A.indices, ws.K.indices)
        assert np.shares_memory(A.indptr, ws.K.indptr)

    # a second assembly on the same mesh reuses the cached blocks
    blocks = affine_blocks(mesh)
    again = assemble_transformed(QuadParams(-0.4, 0.5, 0.9, 1.2), -0.5, mesh)
    assert affine_blocks(mesh) is blocks
    assert np.shares_memory(again.stiffness_plus_boundary.indices, blocks.indices)


@pytest.mark.parametrize("mesh", [build_mesh(6, 0.37), refine_mesh(build_mesh(4))])
def test_each_coefficient_weights_its_own_block(mesh):
    """Coefficient 6j + r of the vector selects the block that ``coefficients``
    documents, checked against forms assembled without the affine blocks."""
    n, nodes = mesh.dof_count, mesh.nodes
    for j, half in enumerate(("upper", "lower")):
        tris = mesh.triangles[mesh.tri_upper if j == 0 else ~mesh.tri_upper]
        reference = [
            directional_stiffness(mesh, 1, 1, half),
            2 * directional_stiffness(mesh, 1, 2, half),
            directional_stiffness(mesh, 2, 2, half),
            assembly._mass_from(nodes, tris, n, np.ones(len(tris))),
        ]
        for s in (2 * j, 2 * j + 1):  # the legs' edge labels, EDGE_IDS order
            ends = mesh.bedge_nodes[mesh.bedge_side == s]
            reference.append(assembly._boundary_from(nodes, ends, n, np.ones(len(ends))))
        for r, expected in enumerate(reference):
            got = affine_combination(mesh, np.eye(12)[6 * j + r])
            _assert_close(got, expected.toarray(), 1e-13)


@pytest.mark.parametrize(
    "mesh", [build_mesh(12), build_mesh(6, 0.37), refine_mesh(build_mesh(5, 1.6))]
)
def test_affine_images_are_the_blocks_applied_to_a_vector(mesh):
    x = np.random.default_rng(3).standard_normal(mesh.dof_count)
    Y = affine_images(mesh, x)
    assert Y.shape == (12, mesh.dof_count)
    for b in range(12):
        block = affine_combination(mesh, np.eye(12)[b])
        row_scale = (abs(block) @ np.abs(x)).max()
        assert np.abs(Y[b] - block @ x).max() <= 1e-13 * row_scale, b
