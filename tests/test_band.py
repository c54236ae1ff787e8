"""The band factor: Cholesky of the centre-condensed pencil on build_mesh
meshes, checked against SuperLU and against the path every other mesh takes."""

import dataclasses

import numpy as np
import pytest

from quadrobin import solver
from quadrobin.assembly import assemble_direct, assemble_transformed
from quadrobin.geometry import QuadParams
from quadrobin.mesh import build_mesh, refine_mesh
from quadrobin.solver import _factor, _shifted, _symmetric_lu, safe_shift, solve_lowest, solve_quad

pytestmark = pytest.mark.filterwarnings("ignore::quadrobin.assembly.BoundaryLayerWarning")

_SHAPES = [(QuadParams(1.5, -0.5, 0.8, 0.6), -12.0), (QuadParams(0.3, -0.2, 1.3, 0.55, 1.4), -1.0)]


@pytest.mark.parametrize("n", [2, 3, 8, 16, 33])
def test_band_solves_match_superlu(n):
    rng = np.random.default_rng(n)
    for p, alpha in _SHAPES:
        for assemble in (assemble_transformed, assemble_direct):
            system = assemble(p, alpha, build_mesh(n, p.S))
            A = _shifted(system.stiffness_plus_boundary, system.mass, safe_shift(p, alpha))
            band, lu = _factor(A, build_mesh(n, p.S)), _symmetric_lu(A)
            assert band.kind == "band"
            B = rng.standard_normal((A.shape[0], 3))
            for b in (B, B[:, 0]):
                x = lu.solve(b)
                assert np.abs(band.solve(b) - x).max() <= 1e-12 * np.abs(x).max()


def test_direct_assembly_shares_the_stencil_pattern():
    # so the band maps, built from the affine blocks' pattern, serve both forms
    p = QuadParams(0.3, -0.2, 1.3, 0.55)
    for n in (2, 5, 16):
        mesh = build_mesh(n)
        K_t = assemble_transformed(p, -2.0, mesh).stiffness_plus_boundary
        K_d = assemble_direct(p, -2.0, mesh).stiffness_plus_boundary
        assert np.array_equal(K_t.indptr, K_d.indptr)
        assert np.array_equal(K_t.indices, K_d.indices)


@pytest.mark.parametrize("n", [64, 128])
def test_band_and_superlu_solves_agree(n):
    # a dataclasses.replace copy is not a build_mesh mesh, so it keeps SuperLU
    p, alpha = _SHAPES[0]
    mesh = build_mesh(n, p.S)
    band, copy = solve_quad(p, alpha, mesh), solve_quad(p, alpha, dataclasses.replace(mesh))
    assert abs(band.lambda_h - copy.lambda_h) <= 1e-12 * abs(copy.lambda_h)


def test_factor_kind_follows_the_mesh(monkeypatch):
    p, alpha = _SHAPES[1]

    def kind(mesh):
        system = assemble_transformed(p, alpha, mesh)
        return solve_lowest(system, shift=safe_shift(p, alpha)).factor

    assert kind(build_mesh(12, p.S)) == "band"
    assert kind(refine_mesh(build_mesh(6, p.S))) == "superlu"
    assert kind(dataclasses.replace(build_mesh(12, p.S))) == "superlu"
    monkeypatch.setattr(solver, "_BAND_MAX_LEVEL", 11)
    assert kind(build_mesh(11, p.S)) == "band"
    assert kind(build_mesh(12, p.S)) == "superlu"


def test_a_matrix_off_the_mesh_pattern_takes_superlu():
    p, alpha = _SHAPES[1]
    mesh = build_mesh(6, p.S)
    system = assemble_transformed(p, alpha, mesh)
    A = _shifted(system.stiffness_plus_boundary, system.mass, safe_shift(p, alpha)).copy()
    A.data[1] = 0.0
    A.eliminate_zeros()  # one entry fewer than the mesh's pattern
    assert _factor(A, mesh).kind == "superlu"
