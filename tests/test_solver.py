import math

import numpy as np
import pytest

import scipy.sparse as sp

from quadrobin import solver
from quadrobin.assembly import assemble_direct, assemble_transformed
from quadrobin.errors import ContractError, DomainError, EigenSolveError
from quadrobin.geometry import QuadParams
from quadrobin.mesh import build_mesh, refine_mesh
from quadrobin.oracles import assemble_plain_mass, directional_stiffness, symmetry_permutation
from quadrobin.solver import _shifted, rayleigh, safe_shift, solve_lowest, solve_quad
from quadrobin.square_exact import eval_eigenfunction, solve_square

from conftest import random_params


def test_square_eigenvalue_bounds_exact_from_above(meshes):
    exact = solve_square(-1.0, 1.0).lambda1
    state = solve_quad(QuadParams.square(), -1.0, meshes(32))
    assert state.lambda_h >= exact
    assert state.lambda_h == pytest.approx(exact, abs=5e-3)
    assert np.all(state.psi_h > 0)
    K = state.system.stiffness_plus_boundary
    norm_K = float(np.abs(K).sum(axis=1).max())
    assert state.residual <= 1e-10 * norm_K


def test_richardson_convergence_is_second_order(meshes):
    exact = solve_square(-1.0, 1.0).lambda1
    lams = [solve_quad(QuadParams.square(), -1.0, meshes(n)).lambda_h for n in (8, 16, 32)]
    assert all(l >= exact for l in lams)
    order = math.log2((lams[0] - lams[1]) / (lams[1] - lams[2]))
    assert 1.7 <= order <= 2.3


def test_monotone_under_nested_refinement():
    exact = solve_square(-1.0, 1.0).lambda1
    mesh = build_mesh(8)
    lam = solve_quad(QuadParams.square(), -1.0, mesh).lambda_h
    for _ in range(2):
        mesh = refine_mesh(mesh)
        lam_fine = solve_quad(QuadParams.square(), -1.0, mesh).lambda_h
        assert lam_fine <= lam + 1e-12
        assert lam_fine >= exact
        lam = lam_fine


def test_rayleigh_of_the_eigenvector_is_the_eigenvalue(meshes):
    p = QuadParams(0.4, -0.2, 1.3, 0.8)
    state = solve_quad(p, -0.5, meshes(16))
    assert rayleigh(state.system, state.psi_h) == pytest.approx(
        state.lambda_h, rel=1e-11
    )
    with pytest.raises(DomainError):
        rayleigh(state.system, np.zeros(state.system.dof_count))


def test_rayleigh_of_exact_interpolant_converges_second_order(meshes):
    sol = solve_square(-1.0, 1.0)
    exact = sol.lambda1
    errs = []
    for n in (8, 16, 32):
        mesh = meshes(n)
        sys = assemble_transformed(QuadParams.square(), -1.0, mesh)
        values = eval_eigenfunction(sol, mesh.nodes[:, 0], mesh.nodes[:, 1])
        errs.append(rayleigh(sys, values) - exact)
    assert all(e > 0 for e in errs)
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.0 <= coarse / fine <= 5.0


def test_eigenvector_inherits_square_symmetries(meshes):
    mesh = meshes(16)
    state = solve_quad(QuadParams.square(), -1.0, mesh)
    psi = state.psi_h
    for which in ("x", "y", "swap"):
        perm = symmetry_permutation(mesh, which)
        assert np.abs(psi[perm] - psi).max() <= 1e-10 * psi.max()
    d11 = directional_stiffness(mesh, 1, 1)
    d22 = directional_stiffness(mesh, 2, 2)
    assert psi @ (d11 @ psi) == pytest.approx(psi @ (d22 @ psi), rel=1e-12)


def test_gap_estimate_present(meshes):
    state = solve_quad(QuadParams.square(), -1.0, meshes(16))
    assert state.gap_estimate is not None
    assert state.gap_estimate > 0.5  # well-separated ground state


def test_unreachable_tolerance_raises_with_diagnostics(monkeypatch, meshes):
    monkeypatch.setattr(solver, "_TOL", 1e-30)
    with pytest.raises(EigenSolveError) as err:
        solve_quad(QuadParams.square(), -1.0, meshes(4))
    assert "residual" in err.value.diagnostics


def test_unknown_form_is_a_contract_error(meshes):
    with pytest.raises(ContractError, match="'transformed' or 'direct'"):
        solve_quad(QuadParams.square(), -1.0, meshes(4), form="plain")


def test_safe_shift_sits_below_the_eigenvalue(meshes):
    cases = [
        (QuadParams.square(), -1.0),
        (QuadParams(0.3, -0.2, 1.3, 0.55), -2.0),
        (QuadParams(-0.2434, -0.2434, 1.2, 1.0), -8.0),
    ]
    for p, alpha in cases:
        lam = solve_quad(p, alpha, meshes(16)).lambda_h
        assert safe_shift(p, alpha) < lam


def test_sharp_corner_ground_state_at_large_alpha(meshes):
    # 60-degree corner: ground state concentrates there; the solver must not
    # return the second corner state (ratio ~2.32 instead of ~4)
    c = 1.2
    a = c - math.sqrt(3.0) / c
    p = QuadParams(a, a, c, 1.0)
    state = solve_quad(p, -8.0, meshes(128))
    ratio = state.lambda_h / -64.0
    assert 3.9 <= ratio <= 4.05
    assert np.all(state.psi_h > -1e-8 * state.psi_h.max())


def test_isospectrality_quick(rng, meshes):
    mesh = meshes(16)
    for p in random_params(rng, 5):
        lam_t = solve_quad(p, -0.5, mesh, form="transformed").lambda_h
        lam_d = solve_quad(p, -0.5, mesh, form="direct").lambda_h
        assert abs(lam_t - lam_d) <= 1e-10 * abs(lam_t)


def test_solve_lowest_dense_and_sparse_agree():
    p = QuadParams(0.5, 0.1, 0.9, 1.2)
    lam_coarse_path = solve_quad(p, -1.5, build_mesh(24)).lambda_h  # sparse route
    sys = assemble_transformed(p, -1.5, build_mesh(24))
    pair = solve_lowest(sys, shift=safe_shift(p, -1.5))
    assert pair.lambda_h == pytest.approx(lam_coarse_path, rel=1e-12)


@pytest.mark.parametrize("assemble", [assemble_transformed, assemble_plain_mass, assemble_direct])
def test_shifted_matrix_is_the_sparse_difference(assemble):
    meshes = [build_mesh(16), build_mesh(12, 0.37), refine_mesh(build_mesh(8, 1.6))]
    for mesh in meshes:
        S = mesh.S
        # the square's right-angled cells give K exact zeros off the diagonal
        for p in (QuadParams.square(S), QuadParams(0.3, -0.2, 1.3 * math.sqrt(S), 0.55 * S, S)):
            system = assemble(p, -2.5, mesh)
            K, M = system.stiffness_plus_boundary, system.mass
            for s in (-7.25, 0.0, 3.5):
                got = _shifted(K, M, s)
                assert got.format == "csc"
                assert np.array_equal(got.toarray(), (K - s * M).tocsc().toarray())
    with pytest.raises(ContractError):
        _shifted(K, sp.identity(K.shape[0], format="csr"), 1.0)
