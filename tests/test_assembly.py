import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg as dla

from quadrobin import assembly
from quadrobin.assembly import BoundaryLayerWarning, assemble_direct, assemble_transformed
from quadrobin.certificates import l_value
from quadrobin.coefficients import coefficient_values
from quadrobin.errors import ContractError, DomainError
from quadrobin.geometry import QuadParams, perimeter
from quadrobin.mesh import build_mesh
from quadrobin.oracles import assemble_plain_mass, plain_coefficient_values
from quadrobin.solver import rayleigh, solve_lowest, solve_quad

from conftest import random_params


def test_square_reduces_to_plain_robin(meshes):
    p = QuadParams.square()
    mesh = meshes(8)
    for alpha in (-1.0, -0.25):
        trans = assemble_transformed(p, alpha, mesh)
        direct = assemble_direct(p, alpha, mesh)
        plain = assemble_plain_mass(p, alpha, mesh)
        for a, b in ((trans, direct), (trans, plain)):
            dk = (a.stiffness_plus_boundary - b.stiffness_plus_boundary).toarray()
            dm = (a.mass - b.mass).toarray()
            assert np.abs(dk).max() <= 1e-14
            assert np.abs(dm).max() <= 1e-14


def test_transported_matches_direct_entrywise(rng, meshes):
    mesh = meshes(8)
    for p in random_params(rng, 5):
        trans = assemble_transformed(p, -1.0, mesh)
        direct = assemble_direct(p, -1.0, mesh)
        dk = (trans.stiffness_plus_boundary - direct.stiffness_plus_boundary).toarray()
        dm = (trans.mass - direct.mass).toarray()
        scale = np.abs(direct.stiffness_plus_boundary.toarray()).max()
        assert np.abs(dk).max() <= 1e-13 * scale
        assert np.abs(dm).max() <= 1e-14


def test_pullback_matrices_special_cases():
    # equal-split member with c != c0: plain matrices diag(S/c^2, c^2/S)
    p = QuadParams(0.0, 0.0, 1.7, 1.0, 1.0)
    plain = plain_coefficient_values(p)
    # (G11, G12, G22) of the upper half at indices 0-2, of the lower at 6-8
    Gu, Gl = plain[[0, 1, 2]], plain[[6, 7, 8]]
    expected = [1.0 / 1.7**2, 0.0, 1.7**2]
    assert np.allclose(Gu, expected, rtol=1e-14)
    assert np.allclose(Gl, expected, rtol=1e-14)
    # transported version carries the (Sj/S) = 1 weight: identical here
    Gu_t = coefficient_values(p)[[0, 1, 2]]
    assert np.allclose(Gu_t, expected, rtol=1e-14)
    # at the square both reduce to the identity
    square = coefficient_values(QuadParams.square())
    Gu_s, Gl_s = square[[0, 1, 2]], square[[6, 7, 8]]
    assert np.allclose(Gu_s, [1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(Gl_s, [1.0, 0.0, 1.0], atol=1e-15)


def test_boundary_weights_scalings():
    p = QuadParams.square(1.0)
    edge = [4, 5, 10, 11]  # the edge ratios' indices in the coefficient vector
    assert np.allclose(-2.0 * coefficient_values(p)[edge], -2.0, rtol=1e-14)
    p2 = QuadParams(0.5, -0.25, 1.2, 0.8)
    w_plain = -1.0 * plain_coefficient_values(p2)[edge]
    # plain-mass weights sum against edge lengths to alpha S l(p) / |ref edge|
    total = w_plain.sum()
    expected = -1.0 * p2.S * l_value(p2) / math.sqrt(2.0 * p2.S)
    assert total == pytest.approx(expected, rel=1e-13)


def test_matrices_symmetric_and_mass_positive(rng, meshes):
    mesh = meshes(6)
    for p in random_params(rng, 3):
        sys = assemble_transformed(p, -0.5, mesh)
        K = sys.stiffness_plus_boundary.toarray()
        M = sys.mass.toarray()
        assert np.abs(K - K.T).max() <= 1e-14 * max(1.0, np.abs(K).max())
        assert np.abs(M - M.T).max() <= 1e-14
        dla.cholesky(M)  # positive definite
        assert rayleigh(sys, np.ones(sys.dof_count)) < 0.0  # alpha < 0


def test_mass_row_sums_total_2S(rng, meshes):
    for S in (1.0, 2.0):
        mesh = build_mesh(6, S)
        for p in random_params(rng, 2, S=S):
            for assemble in (assemble_transformed, assemble_direct, assemble_plain_mass):
                sys = assemble(p, -1.0, mesh)
                assert sys.mass.sum() == pytest.approx(2.0 * S, rel=1e-12)


def test_all_ones_rayleigh_on_plain_mass_form(rng, meshes):
    mesh = meshes(6)
    for p in random_params(rng, 10):
        for alpha in (-0.5, -2.0):
            sys = assemble_plain_mass(p, alpha, mesh)
            value = rayleigh(sys, np.ones(sys.dof_count))
            assert value == pytest.approx(0.5 * alpha * l_value(p), rel=1e-12)


def test_all_ones_rayleigh_on_physical_form_is_perimeter_ratio(rng, meshes):
    # direct assembly with the constant vector: alpha |boundary| / area
    mesh = meshes(6)
    for p in random_params(rng, 5):
        sys = assemble_direct(p, -1.0, mesh)
        value = rayleigh(sys, np.ones(sys.dof_count))
        assert value == pytest.approx(-perimeter(p) / (2.0 * p.S), rel=1e-12)


def test_pushed_forward_boundary_length_matches_closed_form(rng, meshes):
    mesh = meshes(6)
    ones = np.ones(mesh.dof_count)
    for p in random_params(rng, 5):
        with_boundary = assemble_direct(p, 1.0, mesh).stiffness_plus_boundary
        without = assemble_direct(p, 1e-30, mesh).stiffness_plus_boundary
        boundary_mass = (with_boundary - without).toarray()
        assert ones @ boundary_mass @ ones == pytest.approx(perimeter(p), rel=1e-12)


def test_lowest_eigenvalue_transformed_equals_direct(rng, meshes):
    mesh = meshes(12)
    for p in random_params(rng, 3):
        lam_t = solve_quad(p, -1.0, mesh, form="transformed").lambda_h
        lam_d = solve_quad(p, -1.0, mesh, form="direct").lambda_h
        assert abs(lam_t - lam_d) <= 1e-10 * abs(lam_d)


def test_plain_mass_form_is_a_different_pencil_off_balance(meshes):
    # the plain-mass normalisation hides a weight jump across y = 0; away
    # from S1 = S its lowest eigenvalue differs from the true one, on either side
    mesh = meshes(12)

    def lam_plain(p):
        return solve_lowest(assemble_plain_mass(p, -1.0, mesh)).lambda_h

    p = QuadParams(0.3, -0.2, 1.3, 0.55)
    lam_true = solve_quad(p, -1.0, mesh, form="direct").lambda_h
    assert lam_plain(p) < lam_true - 0.05 * abs(lam_true)
    p_above = QuadParams(0.0, -0.13, 0.74, 0.75)
    lam_true = solve_quad(p_above, -1.0, mesh, form="direct").lambda_h
    assert lam_plain(p_above) > lam_true + 1e-3 * abs(lam_true)
    # ... but coincides on the S1 = S slice
    p_bal = QuadParams(0.4, -0.8, 1.5, 1.0)
    lam_true = solve_quad(p_bal, -1.0, mesh, form="direct").lambda_h
    assert abs(lam_plain(p_bal) - lam_true) <= 1e-12 * abs(lam_true)


def test_mesh_parameter_mismatch_raises(meshes):
    with pytest.raises(ContractError):
        assemble_transformed(QuadParams.square(2.0), -1.0, meshes(4))


def test_boundary_layer_warning(meshes):
    with pytest.warns(BoundaryLayerWarning):
        assemble_transformed(QuadParams.square(), -40.0, meshes(8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assemble_transformed(QuadParams.square(), -1.0, meshes(8))


@pytest.mark.parametrize("assemble", [assemble_transformed, assemble_direct])
def test_boundary_layer_warning_names_the_callers_line(assemble, meshes):
    with pytest.warns(BoundaryLayerWarning) as caught:
        assemble(QuadParams.square(), -40.0, meshes(8))
    assert [w.filename for w in caught] == [__file__]


def test_solve_quad_warns_only_about_the_callers_mesh(meshes):
    # mesh 32 is above the dense level, so a level-8 companion anchors the
    # shift; its boundary layer is not the caller's to resolve
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_quad(QuadParams.square(), -24.0, meshes(32))
    assert len(caught) == 1
    assert issubclass(caught[0].category, BoundaryLayerWarning)
    assert "h=0.0442 " in str(caught[0].message)


@pytest.mark.parametrize("form", ["transformed", "direct"])
def test_solve_quad_warning_names_its_callers_line(form):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_quad(QuadParams.square(), -24.0, 32, form=form)
    assert [w.filename for w in caught] == [__file__]


def test_split_scan_runs_once_per_mesh_and_rejects_a_crossing(monkeypatch):
    mesh = dataclasses.replace(build_mesh(4))  # a fresh, never scanned copy
    upper = mesh.triangles[mesh.tri_upper]
    node = next(k for k in upper.ravel() if mesh.nodes[k, 1] > 0.0)
    nodes = mesh.nodes.copy()
    nodes[node, 1] = -nodes[node, 1]  # across y = 0
    moved = dataclasses.replace(mesh, nodes=nodes)
    with pytest.raises(ContractError):
        assemble_transformed(QuadParams.square(), -1.0, moved)
    with pytest.raises(ContractError):  # the cached verdict keeps rejecting
        assemble_direct(QuadParams.square(), -1.0, moved)

    scans = []
    scan = assembly._respects_split
    monkeypatch.setattr(assembly, "_respects_split", lambda m: scans.append(m) or scan(m))
    assemble_transformed(QuadParams.square(), -1.0, mesh)
    assemble_transformed(QuadParams(0.3, -0.2, 1.3, 0.55), -2.0, mesh)
    assemble_direct(QuadParams.square(), -1.0, mesh)
    assert scans == [mesh]
    with pytest.raises(ContractError):  # the S check still runs on every call
        assemble_transformed(QuadParams.square(2.0), -1.0, mesh)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_alpha_is_a_domain_error_before_any_warning(alpha, meshes):
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryLayerWarning)
        for n in (8, 16):  # the dense level and the sparse path above it
            with pytest.raises(DomainError, match="alpha must be finite"):
                solve_quad(QuadParams.square(), alpha, meshes(n))
        with pytest.raises(DomainError, match="alpha must be finite"):
            assemble_direct(QuadParams.square(), alpha, meshes(8))
