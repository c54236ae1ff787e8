import itertools
import json

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import random_params
from quadrobin.assembly import assemble_transformed
from quadrobin.cli import main
from quadrobin.coefficients import PARAMS, coefficient_values, first_tables, second_tables
from quadrobin.errors import ConditioningError, ContractError, DomainError, EigenSolveError
from quadrobin.geometry import QuadParams
from quadrobin.mesh import refine_mesh
from quadrobin.oracles import quadrature_norms, symmetry_permutation
from quadrobin.sensitivity import (
    SensitivityReport,
    Workspace,
    fd_gradient,
    hessian_at_square_closed_form,
    sensitivity_report,
    verify_local_max,
)
from quadrobin.solver import EigenState, solve_quad
from quadrobin.square_exact import solve_square
GENERIC = QuadParams(0.3, -0.1, 1.2, 0.9)
# ---------------------------------------------------------------------------
# coefficient tables
def test_first_tables_match_hand_derivatives_at_square():
    p = QuadParams.square(1.0)
    tab = first_tables(p)
    # coefficient indices: G (G11, G12, G22) upper 0-2, lower 6-8; mass 3, 9; edges 4, 5, 10, 11
    # d/da1 of the upper matrix [[S1/c^2 + a1^2/S1, -a1 c/S1], [., c^2/S1]]
    assert np.allclose(tab[[0, 1, 2], 0], [0.0, -1.0, 0.0], atol=1e-15)
    assert np.allclose(tab[[6, 7, 8], 0], 0.0, atol=1e-15)
    # d/dc: upper = lower = diag(-2S/c^3 ..., 2c/Sj) = diag(-2, 2) at the square
    assert np.allclose(tab[[0, 1, 2], 2], [-2.0, 0.0, 2.0], atol=1e-15)
    assert np.allclose(tab[[6, 7, 8], 2], [-2.0, 0.0, 2.0], atol=1e-15)
    # d/dS1: upper diag(1/c^2 - a^2/S1^2, -c^2/S1^2) = diag(1, -1); lower flips
    assert np.allclose(tab[[0, 1, 2], 3], [1.0, 0.0, -1.0], atol=1e-15)
    assert np.allclose(tab[[6, 7, 8], 3], [-1.0, 0.0, 1.0], atol=1e-15)
    # mass weights move only along S1
    assert np.allclose(tab[[3, 9], 3], [1.0, -1.0], atol=1e-15)
    for i in (0, 1, 2):
        assert np.allclose(tab[[3, 9], i], 0.0, atol=1e-15)
    # the edge-ratio derivative in c vanishes at the square (S^2/c^3 = c)
    assert np.allclose(tab[[4, 5, 10, 11], 2], 0.0, atol=1e-15)
def test_tables_match_finite_differences_of_coefficients(rng):
    p = GENERIC
    h = 1e-6
    G_upper, G_lower, edge = [0, 1, 2], [6, 7, 8], [4, 5, 10, 11]
    tab1 = first_tables(p)
    for k, v in enumerate(PARAMS):
        up = QuadParams(**{**p.to_dict(), v: getattr(p, v) + h})
        dn = QuadParams(**{**p.to_dict(), v: getattr(p, v) - h})
        fd_Gu = (coefficient_values(up)[G_upper] - coefficient_values(dn)[G_upper]) / (2 * h)
        fd_Gl = (coefficient_values(up)[G_lower] - coefficient_values(dn)[G_lower]) / (2 * h)
        assert np.allclose(tab1[G_upper, k], fd_Gu, atol=1e-7)
        assert np.allclose(tab1[G_lower, k], fd_Gl, atol=1e-7)
        fd_edge = (
            coefficient_values(up)[edge] - coefficient_values(dn)[edge]
        ) / (2 * h)
        assert np.allclose(tab1[edge, k], fd_edge, atol=1e-7)
    # one second-derivative spot check: d2/dc2 of the edge ratios
    tab2 = second_tables(p)
    up = QuadParams(**{**p.to_dict(), "c": p.c + h})
    dn = QuadParams(**{**p.to_dict(), "c": p.c - h})
    fd2 = (
        coefficient_values(up)[edge]
        - 2 * coefficient_values(p)[edge]
        + coefficient_values(dn)[edge]
    ) / h**2
    assert np.allclose(tab2[edge, 2, 2], fd2, atol=1e-3)
def test_second_tables_are_pair_symmetric():
    tab = second_tables(GENERIC)
    assert np.array_equal(tab, tab.transpose(0, 2, 1))
# ---------------------------------------------------------------------------
# first derivatives
def test_gradient_vanishes_at_the_square(meshes):
    for n in (16, 32):
        grad = Workspace(solve_quad(QuadParams.square(), -1.0, meshes(n))).gradient()
        assert np.abs(grad).max() <= 1e-9
def test_first_derivative_matches_fd(meshes):
    mesh = meshes(32)
    state = solve_quad(GENERIC, -1.0, mesh)
    fd = fd_gradient(GENERIC, -1.0, mesh)
    for k, v in enumerate(PARAMS):
        closed = Workspace(state).first(v)
        assert abs(closed - fd[k]) <= 1e-5 * max(1.0, abs(fd[k]))
def test_first_derivative_reflection_antisymmetry(meshes):
    mesh = meshes(16)
    p = QuadParams(0.4, 0.2, 1.1, 1.0)
    mirrored = QuadParams(-0.4, -0.2, 1.1, 1.0)
    d1 = Workspace(solve_quad(p, -1.0, mesh)).first("a1")
    d2 = Workspace(solve_quad(mirrored, -1.0, mesh)).first("a1")
    assert d1 == pytest.approx(-d2, rel=1e-9)
# ---------------------------------------------------------------------------
# eigenvector derivatives
def test_eigenvector_derivative_symmetries_at_square(meshes):
    mesh = meshes(16)
    state = solve_quad(QuadParams.square(), -1.0, mesh)
    ws = Workspace(state)
    scale = ws.psi.max()
    perm_x = symmetry_permutation(mesh, "x")
    perm_y = symmetry_permutation(mesh, "y")
    psi_c = ws.eigenvector_derivative("c")
    assert np.abs(psi_c[perm_x] - psi_c).max() <= 1e-10 * max(scale, np.abs(psi_c).max())
    assert np.abs(psi_c[perm_y] - psi_c).max() <= 1e-10 * max(scale, np.abs(psi_c).max())
    psi_s = ws.eigenvector_derivative("S1")
    assert np.abs(psi_s[perm_x] - psi_s).max() <= 1e-10 * max(scale, np.abs(psi_s).max())
def test_eigenvector_derivative_directional_consistency(meshes):
    mesh = meshes(16)
    state = solve_quad(GENERIC, -1.0, mesh)
    psi = state.psi_h
    psi_c = Workspace(state).eigenvector_derivative("c")
    def perturbed_eigvec(t):
        q = QuadParams(GENERIC.a1, GENERIC.a2, GENERIC.c + t, GENERIC.S1)
        v = solve_quad(q, -1.0, mesh).psi_h
        return v if v @ psi > 0 else -v
    errs = []
    for t in (2e-3, 1e-3):
        approx = (perturbed_eigvec(t) - psi) / t
        errs.append(np.linalg.norm(approx - psi_c))
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.5)  # first-order accurate
    assert errs[1] <= 0.05 * np.linalg.norm(psi_c)
def test_eigenvector_derivative_mass_constraint(meshes):
    mesh = meshes(16)
    ws = Workspace(solve_quad(GENERIC, -1.0, mesh))
    M = ws.M
    for v in PARAMS:
        psi_v = ws.eigenvector_derivative(v)
        Mv = ws.mass_derivative(v)
        expected = 0.0 if Mv is None else -0.5 * float(ws.psi @ (Mv @ ws.psi))
        assert float(ws.psi @ (M @ psi_v)) == pytest.approx(expected, abs=1e-11)
def _assembled_first(ws, v):
    """d lambda / dv from the assembled derivative matrices."""
    psi = ws.psi
    value = float(psi @ (ws.stiffness_derivative(v) @ psi))
    Mv = ws.mass_derivative(v)
    if Mv is not None:
        value -= ws.lam * float(psi @ (Mv @ psi))
    return value


def _bordered_reference(ws):
    """psi^v in every direction from the bordered system
    [[K - lambda M, M psi], [psi^T M, 0]] [psi^v; mu] = [rhs; -1/2 psi^T M^v psi],
    factorised by SuperLU with its default (COLAMD, partial pivoting) options."""
    psi = ws.psi
    Mpsi = ws.M @ psi
    lu = spla.splu(
        sp.bmat([[ws.K - ws.lam * ws.M, Mpsi[:, None]], [Mpsi[None, :], None]], format="csc")
    )
    out = {}
    for v in PARAMS:
        rhs = -(ws.stiffness_derivative(v) @ psi) + _assembled_first(ws, v) * Mpsi
        constraint = 0.0
        Mv = ws.mass_derivative(v)
        if Mv is not None:
            rhs += ws.lam * (Mv @ psi)
            constraint = -0.5 * float(psi @ (Mv @ psi))
        out[v] = lu.solve(np.concatenate([rhs, [constraint]]))[:-1]
    return out


def _reference_hessian(ws, psi_v):
    """The Hessian formula of the module docstring, with the given psi^v."""
    psi = ws.psi
    H = np.empty((4, 4))
    for i, v1 in enumerate(PARAMS):
        effective = ws.stiffness_derivative(v1) @ psi
        Mv1 = ws.mass_derivative(v1)
        if Mv1 is not None:
            effective -= ws.lam * (Mv1 @ psi)
        for j in range(i, 4):
            v2 = PARAMS[j]
            value = float(psi @ (ws.stiffness_second_derivative(v1, v2) @ psi))
            if Mv1 is not None:
                value -= _assembled_first(ws, v2) * float(psi @ (Mv1 @ psi))
            value += 2.0 * float(psi_v[v2] @ effective)
            H[i, j] = H[j, i] = value
    return H


def _oracle_cases(rng):
    cases = []
    for n, count in ((16, 10), (32, 10)):
        for p in random_params(rng, count):
            cases.append((p, float(rng.uniform(-4.0, -0.25)), n))
    cases += [(QuadParams.square(), -1.0, 16), (QuadParams.square(), -1.0, 32)]
    # corner regime: the ground state concentrates at the sharpest corner
    for p in (QuadParams.square(), QuadParams(1.5, -1.0, 0.7, 0.6), QuadParams(-1.2, 0.8, 1.6, 1.3)):
        cases.append((p, -8.0, 32))
    # S != 1, alpha > 0 and a refine_mesh mesh
    cases += [(QuadParams(0.4, -0.3, 0.9, 0.5, 0.7), -3.0, 16),
              (QuadParams(-0.2, 0.5, 1.3, 1.4, 1.6), 2.5, "refined-8")]
    return cases


def test_nelson_derivatives_match_bordered_reference(rng, meshes):
    cases = _oracle_cases(rng)
    assert len(cases) >= 24
    assert any(p.S1 != p.S for p, _, _ in cases)
    for p, alpha, n in cases:
        mesh = refine_mesh(meshes(8, p.S)) if n == "refined-8" else meshes(n, p.S)
        ws = Workspace(solve_quad(p, alpha, mesh))
        first = [_assembled_first(ws, v) for v in PARAMS]
        assert np.abs(ws.gradient() - first).max() <= 1e-12 * max(1.0, abs(ws.lam))
        if p.is_square():
            # argmax |psi| is a 4-way tie between the corners
            top = np.abs(ws.psi)
            assert np.sum(top >= top.max() * (1.0 - 1e-9)) >= 4
        assert ws._reduced_lu().definite  # the reduced matrix is positive definite
        ref = _bordered_reference(ws)
        scale = max(np.abs(r).max() for r in ref.values())
        for v in PARAMS:
            assert np.abs(ws.eigenvector_derivative(v) - ref[v]).max() <= 1e-10 * scale, (p, alpha, n, v)
        H_ref = _reference_hessian(ws, ref)
        H = ws.hessian()
        assert np.abs(H - H_ref).max() <= 1e-10 * np.abs(H_ref).max(), (p, alpha, n)


def test_workspace_assembles_no_derivative_matrix_and_factorises_once(monkeypatch, meshes):
    import quadrobin.assembly as assembly
    import quadrobin.sensitivity as sensitivity
    import quadrobin.solver as solver

    state = solve_quad(GENERIC, -1.0, meshes(16))  # S1 != S: a mass derivative too
    calls = {"affine_combination": 0, "_factor": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as m:
        for module in (assembly, sensitivity):
            m.setattr(module, "affine_combination", counted("affine_combination", module.affine_combination))
        for module in (solver, sensitivity):
            m.setattr(module, "_factor", counted("_factor", module._factor))
        ws = Workspace(state)
        ws.gradient(), ws.hessian()
    assert calls == {"affine_combination": 0, "_factor": 1}


def test_inconsistent_eigenvector_fails_the_residual_check(rng, meshes):
    state = solve_quad(GENERIC, -1.0, meshes(16))
    psi = state.psi_h + 1e-3 * rng.standard_normal(len(state.psi_h))
    M = state.system.mass
    state.psi_h = psi / np.sqrt(psi @ (M @ psi))
    ws = Workspace(state)
    with pytest.raises(EigenSolveError) as info:
        ws.eigenvector_derivative("c")
    diagnostics = info.value.diagnostics
    assert "residual" in diagnostics and "residual" in str(info.value)
    assert diagnostics["index"] == int(np.argmax(np.abs(state.psi_h)))
    assert diagnostics["abs_psi_k"] == pytest.approx(np.abs(state.psi_h).max())


def test_tiny_gap_raises_conditioning_error(meshes):
    state = solve_quad(GENERIC, -1.0, meshes(8))
    state.gap_estimate = 1e-12
    with pytest.raises(ConditioningError):
        Workspace(state)


def test_reduced_matrix_of_a_higher_pair_raises_conditioning_error(meshes):
    # K - lambda_2 M has an eigenvalue lambda_1 - lambda_2 < 0, so its reduced
    # matrix is indefinite too (interlacing) and the band factor refuses it
    mesh = meshes(16)
    system = assemble_transformed(GENERIC, -1.0, mesh)
    K, M = system.stiffness_plus_boundary.toarray(), system.mass.toarray()
    vals, vecs = dla.eigh(K, M, subset_by_index=[0, 2])
    gap = float(vals[2] - vals[1])
    state = EigenState(GENERIC, -1.0, mesh, system, float(vals[1]), vecs[:, 1], 0.0, gap, "transformed")
    ws = Workspace(state)
    with pytest.raises(ConditioningError) as info:
        ws.eigenvector_derivative("a1")
    assert info.value.gap == gap
    assert info.value.diagnostics == {"index": int(np.argmax(np.abs(vecs[:, 1]))), "gap_estimate": gap}


def test_near_degenerate_corner_cluster_raises_conditioning_error(capsys):
    # at the square with alpha = -16 the four corner states nearly coincide and
    # Nelson's reduced solve amplifies psi's roundoff past its residual check
    with pytest.raises(ConditioningError) as info:
        verify_local_max(-16.0, 1.0, 32)
    diagnostics = info.value.diagnostics
    assert diagnostics["residual"] > 0.0 and diagnostics["direction"] in PARAMS
    assert diagnostics["gap_estimate"] == info.value.gap > 0.0
    # a ConditioningError is an EigenSolveError: the CLI exits 3 with the diagnostics
    assert main(["verify-theorem1", "--alpha", "-16", "--mesh", "32"]) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "numerical"
    assert error["diagnostics"]["gap_estimate"] == info.value.gap


def test_workspace_requires_transformed_form(meshes):
    state = solve_quad(GENERIC, -1.0, meshes(8), form="direct")
    with pytest.raises(ContractError):
        Workspace(state)
# ---------------------------------------------------------------------------
# second derivatives
def test_second_derivative_cross_terms_vanish_at_square(meshes):
    mesh = meshes(32)
    state = solve_quad(QuadParams.square(), -1.0, mesh)
    ws = Workspace(state)
    for v1, v2 in (("a1", "c"), ("a2", "c"), ("a1", "S1"), ("a2", "S1"), ("c", "S1")):
        assert abs(ws.second(v1, v2)) <= 1e-6
def test_second_derivative_mixed_partial_symmetry(meshes):
    mesh = meshes(16)
    state = solve_quad(GENERIC, -1.0, mesh)
    ws = Workspace(state)
    for v1, v2 in itertools.combinations_with_replacement(PARAMS, 2):
        forward = ws.second(v1, v2)
        backward = ws.second(v2, v1)
        assert abs(forward - backward) <= 1e-9 * max(1.0, abs(forward))
def test_hessian_matches_fd(meshes):
    mesh = meshes(24)
    H = Workspace(solve_quad(GENERIC, -1.0, mesh)).hessian()
    Hfd = pytest.importorskip("quadrobin.sensitivity").fd_hessian(GENERIC, -1.0, mesh)
    rel = np.abs(H - Hfd) / np.maximum(1.0, np.abs(Hfd))
    assert rel.max() <= 1e-2
def test_gram_form_positive_semidefinite(rng, meshes):
    ws = Workspace(solve_quad(GENERIC, -1.0, meshes(16)))
    for _ in range(100):
        f = rng.standard_normal(len(ws.psi))
        assert ws.gram(f, f) >= -1e-12 * np.dot(f, f)
def test_concavity_implication_at_square(meshes):
    # whenever the assembled second-derivative form is negative at the
    # eigenvector, the full second derivative is negative as well (the
    # eigenvector-relaxation correction can only push it down)
    mesh = meshes(16)
    for alpha in (-0.25, -1.0, -4.0):
        ws = Workspace(solve_quad(QuadParams.square(), alpha, mesh))
        for v in PARAMS:
            pure = float(ws.psi @ (ws.stiffness_second_derivative(v, v) @ ws.psi))
            full = ws.second(v, v)
            assert full <= pure + 1e-10
            if pure < 0.0:
                assert full < 0.0
# ---------------------------------------------------------------------------
# closed-form Hessian at the square
def test_closed_form_pure_parts_match_quadrature_norms(meshes):
    for alpha in (-0.25, -1.0):
        sq = hessian_at_square_closed_form(alpha, 1.0, meshes(8))
        qn = quadrature_norms(solve_square(alpha, 1.0))
        grad, trace = qn.grad, qn.edges.sum()
        S = 1.0
        assert sq.plain_form_pure["a"] == pytest.approx(
            grad / (2 * S) + alpha * trace / (8 * S), abs=1e-10
        )
        assert sq.plain_form_pure["c"] == pytest.approx(
            4 * grad / S + 2 * alpha * trace / S, abs=1e-10
        )
        assert sq.plain_form_pure["S1"] == pytest.approx(
            3 * grad / S**2 + 5 * alpha * trace / (4 * S**2), abs=1e-10
        )
        assert sq.pure_forms["S1"] == pytest.approx(
            grad / S**2 + alpha * trace / (4 * S**2), abs=1e-10
        )
def test_pure_form_signs_flip_at_large_alpha(meshes):
    mesh = meshes(8)
    small = hessian_at_square_closed_form(-0.25, 1.0, mesh)
    assert all(v < 0 for v in small.pure_forms.values())
    large = hessian_at_square_closed_form(-4.0, 1.0, mesh)
    # the a- and S1-coefficient parts turn positive for large |alpha| (their
    # trace deficit is below 1/2); the c-part stays negative; the Hessian
    # entries stay negative because the relaxation corrections dominate
    assert large.pure_forms["a"] > 0
    assert large.pure_forms["S1"] > 0
    assert large.pure_forms["c"] < 0
    assert np.all(np.diag(large.matrix) < 0)
def test_closed_form_hessian_close_to_discrete(meshes):
    mesh = meshes(24)
    closed = hessian_at_square_closed_form(-1.0, 1.0, mesh)
    discrete = Workspace(solve_quad(QuadParams.square(), -1.0, mesh)).hessian()
    assert np.allclose(closed.matrix, discrete, atol=2e-3)
    assert closed.matrix[0, 1] == pytest.approx(discrete[0, 1], abs=1e-9)
def test_closed_form_requires_negative_alpha(meshes):
    with pytest.raises(DomainError):
        hessian_at_square_closed_form(0.5, 1.0, meshes(8))
def test_verify_local_max(meshes):
    mesh = meshes(24)
    for alpha in (-0.25, -1.0, -4.0):
        verdict = verify_local_max(alpha, 1.0, mesh)
        assert verdict.negative_definite
        assert verdict.trace_condition and verdict.det_condition
        assert verdict.offblock_max <= 1e-6
        assert verdict.gram_cauchy_schwarz >= -1e-12
        assert np.abs(verdict.gradient).max() <= 1e-8
        assert verdict.verdict == "negative definite"
        data = verdict.to_dict()
        assert data["negative_definite"] is True
# ---------------------------------------------------------------------------
# reports
def test_sensitivity_report_methods_and_roundtrip(meshes):
    mesh = meshes(16)
    rep = sensitivity_report(GENERIC, -1.0, mesh, method="discrete_formula")
    again = SensitivityReport.from_json(rep.to_json())
    assert again.params == rep.params
    assert np.allclose(again.hessian, rep.hessian)
    rep_fd = sensitivity_report(GENERIC, -1.0, mesh, method="finite_difference")
    assert np.allclose(rep.gradient, rep_fd.gradient, atol=1e-4)
    closed = sensitivity_report(QuadParams.square(), -1.0, mesh, method="closed_form")
    assert np.all(closed.gradient == 0.0)
    assert closed.hessian[0, 2] == 0.0
    with pytest.raises(ContractError):
        sensitivity_report(GENERIC, -1.0, mesh, method="closed_form")
    with pytest.raises(ValueError):
        sensitivity_report(GENERIC, -1.0, mesh, method="nope")


def _two_workspace_local_max(alpha, S, mesh):
    """verify_local_max's former route: the closed form builds its own Workspace."""
    from quadrobin.sensitivity import _OFFBLOCK, LocalMaxVerdict

    closed = hessian_at_square_closed_form(alpha, S, mesh)
    ws = Workspace(solve_quad(QuadParams.square(S), alpha, mesh))
    discrete = ws.hessian()
    H = closed.matrix
    mu34 = np.linalg.eigvalsh(H[:2, :2])
    mu = np.array([H[2, 2], H[3, 3], mu34[0], mu34[1]])
    f1 = ws.eigenvector_derivative("a1")
    f2 = ws.eigenvector_derivative("a2")
    cs = ws.gram(f1, f1) * ws.gram(f2, f2) - ws.gram(f1, f2) ** 2
    return LocalMaxVerdict(
        alpha=alpha,
        S=S,
        mesh_level=mesh.refinement_level,
        hessian_closed=H,
        hessian_discrete=discrete,
        gradient=ws.gradient(),
        mu=mu,
        negative_definite=bool(np.all(mu < 0.0)),
        trace_condition=bool(mu34.sum() < 0.0),
        det_condition=bool(mu34.prod() > 0.0),
        offblock_max=float(max(abs(discrete[i, j]) for i, j in _OFFBLOCK)),
        gram_cauchy_schwarz=float(cs),
    )


def test_verify_local_max_solves_and_factorises_once(monkeypatch, meshes):
    import quadrobin.sensitivity as sensitivity

    calls = {"solve_quad": 0, "_reduced_lu": 0}
    solve, reduced_lu = sensitivity.solve_quad, Workspace._reduced_lu

    def counted_solve(*args, **kwargs):
        calls["solve_quad"] += 1
        return solve(*args, **kwargs)

    def counted_lu(self):
        if self._lu is None:
            calls["_reduced_lu"] += 1
        return reduced_lu(self)

    with monkeypatch.context() as m:
        m.setattr(sensitivity, "solve_quad", counted_solve)
        m.setattr(Workspace, "_reduced_lu", counted_lu)
        verdict = verify_local_max(-1, 1, 16)
    assert calls == {"solve_quad": 1, "_reduced_lu": 1}
    assert verdict.to_dict() == _two_workspace_local_max(-1, 1, meshes(16)).to_dict()
