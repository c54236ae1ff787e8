"""Acceptance suite: one test per exit criterion, with a printed verdict line.

Each test evaluates its criterion at the stated tolerance and prints
``ACCEPTANCE <k> PASS/FAIL: <summary>`` before asserting, so a plain pytest
run doubles as the acceptance report (run with -s to see the lines live).
"""

import math
import time

import numpy as np
import pytest

from quadrobin.certificates import (
    l_bound_chain,
    l_value,
    small_alpha_certificate,
    trial_one_certificate,
)
from quadrobin.geometry import QuadParams
from quadrobin.mesh import build_mesh
from quadrobin.oracles import (
    boundary_mass_matrices,
    directional_stiffness,
    quadrature_norms,
    symmetry_permutation,
)
from quadrobin.sensitivity import Workspace, hessian_at_square_closed_form, verify_local_max
from quadrobin.solver import solve_quad
from quadrobin.square_exact import g, g_inverse, solve_square

from conftest import random_params

SQUARE = QuadParams.square(1.0)


def _report(number: int, ok: bool, summary: str) -> None:
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {summary}")
    assert ok, f"criterion {number}: {summary}"


# ---------------------------------------------------------------------------


def test_criterion_1_exact_square_solver():
    start = time.monotonic()
    worst_root = 0.0
    worst_energy = 0.0
    for alpha in (-0.1, -1.0, -10.0):
        sol = solve_square(alpha, 1.0)
        x = -alpha * sol.L
        worst_root = max(worst_root, abs(g(g_inverse(x)) - x) / max(1.0, x))
        mismatch = sol.lambda1 - (sol.grad_norm_sq + alpha * sol.boundary_norm_sq)
        worst_energy = max(worst_energy, abs(mismatch))
    elapsed = time.monotonic() - start
    ok = worst_root <= 1e-13 and worst_energy <= 1e-9 and elapsed < 1.0
    _report(
        1,
        ok,
        f"root residual {worst_root:.2e} (<=1e-13), energy identity "
        f"{worst_energy:.2e} (<=1e-9), {elapsed:.2f}s (<1s)",
    )


def test_criterion_2_fem_convergence(meshes):
    start = time.monotonic()
    exact = solve_square(-1.0, 1.0).lambda1
    lams = [solve_quad(SQUARE, -1.0, meshes(n)).lambda_h for n in (16, 32, 64)]
    above = all(lam >= exact for lam in lams)
    order = math.log2((lams[0] - lams[1]) / (lams[1] - lams[2]))
    elapsed = time.monotonic() - start
    ok = above and 1.7 <= order <= 2.3 and elapsed < 30.0
    _report(
        2,
        ok,
        f"empirical order {order:.3f} (2.0 +- 0.3), upper bounds {above}, "
        f"errors {[f'{l - exact:.2e}' for l in lams]}, {elapsed:.1f}s (<30s)",
    )


def test_criterion_3_isospectrality(meshes):
    start = time.monotonic()
    rng = np.random.default_rng(314159)
    worst = 0.0
    mesh = meshes(32)
    for p in random_params(rng, 20, a_range=2.0):
        for alpha in (-0.5, -2.0):
            lam_t = solve_quad(p, alpha, mesh, form="transformed").lambda_h
            lam_d = solve_quad(p, alpha, mesh, form="direct").lambda_h
            worst = max(worst, abs(lam_t - lam_d) / abs(lam_t))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 120.0
    _report(
        3,
        ok,
        f"worst relative transformed-vs-direct mismatch {worst:.2e} (<=1e-10) "
        f"over 20 params x 2 alphas, {elapsed:.1f}s (<2min)",
    )


def test_criterion_4_first_derivatives_vanish_at_square(meshes):
    g32 = np.abs(Workspace(solve_quad(SQUARE, -1.0, meshes(32))).gradient()).max()
    g64 = np.abs(Workspace(solve_quad(SQUARE, -1.0, meshes(64))).gradient()).max()
    bound_ok = g64 <= 5e-5
    # the symmetric mesh makes the discrete gradient vanish to solver
    # precision at every level, so the O(h^2) shrink clause is vacuous:
    # accept either the stated ratio or both levels at the noise floor
    at_floor = max(g32, g64) <= 1e-9
    ratio = g32 / g64 if g64 > 0 else float("inf")
    ratio_ok = 3.5 <= ratio <= 4.5 or at_floor
    ok = bound_ok and ratio_ok
    _report(
        4,
        ok,
        f"max |dlambda/dv| at n=64: {g64:.2e} (<=5e-5); n=32: {g32:.2e}; "
        + ("both at solver noise floor (<=1e-9), shrink clause vacuous"
           if at_floor else f"shrink ratio {ratio:.2f}"),
    )


def test_criterion_5_local_max_pipeline(meshes):
    start = time.monotonic()
    mesh = meshes(64)
    all_ok = True
    notes = []
    for alpha in (-0.25, -1.0, -4.0):
        verdict = verify_local_max(alpha, 1.0, mesh)
        closed = hessian_at_square_closed_form(alpha, 1.0, mesh)
        qn = quadrature_norms(solve_square(alpha, 1.0))
        grad_n, trace_n = qn.grad, qn.edges.sum()
        formulas = {
            "a": grad_n / 2.0 + alpha * trace_n / 8.0,
            "c": 4.0 * grad_n + 2.0 * alpha * trace_n,
            "S1": 3.0 * grad_n + 1.25 * alpha * trace_n,
        }
        pure_ok = all(
            abs(closed.plain_form_pure[k] - formulas[k]) <= 1e-10 for k in formulas
        )
        ok = (
            verdict.offblock_max <= 1e-5
            and verdict.negative_definite
            and pure_ok
        )
        all_ok &= ok
        notes.append(
            f"alpha={alpha}: mu_max={verdict.mu.max():.3e} (margin "
            f"{-verdict.mu.max():.3e}), offblock={verdict.offblock_max:.1e}, "
            f"pure-forms-match={pure_ok}"
        )
    elapsed = time.monotonic() - start
    all_ok &= elapsed < 300.0
    _report(5, all_ok, "; ".join(notes) + f"; {elapsed:.0f}s (<5min)")


def test_criterion_6_derivative_oracles(meshes):
    mesh = meshes(64)
    rng = np.random.default_rng(271828)
    params = ("a1", "a2", "c", "S1")

    def fd_lambda(p, alpha):
        return solve_quad(p, alpha, mesh).lambda_h

    worst_grad = 0.0
    for p in random_params(rng, 20, a_range=1.5, c_range=(0.5, 2.0), s1_frac=(0.25, 0.75)):
        ws = Workspace(solve_quad(p, -1.0, mesh))
        for v in params:
            h = 1e-4 * max(1.0, abs(getattr(p, v)))
            up = QuadParams(**{**p.to_dict(), v: getattr(p, v) + h})
            dn = QuadParams(**{**p.to_dict(), v: getattr(p, v) - h})
            fd = (fd_lambda(up, -1.0) - fd_lambda(dn, -1.0)) / (2.0 * h)
            err = abs(ws.first(v) - fd) / max(1.0, abs(fd))
            worst_grad = max(worst_grad, err)
    grad_ok = worst_grad <= 1e-4

    worst_hess = 0.0
    for p in random_params(rng, 5, a_range=1.0, c_range=(0.6, 1.6), s1_frac=(0.3, 0.7)):
        ws = Workspace(solve_quad(p, -1.0, mesh))
        lam0 = ws.lam
        steps = {v: 5e-3 * max(1.0, abs(getattr(p, v))) for v in params}

        def shifted(pp, updates):
            data = pp.to_dict()
            for v, d in updates:
                data[v] = data[v] + d
            return QuadParams(**data)

        for i, v1 in enumerate(params):
            h1 = steps[v1]
            seq = [fd_lambda(shifted(p, [(v1, k * h1)]), -1.0) for k in (-2, -1, 1, 2)]
            fd = (-seq[3] + 16 * seq[2] - 30 * lam0 + 16 * seq[1] - seq[0]) / (12 * h1 * h1)
            err = abs(ws.second(v1, v1) - fd) / max(1.0, abs(fd))
            worst_hess = max(worst_hess, err)
            for v2 in params[i + 1:]:
                h2 = steps[v2]
                fd = (
                    fd_lambda(shifted(p, [(v1, h1), (v2, h2)]), -1.0)
                    - fd_lambda(shifted(p, [(v1, h1), (v2, -h2)]), -1.0)
                    - fd_lambda(shifted(p, [(v1, -h1), (v2, h2)]), -1.0)
                    + fd_lambda(shifted(p, [(v1, -h1), (v2, -h2)]), -1.0)
                ) / (4.0 * h1 * h2)
                err = abs(ws.second(v1, v2) - fd) / max(1.0, abs(fd))
                worst_hess = max(worst_hess, err)
    hess_ok = worst_hess <= 1e-2
    _report(
        6,
        grad_ok and hess_ok,
        f"gradient vs FD worst {worst_grad:.2e} (<=1e-4, 20 params); "
        f"Hessian vs FD worst {worst_hess:.2e} (<=1e-2, 5 params)",
    )


def test_criterion_7_certificate_soundness(meshes):
    start = time.monotonic()
    rng = np.random.default_rng(1618033)
    mesh64, mesh32 = meshes(64), meshes(32)
    alphas = (-0.02, -0.1, -0.5, -1.0, -2.0)
    square_cache = {}

    def square_pair(alpha):
        if alpha not in square_cache:
            square_cache[alpha] = (
                solve_quad(SQUARE, alpha, mesh64).lambda_h,
                solve_quad(SQUARE, alpha, mesh32).lambda_h,
            )
        return square_cache[alpha]

    confirmed = 0
    false_certs = 0
    kind_counts = {"small_alpha": 0, "trial_one": 0}
    min_margin_ratio = float("inf")
    while confirmed < 200:
        p = random_params(
            rng, 1, a_range=5.0, c_range=(0.3, 3.0), s1_frac=(0.08, 0.92)
        )[0]
        alpha = float(rng.choice(alphas))
        fired = [
            c
            for c in (small_alpha_certificate(p, alpha), trial_one_certificate(p, alpha))
            if c.certified
        ]
        if not fired:
            continue
        lam64 = solve_quad(p, alpha, mesh64).lambda_h
        lam32 = solve_quad(p, alpha, mesh32).lambda_h
        sq64, sq32 = square_pair(alpha)
        err_est = (abs(lam32 - lam64) + abs(sq32 - sq64)) / 3.0
        margin = sq64 - lam64
        for cert in fired:
            kind_counts[cert.kind] += 1
        confirmed += 1
        if margin <= 3.0 * err_est:
            false_certs += 1
        if err_est > 0:
            min_margin_ratio = min(min_margin_ratio, margin / (3.0 * err_est))
    elapsed = time.monotonic() - start
    ok = (
        false_certs == 0
        and min(kind_counts.values()) >= 20
        and elapsed < 600.0
    )
    _report(
        7,
        ok,
        f"200 certified cases ({kind_counts}); margin failures: {false_certs} "
        f"(0 required); min margin / (3 x Richardson est) = "
        f"{min_margin_ratio:.2f}; {elapsed:.0f}s (<10min)",
    )


def test_criterion_8_inequality_chain():
    rng = np.random.default_rng(141421)
    worst = -float("inf")
    for p in random_params(
        rng, 10_000, a_range=6.0, c_range=(0.05, 10.0), s1_frac=(0.02, 0.98)
    ):
        b1, b2, b3 = l_bound_chain(p)
        l = l_value(p)
        worst = max(worst, b1 - l, b2 - b1, b3 - b2)
    chain_ok = worst <= 1e-12
    b1, b2, b3 = l_bound_chain(SQUARE)
    lsq = l_value(SQUARE)
    eq = 4.0 * math.sqrt(2.0)
    square_ok = all(abs(v - eq) <= 1e-12 for v in (lsq, b1, b2, b3))
    _report(
        8,
        chain_ok and square_ok,
        f"worst chain violation {worst:.2e} (<=1e-12) over 10^4 params; "
        f"square values all 4*sqrt(2): {square_ok}",
    )


def test_criterion_9_local_max_sweeps(meshes):
    start = time.monotonic()
    mesh = meshes(32)
    c0 = 1.0
    axes = {
        "a1": np.linspace(-0.1 * c0, 0.1 * c0, 41),
        "a2": np.linspace(-0.1 * c0, 0.1 * c0, 41),
        "c": np.linspace(0.9 * c0, 1.1 * c0, 41),
        "S1": np.linspace(0.9, 1.1, 41),
    }
    all_ok = True
    notes = []
    for name, grid in axes.items():
        lams = []
        for value in grid:
            p = QuadParams(**{**SQUARE.to_dict(), name: float(value)})
            lams.append(solve_quad(p, -1.0, mesh).lambda_h)
        argmax = int(np.argmax(lams))
        all_ok &= argmax == 20
        notes.append(f"{name}: argmax at index {argmax} (expect 20)")
    elapsed = time.monotonic() - start
    all_ok &= elapsed < 180.0
    _report(9, all_ok, "; ".join(notes) + f"; {elapsed:.0f}s (<3min)")


def test_criterion_10_large_alpha_trend(meshes):
    start = time.monotonic()
    c = 1.2
    a = c - math.sqrt(3.0) / c
    q60 = QuadParams(a, a, c, 1.0)  # sharpest interior angle exactly 60 deg
    results = {}
    for alpha, n in ((-4.0, 64), (-8.0, 160)):
        assert build_mesh(n).h <= 0.15 / abs(alpha)
        lam_q = solve_quad(q60, alpha, meshes(n)).lambda_h
        lam_s = solve_quad(SQUARE, alpha, meshes(n)).lambda_h
        results[alpha] = (lam_q / -(alpha**2), lam_s / -(alpha**2), lam_q < lam_s)
    below = all(r[2] for r in results.values())
    toward4 = abs(results[-8.0][0] - 4.0) < abs(results[-4.0][0] - 4.0)
    toward2 = abs(results[-8.0][1] - 2.0) < abs(results[-4.0][1] - 2.0)
    elapsed = time.monotonic() - start
    ok = below and toward4 and toward2
    _report(
        10,
        ok,
        f"ratios lambda/(-alpha^2): quad {results[-4.0][0]:.4f} -> "
        f"{results[-8.0][0]:.4f} (toward 4: {toward4}), square "
        f"{results[-4.0][1]:.4f} -> {results[-8.0][1]:.4f} (toward 2: {toward2}), "
        f"quad below square: {below}; trend check only, {elapsed:.0f}s",
    )


def test_criterion_11_symmetry_suite(meshes):
    # exact eigenfunction by quadrature
    sol = solve_square(-1.0, 1.0)
    qn = quadrature_norms(sol)
    tol = 1e-10
    scale = max(1.0, qn.grad)
    exact_checks = [
        np.ptp(qn.edges) <= tol * max(1.0, qn.edges.max()),      # (III)
        abs(qn.d1_sq - qn.d2_sq) <= tol * scale,                 # (IV) equality
        abs(qn.d1_sq - 0.5 * qn.grad) <= tol * scale,            # (IV) halving
        abs(qn.d1d2_plus) <= tol * scale,                        # (V)
        abs(qn.d1d2_minus) <= tol * scale,                       # (VI)
        abs(qn.d1_sq_plus - 0.5 * qn.d1_sq) <= tol * scale,      # (VII)
        abs(qn.d2_sq_plus - 0.5 * qn.d2_sq) <= tol * scale,      # (VIII)
    ]
    # evenness (I), (II) pointwise on a sample grid
    from quadrobin.square_exact import eval_eigenfunction

    xs = np.linspace(-0.45, 0.45, 21)
    ys = np.linspace(-0.45, 0.45, 21)
    vals = eval_eigenfunction(sol, xs, ys)
    exact_checks.append(np.allclose(vals, eval_eigenfunction(sol, -xs, ys), atol=tol))
    exact_checks.append(np.allclose(vals, eval_eigenfunction(sol, xs, -ys), atol=tol))

    # discrete eigenvector on the symmetric mesh
    mesh = meshes(32)
    state = solve_quad(SQUARE, -1.0, mesh)
    psi = state.psi_h
    pmax = psi.max()
    d11 = psi @ (directional_stiffness(mesh, 1, 1) @ psi)
    d22 = psi @ (directional_stiffness(mesh, 2, 2) @ psi)
    d12p = psi @ (directional_stiffness(mesh, 1, 2, half="upper") @ psi)
    d12m = psi @ (directional_stiffness(mesh, 1, 2, half="lower") @ psi)
    d11p = psi @ (directional_stiffness(mesh, 1, 1, half="upper") @ psi)
    d11m = psi @ (directional_stiffness(mesh, 1, 1, half="lower") @ psi)
    d22p = psi @ (directional_stiffness(mesh, 2, 2, half="upper") @ psi)
    d22m = psi @ (directional_stiffness(mesh, 2, 2, half="lower") @ psi)
    edges = np.array([psi @ (B @ psi) for B in boundary_mass_matrices(mesh)])
    dscale = max(1.0, d11 + d22)
    discrete_checks = [
        np.abs(psi[symmetry_permutation(mesh, "x")] - psi).max() <= tol * pmax,  # (I)
        np.abs(psi[symmetry_permutation(mesh, "y")] - psi).max() <= tol * pmax,  # (II)
        np.ptp(edges) <= tol * max(1.0, edges.max()),                            # (III)
        abs(d11 - d22) <= tol * dscale,                                          # (IV)
        abs(d12p) <= tol * dscale,                                               # (V)
        abs(d12m) <= tol * dscale,                                               # (VI)
        abs(d11p - d11m) <= tol * dscale and abs(d11p - 0.5 * d11) <= tol * dscale,
        abs(d22p - d22m) <= tol * dscale and abs(d22p - 0.5 * d22) <= tol * dscale,
    ]
    ok = all(exact_checks) and all(discrete_checks)
    _report(
        11,
        ok,
        f"exact-by-quadrature checks: {sum(exact_checks)}/9 passed; "
        f"discrete-eigenvector checks: {sum(discrete_checks)}/8 passed (tol 1e-10)",
    )
