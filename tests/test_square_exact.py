import math

import numpy as np
import pytest

from quadrobin.errors import DomainError
from quadrobin.oracles import dlambda_dalpha_chain, quadrature_norms, zeta
from quadrobin.square_exact import (
    SquareSolution,
    eval_eigenfunction,
    f,
    f_inverse,
    g,
    g_inverse,
    solve_square,
)


def _bisect(func, lo, hi, iterations=200):
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if func(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# root finding


def test_g_inverse_at_zero():
    assert g_inverse(0.0) == 0.0


def test_g_inverse_roundtrip():
    for x in (0.1, 1.0, 10.0, 1000.0):
        assert abs(g(g_inverse(x)) - x) <= 1e-13 * max(1.0, x)


def test_g_inverse_large_argument():
    t = g_inverse(100.0)
    assert 100.0 <= t <= 100.0 + 1e-6  # tanh saturates: root just above x


def test_g_inverse_against_bisection_oracle():
    oracle = _bisect(lambda t: t * math.tanh(t) - 1.0 / math.sqrt(2.0), 0.0, 3.0)
    assert oracle == pytest.approx(0.95368508864256436, abs=1e-13)  # frozen
    assert g_inverse(1.0 / math.sqrt(2.0)) == pytest.approx(oracle, abs=1e-13)


def test_g_inverse_monotone():
    xs = np.linspace(0.0, 50.0, 400)
    ts = np.array([g_inverse(x) for x in xs])
    assert np.all(np.diff(ts) > 0)


def test_g_inverse_domain():
    with pytest.raises(DomainError):
        g_inverse(-1e-12)


def test_f_inverse_roundtrip():
    for x in (0.01, 1.0, 50.0):
        t = f_inverse(x)
        assert 0.0 < t < math.pi / 2
        assert abs(f(t) - x) <= 1e-13 * max(1.0, x)


def test_f_inverse_small_argument_taylor():
    x = 1e-8
    assert f_inverse(x) == pytest.approx(math.sqrt(x), rel=1e-4)


def test_f_inverse_against_bisection_oracle():
    oracle = _bisect(lambda t: t * math.tan(t) - 1.0, 1e-9, math.pi / 2 * (1 - 1e-12))
    assert oracle == pytest.approx(0.86033358901937976, abs=1e-13)  # frozen
    assert f_inverse(1.0) == pytest.approx(oracle, abs=1e-13)


def test_f_inverse_monotone_and_domain():
    xs = np.linspace(1e-3, 80.0, 300)
    ts = np.array([f_inverse(x) for x in xs])
    assert np.all(np.diff(ts) > 0)
    with pytest.raises(DomainError):
        f_inverse(0.0)
    with pytest.raises(DomainError):
        f_inverse(-1.0)


# ---------------------------------------------------------------------------
# the eigenpair


def test_solve_square_negative_branch_frozen_values():
    sol = solve_square(-1.0, 1.0)
    # root of t tanh t = 1/sqrt(2), eigenvalue -2 (t/L)^2 = -4 t^2
    assert sol.t_star == pytest.approx(0.95368508864256436, abs=1e-13)
    assert sol.lambda1 == pytest.approx(-4.0 * sol.t_star**2, rel=1e-15)
    assert sol.lambda1 == pytest.approx(-3.6380609931967, rel=1e-12)


def test_lambda_continuity_to_neumann():
    assert solve_square(-1e-9, 1.0).lambda1 == pytest.approx(0.0, abs=1e-8)
    assert solve_square(-1e-9, 1.0).lambda1 < 0.0


def test_lambda_monotone_in_alpha():
    assert solve_square(-2.0, 1.0).lambda1 < solve_square(-1.0, 1.0).lambda1 < 0.0


def test_positive_branch():
    sol = solve_square(2.5, 1.0)
    assert 0.0 < sol.t_star < math.pi / 2
    assert sol.lambda1 == pytest.approx(2.0 * (sol.t_star / sol.L) ** 2, rel=1e-15)
    mismatch = sol.lambda1 - (sol.grad_norm_sq + sol.alpha * sol.boundary_norm_sq)
    assert abs(mismatch) <= 1e-12 * abs(sol.lambda1)


def test_invalid_arguments():
    with pytest.raises(DomainError):
        solve_square(0.0, 1.0)
    with pytest.raises(DomainError):
        solve_square(-1.0, -2.0)


def test_overflowing_closed_forms_raise_domain_error():
    # alpha sqrt(S) near -500: sinh(2t) and cosh(t)^2 leave the double range
    sol = solve_square(-400.0, 1.0)
    assert all(math.isfinite(x) for x in (sol.lambda1, sol.grad_norm_sq, sol.boundary_norm_sq))
    for alpha in (-501.0, -600.0):
        with pytest.raises(DomainError):
            solve_square(alpha, 1.0)


def test_roots_beyond_double_precision_raise_domain_error():
    # above x ~ 2.6e16 every double t < pi/2 has t tan t < x: no root to return
    assert 0.0 < f_inverse(2e16) < math.pi / 2
    for x in (3e16, 1e17, 1e20, 1e300):
        with pytest.raises(DomainError):
            f_inverse(x)
    with pytest.raises(DomainError):
        solve_square(1e20)


@pytest.mark.parametrize("x", [1e4, 1e6, 1e9, 1e12])
def test_closed_forms_near_the_pole_match_a_60_digit_root(x):
    import mpmath as mp

    with mp.workdps(60):
        e = mp.findroot(lambda e: (mp.pi / 2 - e) * mp.cot(e) - x, mp.pi / (2 * (x + 1)))
        t = mp.pi / 2 - e
        # L = 1 at S = 2, so alpha L is x exactly; m = 1 + sin(2t) / (2t)
        boundary = 4 * mp.sin(e) ** 2 / (1 + mp.sin(2 * t) / (2 * t))
        lam = 2 * t**2
    sol = solve_square(x, 2.0)
    assert sol.L == 1.0
    assert abs(sol.boundary_norm_sq / float(boundary) - 1.0) <= 1e-12
    assert abs(sol.lambda1 / float(lam) - 1.0) <= 1e-15
    assert abs(sol.t_star - float(t)) <= 2.3e-16


@pytest.mark.parametrize("alpha", [s * a for a in (1e-300, 1e-20, 1e-12, 1e-8, 1e-6, 1e-4)
                                   for s in (-1.0, 1.0)]
                         + [1e-3, -1e-3, 1e-2, -1e-2, 0.1, -0.1, -0.5, 1.0, -1.0, 2.0, -4.0, -16.0])
def test_small_alpha_eigenvalue_matches_a_60_digit_root(alpha):
    mp = pytest.importorskip("mpmath")

    sol = solve_square(alpha)
    with mp.workdps(60):
        # t = sqrt(x) u, so the root is found to a relative accuracy; the
        # double root only starts the search
        x = abs(mp.mpf(alpha)) * mp.sqrt(mp.mpf(1) / 2)
        h = mp.tanh if alpha < 0.0 else mp.tan
        u = mp.findroot(lambda u: mp.sqrt(x) * u * h(mp.sqrt(x) * u) / x - 1,
                        mp.mpf(sol.t_star) / mp.sqrt(x))
        lam = (-4 if alpha < 0.0 else 4) * x * u**2  # +-2 (t / L)^2, L^2 = 1/2
    assert abs(sol.lambda1 / float(lam) - 1.0) <= 1e-15


def test_moderate_alpha_eigenvalues_keep_their_bits():
    # each within 2 ulps of the 60-digit root of the test above
    frozen = {
        -4.0: "-0x1.037774ce79dc1p+5",
        -1.0: "-0x1.d1abfb8d510a0p+1",
        1.0: "0x1.22c3116e4ec61p+1",
        2.0: "0x1.e17914d2cc052p+1",
    }
    for alpha, bits in frozen.items():
        assert solve_square(alpha).lambda1 == float.fromhex(bits)


def test_energy_identity_sweep():
    for alpha in np.concatenate([-np.logspace(-2, 1, 13)]):
        for S in (0.5, 1.0, 2.0):
            sol = solve_square(alpha, S)
            mismatch = sol.lambda1 - (sol.grad_norm_sq + alpha * sol.boundary_norm_sq)
            assert abs(mismatch) <= 1e-9


def test_scaling_identity():
    for k in (0.5, 2.0, 3.7):
        base = solve_square(-1.3, 1.0).lambda1
        scaled = solve_square(-1.3 * math.sqrt(k), 1.0 / k).lambda1
        assert scaled == pytest.approx(k * base, rel=1e-10)


def test_solution_json_roundtrip():
    sol = solve_square(-0.7, 2.0)
    again = SquareSolution.from_json(sol.to_json())
    assert again == sol


# ---------------------------------------------------------------------------
# eigenfunction evaluation


def test_eigenfunction_center_value_and_positivity():
    sol = solve_square(-1.0, 1.0)
    assert eval_eigenfunction(sol, 0.0, 0.0) == pytest.approx(sol.norm_const, rel=1e-15)
    xs = np.linspace(-0.4, 0.4, 7)
    assert np.all(eval_eigenfunction(sol, xs, xs * 0.3) > 0)


def test_eigenfunction_symmetries():
    sol = solve_square(-2.0, 1.0)
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.4, 0.4, 50)
    y = rng.uniform(-0.4, 0.4, 50)
    v = eval_eigenfunction(sol, x, y)
    assert np.allclose(v, eval_eigenfunction(sol, -x, y), rtol=1e-14)
    assert np.allclose(v, eval_eigenfunction(sol, x, -y), rtol=1e-14)


def test_eigenfunction_outside_domain_raises():
    sol = solve_square(-1.0, 1.0)
    with pytest.raises(DomainError):
        eval_eigenfunction(sol, 0.9, 0.9)


def test_normalisation_by_quadrature():
    for alpha in (-0.1, -1.0, -10.0, 3.0):
        sol = solve_square(alpha, 1.0)
        assert quadrature_norms(sol).l2 == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# the symmetry constants by quadrature (each to 1e-10)


@pytest.mark.parametrize("alpha,S", [(-0.5, 1.0), (-3.0, 1.0), (-1.0, 2.0)])
def test_symmetry_constants(alpha, S):
    sol = solve_square(alpha, S)
    qn = quadrature_norms(sol)
    scale = max(1.0, qn.grad)
    # edge norms equal across the four labels
    assert np.ptp(qn.edges) <= 1e-10 * max(1.0, qn.edges.max())
    # directional norms equal, each half the gradient norm
    assert abs(qn.d1_sq - qn.d2_sq) <= 1e-10 * scale
    assert abs(qn.d1_sq - 0.5 * qn.grad) <= 1e-10 * scale
    # mixed products vanish on both halves
    assert abs(qn.d1d2_plus) <= 1e-10 * scale
    assert abs(qn.d1d2_minus) <= 1e-10 * scale
    # half-domain splits are exactly half
    assert abs(qn.d1_sq_plus - qn.d1_sq_minus) <= 1e-10 * scale
    assert abs(qn.d1_sq_plus - 0.5 * qn.d1_sq) <= 1e-10 * scale
    assert abs(qn.d2_sq_plus - qn.d2_sq_minus) <= 1e-10 * scale
    assert abs(qn.d2_sq_plus - 0.5 * qn.d2_sq) <= 1e-10 * scale
    # quadrature agrees with the closed forms
    assert qn.grad == pytest.approx(sol.grad_norm_sq, rel=1e-12, abs=1e-12)
    assert qn.edges.sum() == pytest.approx(sol.boundary_norm_sq, rel=1e-12)


# ---------------------------------------------------------------------------
# zeta and the alpha-derivative


def test_zeta_negative_for_half_and_above():
    for C in (0.5, 0.75, 0.99):
        for alpha in (-0.01, -1.0, -20.0):
            assert zeta(alpha, C, 1.0) < 0.0


def test_zeta_approaches_lambda_as_C_to_one():
    sol = solve_square(-1.0, 1.0)
    assert zeta(-1.0, 1.0 - 1e-9, 1.0) == pytest.approx(sol.lambda1, rel=1e-8)


def test_zeta_example_small_alpha():
    value = zeta(-0.01, 0.99, 1.0)
    assert value < 0.0
    # independent quadrature oracle for the two norms
    sol = solve_square(-0.01, 1.0)
    qn = quadrature_norms(sol)
    oracle = qn.grad + (-0.01) * 0.99 * qn.edges.sum()
    assert value == pytest.approx(oracle, abs=1e-10)


def test_zeta_sign_flips_for_small_C_at_large_alpha():
    # below C = 1/2 the value turns positive once |alpha| is large: the
    # sharp criterion is sinh(t) cosh(t) (1 - 2C) < t
    assert zeta(-0.05, 0.25, 1.0) < 0.0
    assert zeta(-20.0, 0.25, 1.0) > 0.0


def test_zeta_domain_errors():
    with pytest.raises(DomainError):
        zeta(-1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        zeta(-1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        zeta(0.5, 0.5, 1.0)


def test_dlambda_dalpha_identities():
    for alpha in (-0.1, -1.0, -10.0):
        sol = solve_square(alpha, 1.0)
        assert sol.boundary_norm_sq > 0.0
        assert dlambda_dalpha_chain(sol) == pytest.approx(
            sol.boundary_norm_sq, abs=1e-9, rel=1e-12
        )


def test_dlambda_dalpha_matches_finite_difference():
    # the independent oracle pinning the chain-rule factor
    h = 1e-6
    for alpha in (-0.5, -2.0):
        sol = solve_square(alpha, 1.0)
        fd = (solve_square(alpha + h).lambda1 - solve_square(alpha - h).lambda1) / (2 * h)
        assert sol.boundary_norm_sq == pytest.approx(fd, rel=1e-7)
        assert dlambda_dalpha_chain(sol) == pytest.approx(fd, rel=1e-7)


def test_dlambda_dalpha_neumann_limit():
    # d lambda / d alpha -> |boundary| / |area| = 4 sqrt(2S) / (2S)
    for S in (1.0, 2.0):
        sol = solve_square(-1e-7, S)
        expected = 4.0 * math.sqrt(2.0 * S) / (2.0 * S)
        assert sol.boundary_norm_sq == pytest.approx(expected, rel=1e-5)
