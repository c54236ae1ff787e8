import math

import numpy as np
import pytest

from quadrobin import certificates as certs
from quadrobin import square_exact
from quadrobin.certificates import (
    CERTIFIED,
    Certificate,
    INCONCLUSIVE,
    asymptotic_constant,
    certify_all,
    empirical_small_alpha_crossover,
    g_alpha,
    hausdorff_threshold,
    l_bound_chain,
    l_value,
    large_alpha_certificate,
    parameter_thresholds,
    small_alpha_certificate,
    threshold_conditions,
    trial_one_certificate,
    z_denominator,
)
from quadrobin.errors import DomainError
from quadrobin.geometry import QuadParams, hausdorff_distance_to_square, perimeter
from quadrobin.oracles import z_value
from quadrobin.solver import solve_quad

from conftest import random_params


# ---------------------------------------------------------------------------
# l and its bound chain


def test_l_at_square():
    for S in (0.5, 1.0, 2.0):
        assert l_value(QuadParams.square(S)) == pytest.approx(
            4.0 * math.sqrt(2.0 * S) / S, rel=1e-14
        )
    assert l_value(QuadParams.square(1.0)) == pytest.approx(4 * math.sqrt(2), rel=1e-15)


def test_l_strictly_above_square_value(rng):
    for p in random_params(rng, 500, a_range=3.0):
        if p.is_square():
            continue
        assert l_value(p) > 4.0 * math.sqrt(2.0 * p.S) / p.S


def test_l_equals_perimeter_over_S_on_balanced_slice(rng):
    for p in random_params(rng, 100):
        q = QuadParams(p.a1, p.a2, p.c, p.S, p.S)  # S1 = S2 = S
        assert l_value(q) == pytest.approx(perimeter(q) / q.S, rel=1e-13)


def test_bound_chain_ordering(rng):
    for p in random_params(rng, 10_000, a_range=6.0, c_range=(0.05, 10.0), s1_frac=(0.02, 0.98)):
        b1, b2, b3 = l_bound_chain(p)
        l = l_value(p)
        assert l - b1 >= -1e-12
        assert b1 - b2 >= -1e-12
        assert b2 - b3 >= -1e-12
    b1, b2, b3 = l_bound_chain(QuadParams.square(1.0))
    assert b1 == pytest.approx(4 * math.sqrt(2), rel=1e-14)
    assert b1 == pytest.approx(b2, rel=1e-14) and b2 == pytest.approx(b3, rel=1e-14)


def test_l_grows_linearly_in_a1():
    p = QuadParams(1e6, 0.0, 1.0, 1.0)
    assert l_value(p) >= 1e6 / 2.0


# ---------------------------------------------------------------------------
# z and g


def test_z_nonnegative_sweep(rng):
    for p in random_params(rng, 10_000, a_range=4.0, c_range=(0.1, 5.0), s1_frac=(0.05, 0.95)):
        den = z_denominator(p)
        assert den >= -1e-15
        if den > 1e-12:
            assert z_value(p) >= 0.0


def test_z_guard_at_square():
    with pytest.raises(DomainError):
        z_value(QuadParams.square())
    cert = small_alpha_certificate(QuadParams.square(), -0.5)
    assert cert.verdict == INCONCLUSIVE
    assert "0/0" in cert.notes


def test_g_positive_and_decreasing_to_zero():
    alphas = -np.logspace(1, -4, 60)  # from -10 up towards 0
    values = [g_alpha(a, 1.0) for a in alphas]
    assert all(v > 0 for v in values)
    assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))
    assert values[-1] < 1e-4
    with pytest.raises(DomainError):
        g_alpha(0.5)


# ---------------------------------------------------------------------------
# the certificates


def test_small_alpha_certificate_fires_and_is_sound(meshes):
    p = QuadParams(0.5, 0.0, 1.0, 1.0)
    cert = small_alpha_certificate(p, -0.01)
    assert cert.certified
    assert cert.quantities["z"] > cert.quantities["g"] > 0.0
    mesh = meshes(32)
    lam_p = solve_quad(p, -0.01, mesh).lambda_h
    lam_sq = solve_quad(QuadParams.square(), -0.01, mesh).lambda_h
    assert lam_p < lam_sq


def test_small_alpha_certificate_needs_small_alpha():
    p = QuadParams(0.5, 0.0, 1.0, 1.0)
    assert not small_alpha_certificate(p, -10.0).certified
    with pytest.raises(DomainError):
        small_alpha_certificate(p, 1.0)


def test_trial_one_certificate_fires_and_is_sound(meshes):
    p = QuadParams(6.0, 0.0, 1.0, 1.0)
    cert = trial_one_certificate(p, -1.0)
    assert cert.certified
    mesh = meshes(32)
    lam_p = solve_quad(p, -1.0, mesh).lambda_h
    lam_sq = solve_quad(QuadParams.square(), -1.0, mesh).lambda_h
    assert lam_p < lam_sq
    # the certified bound itself dominates the eigenvalue
    assert lam_p <= cert.quantities["trial_bound"] + 1e-9


def test_trial_bound_is_an_upper_bound(rng, meshes):
    # (alpha/2) l(p) is the all-ones Rayleigh quotient of the plain-mass
    # pullback; it must dominate the computed eigenvalue
    mesh = meshes(16)
    for p in random_params(rng, 10):
        cert = trial_one_certificate(p, -1.0)
        lam = solve_quad(p, -1.0, mesh).lambda_h
        assert lam <= cert.quantities["trial_bound"] + 1e-10


def test_certificates_never_fire_at_the_square():
    for alpha in (-0.01, -1.0, -25.0):
        for cert in certify_all(QuadParams.square(), alpha):
            assert cert.verdict == INCONCLUSIVE


def test_asymptotic_constant_values():
    assert asymptotic_constant(math.pi / 2) == pytest.approx(2.0, rel=1e-14)
    assert asymptotic_constant(math.pi / 3) == pytest.approx(4.0, rel=1e-14)
    assert asymptotic_constant(1.5 * math.pi) == 1.0
    # continuity at the straight angle
    assert asymptotic_constant(math.pi - 1e-9) == pytest.approx(1.0, abs=1e-8)
    assert asymptotic_constant(math.pi + 1e-9) == 1.0
    for bad in (0.0, -1.0, 2.0 * math.pi):
        with pytest.raises(DomainError):
            asymptotic_constant(bad)


def test_large_alpha_certificate_square_and_rectangle():
    assert large_alpha_certificate(QuadParams.square()).verdict == INCONCLUSIVE
    c = math.sqrt(2.0)
    a = math.sqrt(c * c - 1.0 / (c * c))
    rect = large_alpha_certificate(QuadParams(a, -a, c, 1.0))
    assert rect.verdict == INCONCLUSIVE
    assert "rectangle" in rect.notes
    assert rect.quantities["max_C"] == pytest.approx(2.0, abs=1e-9)


def test_large_alpha_certificate_sharp_corners():
    # an equal-split member with c != c0 is a rhombus: two corners sharper
    # than a right angle, so the asymptotic criterion applies
    rhombus = large_alpha_certificate(QuadParams(0.0, 0.0, 1.5, 1.0))
    assert rhombus.certified
    assert rhombus.quantities["max_C"] > 2.0
    c = 1.2
    q60 = large_alpha_certificate(QuadParams(c - math.sqrt(3) / c, c - math.sqrt(3) / c, c, 1.0))
    assert q60.certified
    assert q60.quantities["max_C"] == pytest.approx(4.0, rel=1e-12)


def test_large_alpha_trend_against_solver(meshes):
    # the certified rhombus really does fall below the square once |alpha|
    # is large (one desk-scale confirmation)
    p = QuadParams(0.0, 0.0, 1.5, 1.0)
    mesh = meshes(64)
    lam_p = solve_quad(p, -4.0, mesh).lambda_h
    lam_sq = solve_quad(QuadParams.square(), -4.0, mesh).lambda_h
    assert lam_p < lam_sq


# ---------------------------------------------------------------------------
# thresholds and the distance radius


def test_parameter_thresholds_fire(meshes):
    for alpha in (-0.5, -1.0, -4.0):
        th = parameter_thresholds(alpha, 1.0)
        assert th.A > 0 and th.c1 > th.c2 > 0 and 0 < th.S_tilde < 2.0
        assert th.fired_checks and all(th.fired_checks.values())


def test_threshold_conditions_classification():
    alpha = -1.0
    th = parameter_thresholds(alpha, 1.0)
    assert threshold_conditions(QuadParams(1.01 * th.A, 0, 1.0, 1.0), alpha, th) == ["I"]
    assert threshold_conditions(QuadParams(0, -1.01 * th.A, 1.0, 1.0), alpha, th) == ["II"]
    assert threshold_conditions(QuadParams(0, 0, 1.01 * th.c1, 1.0), alpha, th) == ["III"]
    assert threshold_conditions(QuadParams(0, 0, 0.99 * th.c2, 1.0), alpha, th) == ["IV"]
    assert threshold_conditions(QuadParams(0, 0, 1.0, 0.99 * th.S_tilde), alpha, th) == ["V"]
    assert threshold_conditions(
        QuadParams(0, 0, 1.0, 2.0 - 0.99 * th.S_tilde), alpha, th
    ) == ["VI"]
    assert threshold_conditions(QuadParams(0.99 * th.A, 0, 1.0, 1.0), alpha, th) == []


def test_threshold_conditions_imply_the_trial_certificate(rng):
    alpha = -1.0
    th = parameter_thresholds(alpha, 1.0)
    for _ in range(200):
        p = random_params(rng, 1, a_range=3 * th.A, c_range=(th.c2 / 5, 3 * th.c1),
                          s1_frac=(0.01, 0.99))[0]
        if threshold_conditions(p, alpha, th):
            assert trial_one_certificate(p, alpha).certified


def test_threshold_scaling():
    # under x -> sqrt(k) x: alpha -> alpha/sqrt(k), S -> kS; lengths scale by
    # sqrt(k) and areas by k
    alpha, k = -1.3, 2.5
    base = parameter_thresholds(alpha, 1.0)
    scaled = parameter_thresholds(alpha / math.sqrt(k), k)
    assert scaled.A == pytest.approx(math.sqrt(k) * base.A, rel=1e-10)
    assert scaled.c1 == pytest.approx(math.sqrt(k) * base.c1, rel=1e-10)
    assert scaled.c2 == pytest.approx(math.sqrt(k) * base.c2, rel=1e-10)
    assert scaled.S_tilde == pytest.approx(k * base.S_tilde, rel=1e-10)


def test_hausdorff_threshold_finite_and_grows_with_alpha():
    radii = [hausdorff_threshold(a, 1.0) for a in (-0.25, -0.5, -1.0, -2.0, -4.0)]
    assert all(np.isfinite(r) and r > 0 for r in radii)
    # the trial threshold 2 lambda0/alpha grows with |alpha|, so the box of
    # uncertified parameters (and with it the radius) grows as well
    assert all(r1 < r2 for r1, r2 in zip(radii, radii[1:]))


def test_hausdorff_threshold_defining_property(rng):
    alpha = -0.5
    radius = hausdorff_threshold(alpha, 1.0)
    th = parameter_thresholds(alpha, 1.0)
    checked = 0
    for scale in (1.3, 2.0, 4.0):
        for p in (
            QuadParams(th.A * scale, 0.3, 1.0, 1.0),
            QuadParams(0.0, 0.0, th.c1 * scale, 1.0),
            QuadParams(0.2, -0.1, 1.0, th.S_tilde / scale),
        ):
            d = hausdorff_distance_to_square(p, rotations=90, samples_per_edge=150)
            if d > radius:
                checked += 1
                assert threshold_conditions(p, alpha, th)
    assert checked >= 3


def test_in_box_members_stay_inside_the_radius(rng):
    alpha = -0.5
    radius = hausdorff_threshold(alpha, 1.0)
    th = parameter_thresholds(alpha, 1.0)
    for _ in range(20):
        p = QuadParams(
            float(rng.uniform(-th.A, th.A)),
            float(rng.uniform(-th.A, th.A)),
            float(rng.uniform(th.c2, th.c1)),
            float(rng.uniform(th.S_tilde, 2.0 - th.S_tilde)),
        )
        if threshold_conditions(p, alpha, th):
            continue
        d = hausdorff_distance_to_square(p, rotations=90, samples_per_edge=150)
        assert d <= radius


# ---------------------------------------------------------------------------
# misc


def test_certificate_json_roundtrip():
    cert = trial_one_certificate(QuadParams(6.0, 0.0, 1.0, 1.0), -1.0)
    again = Certificate.from_json(cert.to_json())
    assert again.kind == cert.kind
    assert again.params == cert.params
    assert again.verdict == CERTIFIED
    assert again.quantities["l"] == pytest.approx(cert.quantities["l"], rel=1e-15)


def test_empirical_crossover_is_consistent():
    p = QuadParams(0.5, 0.0, 1.0, 1.0)
    cross = empirical_small_alpha_crossover(p)
    for kind, alpha_c in cross.items():
        assert alpha_c is not None and alpha_c < 0.0
        if kind == "small_alpha":
            assert small_alpha_certificate(p, alpha_c).certified
        else:
            assert trial_one_certificate(p, alpha_c).certified


def test_certify_all_solves_the_square_once(monkeypatch):
    p, alpha = QuadParams(20.0, 0.5, 1.0, 1.0), -1.0
    roots = []
    g_inverse = square_exact.g_inverse
    monkeypatch.setattr(square_exact, "g_inverse", lambda x: roots.append(x) or g_inverse(x))
    square_exact._solve_square.cache_clear()
    small, trial, _ = certify_all(p, alpha)
    assert len(roots) == 1
    fresh = square_exact._solve_square.__wrapped__(alpha, p.S)  # the uncached closed forms
    assert small.quantities["g"] == -fresh.grad_norm_sq / (alpha * fresh.boundary_norm_sq)
    assert trial.quantities["lambda0"] == fresh.lambda1
    assert trial.certified


def test_small_alpha_quantities_match_z_value_bit_for_bit(rng, monkeypatch):
    shapes = random_params(rng, 200, a_range=4.0, c_range=(0.1, 5.0), s1_frac=(0.05, 0.95))
    for p in shapes:
        q = small_alpha_certificate(p, -0.3).quantities
        assert q["l"] == l_value(p) and q["z_denominator"] == z_denominator(p)
        assert q["z"] == z_value(p) and q["margin"] == z_value(p) - q["g"]
    # certify_all evaluates l once for small_alpha and trial_one together
    calls = []
    monkeypatch.setattr(certs, "l_value", lambda p: calls.append(p) or l_value(p))
    for p in shapes[:8]:
        small, trial, _ = certify_all(p, -0.3)
        assert small.quantities["l"] == trial.quantities["l"] == l_value(p)
    assert calls == shapes[:8]
