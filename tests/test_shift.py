"""The shift certificate (matrix inertia) and the rule that picks the shift."""

import math

import numpy as np
import pytest
import scipy.linalg as dla

from quadrobin.assembly import assemble_transformed
from quadrobin.geometry import QuadParams
from quadrobin.solver import (
    _count_eigenvalues_below,
    _dense_lowest,
    _shifted,
    _symmetric_lu,
    safe_shift,
    solve_lowest,
)

from conftest import random_params


def _coarse_anchor(coarse_lambda):
    """The shift rule without the corner cap: the coarse value less half its size."""
    return min(-1.0, coarse_lambda - 0.5 * abs(coarse_lambda) - 1.0)


def _coarse_lambda(p, alpha, meshes):
    vals, _ = _dense_lowest(assemble_transformed(p, alpha, meshes(8, p.S)))
    return float(vals[0])


@pytest.mark.parametrize("alpha", [-0.5, -4.0, -16.0])
def test_inertia_count_matches_dense_eigenvalues(rng, meshes, alpha):
    # mesh 16 (545 dof) is large enough for the factor to form panels
    for n in [*range(4, 9), *([16] if alpha == -4.0 else [])]:
        for p in random_params(rng, 2):
            system = assemble_transformed(p, alpha, meshes(n))
            K, M = system.stiffness_plus_boundary, system.mass
            vals = dla.eigh(K.toarray(), M.toarray(), eigvals_only=True)
            scale = max(1.0, float(np.abs(vals).max()))
            sigmas = [vals[0] - 0.1 * scale]
            # midpoints of gaps that roundoff in the dense values cannot blur
            sigmas += [0.5 * (lo + hi) for lo, hi in zip(vals, vals[1:])
                       if hi - lo > 1e-8 * scale]
            for sigma in sigmas:
                below, _ = _count_eigenvalues_below(K, M, sigma)
                assert below == int((vals < sigma).sum()), (n, p, sigma)


def test_inertia_count_releases_the_factor_copies(meshes):
    p, alpha = QuadParams.square(), -8.0
    system = assemble_transformed(p, alpha, meshes(32))
    K, M = system.stiffness_plus_boundary, system.mass
    sigma = safe_shift(p, alpha)
    below, lu = _count_eigenvalues_below(K, M, sigma)
    assert below == 0
    # the L and U copies the count read are emptied, and scipy keeps (does
    # not rebuild) them: a rebuild on every access would double the work
    assert lu.L.nnz == lu.U.nnz == 0
    assert lu.L is lu.L and lu.U is lu.U
    # solves run on SuperLU's own storage, untouched by the release
    b = M @ np.arange(1.0, K.shape[0] + 1.0)
    fresh = _symmetric_lu(_shifted(K, M, sigma))
    assert np.array_equal(lu.solve(b), fresh.solve(b))


_SHARP_CORNERS = [
    QuadParams(1.2 - math.sqrt(3.0) / 1.2, 1.2 - math.sqrt(3.0) / 1.2, 1.2, 1.0),  # 60 degrees
    QuadParams(1.8, -0.4, 1.0, 1.0),
    QuadParams(-1.5, 1.2, 0.8, 0.6),
    QuadParams(0.0, 0.0, 1.6, 1.0),
]


@pytest.mark.parametrize("alpha", [-6.0, -10.0, -16.0])
def test_corner_regime_shift_certifies_on_the_first_count(meshes, alpha):
    for p in _SHARP_CORNERS:
        coarse = _coarse_lambda(p, alpha, meshes)
        system = assemble_transformed(p, alpha, meshes(32))
        assert system.dof_count == 2113  # the sparse path
        pair = solve_lowest(system, shift=safe_shift(p, alpha, coarse))
        assert pair.iterations == 1
        assert pair.method == "lanczos-shift-invert"
        reference = solve_lowest(system, shift=_coarse_anchor(coarse))
        assert pair.lambda_h == pytest.approx(reference.lambda_h, rel=1e-10)


def test_mild_regime_keeps_the_coarse_anchor(meshes):
    # the sensitivity box: |a_j| <= 1, c in [0.6, 1.6], S1 in [0.3, 1.7]
    rng = np.random.default_rng(7)
    for _ in range(12):
        a1, a2 = rng.uniform(-1.0, 1.0, 2)
        p = QuadParams(float(a1), float(a2), float(rng.uniform(0.6, 1.6)),
                       float(rng.uniform(0.3, 1.7)), 1.0)
        for alpha in (-4.0, -0.25, float(rng.uniform(-4.0, -0.25))):
            coarse = _coarse_lambda(p, alpha, meshes)
            assert safe_shift(p, alpha, coarse) == _coarse_anchor(coarse)


def test_positive_alpha_keeps_the_coarse_anchor(meshes):
    # no corner concentration for alpha > 0: a corner cap would only slow ARPACK
    p = QuadParams(1.8, -0.4, 1.0, 1.0)
    for alpha in (10.0, 20.0):
        coarse = _coarse_lambda(p, alpha, meshes)
        assert safe_shift(p, alpha, coarse) == _coarse_anchor(coarse)
