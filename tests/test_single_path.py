"""One certified eigensolver path: every sparse solve ends on the factor that
certified its shift, and solve_quad alone chooses dense or sparse."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import quadrobin.solver as solver
from quadrobin.assembly import assemble_transformed
from quadrobin.cli import main
from quadrobin.geometry import QuadParams
from quadrobin.mesh import build_mesh, refine_mesh
from quadrobin.solver import _dense_lowest, safe_shift, solve_lowest, solve_quad

from conftest import random_params

pytestmark = pytest.mark.filterwarnings("ignore::quadrobin.assembly.BoundaryLayerWarning")


def _norm_K(system):
    return float(np.abs(system.stiffness_plus_boundary).sum(axis=1).max())


def _companion_lambda(p, alpha):
    vals, _ = _dense_lowest(assemble_transformed(p, alpha, build_mesh(8, p.S)))
    return float(vals[0])


def test_degenerate_corner_cluster_is_refined_on_the_certified_factor(capsys):
    # at the square the four corner states agree to ~1e-13, so ARPACK's vector
    # is an arbitrary member of the cluster and falls short of the residual
    p, alpha = QuadParams.square(), -40.0
    state = solve_quad(p, alpha, 128)
    system = state.system
    assert state.residual <= 1e-10 * _norm_K(system)
    pair = solve_lowest(system, shift=safe_shift(p, alpha, _companion_lambda(p, alpha)))
    assert pair.lambda_h == state.lambda_h
    assert pair.method == "lanczos-shift-invert"
    K, M = system.stiffness_plus_boundary, system.mass
    vals = spla.eigsh(K, k=4, M=M, sigma=pair.shift, which="LM", return_eigenvectors=False)
    assert state.lambda_h == pytest.approx(vals.min(), rel=1e-10)
    assert main(["solve-quad", "--alpha", "-40", "--mesh", "128"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("alpha", [-1.0, -8.0])
def test_arpack_failure_iterates_on_the_certified_factor(monkeypatch, meshes, alpha):
    # the last shape has two near-equal sharp corners: at alpha = -8 its pair
    # (-247.824, -247.245) stalls a single-vector iteration at rate 0.988
    for p in (QuadParams.square(), QuadParams(1.8, -0.4, 1.0, 1.0), QuadParams(0.3, -0.2, 1.3, 0.55)):
        system = assemble_transformed(p, alpha, meshes(32))
        shift = safe_shift(p, alpha, _companion_lambda(p, alpha))
        reference = solve_lowest(system, shift=shift)
        assert reference.method == "lanczos-shift-invert"

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))

        factorisations = []
        splu = spla.splu

        def counted_splu(*args, **kwargs):
            factorisations.append(kwargs.get("permc_spec"))
            return splu(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(solver.spla, "eigsh", no_convergence)
            m.setattr(solver.spla, "splu", counted_splu)
            pair = solve_lowest(system, shift=shift)
        assert pair.method == "inverse-iteration"
        assert pair.lambda_h == pytest.approx(reference.lambda_h, rel=1e-10)
        assert pair.residual <= 1e-10 * _norm_K(system)
        # one symmetric-mode factorisation per walk step, and no other
        assert factorisations == ["MMD_AT_PLUS_A"] * pair.iterations


_SHAPES = [(QuadParams(0.4, -0.2, 1.3, 0.8), -0.5), (QuadParams(1.8, -0.4, 1.0, 1.0), -4.0)]


@pytest.mark.parametrize("level", [9, 12, 16, 23, "refined-8"])
def test_meshes_finer_than_the_companion_solve_sparse(level):
    for p, alpha in _SHAPES:
        mesh = refine_mesh(build_mesh(8, p.S)) if level == "refined-8" else build_mesh(level, p.S)
        state = solve_quad(p, alpha, mesh)
        vals, _ = _dense_lowest(state.system)
        assert state.lambda_h == pytest.approx(float(vals[0]), rel=1e-10)
        companion, _ = _dense_lowest(assemble_transformed(p, alpha, build_mesh(8, p.S)))
        assert state.gap_estimate == float(companion[1] - companion[0])


@pytest.mark.parametrize("make", [lambda S: build_mesh(8, S), lambda S: refine_mesh(build_mesh(4, S))])
def test_level_8_meshes_still_solve_dense(make):
    for p, alpha in _SHAPES:
        mesh = make(p.S)
        assert mesh.refinement_level == 8
        state = solve_quad(p, alpha, mesh)
        vals, _ = _dense_lowest(state.system)
        assert state.lambda_h == float(vals[0])
        assert state.gap_estimate == float(vals[1] - vals[0])


def test_solve_lowest_on_coarse_systems_matches_dense(rng):
    for n in range(2, 9):
        for p in random_params(rng, 2):
            for alpha in (-0.5, -4.0, -16.0):
                system = assemble_transformed(p, alpha, build_mesh(n, p.S))
                vals, _ = _dense_lowest(system)
                for shift in (None, safe_shift(p, alpha, float(vals[0]))):
                    pair = solve_lowest(system, shift=shift)
                    assert pair.method == "lanczos-shift-invert"
                    assert pair.lambda_h == pytest.approx(float(vals[0]), rel=1e-10)
