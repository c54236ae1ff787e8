"""One certified eigensolver path: every sparse solve ends on the factor that
certified its shift, and solve_quad alone chooses dense or sparse."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import quadrobin.assembly as assembly
import quadrobin.mesh as mesh_module
import quadrobin.solver as solver
from quadrobin.assembly import assemble_transformed
from quadrobin.cli import main
from quadrobin.errors import EigenSolveError
from quadrobin.geometry import QuadParams
from quadrobin.mesh import build_mesh, refine_mesh
from quadrobin.solver import _dense_lowest, safe_shift, solve_lowest, solve_quad

from conftest import random_params
from test_shift import _SHARP_CORNERS

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
def test_lanczos_runs_on_the_certified_factor(monkeypatch, meshes, alpha):
    # the last shape has two near-equal sharp corners: at alpha = -8 its pair
    # (-247.824, -247.245) stalls a single-vector iteration at rate 0.988
    for p in (QuadParams.square(), QuadParams(1.8, -0.4, 1.0, 1.0), QuadParams(0.3, -0.2, 1.3, 0.55)):
        system = assemble_transformed(p, alpha, meshes(32))
        shift = safe_shift(p, alpha, _companion_lambda(p, alpha))
        K, M = system.stiffness_plus_boundary, system.mass
        reference = spla.eigsh(K, k=1, M=M, sigma=shift, which="LM", return_eigenvectors=False)

        with monkeypatch.context() as m:
            factors, solves = _counted_factors(m)
            pair = solve_lowest(system, shift=shift)
        assert pair.method == "lanczos-shift-invert"
        assert pair.factor == "band"
        assert pair.lambda_h == pytest.approx(float(reference[0]), rel=1e-10)
        assert pair.residual <= 1e-10 * _norm_K(system)
        # one factorisation per walk step, and every solve on the last one
        assert len(factors) == pair.iterations
        assert len(solves) == pair.solves > 0
        assert {id(f) for f, _ in solves} == {id(factors[-1])}


class _CountedFactor:
    """A factor that records each of its solves as (factor, rhs length)."""

    def __init__(self, factor, solves):
        self._factor, self._solves = factor, solves

    def solve(self, rhs):
        self._solves.append((self._factor, len(rhs)))
        return self._factor.solve(rhs)

    def __getattr__(self, name):
        return getattr(self._factor, name)


def _counted_factors(monkeypatch):
    """Lists of the factors ``solver._factor`` makes (None for a refused
    band factor) and of the solves made with them."""
    factors, solves = [], []
    factor = solver._factor

    def counted(A, mesh):
        made = factor(A, mesh)
        factors.append(made)
        return None if made is None else _CountedFactor(made, solves)

    monkeypatch.setattr(solver, "_factor", counted)
    return factors, solves


def test_lanczos_averages_at_most_one_basis_of_solves(monkeypatch, meshes):
    # ARPACK (ncv = 20) spent at least 21 solves on each of these, 31 on two
    mild = [QuadParams(0.4, -0.2, 1.3, 0.8), QuadParams(-0.3, 0.5, 0.9, 1.2),
            QuadParams(0.2, 0.1, 1.1, 1.0)]
    cases = [(p, -10.0, 32) for p in _SHARP_CORNERS] + [(p, -1.0, 64) for p in mild]
    _, solves = _counted_factors(monkeypatch)
    counts = []
    for p, alpha, level in cases:
        system = assemble_transformed(p, alpha, meshes(level))
        shift = safe_shift(p, alpha, _companion_lambda(p, alpha))
        solves.clear()
        pair = solve_lowest(system, shift=shift)
        assert pair.residual <= 1e-10 * _norm_K(system)
        counts.append(len(solves))
    assert min(counts) > 0 and sum(counts) <= 20 * len(cases), counts


def test_unreachable_tolerance_on_the_sparse_path_raises_after_bounded_solves(monkeypatch, meshes):
    _, solves = _counted_factors(monkeypatch)
    monkeypatch.setattr(solver, "_TOL", 1e-30)
    with pytest.raises(EigenSolveError) as err:
        solve_quad(QuadParams.square(), -1.0, meshes(16))
    assert {"residual", "target", "lambda", "iterations"} <= err.value.diagnostics.keys()
    assert 0 < len(solves) <= 400


def _block_builds(monkeypatch):
    """(level, S) of each affine-block build, from an empty build_mesh cache."""
    mesh_module._cached_build.cache_clear()
    built = []
    build = assembly._build_blocks
    monkeypatch.setattr(
        assembly,
        "_build_blocks",
        lambda mesh, how: built.append((mesh.refinement_level, mesh.S)) or build(mesh, how),
    )
    return built


def test_companion_mesh_is_built_once_per_area(monkeypatch):
    built = _block_builds(monkeypatch)
    p = QuadParams(0.2, -0.1, 1.1, 0.9, 1.37)
    for alpha in (-1.0, -2.0):
        solve_quad(p, alpha, 16)
    # the solve mesh and the level-8 companion are each built once with their blocks
    assert built == [(16, 1.37), (8, 1.37)]
    assert build_mesh(8, 1.37).affine_blocks is not None


def test_repeated_level_128_solves_build_their_blocks_once(monkeypatch):
    built = _block_builds(monkeypatch)
    for S in (1.0, 0.61):
        p = QuadParams(0.4, -0.2, 1.3, 0.8 * S, S)
        for alpha in (-6.0, -12.0):
            solve_quad(p, alpha, 128)
    assert built == [(128, 1.0), (8, 1.0), (128, 0.61), (8, 0.61)]


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


def test_eigen_pair_counts_its_factor_solves(monkeypatch, meshes):
    factorisations, solves = _counted_factors(monkeypatch)
    shapes = [(QuadParams.square(), -1.0), (QuadParams(1.8, -0.4, 1.0, 1.0), -8.0),
              (QuadParams(0.3, -0.2, 1.3, 0.55), -8.0)]
    for p, alpha in shapes:
        system = assemble_transformed(p, alpha, meshes(32))
        # the certified shift, then one above lambda_h so that the walk takes steps
        for shift in (safe_shift(p, alpha, _companion_lambda(p, alpha)), 0.0):
            solves.clear()
            factorisations.clear()
            pair = solve_lowest(system, shift=shift)
            assert pair.solves == len(solves) > 0
            assert pair.iterations == len(factorisations)
        assert pair.iterations > 1
    # positional constructions keep working; the dense path makes no solves
    dense = solver.EigenPair(1.0, np.ones(2), 0.0, 1, "dense")
    assert dense.solves == 0 and dense.factor is None
