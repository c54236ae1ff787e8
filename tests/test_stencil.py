"""Stencil-built affine blocks for build_mesh meshes, against the generic
sorted builder that every other mesh takes."""

import numpy as np
import pytest

import quadrobin.assembly as assembly
from quadrobin.assembly import affine_blocks
from quadrobin.geometry import QuadParams
from quadrobin.mesh import build_mesh, refine_mesh
from quadrobin.solver import solve_quad

pytestmark = pytest.mark.filterwarnings("ignore::quadrobin.assembly.BoundaryLayerWarning")

_CASES = [(n, S) for n in (2, 3, 8, 17, 64) for S in (1.0, 0.37)]


def _generic(monkeypatch, n, S):
    mesh = build_mesh(n, S)
    with monkeypatch.context() as m:
        m.setattr(assembly, "_is_built", lambda mesh: False)
        affine_blocks(mesh)
    return mesh


@pytest.fixture()
def builds(monkeypatch):
    """Count which builder each affine_blocks call takes."""
    taken = []
    for name in ("_stencil_pattern", "_sorted_pattern"):
        build = getattr(assembly, name)
        monkeypatch.setattr(
            assembly, name, lambda mesh, build=build, name=name: taken.append(name) or build(mesh)
        )
    return taken


@pytest.mark.parametrize("n, S", _CASES)
def test_stencil_matches_the_sorted_builder(monkeypatch, builds, n, S):
    stencil = affine_blocks(build_mesh(n, S))
    generic = affine_blocks(_generic(monkeypatch, n, S))
    assert builds == ["_stencil_pattern", "_sorted_pattern"]
    assert np.array_equal(stencil.indptr, generic.indptr)
    assert np.array_equal(stencil.indices, generic.indices)
    pairs = list(zip(stencil.halves + stencil.edges, generic.halves + generic.edges))
    assert len(pairs) == 6
    for (slots, E), (slots_g, E_g) in pairs:
        assert np.array_equal(slots, slots_g)
        for block, block_g in zip(np.atleast_2d(E), np.atleast_2d(E_g)):
            assert np.abs(block - block_g).max() <= 1e-13 * np.abs(block_g).max()


@pytest.mark.parametrize("n, S", _CASES)
def test_stencil_solves_agree_with_the_sorted_builder(monkeypatch, n, S):
    generic = _generic(monkeypatch, n, S)
    stencil = build_mesh(n, S)
    shapes = [(QuadParams(0.4, -0.2, 1.3, 0.8 * S, S), -0.5), (QuadParams(1.8, -0.4, 1.0, S, S), -8.0)]
    for p, alpha in shapes:
        want = solve_quad(p, alpha, generic).lambda_h
        assert solve_quad(p, alpha, stencil).lambda_h == pytest.approx(want, rel=1e-11, abs=0.0)


def test_other_meshes_take_the_sorted_builder(builds):
    affine_blocks(refine_mesh(build_mesh(8)))  # build_mesh(16)'s counts, another topology
    moved = build_mesh(8)
    moved.nodes[40] += 1e-3
    affine_blocks(moved)
    relabelled = build_mesh(8)
    relabelled.triangles = relabelled.triangles[:, [1, 2, 0]]
    affine_blocks(relabelled)
    assert builds == ["_sorted_pattern"] * 3
    affine_blocks(build_mesh(8, 0.37))
    assert builds[-1] == "_stencil_pattern"
