"""Stencil-built affine blocks for build_mesh meshes, against the generic
sorted builder that every other mesh takes, and their sharing per (level, S)."""

from collections import OrderedDict

import numpy as np
import pytest

import quadrobin.assembly as assembly
from quadrobin.assembly import _pencil_weights, affine_blocks, affine_combination
from quadrobin.coefficients import coefficient_values
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
    """Count which builder each affine_blocks call takes, from an empty share."""
    monkeypatch.setattr(assembly, "_shared", OrderedDict())
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


def test_built_meshes_of_one_key_share_one_set_of_blocks(builds):
    first, second = build_mesh(17, 0.37), build_mesh(17, 0.37)
    assert affine_blocks(first) is affine_blocks(second)
    assert second.affine_blocks is first.affine_blocks
    assert builds == ["_stencil_pattern"]
    assert affine_blocks(build_mesh(17, 1.0)) is not first.affine_blocks
    assert builds == ["_stencil_pattern"] * 2


def test_shared_blocks_are_read_only(builds):
    blocks = affine_blocks(build_mesh(8))
    arrays = [blocks.indptr, blocks.indices, *(a for pair in blocks.halves + blocks.edges for a in pair)]
    assert len(arrays) == 14
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[0]


def _pencil(mesh):
    p, alpha = QuadParams(0.4, -0.2, 1.3, 0.8), -3.0
    w = coefficient_values(p, True)
    return [affine_combination(mesh, w * mask) for mask in _pencil_weights(alpha)]


def _edit(mesh, field):
    if field == "nodes":
        mesh.nodes[40] += 1e-3
    elif field == "tri_upper":
        mesh.tri_upper[7] = not mesh.tri_upper[7]
    elif field == "bedge_side":
        mesh.bedge_side[0] = (mesh.bedge_side[0] + 1) % 4
    else:  # bedge_nodes: one segment reversed
        mesh.bedge_nodes[0] = mesh.bedge_nodes[0, ::-1]
    return mesh


@pytest.mark.parametrize("field", ["nodes", "tri_upper", "bedge_side", "bedge_nodes"])
def test_edited_meshes_do_not_take_the_shared_blocks(monkeypatch, builds, field):
    shared = _pencil(build_mesh(8))
    edited = _edit(build_mesh(8), field)
    got = _pencil(edited)
    assert builds == ["_stencil_pattern", "_sorted_pattern"]
    assert edited.affine_blocks is not affine_blocks(build_mesh(8))
    with monkeypatch.context() as m:
        m.setattr(assembly, "_is_built", lambda mesh: False)
        want = _pencil(_edit(build_mesh(8), field))
    for A, B in zip(got, want):
        assert np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
        assert np.array_equal(A.data, B.data)
    if field != "bedge_nodes":  # a reversed segment has the same blocks
        assert any(not np.array_equal(A.data, B.data) for A, B in zip(got, shared))


def test_share_keeps_only_the_keys_used_last(builds):
    keys = [(n, S) for n in (4, 5, 6) for S in (1.0, 0.5)]
    for n, S in keys:
        affine_blocks(build_mesh(n, S))
    assert len(assembly._shared) <= assembly._SHARED_KEYS
    assert list(assembly._shared) == keys[-assembly._SHARED_KEYS :]
    oldest = keys[-assembly._SHARED_KEYS]
    affine_blocks(build_mesh(*oldest))  # a hit makes the key the most recent
    affine_blocks(build_mesh(9))
    assert list(assembly._shared)[-2:] == [oldest, (9, 1.0)]
    assert len(builds) == len(keys) + 1
