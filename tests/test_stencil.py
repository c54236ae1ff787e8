"""Stencil-built affine blocks for build_mesh meshes, against the generic
sorted builder that every other mesh takes, and their sharing per (level, S)."""

import dataclasses

import numpy as np
import pytest

import quadrobin.assembly as assembly
import quadrobin.mesh as mesh_module
from quadrobin.assembly import _pencil_weights, affine_blocks, affine_combination
from quadrobin.coefficients import coefficient_values
from quadrobin.geometry import QuadParams
from quadrobin.mesh import build_mesh, refine_mesh
from quadrobin.solver import solve_quad

pytestmark = pytest.mark.filterwarnings("ignore::quadrobin.assembly.BoundaryLayerWarning")

_CASES = [(n, S) for n in (2, 3, 8, 17, 64) for S in (1.0, 0.37)]


def _generic(n, S):
    """build_mesh's arrays in an unmarked copy, which takes the sorted builder."""
    return dataclasses.replace(build_mesh(n, S))


@pytest.fixture()
def builds(monkeypatch):
    """Count which builder each affine_blocks call takes, from an empty
    build_mesh cache."""
    mesh_module._cached_build.cache_clear()
    taken = []
    for name in ("_stencil_pattern", "_sorted_pattern"):
        build = getattr(assembly, name)
        monkeypatch.setattr(
            assembly, name, lambda mesh, build=build, name=name: taken.append(name) or build(mesh)
        )
    return taken


@pytest.mark.parametrize("n, S", _CASES)
def test_stencil_matches_the_sorted_builder(builds, n, S):
    built, copy = build_mesh(n, S), _generic(n, S)
    stencil, generic = affine_blocks(built), affine_blocks(copy)
    assert builds == ["_stencil_pattern", "_sorted_pattern"]
    assert np.array_equal(stencil.indptr, generic.indptr)
    assert np.array_equal(stencil.indices, generic.indices)
    for b in range(12):  # the decoded blocks
        block = affine_combination(built, np.eye(12)[b]).data
        block_g = affine_combination(copy, np.eye(12)[b]).data
        assert np.abs(block - block_g).max() <= 1e-13 * np.abs(block_g).max()


@pytest.mark.parametrize("n, S", _CASES)
def test_stencil_solves_agree_with_the_sorted_builder(n, S):
    generic = _generic(n, S)
    stencil = build_mesh(n, S)
    shapes = [(QuadParams(0.4, -0.2, 1.3, 0.8 * S, S), -0.5), (QuadParams(1.8, -0.4, 1.0, S, S), -8.0)]
    for p, alpha in shapes:
        want = solve_quad(p, alpha, generic).lambda_h
        assert solve_quad(p, alpha, stencil).lambda_h == pytest.approx(want, rel=1e-11, abs=0.0)


def test_other_meshes_take_the_sorted_builder(builds):
    affine_blocks(refine_mesh(build_mesh(8)))  # build_mesh(16)'s counts, another topology
    affine_blocks(_edit(build_mesh(8), "nodes"))
    built = build_mesh(8)
    affine_blocks(dataclasses.replace(built, triangles=built.triangles[:, [1, 2, 0]]))
    assert builds == ["_sorted_pattern"] * 3
    affine_blocks(build_mesh(8, 0.37))
    assert builds[-1] == "_stencil_pattern"


def test_built_meshes_of_one_key_share_one_set_of_blocks(builds):
    first, second = build_mesh(17, 0.37), build_mesh(17, 0.37)
    assert second is first
    assert affine_blocks(first) is affine_blocks(second)
    assert second.affine_blocks is first.affine_blocks
    assert builds == ["_stencil_pattern"]
    assert affine_blocks(build_mesh(17, 1.0)) is not first.affine_blocks
    assert builds == ["_stencil_pattern"] * 2


def test_shared_blocks_are_read_only(builds):
    arrays = list(vars(affine_blocks(build_mesh(8))).values())
    assert len(arrays) == 4  # indptr, indices, table, code
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_level_128_blocks_are_a_small_table_of_distinct_rows_and_a_code_per_slot():
    blocks = affine_blocks(build_mesh(128))
    assert sum(a.nbytes for a in vars(blocks).values()) <= 2.5e6
    assert len(blocks.code) == len(blocks.indices) == 230_145
    assert len({row.tobytes() for row in blocks.table}) == len(blocks.table)


def _pencil(mesh):
    p, alpha = QuadParams(0.4, -0.2, 1.3, 0.8), -3.0
    w = coefficient_values(p)
    return [affine_combination(mesh, w * mask) for mask in _pencil_weights(alpha)]


def _edit(mesh, field):
    """A copy of ``mesh`` with one entry of ``field`` changed."""
    a = getattr(mesh, field).copy()
    if field == "nodes":
        a[40] += 1e-3
    elif field == "tri_upper":
        a[7] = not a[7]
    elif field == "bedge_side":
        a[0] = (a[0] + 1) % 4
    else:  # bedge_nodes: one segment reversed
        a[0] = a[0, ::-1]
    return dataclasses.replace(mesh, **{field: a})


@pytest.mark.parametrize("field", ["nodes", "tri_upper", "bedge_side", "bedge_nodes"])
def test_edited_meshes_do_not_take_the_shared_blocks(builds, field):
    shared = _pencil(build_mesh(8))
    edited = _edit(build_mesh(8), field)
    got = _pencil(edited)
    assert builds == ["_stencil_pattern", "_sorted_pattern"]
    assert edited.affine_blocks is not affine_blocks(build_mesh(8))
    want = _pencil(_edit(build_mesh(8), field))
    for A, B in zip(got, want):
        assert np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
        assert np.array_equal(A.data, B.data)
    if field != "bedge_nodes":  # a reversed segment has the same blocks
        assert any(not np.array_equal(A.data, B.data) for A, B in zip(got, shared))


def test_share_keeps_only_the_keys_used_last(builds):
    keys = [(n, S) for n in (4, 5, 6) for S in (1.0, 0.5)]
    made = {key: build_mesh(*key) for key in keys}
    for key in keys:
        affine_blocks(made[key])
    kept = keys[-mesh_module._BUILT_KEYS :]
    assert mesh_module._cached_build.cache_info().currsize == len(kept)
    oldest = kept[0]
    assert build_mesh(*oldest) is made[oldest]  # a hit makes the key the most recent
    affine_blocks(build_mesh(*oldest))
    affine_blocks(build_mesh(9))  # a 4th key evicts the least recently used
    assert build_mesh(*oldest) is made[oldest] and build_mesh(*kept[-1]) is made[kept[-1]]
    assert build_mesh(*kept[1]) is not made[kept[1]]
    assert len(builds) == len(keys) + 1


def test_an_edited_copy_takes_the_sorted_builder_and_its_own_eigenvalue(builds):
    p, alpha = QuadParams(0.4, -0.2, 1.3, 0.8), -2.0
    built = build_mesh(16)
    before = solve_quad(p, alpha, built).lambda_h
    assert before == pytest.approx(-15.913942074037314, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):  # an in-place edit cannot leave stale blocks behind
        built.nodes[40] += 5e-2
    moved = built.nodes.copy()
    moved[40] += 5e-2
    copy = dataclasses.replace(built, nodes=moved)
    assert solve_quad(p, alpha, copy).lambda_h == pytest.approx(
        -15.913709354436033, rel=1e-12, abs=0.0
    )
    assert solve_quad(p, alpha, built).lambda_h == before
    # level 16 and its level-8 companion from the stencil, the copy sorted
    assert builds == ["_stencil_pattern", "_stencil_pattern", "_sorted_pattern"]
