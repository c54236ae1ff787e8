import dataclasses
import math

import numpy as np
import pytest

from quadrobin.assembly import _triangle_geometry
from quadrobin.errors import ParameterDomainError
from quadrobin.mesh import build_mesh, refine_mesh
from quadrobin.oracles import symmetry_permutation


def test_rejects_bad_arguments():
    with pytest.raises(ParameterDomainError):
        build_mesh(1)
    with pytest.raises(ParameterDomainError):
        build_mesh(4, S=-1.0)


@pytest.mark.parametrize("S", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_area(S):
    with pytest.raises(ParameterDomainError, match="S must be positive and finite"):
        build_mesh(4, S)


def test_build_mesh_returns_one_mesh_per_key():
    mesh = build_mesh(6, 0.7)
    assert build_mesh(6, 0.7) is mesh
    assert build_mesh(np.int64(6), np.float64(0.7)) is mesh
    assert build_mesh(6, 1.0) is not mesh
    assert build_mesh(7, 0.7) is not mesh


@pytest.mark.parametrize("make", [build_mesh, lambda n: refine_mesh(build_mesh(n))],
                         ids=["built", "refined"])
def test_meshes_cannot_be_edited(make):
    mesh = make(4)
    arrays = [f.name for f in dataclasses.fields(mesh) if isinstance(getattr(mesh, f.name), np.ndarray)]
    assert arrays == ["nodes", "triangles", "bedge_nodes", "bedge_side", "tri_upper", "qu", "qv"]
    for name in arrays:
        a = getattr(mesh, name)
        with pytest.raises(ValueError):
            a[0] = a[0]
    for f in dataclasses.fields(mesh):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(mesh, f.name, getattr(mesh, f.name))


@pytest.mark.parametrize("n", [2, 3, 8])
def test_node_count_and_mesh_size(n):
    m = build_mesh(n)
    assert m.dof_count == (n + 1) ** 2 + n**2
    assert m.h == pytest.approx(math.sqrt(2.0) / n, rel=1e-15)


def test_node_count_quadruples():
    ratios = [build_mesh(2 * n).dof_count / build_mesh(n).dof_count for n in (4, 10, 16)]
    assert all(r1 < r2 < 4.0 for r1, r2 in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 4.0) < 0.2


@pytest.mark.parametrize("n,S", [(2, 1.0), (5, 1.0), (8, 2.0)])
def test_boundary_nodes_lie_on_the_square(n, S):
    m = build_mesh(n, S)
    boundary_ids = np.unique(m.bedge_nodes)
    r = math.sqrt(S)
    xy = m.nodes[boundary_ids]
    assert np.max(np.abs(np.abs(xy[:, 0]) + np.abs(xy[:, 1]) - r)) <= 1e-14


@pytest.mark.parametrize("n", [2, 5, 8])
def test_symmetry_permutations_are_exact(n):
    m = build_mesh(n)
    for which, transform in (
        ("x", lambda q: np.column_stack([-q[:, 0], q[:, 1]])),
        ("y", lambda q: np.column_stack([q[:, 0], -q[:, 1]])),
        ("swap", lambda q: q[:, ::-1]),
    ):
        perm = symmetry_permutation(m, which)
        assert np.array_equal(m.nodes[perm], transform(m.nodes))
        assert len(np.unique(perm)) == m.dof_count


def test_no_triangle_crosses_the_axis():
    for n in (2, 5, 8):
        m = build_mesh(n)
        y = m.nodes[m.triangles][:, :, 1]
        assert np.all(y[m.tri_upper].min(axis=1) >= -1e-15)
        assert np.all(y[~m.tri_upper].max(axis=1) <= 1e-15)
        # both halves carry the same number of triangles
        assert m.tri_upper.sum() == 2 * n * n


def test_triangle_areas_positive_and_congruent():
    for n in (2, 6):
        m = build_mesh(n)
        areas, _ = _triangle_geometry(m.nodes, m.triangles)
        assert np.all(areas > 0)
        assert areas.sum() == pytest.approx(2.0, rel=1e-13)
        assert np.ptp(areas) <= 1e-14 * areas.max()  # crisscross: all congruent


def test_boundary_edges_sit_on_their_labelled_segment():
    m = build_mesh(6, S=1.0)
    r = 1.0
    # label k of EDGE_IDS lies on: y-x=r, x+y=r, x+y=-r, x-y=r
    constraint = {
        0: lambda p: p[:, 1] - p[:, 0] - r,
        1: lambda p: p[:, 0] + p[:, 1] - r,
        2: lambda p: p[:, 0] + p[:, 1] + r,
        3: lambda p: p[:, 0] - p[:, 1] - r,
    }
    for side in range(4):
        sel = m.bedge_side == side
        assert sel.sum() == 6
        mids = m.nodes[m.bedge_nodes[sel]].mean(axis=1)
        assert np.max(np.abs(constraint[side](mids))) <= 1e-14


def test_refine_is_nested_and_symmetric():
    m = build_mesh(4)
    r = refine_mesh(m)
    assert r.refinement_level == 8
    assert len(r.triangles) == 4 * len(m.triangles)
    assert len(r.bedge_nodes) == 2 * len(m.bedge_nodes)
    assert r.h == pytest.approx(m.h / 2)
    # parent nodes are preserved verbatim at the head of the array
    assert np.array_equal(r.nodes[: m.dof_count], m.nodes)
    for which in ("x", "y", "swap"):
        perm = symmetry_permutation(r, which)
        assert len(np.unique(perm)) == r.dof_count
    areas, _ = _triangle_geometry(r.nodes, r.triangles)
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(2.0, rel=1e-13)

