"""The vectorised mesh routines against the per-element loops they replaced."""

import numpy as np
import pytest

from quadrobin.mesh import build_mesh, refine_mesh
from quadrobin.oracles import symmetry_permutation


def _loop_reference(n, qu, qv):
    """Triangles, upper flags and boundary segments, one cell at a time."""

    def cid(iu, iv):  # corner node id
        return iu * (n + 1) + iv

    def mid(iu, iv):  # cell-centre node id
        return (n + 1) * (n + 1) + iu * n + iv

    tris, upper, bnodes, bside = [], [], [], []
    for iu in range(n):
        for iv in range(n):
            sw, se = cid(iu, iv), cid(iu + 1, iv)
            ne, nw = cid(iu + 1, iv + 1), cid(iu, iv + 1)
            ctr = mid(iu, iv)
            for tri in ((sw, se, ctr), (se, ne, ctr), (ne, nw, ctr), (nw, sw, ctr)):
                tris.append(tri)
                upper.append(int(sum(qu[k] + qv[k] for k in tri)) > 0)
            if iv == n - 1:
                bnodes.append((ne, nw)); bside.append(0)   # v = +L
            if iu == n - 1:
                bnodes.append((se, ne)); bside.append(1)   # u = +L
            if iu == 0:
                bnodes.append((nw, sw)); bside.append(2)   # u = -L
            if iv == 0:
                bnodes.append((sw, se)); bside.append(3)   # v = -L
    return (
        np.array(tris, dtype=np.int64),
        np.array(upper, dtype=bool),
        np.array(bnodes, dtype=np.int64),
        np.array(bside, dtype=np.int64),
    )


@pytest.mark.parametrize("n", [2, 3, 8, 17])
@pytest.mark.parametrize("S", [1.0, 2.5])
def test_build_mesh_matches_the_cell_loop(n, S):
    mesh = build_mesh(n, S)
    tris, upper, bnodes, bside = _loop_reference(n, mesh.qu, mesh.qv)
    for got, expected in (
        (mesh.triangles, tris),
        (mesh.tri_upper, upper),
        (mesh.bedge_nodes, bnodes),
        (mesh.bedge_side, bside),
    ):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


def _refine_reference(mesh):
    """Midpoint refinement with a dict from doubled labels to node ids."""
    key_to_id = {(2 * int(a), 2 * int(b)): i for i, (a, b) in enumerate(zip(mesh.qu, mesh.qv))}
    qu = [2 * int(a) for a in mesh.qu]
    qv = [2 * int(b) for b in mesh.qv]

    def midpoint(i, j):
        key = (qu[i] + qu[j]) // 2, (qv[i] + qv[j]) // 2
        node = key_to_id.get(key)
        if node is None:
            node = len(qu)
            key_to_id[key] = node
            qu.append(key[0])
            qv.append(key[1])
        return node

    tris, upper, bnodes, bside = [], [], [], []
    for (i, j, k), up in zip(mesh.triangles, mesh.tri_upper):
        mij, mjk, mki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
        tris.extend([(i, mij, mki), (mij, j, mjk), (mki, mjk, k), (mij, mjk, mki)])
        upper.extend([up] * 4)
    for (a, b), s in zip(mesh.bedge_nodes, mesh.bedge_side):
        m = midpoint(int(a), int(b))
        bnodes.extend([(int(a), m), (m, int(b))])
        bside.extend([s, s])
    return {
        "qu": np.array(qu, dtype=np.int64),
        "qv": np.array(qv, dtype=np.int64),
        "triangles": np.array(tris, dtype=np.int64),
        "tri_upper": np.array(upper, dtype=bool),
        "bedge_nodes": np.array(bnodes, dtype=np.int64),
        "bedge_side": np.array(bside, dtype=np.int64),
    }


def _permutation_reference(mesh, which):
    lookup = {(int(a), int(b)): i for i, (a, b) in enumerate(zip(mesh.qu, mesh.qv))}
    image = {"x": lambda a, b: (b, a), "y": lambda a, b: (-b, -a), "swap": lambda a, b: (a, -b)}
    return np.array(
        [lookup[image[which](int(a), int(b))] for a, b in zip(mesh.qu, mesh.qv)], dtype=np.int64
    )


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("S", [1.0, 2.5])
def test_refine_and_symmetry_match_the_loops(n, S):
    mesh = build_mesh(n, S)
    for _ in range(2):
        for which in ("x", "y", "swap"):
            assert np.array_equal(
                symmetry_permutation(mesh, which), _permutation_reference(mesh, which)
            )
        expected = _refine_reference(mesh)
        mesh = refine_mesh(mesh)
        for name, value in expected.items():
            got = getattr(mesh, name)
            assert got.dtype == value.dtype
            assert np.array_equal(got, value), name
