import math

import numpy as np
import pytest

from quadrobin import certificates as certs
from quadrobin import geometry
from quadrobin.errors import GeometryError, ParameterDomainError
from quadrobin.geometry import (
    EDGE_IDS,
    EdgeId,
    QuadParams,
    edge_length,
    hausdorff_distance_to_square,
    interior_angles,
    is_convex,
    map_forward,
    perimeter,
    quad_vertices,
    reference_square_vertices,
)
from quadrobin.oracles import (
    edge_endpoints,
    map_inverse,
    polygon_area,
    polygon_centroid,
    pullback_inner_products,
)

from conftest import random_params


def test_square_vertices():
    v = quad_vertices(QuadParams(0, 0, 1, 1, 1))
    assert np.allclose(v, [[-1, 0], [0, 1], [1, 0], [0, -1]], atol=0)


def test_vertex_coordinates_follow_parameters():
    v = quad_vertices(QuadParams(0.5, 0, 1, 1, 1))
    assert np.allclose(v, [[-1, 0], [0.5, 1], [1, 0], [0, -1]], atol=0)


def test_area_is_2S_for_random_parameters(rng):
    for p in random_params(rng, 10_000, a_range=5.0, c_range=(0.05, 8.0), s1_frac=(0.02, 0.98)):
        # vertices follow the boundary labels (clockwise): signed area is -2S
        assert abs(abs(polygon_area(quad_vertices(p))) - 2 * p.S) <= 1e-12 * max(1, p.S)
        assert polygon_area(quad_vertices(p)) < 0


def test_parameter_validation():
    with pytest.raises(ParameterDomainError):
        QuadParams(0, 0, -1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        QuadParams(0, 0, 0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        QuadParams(0, 0, 1.0, 2.0)  # S1 = 2S
    with pytest.raises(ParameterDomainError):
        QuadParams(0, 0, 1.0, -0.5)
    with pytest.raises(ParameterDomainError):
        QuadParams(0, 0, 1.0, 1.0, S=0.0)
    with pytest.raises(ParameterDomainError):
        QuadParams(float("nan"), 0, 1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        EdgeId(0, 1)


def test_params_json_roundtrip():
    p = QuadParams(0.25, -0.5, 1.25, 0.75, 2.0)
    assert QuadParams.from_json(p.to_json()) == p


def test_edge_lengths_on_square():
    p = QuadParams.square(1.0)
    for e in EDGE_IDS:
        assert edge_length(p, e) == pytest.approx(math.sqrt(2), abs=1e-15)
    for S in (0.5, 1.0, 2.0, 3.7):
        assert perimeter(QuadParams.square(S)) == pytest.approx(
            4 * math.sqrt(2 * S), rel=1e-14
        )


def test_edge_length_direct_substitution():
    # sqrt(S1^2/c^2 + (a1 + c)^2) with a1=3, c=1, S1=1
    p = QuadParams(3.0, 0.0, 1.0, 1.0)
    assert edge_length(p, EdgeId(1, 1)) == pytest.approx(math.sqrt(17), rel=1e-15)


def test_edge_length_matches_endpoint_distance(rng):
    for p in random_params(rng, 200, a_range=4.0):
        for e in EDGE_IDS:
            q0, q1 = edge_endpoints(p, e)
            assert edge_length(p, e) == pytest.approx(
                float(np.linalg.norm(q1 - q0)), abs=1e-13
            )


def test_interior_angles_square():
    assert np.allclose(interior_angles(QuadParams.square()), math.pi / 2, atol=1e-14)


def test_interior_angles_sum_to_2pi(rng):
    for p in random_params(rng, 300):
        angles = interior_angles(p)
        assert abs(angles.sum() - 2 * math.pi) <= 1e-12
        assert np.all(angles > 0) and np.all(angles < 2 * math.pi)


def _oracle_angle(v_prev, v, v_next):
    """Unsigned angle between the two edges at v (valid for convex vertices)."""
    u = v_prev - v
    w = v_next - v
    return math.acos(np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w)))


def test_interior_angle_oracle_and_sharp_corner():
    p = QuadParams(0.9, 0.0, 1.0, 1.0)
    v = quad_vertices(p)
    angles = interior_angles(p)
    assert is_convex(p)
    for k in range(4):
        assert angles[k] == pytest.approx(
            _oracle_angle(v[k - 1], v[k], v[(k + 1) % 4]), abs=1e-12
        )
    assert angles.min() < math.pi / 2


def test_reflex_angle_reported_above_pi():
    # the turn at (c, 0) flips sign once b1 (a2 - c) > b2 (c - a1)
    p = QuadParams(3.0, 0.0, 1.0, 1.0)
    angles = interior_angles(p)
    assert not is_convex(p)
    assert angles.max() > math.pi
    assert abs(angles.sum() - 2 * math.pi) <= 1e-12


def test_collinear_vertices_raise():
    # (a2 + c) b1 = -(a1 + c) b2 puts (-c, 0) on the segment between apexes
    with pytest.raises(GeometryError):
        interior_angles(QuadParams(-2.0, 0.0, 1.0, 1.0))


def _mp_interior_angles(p, mp):
    """interior_angles in 50 digits, from the float vertices taken as exact.

    Each angle is the turn from the direction of the edge back to the
    previous vertex to that of the edge on to the next one, in [0, 2 pi),
    as the difference of two atan2 values.  A vertex whose cross product is
    at most 1e-14 times its edges' lengths raises as interior_angles does.
    """
    v = [(mp.mpf(x), mp.mpf(y)) for x, y in quad_vertices(p).tolist()]
    angles = []
    with mp.workdps(50):
        for k in range(4):
            (x0, y0), (x1, y1), (x2, y2) = v[k - 1], v[k], v[(k + 1) % 4]
            cross = (y1 - y0) * (x2 - x1) - (x1 - x0) * (y2 - y1)
            scale = mp.hypot(x1 - x0, y1 - y0) * mp.hypot(x2 - x1, y2 - y1)
            if scale == 0 or abs(cross) <= mp.mpf(1e-14) * scale:
                raise GeometryError(f"collinear vertex triple at vertex {k} of {p}")
            turn = mp.atan2(y2 - y1, x2 - x1) - mp.atan2(y0 - y1, x0 - x1)
            angles.append(turn % (2 * mp.pi))
    return angles


# members with an interior angle below 1e-3 rad, at (-c, 0) and (c, 0) or at
# an apex, where pi - atan2(cross, dot) is off by 7e-14 to 1e-9 relative
_SHARP_SHAPES = [
    QuadParams(0.0, 0.1, 50.0, 1.0),
    QuadParams(0.0, 0.0, 0.02, 0.9),
    QuadParams(0.5, 0.2, 0.01, 1.5),
    QuadParams(60.0, -45.0, 1.0, 1.0),
    QuadParams(3000.0, 2000.0, 1.0, 1.0),
]


def test_interior_angles_match_a_50_digit_angle():
    mp = pytest.importorskip("mpmath")
    shapes = _oracle_shapes(np.random.default_rng(31), 400)
    # (-c, 0) on the segment between the apexes, (c, 0) on it, and 1e-9 off it
    degenerate = [QuadParams(-2.0, 0.0, 1.0, 1.0), QuadParams(2.0, 0.0, 1.0, 1.0),
                  QuadParams(-1.0, 1.0, 0.5, 0.5), QuadParams(-2.0 + 1e-9, 0.0, 1.0, 1.0)]
    raised = 0
    for p in shapes + _SHARP_SHAPES + degenerate:
        try:
            want = _mp_interior_angles(p, mp)
        except GeometryError as err:
            with pytest.raises(GeometryError) as got:
                interior_angles(p)
            assert str(got.value) == str(err)
            assert not is_convex(p)
            raised += 1
            continue
        angles = interior_angles(p)
        for got, exact in zip(angles.tolist(), want):
            assert abs(got - exact) <= 1e-15 * exact, (p, got, exact)
        assert is_convex(p) == all(t < mp.pi for t in want)
    assert raised == 3
    assert any(is_convex(p) for p in shapes) and any(not is_convex(p) for p in shapes)
    assert all(min(interior_angles(p)) < 1e-3 for p in _SHARP_SHAPES)


def test_closed_form_centroid_matches_the_shoelace_centroid():
    shapes = _oracle_shapes(np.random.default_rng(33), 200)
    assert any(is_convex(p) for p in shapes) and any(not is_convex(p) for p in shapes)
    for p in shapes:
        v = quad_vertices(p)
        scale = np.abs(v).max()
        got = np.array(geometry._centroid(p))
        assert np.all(np.abs(got - polygon_centroid(v)) <= 1e-15 * scale), p
    for S in (0.5, 1.0, 2.5, 4.0):
        square = QuadParams.square(S)
        assert geometry._centroid(square) == (0.0, 0.0)
    # the box half-width sqrt(S) sqrt(1/2) holds the turned vertices exactly
    for S in (1.0, 4.0):
        assert hausdorff_distance_to_square(QuadParams.square(S)) == 0.0
    # what is left is roundoff: at S = 0.5 and 2.5 the apexes S / sqrt(S)
    # round an ulp off sqrt(S)
    for S in (0.5, 2.5):
        square = QuadParams.square(S)
        assert hausdorff_distance_to_square(square) <= 2.0 * math.ulp(square.c)


def test_polygon_centroid_and_area_match_the_rolled_formulas():
    for p in _oracle_shapes(np.random.default_rng(32), 50):
        v = quad_vertices(p)
        x, y = v[:, 0], v[:, 1]
        x1, y1 = np.roll(x, -1), np.roll(y, -1)
        cross = x * y1 - x1 * y
        area = 0.5 * cross.sum()
        want = [np.dot(x + x1, cross) / (6.0 * area), np.dot(y + y1, cross) / (6.0 * area)]
        assert np.array_equal(polygon_centroid(v), want)
        assert polygon_area(v) == 0.5 * float(np.dot(x, y1) - np.dot(y, x1))


def test_rectangle_members_have_right_angles():
    # rectangles in the family: S1 = S, a2 = -a1, a1^2 = c^2 - S^2/c^2
    for c in (1.1, 1.3, math.sqrt(2.0)):
        a = math.sqrt(c * c - 1.0 / (c * c))
        p = QuadParams(a, -a, c, 1.0)
        assert np.allclose(interior_angles(p), math.pi / 2, atol=1e-12)


def test_maps_are_identity_on_square():
    p = QuadParams.square(1.0)
    assert np.allclose(map_forward(p).upper, np.eye(2), atol=1e-15)
    assert np.allclose(map_forward(p).lower, np.eye(2), atol=1e-15)
    assert np.allclose(map_inverse(p).upper, np.eye(2), atol=1e-15)


def test_forward_map_sends_reference_vertices_to_quad_vertices(rng):
    ref = np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, -1.0]])
    for p in random_params(rng, 100):
        got = map_forward(p).apply(math.sqrt(p.S) * ref / 1.0)
        assert np.allclose(got, quad_vertices(p), atol=1e-13)


def test_forward_map_example():
    fwd = map_forward(QuadParams(0, 0, 2.0, 1.0, 1.0))
    assert np.allclose(fwd.apply(np.array([1.0, 0.0])), [2.0, 0.0], atol=1e-15)


def test_map_determinants(rng):
    for p in random_params(rng, 100):
        fwd = map_forward(p)
        assert np.linalg.det(fwd.upper) == pytest.approx(p.S1 / p.S, rel=1e-13)
        assert np.linalg.det(fwd.lower) == pytest.approx(p.S2 / p.S, rel=1e-13)


def test_map_continuity_across_interface(rng):
    for p in random_params(rng, 50):
        fwd = map_forward(p)
        x = rng.uniform(-1, 1, 20)
        pts = np.column_stack([x, np.zeros_like(x)])
        assert np.allclose(pts @ fwd.upper.T, pts @ fwd.lower.T, atol=1e-14)


def test_map_roundtrip(rng):
    p = QuadParams(0.4, -0.3, 1.7, 0.6)
    fwd, inv = map_forward(p), map_inverse(p)
    pts = rng.uniform(-0.5, 0.5, (100, 2))
    assert np.abs(inv.apply(fwd.apply(pts)) - pts).max() <= 1e-13


def test_pullback_identities_constants():
    p = QuadParams(0.3, -0.2, 1.4, 0.8)
    one = lambda pts: np.ones(len(pts))
    check = pullback_inner_products(p, one, one)
    assert check.interior_lhs == pytest.approx(2 * p.S, rel=1e-12)
    assert check.interior_rhs == pytest.approx(2 * p.S, rel=1e-12)
    for k, e in enumerate(EDGE_IDS):
        assert check.edge_lhs[k] == pytest.approx(edge_length(p, e), rel=1e-12)
        assert check.edge_mismatch[k] <= 1e-12 * max(1.0, check.edge_lhs[k])


def test_pullback_identities_smooth_functions():
    p = QuadParams(0.3, -0.2, 1.4, 0.8)
    u = lambda pts: np.exp(0.3 * pts[:, 0]) * np.cos(0.7 * pts[:, 1])
    v = lambda pts: 1.0 + 0.2 * pts[:, 0] * pts[:, 1] + np.sin(0.4 * pts[:, 0])
    check = pullback_inner_products(p, u, v, order=24, cross_order=31)
    assert check.interior_mismatch <= 1e-10 * max(1.0, abs(check.interior_lhs))
    assert np.all(check.edge_mismatch <= 1e-10 * np.maximum(1.0, np.abs(check.edge_lhs)))


def test_pullback_rejects_non_finite_samples():
    from quadrobin.errors import ContractError

    p = QuadParams(0.3, -0.2, 1.4, 0.8)
    bad = lambda pts: np.full(len(pts), np.nan)
    one = lambda pts: np.ones(len(pts))
    with pytest.raises(ContractError):
        pullback_inner_products(p, bad, one, order=4, cross_order=5)


def test_hausdorff_square_is_zero():
    assert hausdorff_distance_to_square(
        QuadParams.square(), rotations=180, samples_per_edge=200
    ) <= 1e-12


def test_hausdorff_reflection_symmetry():
    p = QuadParams(0.8, -0.3, 1.4, 0.7)
    mirror = QuadParams(p.a2, p.a1, p.c, p.S2, p.S)  # across the x-axis
    d1 = hausdorff_distance_to_square(p, rotations=180, samples_per_edge=200)
    d2 = hausdorff_distance_to_square(mirror, rotations=180, samples_per_edge=200)
    assert d1 == pytest.approx(d2, abs=1e-12)
    assert d1 > 0.05


def test_hausdorff_respects_diameter_lower_bound():
    # for any isometry, d_H >= |diam(quad) - diam(square)| / 2
    p = QuadParams(4.0, 0.0, 1.0, 1.0)
    v = quad_vertices(p)
    diam = max(
        np.linalg.norm(v[i] - v[j]) for i in range(4) for j in range(i + 1, 4)
    )
    lower = (diam - 2.0 * math.sqrt(p.S)) / 2.0
    d = hausdorff_distance_to_square(p, rotations=360, samples_per_edge=400)
    assert d >= lower - 1e-9
    assert d <= diam  # sanity upper bound


def test_hausdorff_small_perturbation_is_small():
    d = hausdorff_distance_to_square(
        QuadParams(0.1, 0.0, 1.0, 1.0), rotations=180, samples_per_edge=200
    )
    assert 0.0 < d < 0.2


# --- the rotation loop hausdorff_distance_to_square replaced, as the oracle ---


def _sample_boundary(vertices: np.ndarray, per_edge: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, per_edge, endpoint=False)
    chunks = []
    for k in range(len(vertices)):
        a = vertices[k]
        b = vertices[(k + 1) % len(vertices)]
        chunks.append(a[None, :] + t[:, None] * (b - a)[None, :])
    return np.concatenate(chunks, axis=0)


def _points_in_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Crossing-number containment test for a simple polygon (vectorized)."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    n = len(vertices)
    for k in range(n):
        x0, y0 = vertices[k]
        x1, y1 = vertices[(k + 1) % n]
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < np.where(crosses, xi, np.inf))
    return inside


def _dist_to_boundary(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Distance from each point to the polygon boundary (min over segments)."""
    best = np.full(len(points), np.inf)
    n = len(vertices)
    for k in range(n):
        a = vertices[k]
        b = vertices[(k + 1) % n]
        ab = b - a
        denom = float(np.dot(ab, ab))
        t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
        proj = a[None, :] + t[:, None] * ab[None, :]
        best = np.minimum(best, np.linalg.norm(points - proj, axis=1))
    return best


def _directed_hausdorff(samples: np.ndarray, target: np.ndarray) -> float:
    d = _dist_to_boundary(samples, target)
    d[_points_in_polygon(samples, target)] = 0.0
    return float(d.max())


def _loop_hausdorff_reference(
    p: QuadParams, rotations: int = 720, samples_per_edge: int = 1000
) -> float:
    """The per-rotation loop the vectorised distance replaced, kept verbatim."""
    square = reference_square_vertices(p.S)
    quad = quad_vertices(p) - polygon_centroid(quad_vertices(p))
    quad_samples = _sample_boundary(quad, samples_per_edge)
    square_samples = _sample_boundary(square, samples_per_edge)

    best = np.inf
    angles = np.linspace(0.0, 2.0 * math.pi, rotations, endpoint=False)
    for theta in angles:
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        rq_vertices = quad @ rot.T
        rq_samples = quad_samples @ rot.T
        d = max(
            _directed_hausdorff(rq_samples, square),
            _directed_hausdorff(square_samples, rq_vertices),
        )
        best = min(best, d)
    return best


def _oracle_shapes(rng, count):
    """Random members, non-convex ones included: |a_j| <= 4, c in [0.3, 3]."""
    return [
        QuadParams(
            float(rng.uniform(-4.0, 4.0)),
            float(rng.uniform(-4.0, 4.0)),
            float(rng.uniform(0.3, 3.0)),
            float(rng.uniform(0.1, 1.9)),
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "rotations, samples_per_edge, count",
    # 7, 30 and 36 have gcd 1, 2 and 4 with 4: their quarter-turn residues
    # are 4, 2 and 1 times finer than the grid
    [(90, 150, 136), (180, 200, 34), (180, 250, 34), (7, 60, 12), (30, 60, 12), (36, 60, 12)],
)
def test_hausdorff_matches_the_rotation_loop(rotations, samples_per_edge, count):
    rng = np.random.default_rng(rotations * 1000 + samples_per_edge)
    shapes = _oracle_shapes(rng, count) + [_SAMPLED_SHAPE]
    assert any(not is_convex(p) for p in shapes) and any(is_convex(p) for p in shapes)
    for p in shapes:
        want = _loop_hausdorff_reference(p, rotations, samples_per_edge)
        got = hausdorff_distance_to_square(p, rotations, samples_per_edge)
        assert abs(got - want) <= 1e-12, (p, got, want)
    assert hausdorff_distance_to_square(
        QuadParams.square(), rotations, samples_per_edge
    ) <= 1e-12


def test_hausdorff_matches_the_rotation_loop_at_the_defaults():
    shapes = [
        QuadParams(0.6, -0.4, 1.2, 0.8),  # convex
        QuadParams(3.0, 0.0, 1.0, 1.0),  # reflex vertex at (c, 0)
        QuadParams(-0.9, 1.7, 2.1, 2.9, S=2.0),
    ]
    assert not is_convex(shapes[1])
    for p in shapes:
        want = _loop_hausdorff_reference(p)
        assert abs(hausdorff_distance_to_square(p) - want) <= 1e-12


# --- vertex bounds: which rotations the square -> quad samples still decide ---

# non-convex: 12 of 180 rotations stay undecided by the vertex bounds
_SAMPLED_SHAPE = QuadParams(1.58, 0.41, 0.96, 0.99)


def _theorem3_draws(rng, count, alpha=-1.0):
    """Shapes from the four draw modes of verify-theorem3, taken in turn."""
    th = certs.parameter_thresholds(alpha, 1.0)
    shapes = []
    for i in range(count):
        a1, a2, c, S1 = 0.0, 0.0, 1.0, 1.0
        scale = 1.0 + rng.uniform(0.05, 3.0)
        mode = i % 4
        if mode == 0:
            a1 = float(rng.choice([-1.0, 1.0])) * th.A * scale
            a2 = float(rng.uniform(-2, 2))
        elif mode == 1:
            c = th.c1 * scale
        elif mode == 2:
            c = th.c2 / scale
        else:
            S1 = th.S_tilde / scale if rng.random() < 0.5 else 2.0 - th.S_tilde / scale
        shapes.append(QuadParams(a1, a2, c, float(S1), 1.0))
    return shapes


@pytest.fixture
def sampled_rotations(monkeypatch):
    """Rotations handed to the sample pass, appended per call."""
    counts = []
    sample_pass = geometry._sampled_search

    def counting(px, py, lo, *args):
        counts.append(len(lo))
        return sample_pass(px, py, lo, *args)

    monkeypatch.setattr(geometry, "_sampled_search", counting)
    return counts


def test_vertex_bounds_decide_convex_shapes_and_theorem3_draws(sampled_rotations):
    rng = np.random.default_rng(3)
    convex = [p for p in _oracle_shapes(rng, 60) if is_convex(p)]
    convex += [QuadParams.square(), QuadParams(0.6, -0.4, 1.2, 0.8), QuadParams(0.0, 0.0, 2.0, 1.0)]
    assert len(convex) >= 10
    for p in convex:
        hausdorff_distance_to_square(p, rotations=180, samples_per_edge=250)
    assert sampled_rotations == []
    for alpha in (-1.0, -4.0):
        draws = _theorem3_draws(np.random.default_rng(7), 32, alpha)
        for p in draws:
            hausdorff_distance_to_square(p, rotations=180, samples_per_edge=250)
        assert sampled_rotations == []


def test_undecided_rotations_are_sampled_and_keep_the_loop_value(sampled_rotations):
    p = _SAMPLED_SHAPE
    assert not is_convex(p)
    got = hausdorff_distance_to_square(p, rotations=180, samples_per_edge=250)
    assert 0 < sum(sampled_rotations) < 180
    assert abs(got - _loop_hausdorff_reference(p, 180, 250)) <= 1e-12


def _rotation_bounds(square, quad, rotations, convex):
    """``geometry._vertex_bounds`` for the centred vertices ``quad`` (4, 2) and
    the square ``reference_square_vertices(S)``, as (lo, hi) per residue."""
    r = float(square[2, 0])
    frames, _ = geometry._quad_frames([complex(x, y) for x, y in quad.tolist()], r)
    return geometry._vertex_bounds(frames, rotations, r, convex)


def test_vertex_bounds_enclose_each_sampled_rotation():
    rotations, samples_per_edge = 90, 150
    shapes = _oracle_shapes(np.random.default_rng(11), 16) + [_SAMPLED_SHAPE]
    assert any(not is_convex(p) for p in shapes) and any(is_convex(p) for p in shapes)
    square = reference_square_vertices()
    square_samples = _sample_boundary(square, samples_per_edge)
    for p in shapes:
        quad = quad_vertices(p) - polygon_centroid(quad_vertices(p))
        lo, hi = _rotation_bounds(square, quad, rotations, is_convex(p))
        to_x = geometry._quarter_turn_residues(rotations)[1, 0]
        angles = np.arctan2(to_x[:, 1], to_x[:, 0])
        quad_samples = _sample_boundary(quad, samples_per_edge)
        for theta, lo_t, hi_t in zip(angles, np.sqrt(lo), np.sqrt(hi)):
            rot = np.array(
                [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
            )
            sampled = max(
                _directed_hausdorff(quad_samples @ rot.T, square),
                _directed_hausdorff(square_samples, quad @ rot.T),
            )
            assert lo_t - 1e-12 <= sampled <= hi_t + 1e-12, (p, theta, lo_t, sampled, hi_t)


# --- quarter-turn residues: each distinct angle of the grid is searched once ---


@pytest.mark.parametrize("rotations, residues", [(180, 45), (90, 45), (7, 7)])
def test_rotation_bounds_evaluate_one_angle_per_quarter_turn_residue(rotations, residues):
    square = reference_square_vertices()
    quad = quad_vertices(_SAMPLED_SHAPE) - polygon_centroid(quad_vertices(_SAMPLED_SHAPE))
    to_x, to_y = geometry._quarter_turn_residues(rotations)[1]
    assert to_x.shape == to_y.shape == (residues, 2)
    for convex in (True, False):
        lo, hi = _rotation_bounds(square, quad, rotations, convex)
        assert lo.shape == hi.shape == (residues,)
    angles = np.arctan2(to_x[:, 1], to_x[:, 0])
    assert np.all((0.0 <= angles) & (angles < 0.5 * math.pi))


@pytest.mark.parametrize(
    "rotations, samples_per_edge", [(0, 100), (-3, 100), (90, 0), (90, -1)]
)
def test_hausdorff_rejects_empty_searches(rotations, samples_per_edge):
    with pytest.raises(ParameterDomainError):
        hausdorff_distance_to_square(QuadParams.square(), rotations, samples_per_edge)


@pytest.mark.parametrize(
    "counts",
    [
        {"rotations": 180.0},
        {"rotations": 180.5},
        {"samples_per_edge": 2.5},
        {"samples_per_edge": 250.0},
        {"rotations": True},
        {"samples_per_edge": np.True_},
        {"rotations": "180"},
    ],
)
def test_hausdorff_rejects_counts_that_are_not_integers(counts):
    # _SAMPLED_SHAPE has undecided rotations, so samples_per_edge is read
    with pytest.raises(ParameterDomainError):
        hausdorff_distance_to_square(_SAMPLED_SHAPE, **{"rotations": 180, "samples_per_edge": 250, **counts})


def test_hausdorff_accepts_numpy_integer_counts():
    for p in (_SAMPLED_SHAPE, QuadParams(0.6, -0.4, 1.2, 0.8)):
        want = hausdorff_distance_to_square(p, 180, 250)
        assert hausdorff_distance_to_square(p, np.int64(180), np.int32(250)) == want
        assert hausdorff_distance_to_square(p, np.uint8(180), np.int16(250)) == want


# --- the complex kernel against a plain-float search, one rotation at a time ---


def _plain_sq_to_segment(px, py, a, b):
    """Squared distance from (px, py) to the segment a -> b."""
    (ax, ay), (bx, by) = a, b
    ex, ey = bx - ax, by - ay
    t = min(max(((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey), 0.0), 1.0)
    dx, dy = px - (ax + t * ex), py - (ay + t * ey)
    return dx * dx + dy * dy


def _plain_sq_to_polygon(px, py, poly):
    """Squared distance from (px, py) to a polygon's region, 0 inside it.

    Inside by crossing number; outside, the least squared distance to an
    edge.
    """
    inside = False
    for (ax, ay), (bx, by) in zip(poly[-1:] + poly[:-1], poly):
        if (ay > py) != (by > py) and px < ax + (py - ay) * (bx - ax) / (by - ay):
            inside = not inside
    if inside:
        return 0.0
    return min(_plain_sq_to_segment(px, py, poly[k - 1], poly[k]) for k in range(len(poly)))


def _plain_float_search(p, rotations, samples_per_edge):
    """min over the grid's rotations theta of the larger directed distance.

    One rotation at a time, in plain floats: the quad turned by theta
    against the fixed square, quad -> square at the quad's vertices and
    square -> quad at ``samples_per_edge`` points per square edge.  The
    value repeats every quarter turn, so theta runs over the grid's angles
    in [0, pi/2) (``rotations`` a multiple of 4).  The distance to a convex
    quad is convex along a square edge, so a convex quad is measured at the
    square's vertices alone.
    """
    v = [(-p.c, 0.0), (p.a1, p.S1 / p.c), (p.c, 0.0), (p.a2, -p.S2 / p.c)]
    area = cx = cy = 0.0
    for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1]):
        w = x0 * y1 - x1 * y0
        area += w
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    cx, cy = cx / (3.0 * area), cy / (3.0 * area)
    quad = [(x - cx, y - cy) for x, y in v]
    r = math.sqrt(p.S)
    square = [(-r, 0.0), (0.0, r), (r, 0.0), (0.0, -r)]
    between = [
        (ax + (j / samples_per_edge) * (bx - ax), ay + (j / samples_per_edge) * (by - ay))
        for j in range(1, 1 if is_convex(p) else samples_per_edge)
        for (ax, ay), (bx, by) in zip(square, square[1:] + square[:1])
    ]
    # the value at the vertices bounds each rotation's from below, so the
    # rotations run in its order and stop once none can win
    bounded = []
    for k in range(rotations // 4):
        theta = 2.0 * math.pi * k / rotations
        c, s = math.cos(theta), math.sin(theta)
        turned = [(x * c - y * s, x * s + y * c) for x, y in quad]
        # outside the square, its edge in the quadrant of (|x|, |y|) is the nearest
        value = max(
            [0.0 if abs(x) + abs(y) <= r else _plain_sq_to_segment(abs(x), abs(y), square[2], square[1])
             for x, y in turned]
            + [_plain_sq_to_polygon(x, y, turned) for x, y in square]
        )
        bounded.append((value, turned))
    bounded.sort(key=lambda pair: pair[0])
    best = math.inf
    for value, turned in bounded:
        if value >= best:
            break
        for x, y in between:
            value = max(value, _plain_sq_to_polygon(x, y, turned))
            if value >= best:
                break
        best = min(best, value)
    return math.sqrt(best)


def test_complex_kernel_agrees_with_a_plain_float_search():
    rng = np.random.default_rng(60)
    shapes = _oracle_shapes(rng, 60) + [_SAMPLED_SHAPE]
    draws = _theorem3_draws(rng, 100, -1.0) + _theorem3_draws(rng, 100, -4.0)
    for group in (shapes, draws):
        assert any(is_convex(p) for p in group) and any(not is_convex(p) for p in group)
    # square vertices inside the quad, which the kernel measures against its edges alone
    square = reference_square_vertices().tolist()
    assert any(
        _plain_sq_to_polygon(x, y, (quad_vertices(p) - polygon_centroid(quad_vertices(p))).tolist()) == 0.0
        for p in shapes + draws
        for x, y in square
    )
    for p in shapes + draws:
        want = _plain_float_search(p, 180, 250)
        got = hausdorff_distance_to_square(p, 180, 250)
        assert abs(got - want) <= 8 * np.spacing(want), (p, got, want)


def _centred_frames(p):
    """``_quad_frames`` of the centred vertices, as hausdorff_distance_to_square forms them."""
    v = quad_vertices(p)
    q = v - polygon_centroid(v)
    return geometry._quad_frames([complex(x, y) for x, y in q.tolist()], math.sqrt(p.S))


def test_search_convexity_matches_is_convex():
    shapes = _oracle_shapes(np.random.default_rng(42), 400) + _theorem3_draws(np.random.default_rng(43), 64)
    # (-c, 0) and (c, 0) at distance ~eps from the segment between the apexes
    near = [
        QuadParams(s * (2.0 + t * e), 0.0, 1.0, 1.0)
        for e in np.logspace(-17, -11, 25) for t in (1, -1) for s in (1, -1)
    ]
    extremes = [
        QuadParams(a1, a2, c, S1)
        for c in (1e-6, 1e9)
        for a1, a2 in ((0.0, 0.0), (5.0, -1.0), (-2.0, 2.0))
        for S1 in (1e-12, 1.0, 2.0 - 1e-12)
    ]
    flags = {True: 0, False: 0}
    for p in shapes + near + extremes:
        convex = _centred_frames(p)[1]
        assert convex == is_convex(p), p
        flags[convex] += 1
    assert min(flags.values()) > 50
    # a convex quad gives the same distance on the non-convex path
    for p in [p for p in shapes if is_convex(p)][:40]:
        square = reference_square_vertices(p.S)
        quad = quad_vertices(p) - polygon_centroid(quad_vertices(p))
        fast, _ = _rotation_bounds(square, quad, 180, True)
        lo, hi = _rotation_bounds(square, quad, 180, False)
        assert np.all(np.abs(lo - fast) <= 4 * np.spacing(fast)), p
        assert abs(hi.min() - fast.min()) <= 4 * np.spacing(fast.min()), p


# --- the fused vertex pass: closed-form quad -> square, one edge pass back ---


@pytest.mark.parametrize("S", [1.0, 0.3, 2.5])
def test_closed_form_box_distance_matches_the_polygon_kernel(S):
    rng = np.random.default_rng(int(10 * S))
    square = reference_square_vertices(S)
    r = math.sqrt(S)
    near, far = rng.uniform(-r, r, (1000, 2)), rng.uniform(-4.0 * r, 4.0 * r, (1000, 2))
    inside = near[np.abs(near).sum(axis=1) < 0.99 * r][:300]
    outside = far[np.abs(far).sum(axis=1) > 1.01 * r][:300]
    t = rng.uniform(0.0, 1.0, (300, 1))
    k = rng.integers(0, 4, 300)
    boundary = square[k] + t * (square[(k + 1) % 4] - square[k])
    assert len(inside) == len(outside) == 300
    x, y = np.concatenate([inside, outside, boundary]).T
    # turned by pi/4 the square is the box |u|, |v| <= sqrt(S/2)
    c = math.cos(0.25 * math.pi)
    h = np.full(2 * len(x), math.sqrt(S / 2))
    got = geometry._sq_dist_outside_box((c * x - c * y) + 1j * (c * x + c * y), h)
    want = _two_call_sq_dist_outside(x, y, square)
    assert np.all(got[:300] == 0.0) and np.all(want[:300] == 0.0)
    assert np.all(got[300:600] > 0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-28 * S)


def _angle_convexity(p):
    """is_convex as the interior angles define it: every angle below pi."""
    try:
        return bool(np.all(interior_angles(p) < math.pi))
    except GeometryError:
        return False


def test_is_convex_matches_the_interior_angles():
    shapes = _oracle_shapes(np.random.default_rng(41), 400)
    reflex = [QuadParams(3.0, 0.0, 1.0, 1.0), QuadParams(0.0, -3.0, 1.0, 1.0), _SAMPLED_SHAPE]
    # (-c, 0) at distance ~eps from the segment between the apexes: the
    # collinearity test |cross| <= 1e-14 scale raises for eps up to about
    # 2e-14; beyond it eps > 0 bulges out (convex), eps < 0 is reflex
    near = [QuadParams(-2.0 + s * e, 0.0, 1.0, 1.0) for e in np.logspace(-17, -11, 25) for s in (1, -1)]
    # verify-theorem3 clamps c to [1e-6, 1e9] and S1 to [1e-12, 2S - 1e-12]
    extremes = [
        QuadParams(a1, a2, c, S1)
        for c in (1e-6, 1e9)
        for a1, a2 in ((0.0, 0.0), (5.0, -1.0), (-2.0, 2.0))
        for S1 in (1e-12, 1.0, 2.0 - 1e-12)
    ]
    assert any(not is_convex(p) for p in shapes) and all(not is_convex(p) for p in reflex)
    for p in shapes + reflex + near + extremes:
        assert is_convex(p) == _angle_convexity(p), p
    outcomes = set()
    for p in near:
        try:
            interior_angles(p)
        except GeometryError:
            outcomes.add("collinear")
        else:
            outcomes.add(is_convex(p))
    assert outcomes == {True, False, "collinear"}


def _two_call_sq_dist_outside(px, py, polygons):
    """The broadcast polygon kernel the fused vertex pass replaced, verbatim."""
    polygons = polygons.reshape((1,) * (px.ndim + 1 - polygons.ndim) + polygons.shape)
    a = np.moveaxis(polygons, -2, 0)[..., None, :]
    b = np.concatenate([a[1:], a[:1]])
    ax, ay, bx, by = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    abx, aby = bx - ax, by - ay
    dx, dy = px - ax, py - ay
    slope = np.divide(abx, aby, out=np.zeros(abx.shape), where=aby != 0.0)
    hit = (py < ay) != (py < by)
    hit &= dx < dy * slope
    inside = np.logical_xor.reduce(hit)
    inv = 1.0 / (abx * abx + aby * aby)
    t = dx * (abx * inv)
    t += dy * (aby * inv)
    np.clip(t, 0.0, 1.0, out=t)
    dx -= t * abx
    dy -= t * aby
    np.square(dx, out=dx)
    dx += np.square(dy, out=dy)
    best = dx.min(axis=0)
    best[inside] = 0.0
    return best


def _two_call_bounds(square, quad, to_x, to_y, convex):
    """The vertex bounds as the fused pass replaced them, kept as the oracle.

    One kernel call measures the quad's vertices turned by theta against the
    square and the square's turned by -theta against the quad; a second
    measures the square's against the quad's two triangles.
    """
    by_theta = [np.column_stack([to_x[:, 0], to_y[:, 0]]), np.column_stack([to_x[:, 1], to_y[:, 1]])]
    turn = np.stack([by_theta, [to_x, to_y]])
    px, py = (turn @ np.stack([quad.T, square.T])[:, None]).transpose(1, 0, 2, 3)
    d = _two_call_sq_dist_outside(px, py, np.stack([square, quad])[:, None])
    sq = d[0].max(axis=1)
    lo = np.maximum(sq, d[1].max(axis=1))
    if convex:
        return lo, lo
    pieces = np.stack([quad[[0, 1, 2]], quad[[2, 3, 0]]])[:, None]
    d = _two_call_sq_dist_outside(px[1], py[1], pieces)
    edge = np.maximum(d, np.concatenate([d[..., 1:], d[..., :1]], axis=-1)).min(axis=0)
    return lo, np.maximum(sq, edge.max(axis=1))


@pytest.mark.parametrize("rotations", [180, 7, 30, 36])
def test_fused_vertex_bounds_match_the_two_call_composition(rotations):
    rng = np.random.default_rng(50 + rotations)
    shapes = _oracle_shapes(rng, 40) + _theorem3_draws(rng, 16) + [
        _SAMPLED_SHAPE,
        QuadParams.square(),
        QuadParams(-0.9, 1.7, 2.1, 2.9, S=2.0),
    ]
    assert any(not is_convex(p) for p in shapes) and any(is_convex(p) for p in shapes)
    for p in shapes:
        square = reference_square_vertices(p.S)
        quad = quad_vertices(p) - polygon_centroid(quad_vertices(p))
        for convex in {is_convex(p), False}:
            lo, hi = _rotation_bounds(square, quad, rotations, convex)
            to_x, to_y = geometry._quarter_turn_residues(rotations)[1]
            want_lo, want_hi = _two_call_bounds(square, quad, to_x, to_y, convex)
            assert np.all(np.abs(lo - want_lo) <= 1e-12 * np.maximum(1.0, want_lo)), p
            assert np.all(np.abs(hi - want_hi) <= 1e-12 * np.maximum(1.0, want_hi)), p
            assert np.all(lo <= hi)


def test_each_theorem3_draw_evaluates_interior_angles_once(monkeypatch):
    alpha = -1.0
    th = certs.parameter_thresholds(alpha, 1.0)
    draws = _theorem3_draws(np.random.default_rng(20), 32, alpha)
    calls, turns = [], []
    angles = geometry._interior_angles
    corner_turns = geometry._corner_turns

    def counting(p):
        calls.append(p)
        return angles(p)

    monkeypatch.setattr(geometry, "_interior_angles", counting)
    monkeypatch.setattr(certs, "_interior_angles", counting)
    monkeypatch.setattr(geometry, "_corner_turns", lambda p: turns.append(p) or corner_turns(p))
    for p in draws:
        hausdorff_distance_to_square(p, rotations=180, samples_per_edge=250)
        certs.threshold_conditions(p, alpha, th)
        certs.certify_all(p, alpha)
    assert calls == draws
    # the search reads convexity from its own edge frames, not the corners
    assert turns == draws
