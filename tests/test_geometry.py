"""Geometry layer: membership semantics, boundary queries, perturbations."""

import functools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from bubblescape import bubbles, geometry, quadrature
from bubblescape.errors import ConvergenceError, PreconditionError
from bubblescape.geometry import (
    Ball,
    BoundaryPoint,
    Capsule,
    Difference,
    Domain,
    PerturbationField,
    Scale,
    Translate,
    Union,
    _axis_offset,
    _csg,
    _depth,
    _enclosing_radius,
    _leaf_nearest,
    _leaf_overlap,
    _leaf_span,
    _leaves,
    _member,
    _probe_fan,
    boundary_nearest,
    contains,
    deep_point,
    diameter_pair,
    domain_from_dict,
    leaf_anchors,
    perturb,
    positive_leaf_components,
    sobol_points,
)
from bubblescape.quadrature import (
    _TAG_PSI,
    QuadratureConfig,
    _fans,
    _outside_segments,
    _pack,
    exterior_lp_mass,
    psi_integrals,
)
from test_quadrature import _psi_per_cell


def unit_ball(n=3, center=None, radius=1.0):
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    return Domain(n, Ball(c, radius))


def dumbbell(n=3, gap=1.5, radius=1.0, neck=0.35):
    left = Ball(np.r_[-gap, np.zeros(n - 1)], radius)
    right = Ball(np.r_[gap, np.zeros(n - 1)], radius)
    bridge = Capsule(np.r_[-gap, np.zeros(n - 1)], np.r_[gap, np.zeros(n - 1)], neck)
    return Domain(n, Union(Union(left, right), bridge))


def holed_ball(n=3, hole=0.25):
    return Domain(n, Difference(Ball(np.zeros(n), 1.0), Ball(np.zeros(n), hole)))


def _both_ways(H):
    """The rays ``[H; -H]`` that ``surface_crossing_candidates`` traces along the lines ``H``."""
    return np.concatenate([H, -H])


def _packed(dom, origin, H, t_hi):
    """The flat flips of ``surface_crossing_candidates`` as ``(flips, inside0)``: each ray of ``[H; -H]`` with its flips ascending in one NaN-padded row."""
    ray, t, _, inside0 = dom.surface_crossing_candidates(origin, H, t_hi)
    order = np.lexsort((t, ray))
    return _pack(2 * H.shape[0], ray[order], t[order]), inside0


# ---------------------------------------------------------------------------
# membership semantics
# ---------------------------------------------------------------------------


def test_membership_is_open():
    dom = unit_ball()
    assert contains(dom, [0.0, 0.0, 0.0])
    assert contains(dom, [0.999999, 0.0, 0.0])
    assert not contains(dom, [1.0, 0.0, 0.0])  # surface point excluded
    assert not contains(dom, [1.2, 0.0, 0.0])


def test_difference_removes_closed_set():
    dom = holed_ball(hole=0.5)
    assert not contains(dom, [0.5, 0.0, 0.0])  # hole boundary shell excluded
    assert not contains(dom, [0.25, 0.0, 0.0])
    assert contains(dom, [0.5 + 1e-9, 0.0, 0.0])
    assert contains(dom, [0.75, 0.0, 0.0])


def test_capsule_membership():
    dom = Domain(3, Capsule([-1.0, 0, 0], [1.0, 0, 0], 0.5))
    assert contains(dom, [0.0, 0.49, 0.0])
    assert contains(dom, [1.3, 0.0, 0.0])  # cap sphere
    assert not contains(dom, [0.0, 0.5, 0.0])
    assert not contains(dom, [1.51, 0.0, 0.0])


def test_translate_scale_membership_equivariance():
    rng = np.random.default_rng(7)
    base = dumbbell()
    offset = np.array([0.3, -1.1, 2.4])
    factor = 1.7
    moved = Domain(3, Translate(offset, base.root))
    scaled = Domain(3, Scale(factor, base.root))
    X = rng.uniform(-3.0, 3.0, size=(1000, 3))
    want = base.contains_many(X)
    assert np.array_equal(moved.contains_many(X + offset), want)
    assert np.array_equal(scaled.contains_many(factor * X), want)


def test_nested_transforms_compose():
    node = Translate([1.0, 0.0], Scale(2.0, Translate([0.5, 0.0], Ball([0.0, 0.0], 1.0))))
    dom = Domain(2, node)
    # leaf center maps to 2*(0+0.5)+1 = 2, radius 2
    assert contains(dom, [2.0, 0.0])
    assert contains(dom, [3.9, 0.0])
    assert not contains(dom, [4.1, 0.0])


# ---------------------------------------------------------------------------
# depth and enclosing radius
# ---------------------------------------------------------------------------


def test_depth_bound_certifies_interior_balls():
    rng = np.random.default_rng(11)
    dom = dumbbell()
    pts = rng.uniform(-2.5, 2.5, size=(4000, 3))
    depths = dom.depth_bound_many(pts)
    inside = dom.contains_many(pts)
    # positive depth implies membership
    assert np.all(inside[depths > 0])
    # and the certified ball stays inside
    for x, d in zip(pts[depths > 0.05][:50], depths[depths > 0.05][:50]):
        probes = x + 0.99 * d * rng.uniform(-1, 1, size=(64, 3)) / np.sqrt(3)
        assert np.all(dom.contains_many(probes))


def test_bounding_radius_encloses_domain():
    rng = np.random.default_rng(13)
    for dom in (unit_ball(), dumbbell(), holed_ball()):
        center = np.array([0.2, -0.1, 0.4])
        R = dom.bounding_radius(center)
        pts = rng.uniform(-3, 3, size=(5000, 3))
        ins = dom.contains_many(pts)
        assert np.all(np.linalg.norm(pts[ins] - center, axis=1) <= R + 1e-12)


def test_depth_bound_sign():
    dom = unit_ball()
    assert dom.depth_bound_many([[0.0, 0.0, 0.0]])[0] == pytest.approx(1.0)
    assert dom.depth_bound_many([[2.0, 0.0, 0.0]])[0] == pytest.approx(-1.0)
    assert holed_ball(hole=0.25).depth_bound_many([[0.0, 0.0, 0.0]])[0] == pytest.approx(-0.25)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_json_schema_round_trip(tmp_path):
    dom = Domain(
        3,
        Difference(
            Union(Ball([0.0, 0, 0], 1.0), Capsule([0, 0, 0], [2.0, 0, 0], 0.5)),
            Translate([0.1, 0, 0], Scale(0.5, Ball([0, 0, 0], 1.0))),
        ),
    )
    data = dom.to_dict()
    ball = {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}
    assert data == {
        "dimension": 3,
        "root": {
            "type": "difference",
            "left": {
                "type": "union",
                "left": ball,
                "right": {"type": "capsule", "a": [0.0, 0.0, 0.0], "b": [2.0, 0.0, 0.0], "radius": 0.5},
            },
            "right": {
                "type": "translate",
                "offset": [0.1, 0.0, 0.0],
                "inner": {"type": "scale", "factor": 0.5, "inner": ball},
            },
        },
    }
    # key order too: "type" first, then the node's fields in declaration order
    assert list(data["root"]["left"]["right"]) == ["type", "a", "b", "radius"]
    assert list(data["root"]["right"]) == ["type", "offset", "inner"]

    clone = domain_from_dict(json.loads(json.dumps(data)))
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 3, size=(500, 3))
    assert np.array_equal(clone.contains_many(X), dom.contains_many(X))


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize(
    "build",
    [
        lambda leaf: leaf,
        lambda leaf: Union(leaf, Capsule([-1.0, 0.0, 0.0], [0.5, 0.5, 0.0], 0.4)),
        lambda leaf: Difference(Ball(np.zeros(3), 1.2), leaf),
    ],
    ids=["leaf", "union", "difference"],
)
def test_a_ball_is_a_zero_length_capsule(build):
    c, r = np.array([0.4, 0.1, -0.05]), 0.35
    dom_ball, dom_cap = Domain(3, build(Ball(c, r))), Domain(3, build(Capsule(c, c, r)))
    rng = np.random.default_rng(7)
    X = rng.uniform(-1.5, 1.5, size=(2000, 3))
    D = rng.normal(size=(256, 3))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    deep = deep_point(dom_ball)
    assert all(_same_bits(u, v) for u, v in zip(deep, deep_point(dom_cap)))
    assert _same_bits(dom_ball.contains_many(X), dom_cap.contains_many(X))
    assert _same_bits(dom_ball.depth_bound_many(X), dom_cap.depth_bound_many(X))
    assert _same_bits(dom_ball.bounding_radius([0.2, -0.3, 0.1]), dom_cap.bounding_radius([0.2, -0.3, 0.1]))
    for origin in (deep[0], c + [r, 0.0, 0.0], [2.0, 0.5, -0.3]):
        got = (dom.surface_crossing_candidates(origin, D, 4.0) for dom in (dom_ball, dom_cap))
        assert all(_same_bits(u, v) for u, v in zip(*got))
    for x in X[:20]:
        p, q = boundary_nearest(dom_ball, x), boundary_nearest(dom_cap, x)
        assert _same_bits(p.point, q.point) and _same_bits(p.inner_normal, q.inner_normal)
    for p, q in zip(diameter_pair(dom_ball), diameter_pair(dom_cap)):
        assert _same_bits(p.point, q.point) and _same_bits(p.inner_normal, q.inner_normal)
    cfg = QuadratureConfig(seed=0, near_budget=2**12, far_shells=16, replicates=2)
    p, q = (psi_integrals(dom, deep[0], cfg) for dom in (dom_ball, dom_cap))
    assert _same_bits(p.value, q.value) and _same_bits(p.gradient, q.gradient) and _same_bits(p.hessian, q.hessian)


def test_ball_leaves_are_capsules_but_serialize_as_balls():
    c = np.array([0.4, 0.1, -0.05])
    dom = Domain(3, Ball(c, 0.35))
    [(leaf, sign)] = dom.leaves()
    assert isinstance(leaf, Capsule) and sign == 1
    assert np.array_equal(leaf.a, c) and np.array_equal(leaf.b, c) and leaf.radius == 0.35
    assert dom.to_dict()["root"] == {"type": "ball", "center": list(c), "radius": 0.35}


def test_bad_domain_dicts_rejected():
    with pytest.raises(PreconditionError):
        domain_from_dict({"root": {"type": "ball", "center": [0, 0], "radius": 1}})
    with pytest.raises(PreconditionError):
        domain_from_dict({"dimension": 2, "root": {"type": "cube"}})
    with pytest.raises(PreconditionError):
        domain_from_dict({"dimension": 2, "root": {"type": "scale", "factor": 0.0, "inner": {"type": "ball", "center": [0, 0], "radius": 1}}})
    # a dimension numpy cannot allocate a point of
    with pytest.raises(PreconditionError, match="dimension 100000000000000000000"):
        domain_from_dict({"dimension": 1e20, "root": {"type": "ball", "center": [0, 0], "radius": 1}})
    # a nested node's error reaches the caller as the node raised it; only a
    # number that does not parse is labelled "malformed number"
    ball = {"type": "ball", "center": [0, 0], "radius": 1}
    for root, message in [
        ({"type": "union", "left": ball}, "missing field 'right' in 'union' node"),
        ({"type": "union", "left": {"type": "ball", "center": [0, 0]}, "right": ball}, "missing field 'radius' in 'ball' node"),
        (
            {"type": "translate", "offset": [0, 0], "inner": {**ball, "center": ["x", 0]}},
            "malformed number in 'ball' node: could not convert string to float: 'x'",
        ),
        ({**ball, "radius": -1}, "ball radius must be positive and finite"),
        ({"type": ["x"]}, "unknown CSG node type ['x']"),
        # vectors whose length is not the domain dimension
        ({**ball, "center": [5]}, "leaf of dimension 1 in a domain of dimension 2"),
        ({**ball, "center": [0, 0, 0]}, "leaf of dimension 3 in a domain of dimension 2"),
        ({"type": "capsule", "a": [0], "b": [1], "radius": 1}, "leaf of dimension 1 in a domain of dimension 2"),
        ({"type": "translate", "offset": [1.0], "inner": ball}, "translation offset of dimension 1 in a domain of dimension 2"),
        ({"type": "translate", "offset": [1, 0, 0], "inner": ball}, "translation offset of dimension 3 in a domain of dimension 2"),
    ]:
        with pytest.raises(PreconditionError) as exc:
            domain_from_dict({"dimension": 2, "root": root})
        assert str(exc.value) == message


def test_non_finite_fields_rejected():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(PreconditionError):
            Ball([0.0, bad], 1.0)
        with pytest.raises(PreconditionError):
            Ball([0.0, 0.0], bad)
        with pytest.raises(PreconditionError):
            Capsule([0.0, 0.0], [bad, 0.0], 1.0)
        with pytest.raises(PreconditionError):
            Capsule([0.0, 0.0], [1.0, 0.0], bad)
        with pytest.raises(PreconditionError):
            Translate([bad, 0.0], Ball([0.0, 0.0], 1.0))
        with pytest.raises(PreconditionError):
            Scale(bad, Ball([0.0, 0.0], 1.0))


# ---------------------------------------------------------------------------
# boundary queries
# ---------------------------------------------------------------------------


def test_boundary_nearest_ball():
    dom = unit_ball()
    bp = boundary_nearest(dom, [0.3, 0.0, 0.0])
    assert np.allclose(bp.point, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(bp.inner_normal, [-1.0, 0.0, 0.0], atol=1e-9)
    # center: tie broken toward the lexicographically largest point
    bp0 = boundary_nearest(dom, [0.0, 0.0, 0.0])
    assert np.allclose(bp0.point, [1.0, 0.0, 0.0], atol=1e-12)


def test_boundary_nearest_from_outside():
    dom = unit_ball()
    bp = boundary_nearest(dom, [3.0, 0.0, 0.0])
    assert np.allclose(bp.point, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(bp.inner_normal, [-1.0, 0.0, 0.0], atol=1e-9)


def test_boundary_nearest_hole_surface():
    dom = holed_ball(hole=0.25)
    bp = boundary_nearest(dom, [0.3, 0.0, 0.0])
    assert np.allclose(bp.point, [0.25, 0.0, 0.0], atol=1e-12)
    # inner normal points into the domain, i.e. away from the hole
    assert np.allclose(bp.inner_normal, [1.0, 0.0, 0.0], atol=1e-9)


def test_boundary_nearest_crease_fallback():
    lens = Domain(3, Union(Ball([-0.8, 0, 0], 1.0), Ball([0.8, 0, 0], 1.0)))
    x = np.array([0.0, 0.55, 0.0])
    bp = boundary_nearest(lens, x)
    # nearest boundary is the crease circle at x1 = 0, |x| = 0.6
    assert np.linalg.norm(bp.point - np.array([0.0, 0.6, 0.0])) < 0.05
    assert contains(lens, bp.point + 1e-3 * bp.inner_normal)
    assert not contains(lens, bp.point - 1e-6 * bp.inner_normal)


def test_inner_normals_point_inward():
    rng = np.random.default_rng(5)
    for dom in (unit_ball(), dumbbell(), holed_ball()):
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, size=3)
            try:
                bp = boundary_nearest(dom, x)
            except ConvergenceError:
                continue
            assert contains(dom, bp.point + 1e-6 * bp.inner_normal)
            assert not contains(dom, bp.point - 1e-9 * bp.inner_normal)


def test_diameter_pair_ball():
    # A ball's diameter is direction-degenerate: require an exact antipodal
    # pair of the right length, radially inward normals, and determinism.
    center = np.array([0.5, 0.0, 0.0])
    dom = unit_ball(center=center, radius=2.0)
    bp1, bp2 = diameter_pair(dom)
    assert np.linalg.norm(bp1.point - bp2.point) == pytest.approx(4.0, abs=1e-9)
    assert np.allclose(bp1.point + bp2.point, 2 * center, atol=1e-9)
    assert np.allclose(bp1.inner_normal, (center - bp1.point) / 2.0, atol=1e-9)
    assert np.allclose(bp2.inner_normal, (center - bp2.point) / 2.0, atol=1e-9)
    again = diameter_pair(dom)
    assert np.array_equal(again[0].point, bp1.point)
    assert np.array_equal(again[1].point, bp2.point)


def test_diameter_pair_dumbbell():
    dom = dumbbell(gap=1.5, radius=1.0)
    bp1, bp2 = diameter_pair(dom)
    assert np.allclose(bp1.point, [2.5, 0.0, 0.0], atol=1e-9)
    assert np.allclose(bp2.point, [-2.5, 0.0, 0.0], atol=1e-9)
    d = np.linalg.norm(bp1.point - bp2.point)
    assert d == pytest.approx(5.0, abs=1e-9)


@pytest.mark.parametrize(
    "dom, end",
    [
        (unit_ball(3), [1.0, 0.0, 0.0]),
        (unit_ball(4), [1.0, 0.0, 0.0, 0.0]),
        (dumbbell(gap=1.75), [2.75, 0.0, 0.0]),
        (Domain(3, Union(Ball([-0.9, 0, 0], 1.0), Ball([0.9, 0, 0], 1.0))), [1.9, 0.0, 0.0]),
        (Domain(3, Union(Ball([-2.5, 0, 0], 1.0), Ball([2.5, 0, 0], 1.0))), [3.5, 0.0, 0.0]),
    ],
)
def test_diameter_pair_is_the_analytic_pair(dom, end):
    bp1, bp2 = diameter_pair(dom)
    np.testing.assert_allclose(bp1.point, end, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bp2.point, -np.array(end), rtol=0, atol=1e-12)
    np.testing.assert_allclose(bp1.inner_normal, -np.eye(dom.dimension)[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(bp2.inner_normal, np.eye(dom.dimension)[0], rtol=0, atol=1e-12)


def test_diameter_pair_offset_ball_is_exact():
    bp1, bp2 = diameter_pair(unit_ball(center=[0.5, 0.0, 0.0], radius=2.0))
    assert np.array_equal(bp1.point, [2.5, 0.0, 0.0])
    assert np.array_equal(bp2.point, [-1.5, 0.0, 0.0])


def test_diameter_pair_avoids_a_carved_cap():
    cap = Ball([1.0, 0, 0], 0.3)
    bp1, bp2 = diameter_pair(Domain(3, Difference(Ball(np.zeros(3), 1.0), cap)))
    assert np.linalg.norm(bp1.point - bp2.point) == pytest.approx(2.0, abs=1e-12)
    for bp in (bp1, bp2):
        assert np.linalg.norm(bp.point - cap.center) > cap.radius


def test_diameter_pair_refuses_carved_endpoints():
    # both end caps of the capsule are cut off, so the diameter sits on a crease
    capsule = Capsule([-1.0, 0, 0], [1.0, 0, 0], 0.5)
    carved = Difference(Difference(capsule, Ball([-1.5, 0, 0], 0.6)), Ball([1.5, 0, 0], 0.6))
    with pytest.raises(ConvergenceError, match="carved away"):
        diameter_pair(Domain(3, carved))


def test_diameter_pair_refuses_a_perturbed_domain():
    with pytest.raises(PreconditionError, match="perturbed"):
        diameter_pair(perturb(unit_ball(), small_field(norm=0.1)))


def test_boundary_nearest_refuses_a_perturbed_domain():
    # the push-forward of the base projection lies on the perturbed surface but
    # is not always the nearest point there, so no answer is given
    with pytest.raises(PreconditionError, match="perturbed"):
        boundary_nearest(perturb(unit_ball(), small_field(norm=0.1)), [0.0, 0.5, 0.2])


def test_deep_point_prefers_fattest_chamber():
    x, d = deep_point(unit_ball())
    assert np.allclose(x, 0.0) and d == pytest.approx(1.0)
    big_small = Domain(
        3, Union(Ball([3.0, 0, 0], 1.5), Ball([-2.0, 0, 0], 0.7))
    )
    x, d = deep_point(big_small)
    assert np.allclose(x, [3.0, 0.0, 0.0])
    assert d == pytest.approx(1.5)


def test_positive_leaf_components():
    assert len(positive_leaf_components(unit_ball())) == 1
    assert len(positive_leaf_components(dumbbell())) == 1  # bridge connects
    two = Domain(3, Union(Ball([-2.0, 0, 0], 0.5), Ball([2.0, 0, 0], 0.5)))
    assert len(positive_leaf_components(two)) == 2
    # the only positive leaf is carved away: no leaf is kept, no group returned
    assert positive_leaf_components(Domain(3, Difference(Ball(np.zeros(3), 1.0), Ball(np.zeros(3), 2.0)))) == []
    # an X: the axes cross at their midpoints, far from every axis end
    x = Domain(3, Union(Capsule([-1.0, -1.0, 0], [1.0, 1.0, 0], 0.2), Capsule([-1.0, 1.0, 0], [1.0, -1.0, 0], 0.2)))
    assert len(positive_leaf_components(x)) == 1
    rails = Domain(3, Union(Capsule([-1.0, 0, 0], [1.0, 0, 0], 0.4), Capsule([-1.0, 1.0, 0], [1.0, 1.0, 0], 0.4)))
    assert len(positive_leaf_components(rails)) == 2


def _sampled_segment_distance(p1, p2, q1, q2, k=20_001):
    """Least distance from ``k`` evenly spaced points of [p1, p2] to [q1, q2], each projected in closed form, and its error bound."""
    P = p1 + np.linspace(0.0, 1.0, k)[:, None] * (p2 - p1)
    w = q2 - q1
    t = np.clip((P - q1) @ w / (w @ w), 0.0, 1.0) if w @ w > 0.0 else np.zeros(k)
    dist = float(np.min(np.linalg.norm(P - q1 - t[:, None] * w, axis=1)))
    return dist, 0.5 * float(np.linalg.norm(p2 - p1)) / (k - 1)  # the distance is |p2 - p1|-Lipschitz in s


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["skew", "crossing", "parallel", "zero-length", "points"]),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)
def test_leaf_overlap_matches_a_sampled_segment_distance(kind, n, seed):
    rng = np.random.default_rng(seed)
    p1, p2, q1, q2 = rng.uniform(-2.0, 2.0, size=(4, n))
    if kind == "crossing":  # the axes meet inside both: the stationary point of the squared distance
        c, d = p1 + rng.uniform(0.1, 0.9) * (p2 - p1), rng.normal(size=n)
        q1, q2 = c - rng.uniform(0.1, 1.0) * d, c + rng.uniform(0.1, 1.0) * d
    elif kind == "parallel":
        q2 = q1 + rng.uniform(-2.0, 2.0) * (p2 - p1)
    elif kind == "zero-length":
        q2 = q1
    elif kind == "points":
        p2, q2 = p1, q1
    dist, err = _sampled_segment_distance(p1, p2, q1, q2)

    def overlap(total):
        a, b = Capsule(p1, p2, 0.5 * total), Capsule(q1, q2, 0.5 * total)
        assert bool(_leaf_overlap(a, b)) == bool(_leaf_overlap(b, a))
        return _leaf_overlap(a, b)

    assert overlap(dist + 1e-9)
    if dist - err > 1e-9:
        assert not overlap(dist - err - 1e-9)


@pytest.mark.parametrize("inner", [0.899, 0.8])
def test_thin_shell_keeps_its_leaf(inner):
    # Two balls joined only through a carved shell of thickness 0.9 - inner.
    shell = Difference(Ball([0.0, 0, 0], 0.9), Ball([0.0, 0, 0], inner))
    dom = Domain(3, Union(Union(Ball([-1.7, 0, 0], 1.0), Ball([1.7, 0, 0], 1.0)), shell))
    assert len(positive_leaf_components(dom)) == 1


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------


def small_field(n=3, seed=1, norm=0.05):
    return PerturbationField.random(n, bumps=4, seed=seed, support_radius=1.5).with_c2_norm(norm)


def _jacobian(theta, X):
    """D theta at each row of X, shape (m, n, n) with J[m, i, j] = d theta_i / d x_j."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    diff = X[:, None, :] - theta.centers[None, :, :]
    r2 = np.einsum("mkj,mkj->mk", diff, diff)
    w2 = theta.widths[None, :] ** 2
    g = np.exp(-r2 / w2)
    scale = -2.0 * g / w2
    return np.einsum("mk,ki,mkj->mij", scale, theta.displacements, diff)


def test_perturbation_c2_bound_is_certified():
    rng = np.random.default_rng(2)
    theta = small_field(norm=0.3)
    X = rng.uniform(-3, 3, size=(4000, 3))
    vals = np.linalg.norm(theta(X), axis=1)
    jacs = _jacobian(theta, X)
    op = np.linalg.norm(jacs, ord=2, axis=(1, 2))
    assert vals.max() <= theta.c2_bound() + 1e-12
    assert op.max() <= theta.c2_bound() + 1e-12
    assert theta.lipschitz_bound() <= theta.c2_bound() + 1e-12
    # second derivative sampled by finite differences of the Jacobian
    h = 1e-5
    for x in X[:20]:
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            d2 = (_jacobian(theta, x + e)[0] - _jacobian(theta, x - e)[0]) / (2 * h)
            assert np.linalg.norm(d2, 2) <= theta.c2_bound() + 1e-6


def test_perturbation_jacobian_matches_finite_differences():
    theta = small_field(norm=0.2)
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, size=(5, 3))
    J = _jacobian(theta, X)
    h = 1e-6
    for k, x in enumerate(X):
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (theta((x + e)[None])[0] - theta((x - e)[None])[0]) / (2 * h)
            assert np.allclose(J[k, :, j], fd, atol=1e-8)


def test_perturb_rejects_large_fields():
    theta = small_field(norm=0.6)
    with pytest.raises(PreconditionError):
        perturb(unit_ball(), theta)


def test_perturbed_inverse_accuracy():
    dom = perturb(unit_ball(), small_field(norm=0.3))
    rng = np.random.default_rng(9)
    Y = rng.uniform(-2, 2, size=(500, 3))
    X = dom.pull_back(Y)
    # forward-composed residual at the documented tolerance
    assert np.max(np.abs(X + dom.theta(X) - Y)) < 1e-10


def test_perturbed_membership_matches_pushforward():
    base = unit_ball()
    dom = perturb(base, small_field(norm=0.2))
    rng = np.random.default_rng(10)
    X = rng.uniform(-1.5, 1.5, size=(800, 3))
    Y = dom.push_forward(X)
    assert np.array_equal(dom.contains_many(Y), base.contains_many(X))


def test_perturbed_scan_finds_boundary():
    base = unit_ball()
    dom = perturb(base, small_field(norm=0.1))
    D = np.eye(3)
    cand, _ = _packed(dom, np.zeros(3), D, 2.0)
    t = cand[:, 0]
    assert np.all(np.isfinite(t))
    # crossing point should sit on the perturbed sphere: pull back to |x| = 1
    for i in range(3):
        y = t[i] * D[i]
        x = dom.pull_back(y[None, :])[0]
        assert abs(np.linalg.norm(x) - 1.0) < 1e-9


def test_perturbation_equivariance_of_depth():
    base = unit_ball()
    dom = perturb(base, small_field(norm=0.05))
    y, d = deep_point(dom)
    assert d > 0.5
    assert dom.contains_many(y[None, :])[0]


# Random CSG trees in R^3: balls and capsules combined by union, difference,
# translation and scaling.
_coord = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
_point3 = st.tuples(_coord, _coord, _coord).map(np.array)
_radius = st.floats(min_value=0.2, max_value=1.2, allow_nan=False)
_leaf = st.one_of(
    st.builds(Ball, _point3, _radius),
    st.builds(Capsule, _point3, _point3, _radius),
)
_tree = st.recursive(
    _leaf,
    lambda sub: st.one_of(
        st.builds(Union, sub, sub),
        st.builds(Difference, sub, sub),
        st.builds(Translate, _point3, sub),
        st.builds(Scale, st.floats(min_value=0.5, max_value=2.0, allow_nan=False), sub),
    ),
    max_leaves=4,
)


def _near_and_far_points(base, amplitude, rng):
    """Points around the leaf surfaces (offsets up to 3 amplitudes) and far away."""
    R = base.bounding_radius(np.zeros(3)) + 1.0
    D = rng.normal(size=(64, 3))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    cand, _ = _packed(base, np.zeros(3), D, R)
    ray, col = np.nonzero(np.isfinite(cand))
    t = cand[ray, col] + amplitude * rng.uniform(-3.0, 3.0, size=ray.size)
    near = t[:, None] * _both_ways(D)[ray]
    far = rng.uniform(-R, R, size=(200, 3))
    return np.concatenate([near, far])


@settings(max_examples=40, deadline=None)
@given(_tree, st.floats(min_value=0.01, max_value=0.45), st.integers(min_value=0, max_value=10**6))
def test_perturbed_membership_band_certificate(root, c2, seed):
    # a point farther than the band from every base leaf surface is in the
    # perturbed domain exactly when it is in the base domain
    base = Domain(3, root)
    theta = PerturbationField.random(3, bumps=3, seed=seed, support_radius=1.5).with_c2_norm(c2)
    dom = perturb(base, theta)
    Y = _near_and_far_points(base, theta.amplitude_bound(), np.random.default_rng(seed))
    gaps = [np.abs(np.linalg.norm(_axis_offset(leaf, Y), axis=1) - leaf.radius) for leaf, _ in base.leaves()]
    clear = Y[np.min(gaps, axis=0) > dom._band]
    assert np.array_equal(dom.contains_many(clear), base.contains_many(clear))


@settings(max_examples=40, deadline=None)
@given(_tree, st.integers(min_value=0, max_value=10**6))
def test_depth_is_lipschitz_with_the_sign_of_membership(root, seed):
    dom = Domain(3, root)
    rng = np.random.default_rng(seed)
    R = dom.bounding_radius(np.zeros(3)) + 1.0
    X = rng.uniform(-R, R, size=(400, 3))
    Z = X + rng.normal(scale=0.1, size=X.shape)
    dX = dom.depth_bound_many(X)
    dZ = dom.depth_bound_many(Z)
    assert np.all(np.abs(dX - dZ) <= np.linalg.norm(X - Z, axis=1) * (1.0 + 1e-12) + 1e-12)
    clear = np.abs(dX) > 1e-12
    assert np.array_equal(dom.contains_many(X[clear]), dX[clear] > 0.0)


def test_depth_zero_on_the_surface():
    dom = holed_ball(hole=0.5)
    S = np.array([[1.0, 0.0, 0.0], [0.0, -0.5, 0.0]])
    assert np.array_equal(dom.depth_bound_many(S), [0.0, 0.0])
    assert not np.any(dom.contains_many(S))


# The recursive tree walks that the CSG fold replaced, kept as oracles.
def _member_walk(node, X, closed):
    if isinstance(node, Capsule):
        d = _axis_offset(node, X)
        d2 = np.einsum("ij,ij->i", d, d)
        r2 = node.radius * node.radius
        return d2 <= r2 if closed else d2 < r2
    if isinstance(node, Union):
        return _member_walk(node.left, X, closed) | _member_walk(node.right, X, closed)
    return _member_walk(node.left, X, closed) & ~_member_walk(node.right, X, not closed)


def _depth_walk(node, X):
    if isinstance(node, Capsule):
        d = _axis_offset(node, X)
        return node.radius - np.sqrt(np.einsum("ij,ij->i", d, d))
    if isinstance(node, Union):
        return np.maximum(_depth_walk(node.left, X), _depth_walk(node.right, X))
    return np.minimum(_depth_walk(node.left, X), -_depth_walk(node.right, X))


def _enclosing_radius_walk(node, center):
    if isinstance(node, Capsule):
        return max(float(np.linalg.norm(node.a - center)), float(np.linalg.norm(node.b - center))) + node.radius
    if isinstance(node, Union):
        return max(_enclosing_radius_walk(node.left, center), _enclosing_radius_walk(node.right, center))
    return _enclosing_radius_walk(node.left, center)


def _leaves_walk(node, sign=1):
    if isinstance(node, Capsule):
        return [(node, sign)]
    if isinstance(node, Union):
        return _leaves_walk(node.left, sign) + _leaves_walk(node.right, sign)
    return _leaves_walk(node.left, sign) + _leaves_walk(node.right, -sign)


@settings(max_examples=60, deadline=None)
@given(_tree, st.integers(min_value=0, max_value=10**6))
# points exactly on a surface: a hole's sphere touching the outer sphere, and a union's seam
@example(Difference(Ball(np.zeros(3), 1.0), Ball([0.5, 0.0, 0.0], 0.5)), 0)
@example(Union(Ball(np.zeros(3), 0.5), Difference(Ball([1.0, 0.0, 0.0], 1.0), Ball(np.zeros(3), 0.5))), 0)
def test_csg_fold_matches_the_recursive_walks(root, seed):
    norm = Domain(3, root)._norm
    rng = np.random.default_rng(seed)
    leaves = _leaves_walk(norm)
    assert [(id(leaf), sign) for leaf, sign in _leaves(norm)] == [(id(leaf), sign) for leaf, sign in leaves]
    surface = [end + s * leaf.radius * e for leaf, _ in leaves for end in (leaf.a, leaf.b) for e in np.eye(3) for s in (1, -1)]
    X = np.concatenate([surface, _near_and_far_points(Domain(3, norm), 0.0, rng), rng.uniform(-3.0, 3.0, size=(200, 3))])
    assert _same_bits(_member(norm, X), _member_walk(norm, X, False))
    assert _same_bits(_depth(norm, X), _depth_walk(norm, X))
    center = rng.uniform(-1.0, 1.0, size=3)
    assert _same_bits(_enclosing_radius(norm, center), _enclosing_radius_walk(norm, center))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rows_still_take_the_pull_back(bad):
    dom = perturb(dumbbell(), small_field(norm=0.2))
    Y = np.array([[0.0, 0.0, 0.0], [bad, 0.0, 0.0]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(ConvergenceError):
            dom.base.contains_many(dom.pull_back(Y))
        with pytest.raises(ConvergenceError):
            dom.contains_many(Y)


def test_theta_expanded_distance_matches_the_difference_form():
    theta = small_field(norm=0.3)
    X = np.random.default_rng(15).uniform(-3, 3, size=(2000, 3))
    diff = X[:, None, :] - theta.centers[None, :, :]
    g = np.exp(-np.einsum("mkj,mkj->mk", diff, diff) / theta.widths[None, :] ** 2)
    want = g @ theta.displacements
    assert np.max(np.abs(theta(X) - want)) <= 1e-14 * np.max(np.abs(want))


def _all_traced(dom):
    """The same perturbed domain with no window certified (every kappa infinite), so every ray that meets a window is traced."""
    ref = perturb(dom.base, dom.theta)
    ref._leaf_bands = [(leaf, outer, inner, np.inf) for leaf, outer, inner, _ in ref._leaf_bands]
    return ref


def _sweep_flips(dom, origin, d, t_hi, n=200_001):
    """Membership flips of one ray from a dense sweep: each lies within ``t_hi / (n - 1)`` before the returned value."""
    ts = np.linspace(0.0, t_hi, n)[1:-1]
    inside = dom.contains_many(origin + ts[:, None] * d)
    return ts[1:][inside[1:] != inside[:-1]]


def _assert_crossings_on_surfaces(dom, origin, D, t_hi, rng):
    """Every flip pulls back onto a leaf surface, membership inside each segment matches its flag, and ``opens`` alternates from ``inside0``."""
    _assert_opens_alternate(*dom.surface_crossing_candidates(origin, D, t_hi))
    leaves = [leaf for leaf, _ in dom.base.leaves()]
    flips, _ = _packed(dom, origin, D, t_hi)
    rays = _both_ways(D)
    ray, col = np.nonzero(np.isfinite(flips))
    X = dom.pull_back(origin + flips[ray, col][:, None] * rays[ray])
    s = np.stack([np.abs(np.linalg.norm(_axis_offset(leaf, X), axis=1) - leaf.radius) for leaf in leaves])
    assert np.all(s.min(axis=0) <= 1e-9)
    a, b, outside, _ = _outside_segments(dom, origin, D, t_hi)
    ray, seg = np.nonzero(b - a > 1e-6 * t_hi)
    t = a[ray, seg] + rng.uniform(0.01, 0.99, ray.size) * (b[ray, seg] - a[ray, seg])
    assert np.array_equal(dom.contains_many(origin + t[:, None] * rays[ray]), ~outside[ray, seg])


@pytest.mark.parametrize("rho", [0.01, 0.05])
@pytest.mark.parametrize(
    "base, origin",
    [
        (Domain(3, Union(Ball([-2.0, 0, 0], 1.0), Ball([2.0, 0, 0], 1.0))), [-2.1, 0.2, 0.1]),
        (dumbbell(), [1.4, 0.1, 0.0]),
        (holed_ball(), [-0.5, 0.1, 0.2]),
    ],
    ids=["two_balls", "dumbbell", "holed_ball"],
)
def test_certified_crossings_match_the_scan(base, origin, rho):
    # the reference traces every ray (a bisection scan of the perturbed depth)
    origin = np.array(origin)
    for seed in range(3):
        theta = PerturbationField.random(3, 3, seed, support_radius=1.2 * base.bounding_radius(np.zeros(3)))
        dom = perturb(base, theta.with_c2_norm(rho))
        ref = _all_traced(dom)
        D = _unit_rows(np.random.default_rng(seed), 1024)
        t_hi = dom.bounding_radius(origin)
        got, inside0 = _packed(dom, origin, D, t_hi)
        want, want0 = _packed(ref, origin, D, t_hi)
        assert dom.fallback_rays < 0.15 * 2 * D.shape[0]
        assert ref.fallback_rays == 2 * D.shape[0]
        assert np.array_equal(inside0, want0)
        assert np.array_equal(np.isfinite(got).sum(axis=1), np.isfinite(want).sum(axis=1))
        K = want.shape[1]
        assert np.all(np.isnan(got[:, K:]))
        assert np.nanmax(np.abs(got[:, :K] - want)) <= 1e-9 * t_hi


@pytest.mark.parametrize(
    "rho, seed, ray, want",
    [
        (0.01, 0, 812, [1.0483, 2.6858, 2.7616]),
        (0.01, 2, 312, [2.0023, 2.0100, 3.6919]),
        (0.05, 1, 988, [0.9414, 2.6689, 2.7808]),
    ],
    ids=["rho0.01-seed0-ray812", "rho0.01-seed2-ray312", "rho0.05-seed1-ray988"],
)
def test_crease_rays_match_a_dense_sweep(rho, seed, ray, want):
    # Rays from inside the perturbed dumbbell's lobe that cross slivers near
    # the bridge's crease; a scan of 225 probes per ray found only one flip.
    base = dumbbell()
    origin = np.array([1.4, 0.1, 0.0])
    theta = PerturbationField.random(3, 3, seed, support_radius=1.2 * base.bounding_radius(np.zeros(3)))
    dom = perturb(base, theta.with_c2_norm(rho))
    D = _unit_rows(np.random.default_rng(seed), 1024)
    t_hi = dom.bounding_radius(origin)
    flips, inside0 = _packed(dom, origin, D, t_hi)
    got = flips[ray][np.isfinite(flips[ray])]
    sweep = _sweep_flips(dom, origin, D[ray], t_hi)
    assert inside0[ray]
    assert got.size == sweep.size == len(want)
    assert np.all((sweep - t_hi / 200_000 <= got) & (got <= sweep))
    assert np.allclose(got, want, atol=1e-4)


@settings(max_examples=30, deadline=None)
@given(_tree, st.floats(min_value=0.01, max_value=0.45), st.integers(min_value=0, max_value=10**6))
@example(Difference(Ball(np.zeros(3), 1.0), Difference(Capsule([0, 0, 0.5], [0, 1, 1], 1.0), Ball(np.zeros(3), 0.25))), 0.25, 1760)
@example(Difference(Scale(1.5625, Ball([0.8125, 0, 0], 0.75)), Ball([0.8125, 0, 1], 0.75)), 0.125, 259376)
@example(
    Difference(Union(Ball([0, 1, 0.25], 1.0), Ball([-1, 0, 0], 0.5)), Difference(Ball(np.zeros(3), 1.0), Ball([0, 0, -0.5], 0.75))),
    0.25,
    61,
)
# an origin on a leaf surface, where membership and the sign of the depth round
# apart: every segment of its rays must still be flagged by membership
@example(Union(Translate([0, 0, -1], Ball([0, -1, -1], 1.19933597578325)), Ball([0, 0, 0], 1.0)), 0.25, 69694)
def test_perturbed_crossings_lie_on_leaf_surfaces(root, c2, seed):
    base = Domain(3, root)
    theta = PerturbationField.random(3, bumps=3, seed=seed, support_radius=1.5).with_c2_norm(c2)
    dom = perturb(base, theta)
    rng = np.random.default_rng(seed)
    D = _unit_rows(rng, 128)
    for origin in _origins(base, rng):
        _assert_crossings_on_surfaces(dom, origin, D, dom.bounding_radius(origin), rng)


@pytest.mark.parametrize("offset", [1e-11, 1e-9])
def test_origins_near_a_perturbed_surface_start_on_the_side_their_segments_show(offset):
    # Every ray from within the band of a leaf surface is traced from
    # eps = 1e-9 times the scale: flips nearer than that are dropped, and the
    # first segment takes the side of the perturbed depth at eps.
    base = Domain(3, Union(Translate([0, 0, -1], Ball([0, -1, -1], 1.19933597578325)), Ball([0, 0, 0], 1.0)))
    dom = perturb(base, PerturbationField.random(3, bumps=3, seed=69694, support_radius=1.5).with_c2_norm(0.25))
    rng = np.random.default_rng(29)
    D = _unit_rows(rng, 16)
    for leaf, _ in base.leaves():
        for v in _unit_rows(rng, 8):
            p, normal = _leaf_nearest(leaf, leaf.a + v)
            for side in (offset, -offset):
                origin = dom.push_forward(p + side * dom._scale * normal)[0]
                _assert_crossings_on_surfaces(dom, origin, D, dom.bounding_radius(origin), rng)


def test_tangent_rays_are_traced_and_crease_rays_certified():
    theta = small_field(norm=0.05)
    dom = perturb(unit_ball(), theta)
    # tangent to the unit ball, so it misses the band-narrowed ball; then just
    # inside the band-narrowed ball, where |q| < kappa at the window ends
    for height in (1.0, (1.0 - dom._band) * (1.0 - 1e-6)):
        origin, D = np.array([-3.0, height, 0.0]), np.array([[1.0, 0.0, 0.0]])
        t_hi = dom.bounding_radius(origin)
        dom.fallback_rays = 0
        flips, _ = _packed(dom, origin, D, t_hi)
        assert dom.fallback_rays == 1
        sweep = _sweep_flips(dom, origin, D[0], t_hi)
        assert np.isfinite(flips[0]).sum() == sweep.size
        assert np.all(np.abs(flips[0, : sweep.size] - sweep) <= t_hi / 200_000)
    # through the dumbbell's crease circle, where the bridge meets a ball
    dom = perturb(dumbbell(), theta)
    crease = np.array([-1.5 + np.sqrt(1.0 - 0.35**2), 0.35, 0.0])
    origin = np.array([0.0, 0.0, 0.0])
    D = (crease - origin)[None, :] / np.linalg.norm(crease - origin)
    t_hi = dom.bounding_radius(origin)
    flips, _ = _packed(dom, origin, D, t_hi)
    want, _ = _packed(_all_traced(dom), origin, D, t_hi)
    assert dom.fallback_rays == 0
    assert np.array_equal(np.isfinite(flips), np.isfinite(want))
    assert np.nanmax(np.abs(flips - want)) <= 1e-9 * t_hi


def test_roots_return_a_bracket_end_on_the_surface():
    zero = PerturbationField([[0.0, 0.0, 0.0]], [1.0], [[0.0, 0.0, 0.0]])
    dom = perturb(unit_ball(), zero)
    o = np.array([0.0, 0.0, 0.0])
    D = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    t = dom._roots(o, D, np.array([0.5, 1.0]), np.array([1.0, 1.5]), np.array([0, 0]))
    assert np.array_equal(t, [1.0, 1.0])
    assert np.array_equal(np.linalg.norm(o + t[:, None] * D, axis=1), [1.0, 1.0])


def test_uncertifiable_leaves_trace_only_the_rays_that_meet_a_window():
    theta = small_field(norm=0.2)
    a = theta.amplitude_bound()
    base = Domain(3, Union(Ball([-0.2, 0.0, 0.0], 1.5 * a), Ball([0.2, 0.0, 0.0], 1.5 * a)))
    dom = perturb(base, theta)
    assert all(inner is None for _, _, inner, _ in dom._leaf_bands)  # r <= band + a for every leaf
    origin = np.array([0.0, 0.05, 0.0])
    D = _unit_rows(np.random.default_rng(16), 1024)
    t_hi = dom.bounding_radius(origin)
    flips, inside0 = _packed(dom, origin, D, t_hi)
    rays = _both_ways(D)
    meets = np.zeros(rays.shape[0], dtype=bool)
    for _, outer, _, _ in dom._leaf_bands:
        lo, hi = _leaf_span(outer, origin, rays)
        meets |= (hi > 0.0) & (lo < t_hi)
    assert 0 < meets.sum() < rays.shape[0]
    assert dom.fallback_rays == meets.sum()
    assert np.all(np.isnan(flips[~meets]))
    assert np.any(np.isfinite(flips[meets, 0]))
    _assert_crossings_on_surfaces(dom, origin, rays[meets], t_hi, np.random.default_rng(17))


def _origins(dom, rng):
    """A point outside the domain, one on a leaf surface and, unless the domain is empty, a deepest point."""
    leaf = dom.leaves()[0][0]
    c = leaf.a
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    out = [c + (dom.bounding_radius(c) + 0.5) * v, _leaf_nearest(leaf, c + v)[0]]
    try:
        out.append(deep_point(dom)[0])
    except PreconditionError:
        pass
    return out


def _unit_rows(rng, m):
    D = rng.normal(size=(m, 3))
    return D / np.linalg.norm(D, axis=1, keepdims=True)


# The classifier the flat flips replaced, kept as their oracle: every span
# end of a ray in (0, t_hi) sorted, and each gap between two ends classified
# at its midpoint, so equal ends leave a zero-width gap classified at the end.
def _on_ray(node, T, spans):
    """Open membership at the (m, S) ray parameters T, from each leaf's ``(lo, hi)`` in ``_leaves`` order."""

    def leaf(_):
        lo, hi = next(spans)
        return (lo[:, None] < T) & (T < hi[:, None])

    return _csg(node, leaf, lambda l, r: l | r, lambda l, r: l & ~r)


def _midpoint_span_flips(norm, spans, t_hi):
    """Packed ``(flips, inside0)`` by the sort-and-midpoint rule."""
    ends = np.concatenate([np.stack(span, axis=1) for span in spans], axis=1)
    ends = np.where((ends > 1e-14 * max(t_hi, 1.0)) & (ends < t_hi), ends, np.nan)
    ends.sort(axis=1)
    m = ends.shape[0]
    edges = np.concatenate([np.zeros((m, 1)), np.where(np.isfinite(ends), ends, t_hi), np.full((m, 1), t_hi)], axis=1)
    # in extended precision, so the midpoint of two ends one ulp apart is not rounded onto either
    lo, hi = edges[:, :-1].astype(np.longdouble), edges[:, 1:]
    mid = 0.5 * (lo + hi)
    if np.any((lo < hi) & ((mid == lo) | (mid == hi))):
        pytest.skip("long double is no wider than double here, so a gap one ulp wide has no midpoint to classify")
    inside = _on_ray(norm, mid, iter(spans))
    ray, col = np.nonzero((inside[:, 1:] != inside[:, :-1]) & np.isfinite(ends))
    return _pack(m, ray, ends[ray, col]), inside[:, 0]


def _assert_opens_alternate(ray, t, opens, inside0):
    """Sorted along each ray, the flips open an outside run exactly where the first-segment flag says the ray is inside.

    Two flips at one ``t`` bound a zero-width outside gap (an open set has no
    one-point inside run), so the one that opens it sorts first.
    """
    order = np.lexsort((~opens, t, ray))
    ray = ray[order]
    rank = np.arange(ray.size) - np.searchsorted(ray, ray)
    assert np.array_equal(opens[order], inside0[ray] ^ (rank % 2 == 1))


def _assert_flips_match_the_midpoint_rule(dom, origin, D):
    origin = np.asarray(origin, dtype=float)
    t_hi = dom.bounding_radius(origin)
    rays = _both_ways(D)
    want, want0 = _midpoint_span_flips(dom._norm, [_leaf_span(leaf, origin, rays) for leaf, _ in dom.leaves()], t_hi)
    got, inside0 = _packed(dom, origin, D, t_hi)
    assert _same_bits(got, want) and _same_bits(inside0, want0)
    _assert_opens_alternate(*dom.surface_crossing_candidates(origin, D, t_hi))


def _fan_with_axes(rng, m, *through):
    """Random unit rows, the coordinate axes both ways, and the unit rows along ``through``."""
    extra = np.array(through, dtype=float).reshape(-1, 3)
    extra = extra[np.linalg.norm(extra, axis=1) > 0.0]
    return np.concatenate([_unit_rows(rng, m), np.eye(3), -np.eye(3), extra / np.linalg.norm(extra, axis=1, keepdims=True)])


@settings(max_examples=40, deadline=None)
@given(_tree, st.integers(min_value=0, max_value=10**6))
# one capsule twice, its axis reversed: at the second origin two span ends lie one ulp apart
@example(Union(Capsule([0, 1, 0], [1, 0, 0], 1.0), Capsule([1, 0, 0], [0, 1, 0], 1.0)), 0)
def test_flat_flips_match_the_midpoint_rule(root, seed):
    dom = Domain(3, root)
    rng = np.random.default_rng(seed)
    D = _fan_with_axes(rng, 256)
    for origin in _origins(dom, rng):
        _assert_flips_match_the_midpoint_rule(dom, origin, D)


_CREASE = np.array([-1.5 + np.sqrt(1.0 - 0.35**2), 0.35, 0.0])  # where the dumbbell's bridge meets its left ball


_TIES = pytest.mark.parametrize(
    "root, origins, through",
    [
        # rays through the contact point of two externally tangent balls, and from it
        (Union(Ball([-1.0, 0, 0], 1.0), Ball([1.0, 0, 0], 1.0)), [[-1.5, 0.2, 0], [0, 0, 0], [2.5, 0, 0]], [[0, 0, 0]]),
        (Union(Ball([0.2, 0, 0], 0.7), Ball([0.2, 0, 0], 0.7)), [[0, 0, 0], [1.5, 0.1, 0]], [[0.9, 0, 0]]),
        (Union(*(Capsule([-0.5, 0, 0], [0.5, 0.2, 0], 0.4),) * 2), [[0, 0.1, 0], [2.0, 0, 0]], [[0.5, 0.6, 0]]),
        # a hole tangent to the ball from inside, at (1, 0, 0)
        (Difference(Ball(np.zeros(3), 1.0), Ball([0.5, 0, 0], 0.5)), [[-0.5, 0, 0], [0, 0.5, 0], [1.0, 0, 0]], [[1.0, 0, 0]]),
        (dumbbell().root, [[0, 0, 0], [-1.5, 0, 0], [1.4, 0.1, 0]], [_CREASE, _CREASE * [1, -1, 1]]),
    ],
    ids=["tangent-balls", "union-ball-ball", "union-capsule-capsule", "tangent-hole", "dumbbell-creases"],
)


@_TIES
def test_flat_flips_break_ties_like_zero_width_gaps(root, origins, through):
    dom = Domain(3, root)
    rng = np.random.default_rng(19)
    for origin in origins:
        D = _fan_with_axes(rng, 64, *(np.asarray(through) - origin))
        _assert_flips_match_the_midpoint_rule(dom, origin, D)


# The per-ray classifier that the line classifier replaced, kept as its
# oracle: every ray has its own spans, and only the ends ahead of the origin
# are classified, an exit by the states just below it and at it, an entry by
# those at it and just above it.
def _ray_span_flips(norm, spans, t_hi):
    L = len(spans)
    ends = np.stack([hi for _, hi in spans] + [lo for lo, _ in spans])  # (2L, m): the exits, then the entries
    live = (ends > 1e-14 * max(t_hi, 1.0)) & (ends < t_hi)
    mid0 = 0.5 * np.where(live, ends, t_hi).min(axis=0)
    for i in range(1, L):
        for j in range(i):
            live[i] &= ends[i] != ends[j]
            live[L + i] &= ends[L + i] != ends[L + j]
    row, ray = np.nonzero(live)
    t = ends[row, ray]
    nx = int(np.searchsorted(row, L))
    x, e = slice(None, nx), slice(nx, None)
    it = iter(spans)

    def leaf(_):
        lo, hi = next(it)
        a, b = lo[ray], hi[ray]
        below, above = (a[x] < t[x]) & (t[x] <= b[x]), (a[e] <= t[e]) & (t[e] < b[e])
        return np.concatenate([(a < t) & (t < b), below, above, (lo < mid0) & (mid0 < hi)])

    at, beside, inside0 = np.split(_csg(norm, leaf, np.logical_or, lambda l, r: l & ~r), [t.size, 2 * t.size])
    flip = at != beside
    opens = np.concatenate([beside[x], at[e]])
    return ray[flip], t[flip], opens[flip], inside0


def _assert_line_flips_match_the_ray_classifier(dom, origin, H):
    """Per ray of ``[H; -H]``: the same flips, ``t`` bit for bit with their ``opens``, and the same ``inside0``."""
    origin = np.asarray(origin, dtype=float)
    t_hi = dom.bounding_radius(origin)
    got = dom.surface_crossing_candidates(origin, H, t_hi)
    want = _ray_span_flips(dom._norm, [_leaf_span(leaf, origin, _both_ways(H)) for leaf, _ in dom.leaves()], t_hi)
    for (ray, t, opens, inside0), other in zip((got, want), (want, got)):
        order = np.lexsort((opens, t, ray))
        assert _same_bits(inside0, other[3])
        assert all(_same_bits(u[order], v[np.lexsort((other[2], other[1], other[0]))]) for u, v in zip((ray, t, opens), other))


@settings(max_examples=40, deadline=None)
@given(_tree, st.integers(min_value=0, max_value=10**6))
def test_line_flips_match_the_ray_classifier(root, seed):
    dom = Domain(3, root)
    rng = np.random.default_rng(seed)
    H = _fan_with_axes(rng, 256)
    for origin in _origins(dom, rng):
        _assert_line_flips_match_the_ray_classifier(dom, origin, H)


@_TIES
def test_line_flips_match_the_ray_classifier_at_ties(root, origins, through):
    dom = Domain(3, root)
    rng = np.random.default_rng(19)
    for origin in origins:
        _assert_line_flips_match_the_ray_classifier(dom, origin, _fan_with_axes(rng, 64, *(np.asarray(through) - origin)))


def test_opposite_rays_meet_a_leaf_in_the_negated_span():
    # why one span serves both rays of a line: bit for bit (NaN where a ray
    # misses), for a ball and for a capsule's wall
    rng = np.random.default_rng(23)
    H = _unit_rows(rng, 2048)
    for leaf in (Capsule([0.1, -0.2, 0.3], [0.1, -0.2, 0.3], 0.8), Capsule([-0.7, 0.2, 0.1], [0.9, -0.3, 0.4], 0.45)):
        for origin in (np.zeros(3), np.array([2.0, -1.0, 0.5]), np.array([0.9, -0.3, 0.4])):
            lo, hi = _leaf_span(leaf, origin, H)
            back_lo, back_hi = _leaf_span(leaf, origin, -H)
            hit = np.isfinite(lo)
            assert hit.any() and np.array_equal(np.isfinite(back_lo), hit)
            assert _same_bits(back_lo[hit], -hi[hit]) and _same_bits(back_hi[hit], -lo[hit])


def test_perturbed_flips_match_the_midpoint_rule_on_traced_and_certified_rays():
    theta = PerturbationField.random(3, 3, 1, support_radius=1.2 * dumbbell().bounding_radius(np.zeros(3)))
    origin = np.array([1.4, 0.1, 0.0])
    D = _unit_rows(np.random.default_rng(1), 1024)
    dom, ref = (perturb(dumbbell(), theta.with_c2_norm(0.05)) for _ in range(2))
    t_hi = dom.bounding_radius(origin)
    got = dom.surface_crossing_candidates(origin, D, t_hi)

    def midpoint_flat(norm, spans, t_hi):
        flips, inside0 = _midpoint_span_flips(norm, spans, t_hi)
        ray, col = np.nonzero(np.isfinite(flips))
        return ray, flips[ray, col], inside0[ray] ^ (col % 2 == 1), inside0

    with mock.patch.object(geometry, "_span_flips", midpoint_flat):
        want, want0 = _packed(ref, origin, D, t_hi)
    assert 0 < dom.fallback_rays == ref.fallback_rays < 2 * D.shape[0]
    ray, t, _, inside0 = got
    order = np.lexsort((t, ray))
    assert _same_bits(_pack(2 * D.shape[0], ray[order], t[order]), want) and _same_bits(inside0, want0)
    _assert_opens_alternate(*got)


@settings(max_examples=40, deadline=None)
@given(_tree, st.integers(min_value=0, max_value=10**6))
def test_alternating_segment_flags_match_membership(root, seed):
    dom = Domain(3, root)
    rng = np.random.default_rng(seed)
    D = _unit_rows(rng, 256)
    for origin in _origins(dom, rng):
        t_hi = dom.bounding_radius(origin)
        a, b, outside, _ = _outside_segments(dom, origin, D, t_hi)
        ray, seg = np.nonzero(b - a > 1e-9 * t_hi)
        # each wide segment's midpoint, and a random point away from its ends
        frac = np.concatenate([np.full(ray.size, 0.5), rng.uniform(0.01, 0.99, ray.size)])
        ray, seg = np.tile(ray, 2), np.tile(seg, 2)
        t = a[ray, seg] + frac * (b[ray, seg] - a[ray, seg])
        assert np.array_equal(dom.contains_many(origin + t[:, None] * _both_ways(D)[ray]), ~outside[ray, seg])


def _midpoint_segments(domain, origin, D, t_hi):
    """Reference slicer: cut each ray at every leaf span end, classify each piece at its midpoint."""
    m, n = D.shape
    ends = np.concatenate([np.stack(_leaf_span(leaf, origin, D), axis=1) for leaf, _ in domain.leaves()], axis=1)
    ends = np.sort(np.where((ends > 1e-14 * max(t_hi, 1.0)) & (ends < t_hi), ends, t_hi), axis=1)
    ts = np.concatenate([np.zeros((m, 1)), ends, np.full((m, 1), t_hi)], axis=1)
    a, b = ts[:, :-1], ts[:, 1:]
    mids = 0.5 * (a + b)
    inside = domain.contains_many((origin + mids[:, :, None] * D[:, None, :]).reshape(-1, n)).reshape(mids.shape)
    return a, b, ~inside & (b > a * (1.0 + 1e-14) + 1e-300), mids.size


def _agree(x, y, scale=None):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.max(np.abs(x - y)) <= 1e-12 * (np.max(np.abs(y)) if scale is None else scale)


def _with_reference(fn):
    """Run fn with every mass from the midpoint slicer, on the rays ``[H; -H]`` of each half fan ``H``."""
    with mock.patch.object(quadrature, "_outside_segments", lambda dom, o, H, t: _midpoint_segments(dom, o, _both_ways(H), t)):
        return fn()


@settings(max_examples=25, deadline=None)
@given(_tree, st.integers(min_value=0, max_value=10**6))
def test_span_engine_matches_midpoint_reference(root, seed):
    dom = Domain(3, root)
    rng = np.random.default_rng(seed)
    cfg = QuadratureConfig(seed=seed, near_budget=2**12, replicates=2)
    origins = _origins(dom, rng)
    if len(origins) == 3:
        xi = origins[2]
        ev = psi_integrals(dom, xi, cfg)
        # the per-cell kernel on the midpoint slicer's segments of the same rays
        fans = (_both_ways(H) for _, H in _fans(3, cfg, _TAG_PSI))
        value, gradient, hessian, _ = _psi_per_cell(dom, xi, fans, _midpoint_segments)
        # psi's terms come from distances of at least the depth d, so value / d
        # scales the gradient where symmetry makes it vanish.
        d = dom.depth_bound_many(xi[None, :])[0]
        assert _agree(ev.value, value)
        assert _agree(ev.gradient, gradient, max(np.max(np.abs(gradient)), value / d))
        assert _agree(ev.hessian, hessian)
    for c in origins:
        R = dom.bounding_radius(c)

        # |x - c|^2 inside the enclosing ball: a polynomial along each ray, so
        # Gauss-Legendre is exact however a ray's outside part is cut up.
        def f(X, c=c, R=R):
            r2 = np.sum((X - c) ** 2, axis=1)
            return np.where(r2 < R * R, r2, 0.0)

        got = exterior_lp_mass(dom, f, 1.0, cfg, center=c)
        want = _with_reference(lambda: exterior_lp_mass(dom, f, 1.0, cfg, center=c))
        whole = quadrature.sphere_area(3) * R**5 / 5.0  # f over the whole enclosing ball
        assert _agree(got.value, want.value, whole)
        assert _agree(got.std_error, want.std_error, whole)


@settings(max_examples=40, deadline=None)
@given(st.lists(_leaf, min_size=1, max_size=4).map(lambda leaves: functools.reduce(Union, leaves)))
def test_diameter_pair_of_a_union_is_the_farthest_boundary_pair(root):
    dom = Domain(3, root)
    bp1, bp2 = diameter_pair(dom)
    # reference: every boundary flip of the probe fan from every positive-leaf anchor
    D = _probe_fan(3)
    flips = []
    for leaf, _ in dom.leaves():
        for o in leaf_anchors(leaf):
            t, _ = _packed(dom, o, D, 2.0 * dom.bounding_radius(o))
            ray, col = np.nonzero(np.isfinite(t))
            flips.append(o + t[ray, col][:, None] * _both_ways(D)[ray])
    X = np.concatenate(flips)
    farthest = max(cdist(X[i : i + 512], X).max() for i in range(0, X.shape[0], 512))
    assert np.linalg.norm(bp1.point - bp2.point) >= farthest * (1.0 - 1e-12)
    # both ends on the boundary to round-off, with inward normals
    scale = 1e-12 * dom.bounding_radius(np.zeros(3))
    for bp in (bp1, bp2):
        assert abs(dom.depth_bound_many(bp.point[None, :])[0]) <= scale
        assert contains(dom, bp.point + 1e-6 * bp.inner_normal)
        assert not contains(dom, bp.point - 1e-6 * bp.inner_normal)
    P = np.stack([bp1.point, bp2.point])
    N = np.stack([bp1.inner_normal, bp2.inner_normal])
    assert np.all(_member_walk(dom._norm, P + scale * N, True))
    assert not np.any(dom.contains_many(P - scale * N))


def test_tangent_balls_start_inside_from_their_contact_point():
    # Rays cast from the tangency point of two balls start outside their
    # open union, yet almost every ray starts inside one.
    virtual = Domain(3, Union(Ball([-1.0, 0, 0], 1.0), Ball([1.0, 0, 0], 1.0)))
    _, inside0 = _packed(virtual, np.zeros(3), _unit_rows(np.random.default_rng(0), 512), 2.0)
    assert not contains(virtual, np.zeros(3)) and inside0.mean() > 0.99
    cfg = QuadratureConfig(seed=0, near_budget=2**13, replicates=2)
    c1, c2 = np.array([-1.0, 0, 0]), np.array([1.0, 0, 0])

    def g(X):
        return bubbles.bubble_value(3, 0.05, c1, X) ** 5 * bubbles.bubble_value(3, 0.07, c2, X)

    got = exterior_lp_mass(virtual, g, 1.0, cfg, center=np.zeros(3))
    want = _with_reference(lambda: exterior_lp_mass(virtual, g, 1.0, cfg, center=np.zeros(3)))
    assert _agree(got.value, want.value)
    assert _agree(got.std_error, want.std_error, abs(want.value))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_membership_translation_property(seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-2, 2, size=3)
    dom = dumbbell()
    moved = Domain(3, Translate(v, dom.root))
    X = rng.uniform(-3, 3, size=(50, 3))
    assert np.array_equal(moved.contains_many(X + v), dom.contains_many(X))


def test_boundary_point_type():
    bp = BoundaryPoint([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    assert bp.point.shape == (3,)
    assert bp.inner_normal.shape == (3,)


# ---------------------------------------------------------------------------
# Sobol points
# ---------------------------------------------------------------------------


# the three key shapes the package draws with: the probe fan, find_minima's starts, a replicate's fan
@pytest.mark.parametrize("key", [None, (7, 0xC417), (7, 0x5A1, 3)], ids=["unscrambled", "seed-tag", "seed-tag-rep"])
@pytest.mark.parametrize("n", range(1, 9))
def test_sobol_points_match_scipy_bit_for_bit(n, key):
    from scipy.stats import qmc

    for count in (1, 5, 512, 4096, 2**15):
        rng = None if key is None else np.random.default_rng(np.random.SeedSequence(key))
        m = max(0, (count - 1).bit_length())
        want = qmc.Sobol(n, scramble=key is not None, seed=rng).random_base2(m)[:count]
        got = sobol_points(n, count, key)
        assert got.dtype == want.dtype and got.shape == want.shape == (count, n)
        assert np.array_equal(got, want), (n, count, key)


def test_sobol_points_refuse_dimensions_past_the_table():
    with pytest.raises(PreconditionError, match="dimensions 1 through 8, got 9"):
        sobol_points(9, 16, (0, 0xC417))
