"""Tests for landscape critical-point search, classification, and audit.

Oracles: exact symmetry (ball center, dumbbell mirror plane), the exact
central Hessian ``2 omega I`` of a ball, isolated-ball landscape values for
well-separated components, exact equivariance under similarity maps, and the
closed-form landscape of a ball with a ball hole.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from bubblescape import critpoints
from bubblescape.critpoints import (
    _NEWTON_TOL,
    CensusReport,
    CriticalPoint,
    CritConfig,
    census,
    find_minima,
    morse_audit,
    mountain_pass,
)
from bubblescape.cli import main
from bubblescape.errors import ConvergenceError, PreconditionError
from bubblescape.geometry import Ball, Capsule, Difference, Domain, Scale, Translate, Union, domain_from_dict
from bubblescape.quadrature import QuadratureConfig, sphere_area

CFG = QuadratureConfig(seed=0, near_budget=2**15, far_shells=24, replicates=4)
CRIT = CritConfig(multistart=8)


def ball3() -> Domain:
    return Domain(3, Ball(np.zeros(3), 1.0))


def dumbbell_root():
    c = 1.75
    return Union(
        Ball(np.array([-c, 0.0, 0.0]), 1.0),
        Union(Ball(np.array([c, 0.0, 0.0]), 1.0), Capsule(np.array([-c, 0.0, 0.0]), np.array([c, 0.0, 0.0]), 0.35)),
    )


def dumbbell() -> Domain:
    return Domain(3, dumbbell_root())


HOLE_CENTER, HOLE_RADIUS = np.array([0.4, 0.0, 0.0]), 0.25


def holed_ball() -> Domain:
    return Domain(3, Difference(Ball(np.zeros(3), 1.0), Ball(HOLE_CENTER, HOLE_RADIUS)))


def holed_ball_psi(x) -> float:
    """Exact psi of the holed ball: the volume of the inverted complement,
    ``(4 pi / 3) [1 / (1 - |x|^2)^3 + h^3 / (|x - c_h|^2 - h^2)^3]``."""
    x = np.asarray(x, dtype=float)
    hole = HOLE_RADIUS**3 / (float((x - HOLE_CENTER) @ (x - HOLE_CENTER)) - HOLE_RADIUS**2) ** 3
    return 4.0 * math.pi / 3.0 * (1.0 / (1.0 - float(x @ x)) ** 3 + hole)


# The minimiser of holed_ball_psi, on the axis away from the hole.
HOLED_MINIMUM = np.array([-0.2837604, 0.0, 0.0])


@pytest.fixture(scope="module")
def dumbbell_census() -> CensusReport:
    return census(dumbbell(), CFG, CRIT)


def test_crit_config_validation():
    with pytest.raises(PreconditionError):
        CritConfig(multistart=0)


def test_ball_minimum_found_to_high_precision():
    """Symmetry cancellation drives Newton far below the nominal tolerance."""
    pts = find_minima(ball3(), CFG, CRIT)
    assert len(pts) == 1
    p = pts[0]
    assert np.linalg.norm(p.location) <= 1e-6
    assert p.grad_norm <= 1e-10
    assert p.morse_index == 0
    assert p.nondegenerate
    # exact landscape data at the center: value omega/3, Hessian 2 omega I
    omega = sphere_area(3)
    assert p.psi_value == pytest.approx(omega / 3.0, rel=1e-12)
    np.testing.assert_allclose(p.hess_eigs, 2.0 * omega, rtol=1e-10)
    assert p.margin() == pytest.approx(1.0, rel=1e-9)


def test_dumbbell_census_structure(dumbbell_census):
    rep = dumbbell_census
    minima = rep.minima
    saddles = rep.saddles
    assert len(minima) == 2
    assert len(saddles) == 1
    assert rep.cat_lower_bound == 1
    assert rep.satisfied

    # mirror symmetry: the two minima sit at +/- (x1*, 0, 0).  Along the
    # axis the gradient noise does not cancel (the x1-mirror swaps the two
    # minima rather than fixing them), so the match is noise-floor limited.
    locs = sorted((m.location for m in minima), key=lambda x: x[0])
    assert locs[0][0] == pytest.approx(-locs[1][0], abs=2e-3)
    np.testing.assert_allclose(locs[0][1:], 0.0, atol=1e-3)
    np.testing.assert_allclose(locs[1][1:], 0.0, atol=1e-3)
    assert 1.0 < abs(locs[0][0]) < 2.75  # inside the left lobe

    # the saddle sits at the fully symmetric point, where the estimator noise
    # cancels exactly: located to far better than the nominal tolerance
    s = saddles[0]
    assert abs(s.location[0]) <= 1e-3  # the neck midplane
    assert s.grad_norm <= 1e-8
    np.testing.assert_allclose(s.location[1:], 0.0, atol=1e-6)
    assert s.morse_index == 1
    assert s.nondegenerate
    # exactly one descending direction, along the axis
    assert s.hess_eigs[0] < 0 < s.hess_eigs[1]
    assert s.psi_value > max(m.psi_value for m in minima)

    # census contract: gradient within tolerance + noise, separated points
    for p in rep.points:
        assert p.grad_norm <= _NEWTON_TOL + 3.0 * p.grad_std
        amax = float(np.max(np.abs(p.hess_eigs)))
        assert float(np.min(np.abs(p.hess_eigs))) > 1e-8 * amax
    for i, p in enumerate(rep.points):
        for q in rep.points[i + 1 :]:
            assert np.linalg.norm(p.location - q.location) > critpoints._merge_radius(dumbbell())


def test_mirror_symmetric_minima_values_match(dumbbell_census):
    # the two lobe values agree up to the value-noise of two independent
    # estimates at two noise-floor-converged locations
    m1, m2 = dumbbell_census.minima
    assert m1.psi_value == pytest.approx(m2.psi_value, rel=1e-4)


def test_two_disjoint_balls_census_and_ordering():
    dom = Domain(3, Union(Ball(np.zeros(3), 1.0), Ball(np.array([4.0, 0.0, 0.0]), 0.6)))
    rep = census(dom, CFG, CRIT)
    assert len(rep.minima) == 2
    assert len(rep.saddles) == 0  # no same-component pair
    assert rep.cat_lower_bound == 2
    assert rep.satisfied
    omega = sphere_area(3)
    iso_big = omega / 3.0
    iso_small = omega / 3.0 / 0.6**3
    first, second = rep.points[0], rep.points[1]
    # sorted by landscape value: the large ball hosts the lower minimum
    assert first.psi_value < second.psi_value
    assert np.linalg.norm(first.location) < 0.2
    assert np.linalg.norm(second.location - np.array([4.0, 0.0, 0.0])) < 0.2
    # the other component only removes exterior mass: psi below the isolated value
    assert first.psi_value <= iso_big * (1.0 + 1e-9)
    assert second.psi_value <= iso_small * (1.0 + 1e-9)
    assert first.psi_value >= 0.9 * iso_big
    assert second.psi_value >= 0.9 * iso_small


def test_census_order_ties_psi_values_within_their_standard_error():
    # mirror minima of two separated balls: psi equal up to round-off, the
    # lower value at +2.5; a third point lies far above both values' noise
    def point(x, value):
        return CriticalPoint(np.array([x, 0.0, 0.0]), value, 0.0, 0.0, np.ones(3), 0, True, psi_std=1e-6)

    right, left, high = point(2.5, 4.0), point(-2.5, np.nextafter(4.0, 5.0)), point(-5.0, 4.1)
    ordered = critpoints._dedupe([high, right, left], 0.1)
    assert [p.location[0] for p in ordered] == [-2.5, 2.5, -5.0]
    assert "psi_std" not in ordered[0].to_dict()


def test_find_minima_equivariance_under_similarity(dumbbell_census):
    # one config for both domains: the merge radius scales with the domain
    lam, v = 0.5, np.array([0.3, -0.2, 0.1])
    base = dumbbell_census.minima
    mapped_dom = Domain(3, Translate(v, Scale(lam, dumbbell_root())))
    assert critpoints._merge_radius(mapped_dom) == lam * critpoints._merge_radius(dumbbell())
    mapped = find_minima(mapped_dom, CFG, CRIT)
    assert len(base) == len(mapped) == 2
    want = sorted((lam * p.location + v for p in base), key=lambda x: x[0])
    got = sorted((p.location for p in mapped), key=lambda x: x[0])
    for w, g in zip(want, got):
        assert np.linalg.norm(w - g) <= 10.0 * _NEWTON_TOL
    # landscape scaling: psi(lam x + v; lam Omega + v) = lam^-n psi(x; Omega)
    base_vals = sorted(p.psi_value for p in base)
    mapped_vals = sorted(p.psi_value for p in mapped)
    for b, m in zip(base_vals, mapped_vals):
        assert m == pytest.approx(b / lam**3, rel=1e-6)
    # the saddle between the mapped minima is the mapped saddle
    [s] = dumbbell_census.saddles
    t = mountain_pass(mapped_dom, got[0], got[1], CFG, CRIT)
    assert np.linalg.norm(t.location - (lam * s.location + v)) <= 10.0 * _NEWTON_TOL
    assert t.morse_index == s.morse_index == 1
    assert t.psi_value == pytest.approx(s.psi_value / lam**3, rel=1e-6)


def test_mountain_pass_requires_a_barrier():
    with pytest.raises(ConvergenceError):
        mountain_pass(ball3(), np.array([0.3, 0.0, 0.0]), np.array([-0.3, 0.0, 0.0]), CFG, CRIT)
    with pytest.raises(PreconditionError):
        mountain_pass(ball3(), np.array([0.02, 0.0, 0.0]), np.array([-0.02, 0.0, 0.0]), CFG, CRIT)
    with pytest.raises(PreconditionError):
        mountain_pass(ball3(), np.array([3.0, 0.0, 0.0]), np.array([-0.3, 0.0, 0.0]), CFG, CRIT)


def test_census_warm_start_reproduces(dumbbell_census):
    rep = census(dumbbell(), CFG, CRIT, warm_starts=dumbbell_census.points)
    assert len(rep.points) == len(dumbbell_census.points)
    assert [p.morse_index for p in rep.points] == [p.morse_index for p in dumbbell_census.points]
    for a, b in zip(rep.points, dumbbell_census.points):
        assert np.linalg.norm(a.location - b.location) <= 1e-6


def test_morse_audit_ball_stable():
    rep = morse_audit(ball3(), rho=0.05, trials=2, quad_cfg=CFG, crit_cfg=CRIT)
    assert rep.stable, rep.failures
    assert rep.trials == 2
    assert rep.failures == []
    assert rep.min_margin > 1e-4
    assert rep.max_displacement < 0.25
    assert len(rep.base.points) == 1


def _point(x, index=0, nondegenerate=True):
    return CriticalPoint(np.array([x, 0.0, 0.0]), 1.0, 0.0, 0.0, np.ones(3), index, nondegenerate)


def test_morse_audit_pairs_points_by_least_total_displacement(monkeypatch):
    base = CensusReport(points=[_point(0.0), _point(1.0)], cat_lower_bound=1, satisfied=True)
    moved = CensusReport(points=[_point(0.6), _point(-0.7)], cat_lower_bound=1, satisfied=True)
    monkeypatch.setattr(critpoints, "census", lambda *a, warm_starts=None, **k: base if warm_starts is None else moved)
    rep = morse_audit(ball3(), rho=0.05, trials=1, quad_cfg=CFG, crit_cfg=CRIT)
    # nearest-neighbour pairing in base order takes 0 -> 0.6 and then 1 -> -0.7, a move of 1.7
    assert rep.max_displacement == pytest.approx(0.7, abs=1e-12)


def _fail_census():
    raise ConvergenceError("Newton stalled")


@pytest.mark.parametrize(
    "repolished, failure",
    [
        (_fail_census, "trial 0: census failed: Newton stalled"),
        (lambda: [_point(0.0)], "trial 0: point count changed from 2 to 1"),
        (lambda: [_point(0.0), _point(1.0, index=1)], "trial 0: Morse index flipped 0 -> 1"),
        (lambda: [_point(0.0), _point(1.0, nondegenerate=False)], "trial 0: a Hessian became degenerate"),
        (lambda: [_point(0.0), _point(1.3)], "trial 0: a critical point moved by 0.300"),  # 0.25 * scale is 0.25
    ],
    ids=["census-fails", "count", "index", "degenerate", "moved"],
)
def test_morse_audit_failures_make_the_cli_exit_1(tmp_path, monkeypatch, repolished, failure):
    base = CensusReport(points=[_point(0.0), _point(1.0)], cat_lower_bound=1, satisfied=True)

    def stub(*a, warm_starts=None, **k):
        return base if warm_starts is None else CensusReport(points=repolished(), cat_lower_bound=1, satisfied=True)

    monkeypatch.setattr(critpoints, "census", stub)
    path = tmp_path / "ball.json"
    path.write_text(json.dumps({"dimension": 3, "root": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}}))
    out = str(tmp_path / "m")
    assert main(["morse-audit", "--domain", str(path), "--out", out, "--trials", "1"]) == 1
    audit = json.loads(open(os.path.join(out, "morse_audit.json")).read())
    assert audit["stable"] is False
    assert audit["failures"] == [failure]


def test_morse_audit_preconditions():
    with pytest.raises(PreconditionError):
        morse_audit(ball3(), rho=0.7, trials=1, quad_cfg=CFG, crit_cfg=CRIT)
    with pytest.raises(PreconditionError):
        morse_audit(ball3(), rho=0.05, trials=0, quad_cfg=CFG, crit_cfg=CRIT)


def test_holed_ball_reference_minimum():
    # the axis is a symmetry axis, so the minimiser is a critical point of psi along it
    h = 1e-5
    e = np.array([h, 0.0, 0.0])
    slope = (holed_ball_psi(HOLED_MINIMUM + e) - holed_ball_psi(HOLED_MINIMUM - e)) / (2.0 * h)
    assert abs(slope) < 1e-4
    assert holed_ball_psi(HOLED_MINIMUM) == pytest.approx(6.3734603, abs=1e-7)
    rng = np.random.default_rng(0)
    for d in rng.normal(size=(8, 3)):
        assert holed_ball_psi(HOLED_MINIMUM + 0.01 * d / np.linalg.norm(d)) > holed_ball_psi(HOLED_MINIMUM)


@pytest.mark.parametrize("seed", range(5))
def test_crit_holed_ball_polishes_one_minimum_once(tmp_path, monkeypatch, seed):
    full = []
    psi = critpoints.psi_integrals

    def counting(domain, x, cfg):
        full.append(cfg.near_budget == 2**15)
        return psi(domain, x, cfg)

    monkeypatch.setattr(critpoints, "psi_integrals", counting)
    path = tmp_path / "holed.json"
    path.write_text(json.dumps({"dimension": 3, "root": {
        "type": "difference",
        "left": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
        "right": {"type": "ball", "center": HOLE_CENTER.tolist(), "radius": HOLE_RADIUS},
    }}))
    out = str(tmp_path / "k")
    argv = ["crit", "--domain", str(path), "--out", out, "--seed", str(seed)]
    assert main(argv + ["--near-budget", "32768", "--replicates", "4", "--far-shells", "24"]) == 0
    points = json.loads(open(os.path.join(out, "census.json")).read())["points"]
    assert [p["morse_index"] for p in points] == [0]
    assert np.linalg.norm(np.array(points[0]["location"]) - HOLED_MINIMUM) <= 0.01
    assert points[0]["psi_value"] == pytest.approx(holed_ball_psi(HOLED_MINIMUM), rel=0.01)
    # every start descends at the light budget; the one basin is polished at the full budget
    assert 1 <= sum(full) <= 12


def test_census_merges_noisy_minima_at_the_mountain_pass_radius():
    # noisy polishes of one minimum lie between 0.05 and 0.1 apart; with a
    # merge radius of 0.05 both survive, and the saddle polish between them
    # falls back onto an endpoint
    cfg = QuadratureConfig(seed=0, near_budget=2**13, far_shells=24, replicates=2)
    rep = census(holed_ball(), cfg, CritConfig())
    assert [p.morse_index for p in rep.points] == [0]
    assert np.linalg.norm(rep.points[0].location - HOLED_MINIMUM) <= 0.02


@pytest.mark.parametrize("seed", range(10))
def test_find_minima_starts_in_every_dumbbell_lobe(seed):
    pts = find_minima(dumbbell(), dataclasses.replace(CFG, seed=seed), CRIT)
    locs = sorted((p.location for p in pts), key=lambda x: x[0])
    assert len(locs) == 2
    for loc, side in zip(locs, (-1.0, 1.0)):
        assert np.linalg.norm(loc - side * np.array([1.733, 0.0, 0.0])) <= 0.01


def test_dumbbell_census_seed_5_finds_the_neck_saddle():
    # at this seed the measured Hessian near the neck saddle reads H_xx of
    # about -0.6 +- 5.7 against a true -11; without the secant correction the
    # saddle Newton overshoots onto the mirror point and stalls there
    rep = census(dumbbell(), dataclasses.replace(CFG, seed=5), CRIT)
    assert [p.morse_index for p in rep.points] == [0, 0, 1]
    assert np.linalg.norm(rep.saddles[0].location) <= 1e-3


def test_mountain_pass_is_symmetric_in_its_endpoints():
    cfg = QuadratureConfig(seed=0, near_budget=2**14, replicates=4)
    a, b = np.array([-1.7328, 0.0, 0.0]), np.array([1.7328, 0.0, 0.0])
    assert mountain_pass(dumbbell(), a, b, cfg).to_dict() == mountain_pass(dumbbell(), b, a, cfg).to_dict()


def _ball(center, radius=1.0):
    return {"type": "ball", "center": list(center), "radius": radius}


def _union(left, right):
    return {"type": "union", "left": left, "right": right}


def _arms(lobe, joint, radius):
    """Unit balls at ``(+-x, y, 0)``, each joined to ``joint`` by a capsule of ``radius``."""
    x, y = lobe
    return _union(*(
        _union(_ball([s * x, y, 0.0]), {"type": "capsule", "a": [s * x, y, 0.0], "b": joint, "radius": radius})
        for s in (-1.0, 1.0)
    ))


def _swap_unions(node):
    if node["type"] != "union":
        return node
    return _union(_swap_unions(node["right"]), _swap_unions(node["left"]))


# A V: the segment between its lobes leaves it.  A bent dumbbell: its neck is
# kinked at (0, 0.5, 0).  Both have a third minimum at the joint and a mirror
# pair of saddles, one on each arm.
BENT_DOMAINS = {
    "V": (_arms((2.0, 1.5), [0.0, 0.0, 0.0], 0.4), (0.632, 0.475)),
    "bent-dumbbell": (_arms((1.75, 0.0), [0.0, 0.5, 0.0], 0.55), (0.28, 0.41)),
}


@pytest.mark.parametrize("name", BENT_DOMAINS)
def test_crit_joins_the_minima_of_a_bent_domain_nearest_first(tmp_path, name):
    root, (sx, sy) = BENT_DOMAINS[name]
    runs = []
    for tag, tree in (("given", root), ("swapped", _swap_unions(root))):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps({"dimension": 3, "root": tree}))
        out = str(tmp_path / tag)
        argv = ["crit", "--domain", str(path), "--out", out, "--seed", "0"]
        assert main(argv + ["--near-budget", "32768", "--replicates", "4", "--far-shells", "24"]) == 0
        runs.append(json.loads(open(os.path.join(out, "census.json")).read())["points"])
    points = runs[0]
    assert [p["morse_index"] for p in points] == [0, 0, 0, 1, 1]
    assert all(p["nondegenerate"] for p in points)
    left, right = (np.array(p["location"]) for p in points[3:])
    # a mirror pair, up to the noise floor: off the mirror plane the fan noise does not cancel
    np.testing.assert_allclose(left, right * [-1.0, 1.0, 1.0], atol=1e-3)
    np.testing.assert_allclose(right, [sx, sy, 0.0], atol=0.01)
    # Union operand order changes nothing
    for p, q in zip(points, runs[1]):
        assert p["morse_index"] == q["morse_index"]
        assert np.linalg.norm(np.array(p["location"]) - q["location"]) <= 1e-6


PEANUT_ROOT = Union(Ball(np.array([-0.9, 0.0, 0.0]), 1.0), Ball(np.array([0.9, 0.0, 0.0]), 1.0))
OFFSET = np.array([0.3, -1.2, 2.5])


@pytest.mark.parametrize("name", ["peanut", "dumbbell"])
def test_census_is_invariant_under_union_order_and_translation(name):
    domain = Domain(3, PEANUT_ROOT if name == "peanut" else dumbbell_root())
    given = census(domain, CFG, CRIT)
    root = domain.to_dict()["root"]
    moved = {"type": "translate", "offset": OFFSET.tolist(), "inner": root}
    for shift, tree in ((np.zeros(3), _swap_unions(root)), (OFFSET, moved)):
        other = census(domain_from_dict({"dimension": 3, "root": tree}), CFG, CRIT)
        assert (other.cat_lower_bound, other.satisfied) == (given.cat_lower_bound, given.satisfied)
        assert [q.morse_index for q in other.points] == [p.morse_index for p in given.points]
        # not bitwise: the Newton polish amplifies round-off in the crossings
        for p, q in zip(given.points, other.points):
            assert np.linalg.norm(q.location - (p.location + shift)) <= 1e-3
            assert abs(q.psi_value - p.psi_value) <= 3.0 * math.hypot(p.psi_std, q.psi_std)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("name", ["peanut", "dumbbell"])
def test_mountain_pass_polishes_the_top_of_the_segment(monkeypatch, name, seed):
    calls = []
    psi = critpoints.psi_integrals

    def counting(domain, x, cfg):
        calls.append(x)
        return psi(domain, x, cfg)

    monkeypatch.setattr(critpoints, "psi_integrals", counting)
    if name == "peanut":
        dom, a = Domain(3, PEANUT_ROOT), 0.836
    else:
        dom, a = dumbbell(), 1.733
    p = mountain_pass(dom, np.array([-a, 0.0, 0.0]), np.array([a, 0.0, 0.0]), dataclasses.replace(CFG, seed=seed))
    assert p.morse_index == 1
    assert np.linalg.norm(p.location) <= 1e-3
    assert len(calls) <= 60


def test_mountain_pass_ignores_the_backward_extension_of_its_segment():
    # The line through the peanut's minima leaves it 1.06 behind either
    # minimum, within the segment's length of 1.67: only the ray along the
    # segment may refuse it.
    dom, a = Domain(3, PEANUT_ROOT), 0.836
    x1, x2 = np.array([a, 0.0, 0.0]), np.array([-a, 0.0, 0.0])
    ray, t, *_ = dom.surface_crossing_candidates(x1, ((x2 - x1) / (2.0 * a))[None, :], 2.0 * a)
    assert ray.tolist() == [1] and t[0] == pytest.approx(1.9 - a)
    p = mountain_pass(dom, x1, x2, CFG)
    assert p.morse_index == 1
    assert np.linalg.norm(p.location) <= 1e-3


def test_crit_exits_3_where_a_hole_cuts_the_segment(tmp_path, capsys):
    # the peanut's two minima lie on either side of the hole
    root = {"type": "difference", "left": _union(_ball([-0.9, 0.0, 0.0]), _ball([0.9, 0.0, 0.0])),
            "right": _ball([0.0, 0.0, 0.0], 0.2)}
    path = tmp_path / "holed_peanut.json"
    path.write_text(json.dumps({"dimension": 3, "root": root}))
    argv = ["crit", "--domain", str(path), "--out", str(tmp_path / "k"), "--seed", "0"]
    assert main(argv + ["--near-budget", "32768", "--replicates", "4", "--far-shells", "24"]) == 3
    assert "the segment between the two minima leaves the region" in capsys.readouterr().err


# Two unit balls whose right anchor, its centre, lies in a carved-out ball:
# the geometric starts reach only the left ball, so the right one needs the
# fallback.  Its minimum is pushed off the hole, to about (2.06, 0, 0).
CARVED = _union(_ball([-2.5, 0.0, 0.0]), {"type": "difference", "left": _ball([2.5, 0.0, 0.0]),
                                          "right": _ball([2.6, 0.0, 0.0], 0.2)})


@pytest.mark.parametrize("seed", range(4))
def test_crit_finds_the_minimum_of_a_leaf_whose_anchor_is_carved_out(tmp_path, monkeypatch, seed):
    reports = []

    def recording(*args, **kwargs):
        reports.append(census(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr("bubblescape.cli.census", recording)
    path = tmp_path / "carved.json"
    path.write_text(json.dumps({"dimension": 3, "root": CARVED}))
    out = str(tmp_path / "k")
    argv = ["crit", "--domain", str(path), "--out", out, "--seed", str(seed)]
    assert main(argv + ["--near-budget", "32768", "--replicates", "4", "--far-shells", "24"]) == 0
    points = json.loads(open(os.path.join(out, "census.json")).read())["points"]
    assert [p["morse_index"] for p in points] == [0, 0]
    assert reports[0].fallback_descents > 0
    right = max((np.array(p["location"]) for p in points), key=lambda x: x[0])
    assert np.linalg.norm(right - [2.06, 0.0, 0.0]) <= 0.1  # the merge radius


CANONICAL = {
    "ball3": (Domain(3, Ball(np.zeros(3), 1.0)), 1),
    "ball4": (Domain(4, Ball(np.zeros(4), 1.0)), 1),
    "dumbbell": (dumbbell(), 2),
    "holed-ball": (holed_ball(), 1),
    "two-balls": (Domain(3, Union(Ball(np.array([-2.5, 0.0, 0.0]), 1.0), Ball(np.array([2.5, 0.0, 0.0]), 1.0))), 2),
    "peanut": (Domain(3, PEANUT_ROOT), 2),
}


@pytest.mark.parametrize("name", CANONICAL)
def test_find_minima_needs_no_fallback_on_the_canonical_domains(monkeypatch, name):
    calls = []
    psi = critpoints.psi_integrals

    def counting(domain, x, cfg):
        calls.append(x)
        return psi(domain, x, cfg)

    monkeypatch.setattr(critpoints, "psi_integrals", counting)
    domain, count = CANONICAL[name]
    pts = find_minima(domain, CFG, CritConfig())
    assert (len(pts), pts.fallback_descents, pts.dropped_starts) == (count, 0, 0)
    if name == "holed-ball":
        assert len(calls) <= 20  # one light descent and one polish from the ball's centre


def test_census_counts_dropped_starts_and_fallback_descents(monkeypatch):
    # the first polish, the left ball's, fails; its component then holds no
    # minimum, so fallback starts in that ball find it again
    polish = critpoints._polish
    calls = []

    def failing_once(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 1:
            raise ConvergenceError("stalled")
        return polish(*args, **kwargs)

    monkeypatch.setattr(critpoints, "_polish", failing_once)
    domain = CANONICAL["two-balls"][0]
    rep = census(domain, CFG, CRIT)
    assert (len(rep.minima), rep.dropped_starts) == (2, 1)
    assert 0 < rep.fallback_descents <= CRIT.multistart
    assert calls[0][0] < 0.0 and all(np.linalg.norm(x - [-2.5, 0.0, 0.0]) < 1.0 for x in calls[2:])
    assert set(rep.to_dict()) == {"points", "cat_lower_bound", "satisfied"}
