"""Oracle tests for reduced energies, their constants, and rate predictions.

Independent routes used as oracles:

* Beta/digamma closed forms for every dimensional constant (the library
  uses the Beta forms too; only its log-weighted moment, which the digamma
  form checks, comes from a radial quadrature);
* golden-section / bounded scalar minimization for the optimal scales (the
  library uses closed forms or Newton);
* a hand-derived closed form for the symmetric two-bubble optimum on a ball
  (the library uses damped Newton in log coordinates);
* finite differences for the hole-saddle signature.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import optimize, special

from bubblescape.errors import ConvergenceError, PreconditionError
from bubblescape.geometry import Ball, BoundaryPoint, Difference, Domain, domain_from_dict
from bubblescape.landscape import (
    Constants,
    constants,
    hole_critical_point,
    optimal_d,
    predict_hole,
    predict_nodal,
    predict_subcritical,
    reduced_energy_hole,
    reduced_energy_nodal,
    reduced_energy_sub,
)
from bubblescape.quadrature import QuadratureConfig, bubble_alpha, psi_integrals, sphere_area

CFG = QuadratureConfig(seed=0, near_budget=2**16, far_shells=32, replicates=8)


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------


def mass_closed(n: int) -> float:
    """Whole-space mass of U^(p+1) via the Beta function."""
    m = 2.0 * n / (n - 2.0)
    alpha = bubble_alpha(n)
    return alpha**m * sphere_area(n) * 0.5 * special.beta(n / 2.0, n / 2.0)


def log_mass_closed(n: int) -> float:
    """Whole-space mass of U^(p+1) ln U via Beta and digamma."""
    m = 2.0 * n / (n - 2.0)
    alpha = bubble_alpha(n)
    ib = 0.5 * special.beta(n / 2.0, n / 2.0)
    return alpha**m * sphere_area(n) * ib * (
        math.log(alpha) - 0.5 * (n - 2.0) * (special.digamma(n) - special.digamma(n / 2.0))
    )


def half_space_kernel_closed(n: int) -> float:
    kappa = 0.5 * special.beta((n - 1) / 2.0, (n + 1) / 2.0)
    return sphere_area(n - 1) * kappa / n


def constants_closed(n: int) -> dict:
    m = 2.0 * n / (n - 2.0)
    alpha = bubble_alpha(n)
    M = mass_closed(n)
    L = log_mass_closed(n)
    ball_volume = sphere_area(n) / n
    return {
        "a": M / n,
        "b": L / m - M / m**2,
        "c": -M / m**2,
        "c1": 2.0 * alpha**m / m,
        "c2": n * M / m**2,
        "c1_nodal": alpha**m * ball_volume,
        "c3_nodal": (n - 2.0) * alpha**m * ball_volume,
        "c4_nodal": (2.0 / m) * alpha**m * half_space_kernel_closed(n),
        "b2_hole": (2.0 * alpha**m / m) * ball_volume,
    }


def ball3() -> Domain:
    return Domain(3, Ball(np.zeros(3), 1.0))


def ball4() -> Domain:
    return Domain(4, Ball(np.zeros(4), 1.0))


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_match_beta_digamma_closed_forms():
    for n in range(3, 9):
        cn = constants(n)
        oracle = constants_closed(n)
        for name, want in oracle.items():
            got = getattr(cn, name)
            assert got == pytest.approx(want, rel=1e-10), (n, name)
        assert cn.critical_mass == pytest.approx(mass_closed(n), rel=1e-10)
        assert cn.log_mass == pytest.approx(log_mass_closed(n), rel=1e-10)


def test_constants_frozen_values_dimension_four():
    cn = constants(4)
    assert cn.p == pytest.approx(3.0, rel=0, abs=0)
    assert cn.critical_mass == pytest.approx(32.0 * math.pi**2 / 3.0, rel=1e-12)
    assert cn.a == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-12)
    assert cn.b == pytest.approx(-1.1478366366074587, rel=1e-10)
    assert cn.c == pytest.approx(-2.0 * math.pi**2 / 3.0, rel=1e-12)
    assert cn.c1 == pytest.approx(32.0, rel=1e-12)
    assert cn.c2 == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-12)


def test_constants_frozen_values_dimension_three():
    cn = constants(3)
    assert cn.p == pytest.approx(5.0)
    assert cn.critical_mass == pytest.approx(3.0**1.5 * math.pi**2 / 4.0, rel=1e-12)
    assert cn.c1 == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert cn.c2 == pytest.approx(3.0**1.5 * math.pi**2 / 48.0, rel=1e-12)
    assert cn.c1_nodal == pytest.approx(4.0 * math.sqrt(3.0) * math.pi, rel=1e-12)
    assert cn.c3_nodal == pytest.approx(4.0 * math.sqrt(3.0) * math.pi, rel=1e-12)
    assert cn.c4_nodal == pytest.approx(math.sqrt(3.0) * math.pi / 6.0, rel=1e-10)
    assert cn.b2_hole == pytest.approx(math.sqrt(3.0) * 4.0 * math.pi / 3.0, rel=1e-12)


def test_constants_positive_and_cached():
    for n in range(3, 9):
        cn = constants(n)
        for name in ("a", "c1", "c2", "c1_nodal", "c3_nodal", "c4_nodal", "b2_hole", "critical_mass"):
            assert getattr(cn, name) > 0.0, (n, name)
        assert cn.c < 0.0
    assert constants(4) is constants(4)


def test_constants_rejects_bad_dimension():
    for bad in (2, 9, 0, -3):
        with pytest.raises(PreconditionError):
            constants(bad)
    with pytest.raises(PreconditionError):
        constants(3.5)  # type: ignore[arg-type]
    with pytest.raises(PreconditionError):
        constants(True)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# subcritical reduced energy
# ---------------------------------------------------------------------------


def test_optimal_d_matches_bounded_minimization():
    for n in (3, 4, 5):
        cn = constants(n)
        for psi_val in (0.2, 1.0, math.pi**2 / 2.0, 9.0):
            d_closed = optimal_d(cn, psi_val)
            res = optimize.minimize_scalar(
                lambda d: reduced_energy_sub(cn, psi_val, d),
                bounds=(1e-4, 50.0),
                method="bounded",
                options={"xatol": 1e-12},
            )
            assert d_closed == pytest.approx(res.x, rel=1e-7)
            # strict interior minimum
            for h in (1e-3, 1e-2):
                assert reduced_energy_sub(cn, psi_val, d_closed * (1 + h)) > reduced_energy_sub(cn, psi_val, d_closed)
                assert reduced_energy_sub(cn, psi_val, d_closed * (1 - h)) > reduced_energy_sub(cn, psi_val, d_closed)


def test_subcritical_frozen_values_ball_center():
    cn = constants(4)
    psi_val = math.pi**2 / 2.0
    d_star = optimal_d(cn, psi_val)
    assert d_star == pytest.approx((1.0 / 24.0) ** 0.25, rel=1e-12)
    assert d_star == pytest.approx(0.4518010018049224, rel=1e-12)
    level = reduced_energy_sub(cn, psi_val, d_star)
    assert level == pytest.approx(2.0 * math.pi**2 / 3.0 * (1.0 + math.log(24.0)), rel=1e-12)
    assert level == pytest.approx(27.4904923146602, rel=1e-12)


def test_minimal_reduced_energy_increases_with_landscape_value():
    cn = constants(4)
    levels = []
    for psi_val in (2.0, 3.0, 5.0, 9.0):
        d_star = optimal_d(cn, psi_val)
        levels.append(reduced_energy_sub(cn, psi_val, d_star))
    assert all(x < y for x, y in zip(levels, levels[1:]))
    # closed form of the minimal level, as an independent check
    n, c1, c2 = cn.n, cn.c1, cn.c2
    for psi_val, level in zip((2.0, 3.0, 5.0, 9.0), levels):
        want = (c2 / n) * (1.0 + math.log(n * c1 * psi_val / c2))
        assert level == pytest.approx(want, rel=1e-12)


def test_predict_subcritical_ball():
    cn = constants(4)
    pred = predict_subcritical(ball4(), 0.1, np.zeros(4), cn, CFG)
    assert pred.regime == "subcritical"
    assert pred.parameters["psi_value"] == pytest.approx(math.pi**2 / 2.0, rel=1e-12)
    d_star = (1.0 / 24.0) ** 0.25
    assert pred.parameters["d_star"] == pytest.approx(d_star, rel=1e-10)
    assert pred.delta(0.1) == pytest.approx([d_star * 0.1**0.25], rel=1e-10)
    assert pred.delta(0.025) == pytest.approx([d_star * 0.025**0.25], rel=1e-10)
    np.testing.assert_allclose(pred.centers(0.05), np.zeros((1, 4)), atol=0.0)
    assert pred.signs == (1,)


def test_predict_subcritical_preconditions():
    cn = constants(4)
    with pytest.raises(PreconditionError):
        predict_subcritical(ball4(), 0.25, np.zeros(4), cn, CFG)
    with pytest.raises(PreconditionError):
        predict_subcritical(ball4(), -0.1, np.zeros(4), cn, CFG)
    with pytest.raises(PreconditionError):
        predict_subcritical(ball4(), 0.1, np.array([2.0, 0.0, 0.0, 0.0]), cn, CFG)
    with pytest.raises(PreconditionError):
        reduced_energy_sub(cn, -1.0, 0.5)
    with pytest.raises(PreconditionError):
        reduced_energy_sub(cn, 1.0, 0.0)
    with pytest.raises(PreconditionError):
        optimal_d(cn, 0.0)


# ---------------------------------------------------------------------------
# nodal reduced energy
# ---------------------------------------------------------------------------


def _antipodal_pair(n: int) -> tuple[BoundaryPoint, BoundaryPoint]:
    e = np.zeros(n)
    e[0] = 1.0
    return (
        BoundaryPoint(point=e.copy(), inner_normal=-e.copy()),
        BoundaryPoint(point=-e.copy(), inner_normal=e.copy()),
    )


def test_nodal_energy_value_against_inline_formula():
    cn = constants(3)
    bp1, bp2 = _antipodal_pair(3)
    d1, d2, t1, t2 = 0.21, 0.18, 0.4, 0.35
    sep = 2.0
    prod = d1 * d2
    xi = cn.c1_nodal * prod**0.5 / sep - cn.c2 * math.log(prod)
    drift = (bp1.point - bp2.point) @ (t1 * bp1.inner_normal - t2 * bp2.inner_normal)
    ups = -cn.c3_nodal * prod**0.5 * drift / sep**3 + cn.c4_nodal * ((d1 / t1) ** 3 + (d2 / t2) ** 3)
    got = reduced_energy_nodal(cn, d1, d2, t1, t2, bp1, bp2)
    assert got == pytest.approx(xi + ups, rel=1e-14)
    # the drift term rewards pushing both bubbles inward (facing normals)
    assert drift < 0.0


def test_nodal_energy_swap_symmetry_bitwise():
    cn = constants(4)
    rng = np.random.default_rng(7)
    for _ in range(25):
        p1 = rng.normal(size=4)
        p2 = rng.normal(size=4)
        n1 = rng.normal(size=4)
        n1 /= np.linalg.norm(n1)
        n2 = rng.normal(size=4)
        n2 /= np.linalg.norm(n2)
        bp1 = BoundaryPoint(point=p1, inner_normal=n1)
        bp2 = BoundaryPoint(point=p2, inner_normal=n2)
        d1, d2, t1, t2 = rng.uniform(0.05, 2.0, size=4)
        a = reduced_energy_nodal(cn, d1, d2, t1, t2, bp1, bp2)
        b = reduced_energy_nodal(cn, d2, d1, t2, t1, bp2, bp1)
        assert a == b  # bitwise


def test_nodal_energy_c2_injection_and_preconditions():
    cn = constants(3)
    bp1, bp2 = _antipodal_pair(3)
    base = reduced_energy_nodal(cn, 0.2, 0.2, 0.3, 0.3, bp1, bp2)
    shifted = reduced_energy_nodal(dataclasses.replace(cn, c2=cn.c2 + 1.0), 0.2, 0.2, 0.3, 0.3, bp1, bp2)
    assert shifted == pytest.approx(base - math.log(0.04) * 1.0, rel=1e-12)
    with pytest.raises(PreconditionError):
        reduced_energy_nodal(cn, -0.1, 0.2, 0.3, 0.3, bp1, bp2)
    with pytest.raises(PreconditionError):
        reduced_energy_nodal(cn, 0.2, 0.2, 0.3, 0.0, bp1, bp2)
    with pytest.raises(PreconditionError):
        reduced_energy_nodal(cn, 0.2, 0.2, 0.3, 0.3, bp1, bp1)  # coincident anchors


def test_predict_nodal_ball_matches_closed_form():
    """On the unit ball in R^3 the symmetric optimum is fully explicit.

    With sep = 2:  sqrt(d1 d2) = sbar = pi/16, the split is symmetric, and
    t1 = t2 = (3 (c4/c3) sbar^2 sep^2)^(1/4) = (pi^2/512)^(1/4).
    """
    cn = constants(3)
    pred = predict_nodal(ball3(), 0.1, cn, CFG)
    sbar = math.pi / 16.0
    t_star = (math.pi**2 / 512.0) ** 0.25
    assert pred.regime == "nodal"
    assert pred.parameters["separation"] == pytest.approx(2.0, rel=1e-9)
    assert pred.parameters["d1"] == pytest.approx(sbar, rel=1e-8)
    assert pred.parameters["d2"] == pytest.approx(sbar, rel=1e-8)
    assert pred.parameters["t1"] == pytest.approx(t_star, rel=1e-8)
    assert pred.parameters["t2"] == pytest.approx(t_star, rel=1e-8)
    assert pred.signs == (1, -1)
    # anchors are an antipodal boundary pair with inward normals
    np.testing.assert_allclose(pred.anchors[0] + pred.anchors[1], np.zeros(3), atol=1e-9)
    np.testing.assert_allclose(pred.normals[0], -pred.anchors[0], atol=1e-9)
    # rate exponents for n = 3: delta ~ eps, tau ~ eps^(1/2)
    assert pred.delta_exponent == pytest.approx(1.0)
    assert pred.tau_exponent == pytest.approx(0.5)
    assert pred.delta(0.01) == pytest.approx([sbar * 0.01, sbar * 0.01], rel=1e-8)
    assert pred.tau(0.01) == pytest.approx([t_star * 0.1, t_star * 0.1], rel=1e-8)
    centers = pred.centers(0.01)
    want = pred.anchors + (t_star * 0.1) * pred.normals
    np.testing.assert_allclose(centers, want, rtol=1e-8)


def test_predict_nodal_optimum_is_a_true_minimum():
    """FD optimality of the Newton output in (d1, d2, t1, t2) around the optimum."""
    cn = constants(4)
    pred = predict_nodal(ball4(), 0.05, cn, CFG)
    bp1 = BoundaryPoint(point=pred.anchors[0], inner_normal=pred.normals[0])
    bp2 = BoundaryPoint(point=pred.anchors[1], inner_normal=pred.normals[1])
    d1, d2, t1, t2 = (pred.parameters[k] for k in ("d1", "d2", "t1", "t2"))
    base = reduced_energy_nodal(cn, d1, d2, t1, t2, bp1, bp2)
    assert base == pytest.approx(pred.parameters["reduced_energy"], rel=1e-12)

    # the product d1*d2 is pinned at sbar^2 by the leading term, so probe the
    # constrained directions: split ratio and the two wall distances
    def g(r, s, u):
        return reduced_energy_nodal(cn, d1 * r, d2 / r, t1 * s, t2 * u, bp1, bp2)

    for h in (1.01, 0.99, 1.001):
        assert g(h, 1, 1) >= base - 1e-12 * abs(base)
        assert g(1, h, 1) >= base - 1e-12 * abs(base)
        assert g(1, 1, h) >= base - 1e-12 * abs(base)
    n = cn.n
    sbar = 2.0 * (2.0 * cn.c2 / ((n - 2.0) * cn.c1_nodal)) ** (1.0 / (n - 2.0))
    assert d1 * d2 == pytest.approx(sbar**2, rel=1e-10)
    t_closed = (n * (cn.c4_nodal / cn.c3_nodal) * sbar**2 * 2.0 ** (n - 1.0)) ** (1.0 / (n + 1.0))
    assert t1 == pytest.approx(t_closed, rel=1e-8)
    assert t2 == pytest.approx(t_closed, rel=1e-8)


def test_predict_nodal_rejects_misaligned_diameter_normals():
    # lens: intersection of two overlapping balls, built as B1 minus (B1 minus B2);
    # its farthest pair lies on the rim circle where normals cannot face the chord
    b1 = Ball(np.array([-0.6, 0.0, 0.0]), 1.0)
    b2 = Ball(np.array([0.6, 0.0, 0.0]), 1.0)
    lens = Domain(3, Difference(b1, Difference(b1, b2)))
    cn = constants(3)
    with pytest.raises(ConvergenceError):
        predict_nodal(lens, 0.1, cn, CFG)


# ---------------------------------------------------------------------------
# hole reduced energy
# ---------------------------------------------------------------------------


def _ball_b1(cn):
    """``b1 = c1 psi(0)`` of the unit 3-ball, from the landscape engine."""
    return cn.c1 * psi_integrals(ball3(), np.zeros(3), CFG).value


def test_hole_energy_ball_frozen_value():
    cn = constants(3)
    val = reduced_energy_hole(cn, _ball_b1(cn), 1.0, np.zeros(3))
    want = 8.0 * math.sqrt(3.0) * math.pi / 3.0
    assert val == pytest.approx(want, rel=1e-12)
    assert val == pytest.approx(14.510394913873741, rel=1e-12)
    d0, zeta0 = hole_critical_point(cn, cn.c1 * 4.0 * math.pi / 3.0)
    assert d0 == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_array_equal(zeta0, np.zeros(3))


def test_hole_critical_point_matches_bounded_minimization():
    cn = constants(3)
    for b1 in (0.5, 7.2552, 31.0):
        d0, _ = hole_critical_point(cn, b1)
        res = optimize.minimize_scalar(
            lambda d: b1 * d**3 + cn.b2_hole * d**-3,
            bounds=(1e-3, 100.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert d0 == pytest.approx(res.x, rel=1e-7)


def test_hole_energy_coercive_in_d():
    cn = constants(3)
    b1 = _ball_b1(cn)
    d0 = 1.0
    mid = reduced_energy_hole(cn, b1, d0, np.zeros(3))
    assert reduced_energy_hole(cn, b1, 1e-6, np.zeros(3)) > 1e6 * mid
    assert reduced_energy_hole(cn, b1, 1e6, np.zeros(3)) > 1e6 * mid


def test_hole_saddle_signature():
    """FD Hessian at (d0, 0): one positive direction in d, n negative in zeta."""
    cn = constants(3)
    b1_measured = _ball_b1(cn)
    d0 = 1.0
    h = 1e-4

    def phi(d, zeta):
        return reduced_energy_hole(cn, b1_measured, d, zeta)

    base = phi(d0, np.zeros(3))
    # d-direction: positive curvature
    curv_d = (phi(d0 + h, np.zeros(3)) - 2 * base + phi(d0 - h, np.zeros(3))) / h**2
    b1 = cn.c1 * 4.0 * math.pi / 3.0
    want_d = 3.0 * (2.0 * 3.0) * b1 * d0  # n(n+1) b1 d^{n-2} + n(n+1) b2 d^{-n-2} at d0=1 -> 2 n(n+1) b1? no:
    # d^2/dd^2 [b1 d^3 + b2 d^-3] = 6 b1 d + 12 b2 d^-5; at d0=1, b1=b2: 18 b1
    want_d = 18.0 * b1
    assert curv_d == pytest.approx(want_d, rel=1e-5)
    assert curv_d > 0
    # zeta-directions: negative curvature, isotropic, equal to -2 n b2 d0^{-n}
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        curv_z = (phi(d0, e) - 2 * base + phi(d0, -e)) / h**2
        assert curv_z == pytest.approx(-2.0 * 3.0 * cn.b2_hole, rel=1e-5)
        assert curv_z < 0


def test_predict_hole_ball():
    cn = constants(3)
    pred = predict_hole(ball3(), 1e-2, cn, CFG)
    assert pred.regime == "hole"
    assert pred.parameters["d0"] == pytest.approx(1.0, rel=1e-10)
    assert pred.parameters["b1"] == pytest.approx(cn.b2_hole, rel=1e-10)
    assert pred.delta_exponent == pytest.approx(0.5)
    assert pred.delta(1e-2) == pytest.approx([0.1], rel=1e-10)
    np.testing.assert_allclose(pred.centers(1e-2), np.zeros((1, 3)), atol=0.0)


def test_hole_preconditions():
    cn = constants(3)
    b1 = _ball_b1(cn)
    with pytest.raises(PreconditionError):
        reduced_energy_hole(cn, b1, -1.0, np.zeros(3))
    with pytest.raises(PreconditionError):
        reduced_energy_hole(cn, b1, 1.0, np.zeros(2))
    with pytest.raises(PreconditionError):
        hole_critical_point(cn, 0.0)
    with pytest.raises(PreconditionError):
        predict_hole(ball3(), 0.7, cn, CFG)
    # origin must be interior
    shifted = Domain(3, Ball(np.array([5.0, 0.0, 0.0]), 1.0))
    with pytest.raises(PreconditionError):
        predict_hole(shifted, 1e-2, cn, CFG)


def test_rate_prediction_roundtrip_shapes():
    cn = constants(3)
    pred = predict_nodal(ball3(), 0.1, cn, CFG)
    assert pred.anchors.shape == (2, 3)
    assert pred.normals.shape == (2, 3)
    assert pred.delta(0.1).shape == (2,)
    assert pred.tau(0.1).shape == (2,)
    assert pred.centers(0.1).shape == (2, 3)
