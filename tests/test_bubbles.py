"""Oracle tests for bubble profiles, kernel modes, rescaling, and energies.

Independent routes used as oracles:

* closed-form radial integrals (Beta forms, exact antiderivatives) for
  single-bubble masses, evaluated inline;
* axisymmetric 2D adaptive quadrature (dblquad) for the pair interaction
  integral;
* high-precision frozen values for the expansion residual tables on balls
  (the energies there reduce to exact radial integrals);
* a half-space kernel closed form for the wall-mass scaling laws.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from bubblescape.bubbles import (
    Bubble,
    bubble_value,
    energy,
    expansion_residual_hole,
    expansion_residual_sub,
    interaction,
    linearization_residual,
    rescale,
    rescaling_isometry_check,
    z_value,
)
from bubblescape.errors import PreconditionError
from bubblescape.geometry import Ball, Domain
from bubblescape.landscape import constants
from bubblescape.quadrature import QuadratureConfig, bubble_alpha, bubble_moment, exterior_bubble_mass, sphere_area

CFG = QuadratureConfig(seed=0, near_budget=2**17, far_shells=32, replicates=8)


def ball(n: int, radius: float = 1.0) -> Domain:
    return Domain(n, Ball(np.zeros(n), radius))


# ---------------------------------------------------------------------------
# profiles and kernel modes
# ---------------------------------------------------------------------------


def test_bubble_value_closed_form_points():
    for n in (3, 4, 5):
        alpha = (n * (n - 2.0)) ** ((n - 2.0) / 4.0)
        q = (n - 2.0) / 2.0
        x = np.zeros(n)
        assert bubble_value(n, 1.0, np.zeros(n), x)[0] == pytest.approx(alpha, rel=1e-14)
        x = np.full(n, 0.3)
        r2 = n * 0.09
        want = alpha * 0.5**q / (0.25 + r2) ** q
        assert bubble_value(n, 0.5, np.zeros(n), x)[0] == pytest.approx(want, rel=1e-14)


def test_bubble_solves_critical_equation_fd():
    """-Delta U = U^p checked by central differences (test-local FD route)."""
    for n in (3, 4):
        p = (n + 2.0) / (n - 2.0)
        delta, center = 0.7, np.linspace(0.0, 0.3, n)
        rng = np.random.default_rng(3)
        X = center + rng.normal(size=(12, n)) * 0.8
        h = 1e-4 * np.sqrt(delta**2 + ((X - center) ** 2).sum(axis=1))
        lap = np.zeros(12)
        u0 = bubble_value(n, delta, center, X)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            up = bubble_value(n, delta, center, X + h[:, None] * e)
            um = bubble_value(n, delta, center, X - h[:, None] * e)
            lap += (up - 2 * u0 + um) / h**2
        rel = np.abs(lap + u0**p) / u0**p
        assert np.max(rel) < 1e-5


def test_z_value_frozen_origin_values():
    for n in (3, 4, 5):
        alpha = bubble_alpha(n)
        got = z_value(n, 0, 1.0, np.zeros(n), np.zeros(n))[0]
        assert got == pytest.approx(-alpha * (n - 2.0) / 2.0, rel=1e-14)
        # translation modes vanish at the center and are odd
        for i in range(1, n + 1):
            assert z_value(n, i, 1.0, np.zeros(n), np.zeros(n))[0] == 0.0
            x = np.zeros(n)
            x[i - 1] = 0.4
            a = z_value(n, i, 1.0, np.zeros(n), x)[0]
            b = z_value(n, i, 1.0, np.zeros(n), -x)[0]
            assert a == pytest.approx(-b, rel=1e-14)
            assert a > 0.0
    # dilation mode changes sign at r = delta
    assert z_value(3, 0, 0.5, np.zeros(3), np.array([0.49, 0, 0]))[0] < 0.0
    assert z_value(3, 0, 0.5, np.zeros(3), np.array([0.51, 0, 0]))[0] > 0.0


def test_linearization_residual_small_for_all_modes():
    rng = np.random.default_rng(11)
    for n in (3, 4):
        for delta in (0.05, 1.0):
            center = np.linspace(-0.2, 0.2, n)
            dirs = rng.normal(size=(6, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            X = np.concatenate([center + delta * s * dirs for s in (0.5, 1.0, 3.0)])
            for mode in range(n + 1):
                res = linearization_residual(n, mode, delta, center, X)
                assert res.shape == (18,)
                assert np.max(res) < 1e-4, (n, delta, mode)


def test_linearization_residual_rejects_near_center_samples():
    with pytest.raises(PreconditionError):
        linearization_residual(3, 0, 0.5, np.zeros(3), np.array([[5e-4, 0.0, 0.0]]))
    with pytest.raises(PreconditionError):
        z_value(3, 4, 0.5, np.zeros(3), np.zeros(3))
    with pytest.raises(PreconditionError):
        z_value(3, -1, 0.5, np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------


def test_rescale_reproduces_bubble_family():
    n = 4
    alpha = bubble_alpha(n)

    def standard(Y):
        return alpha / (1.0 + (Y**2).sum(axis=1)) ** ((n - 2.0) / 2.0)

    delta, center = 0.37, np.array([0.1, -0.2, 0.0, 0.4])
    v = rescale(n, delta, center, standard)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, n))
    np.testing.assert_allclose(v(X), bubble_value(n, delta, center, X), rtol=1e-14)


def test_rescaling_isometry_and_ls_slope():
    rep = rescaling_isometry_check(4, 3.0)
    assert rep["dirichlet_max_deviation"] < 1e-6
    assert rep["ls_slope_expected"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert abs(rep["ls_slope"] - 1.0 / 3.0) < 1e-3
    # Dirichlet energy equals the critical mass (integration by parts)
    M = bubble_moment(4, 4.0)
    np.testing.assert_allclose(rep["dirichlet_values"], M, rtol=1e-9)

    rep3 = rescaling_isometry_check(3, 4.0)
    assert rep3["dirichlet_max_deviation"] < 1e-6
    assert abs(rep3["ls_slope"] - 0.25) < 1e-3
    np.testing.assert_allclose(rep3["dirichlet_values"], bubble_moment(3, 6.0), rtol=1e-9)


def test_rescaling_check_preconditions():
    with pytest.raises(PreconditionError):
        rescaling_isometry_check(3, 2.9)  # L^s mass diverges
    with pytest.raises(PreconditionError):
        rescaling_isometry_check(4, 3.0, deltas=(1.0,))
    with pytest.raises(PreconditionError):
        rescale(3, -0.5, np.zeros(3), lambda X: X[:, 0])


# ---------------------------------------------------------------------------
# single-bubble energy against exact radial closed forms
# ---------------------------------------------------------------------------


def exact_ball_energy_n4(eps: float) -> float:
    """Exact J for the centered bubble on the unit ball in R^4.

    All pieces are radial: the whole-space mass is a Beta integral and the
    exterior mass has an elementary antiderivative.
    """
    n = 4
    alpha = bubble_alpha(n)
    m = 4.0 - eps
    d_star = (1.0 / 24.0) ** 0.25
    delta = d_star * eps**0.25
    M = bubble_moment(n, 4.0)
    whole = delta ** (eps * (n - 2) / 2.0) * bubble_moment(n, m)
    A = 1.0 + delta**2
    ext = (
        sphere_area(n)
        * alpha**m
        * delta**m
        * 0.5
        * (A ** (2.0 - m) / (m - 2.0) - delta**2 * A ** (1.0 - m) / (m - 1.0))
    )
    W = whole - 2.0 * ext
    return M / 2.0 - W / m


def test_energy_single_bubble_ball_matches_exact_closed_form():
    cn = constants(4)
    dom = ball(4)
    d_star = (1.0 / 24.0) ** 0.25
    frozen = {0.1: 30.1643809563, 0.05: 28.5192738939, 0.025: 27.550537512}
    for eps, jfrozen in frozen.items():
        delta = d_star * eps**0.25
        rep = energy(dom, Bubble(1, delta, np.zeros(4)), eps, cn, CFG)
        want = exact_ball_energy_n4(eps)
        assert want == pytest.approx(jfrozen, rel=1e-10)  # closed form vs frozen high-precision
        assert rep.j_eps == pytest.approx(want, rel=1e-8)
        assert rep.j_std < 1e-6
        assert rep.converged
        assert rep.gradient_part == pytest.approx(bubble_moment(4, 4.0) / 2.0, rel=1e-14)
        assert rep.exponent == pytest.approx(4.0 - eps)


def test_energy_translation_invariance():
    cn = constants(3)
    v = np.array([0.3, -1.1, 0.7])
    dom0 = ball(3)
    dom1 = Domain(3, Ball(v, 1.0))
    b0 = Bubble(1, 0.2, np.array([0.1, 0.0, -0.2]))
    b1 = Bubble(1, 0.2, b0.center + v)
    r0 = energy(dom0, b0, 0.05, cn, CFG)
    r1 = energy(dom1, b1, 0.05, cn, CFG)
    assert r0.j_eps == pytest.approx(r1.j_eps, rel=1e-12)
    assert r0.exterior_mass == pytest.approx(r1.exterior_mass, rel=1e-10)


def test_single_bubble_energy_takes_the_closed_form_exterior_mass():
    cfg = QuadratureConfig(seed=0, near_budget=2**12, far_shells=16, replicates=2)
    cn = constants(3)
    b = Bubble(1, 0.1, np.array([0.2, 0.0, 0.0]))
    rep = energy(ball(3), b, 0.05, cn, cfg)
    ext = exterior_bubble_mass(ball(3), b.delta, b.center, rep.exponent, cfg)
    assert rep.exterior_mass == ext.value and rep.exterior_mass > 0.0
    assert rep.n_evals == ext.n_evals


def test_energy_preconditions():
    cn = constants(4)
    dom = ball(4)
    with pytest.raises(PreconditionError):
        energy(dom, Bubble(1, 0.1, np.array([3.0, 0, 0, 0])), 0.1, cn, CFG)  # center outside
    with pytest.raises(PreconditionError):
        energy(dom, Bubble(1, 0.1, np.zeros(4)), 0.25, cn, CFG)  # eps too large
    with pytest.raises(PreconditionError):
        energy(ball(3), Bubble(1, 0.1, np.zeros(3)), 0.1, cn, CFG)  # dim mismatch
    with pytest.raises(PreconditionError):
        Bubble(2, 0.1, np.zeros(4))
    with pytest.raises(PreconditionError):
        Bubble(1, 0.0, np.zeros(4))


# ---------------------------------------------------------------------------
# pair interaction against axisymmetric 2D quadrature
# ---------------------------------------------------------------------------


def _axisym_oracle():
    """dblquad value of ``int U[0.25, +0.5 e3]^5 U[0.2, -0.5 e3]`` in R^3."""
    alpha = 3.0**0.25

    def U(d, zc, rho, z):
        return alpha * d**0.5 / (d * d + rho * rho + (z - zc) ** 2) ** 0.5

    return 2 * math.pi * integrate.dblquad(
        lambda rho, z: rho * U(0.25, 0.5, rho, z) ** 5 * U(0.2, -0.5, rho, z), -np.inf, np.inf, 0, np.inf,
        epsabs=1e-12, epsrel=1e-10,
    )[0]


def test_interaction_against_axisymmetric_quadrature_and_decay():
    cn = constants(3)
    b_near = (Bubble(1, 0.25, np.array([0.0, 0.0, 0.5])), Bubble(1, 0.2, np.array([0.0, 0.0, -0.5])))
    got = interaction(3, *b_near, CFG)
    cross = _axisym_oracle()
    assert got.value == pytest.approx(cross, abs=5 * got.std_error + 1e-9 * cross)

    # far-field law: value ~ c1_nodal (d1 d2)^((n-2)/2) / R^(n-2)
    delta = 0.15
    vals = {}
    for R in (4.0, 8.0):
        bb = (Bubble(1, delta, np.zeros(3)), Bubble(1, delta, np.array([0.0, 0.0, R])))
        vals[R] = interaction(3, *bb, CFG).value
    slope = (math.log(vals[8.0]) - math.log(vals[4.0])) / math.log(2.0)
    assert abs(slope + 1.0) < 0.05  # -(n-2) for n = 3
    model = cn.c1_nodal * delta / 4.0
    assert vals[4.0] == pytest.approx(model, rel=0.05)


def interaction_mpmath(n: int, d1: float, d2: float, sep: float) -> float:
    """``int U_1^p U_2`` as an mpmath 2-D integral over ``r = |x - xi_1|`` and ``t = cos theta``."""
    with mp.workdps(15):
        q, p = mp.mpf(n - 2) / 2, mp.mpf(n + 2) / (n - 2)
        alpha = (mp.mpf(n) * (n - 2)) ** (mp.mpf(n - 2) / 4)
        d1, d2, sep = mp.mpf(d1), mp.mpf(d2), mp.mpf(sep)
        # measure of the (n-2)-sphere of directions at a fixed angle to the axis
        rim = 2 * mp.pi ** (mp.mpf(n - 1) / 2) / mp.gamma(mp.mpf(n - 1) / 2)

        def f(r, t):
            u1 = alpha * d1**q / (d1**2 + r**2) ** q
            u2 = alpha * d2**q / (d2**2 + r**2 + sep**2 - 2 * r * sep * t) ** q
            return u1**p * u2 * r ** (n - 1) * (1 - t * t) ** (mp.mpf(n - 3) / 2)

        return float(rim * mp.quad(f, [0, d1, sep, mp.inf], [-1, 1]))


@pytest.mark.parametrize(
    "n, d1, d2, sep",
    [(3, 0.01, 0.01, 1.0), (3, 0.01, 0.01, 2.0), (3, 0.01, 0.01, 4.0), (4, 0.01, 0.01, 2.0),
     (5, 0.01, 0.01, 4.0), (5, 0.25, 0.2, 1.0), (3, 0.1, 0.05, 1.0)],
)
def test_interaction_matches_mpmath(n, d1, d2, sep):
    axis = np.eye(n)[-1]
    got = interaction(n, Bubble(1, d1, 0.3 * axis), Bubble(1, d2, (0.3 - sep) * axis), CFG)
    assert got.value == pytest.approx(interaction_mpmath(n, d1, d2, sep), rel=1e-12)


@pytest.mark.parametrize("n", range(3, 9))
def test_interaction_swap_identity(n):
    # int U_1^p U_2 = int U_1 U_2^p: both equal the pairing <grad U_1, grad U_2>
    # the last pair sits 30 to 140 apart, up to seven decades above the smaller scale
    rng = np.random.default_rng(n)
    for d1, d2, spread in ((1e-4, 3e-4, 1.0), (0.01, 0.007, 1.0), (0.3, 0.5, 1.0), (1e-5, 0.05, 30.0)):
        b1 = Bubble(1, d1, spread * rng.normal(size=n))
        b2 = Bubble(1, d2, spread * rng.normal(size=n))
        assert interaction(n, b1, b2, CFG).value == pytest.approx(interaction(n, b2, b1, CFG).value, rel=1e-13)


def test_interaction_is_exact_and_casts_no_rays(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("interaction cast rays")

    monkeypatch.setattr(Domain, "surface_crossing_candidates", refuse)
    got = interaction(3, Bubble(1, 0.01, np.array([0.0, 0.0, 0.5])), Bubble(1, 0.01, np.array([0.0, 0.0, -0.5])), CFG)
    assert got.value > 0.0
    assert got.std_error == 0.0 and got.n_evals == 0
    assert got.converged and got.decay_ok


# ---------------------------------------------------------------------------
# wall masses: half-space scaling laws
# ---------------------------------------------------------------------------


def test_wall_mass_scaling_laws():
    """Mass of U^(p+1) beyond a wall at distance tau: ~ alpha^(p+1) H delta^n / tau^n.

    The wall is realized as a giant sphere (radius 2000) so curvature
    corrections are O(tau/2000); H is the half-space kernel in Beta form.
    """
    n = 3
    from bubblescape.quadrature import exterior_lp_mass

    R_wall = 2000.0
    giant = Domain(3, Ball(np.array([0.0, 0.0, R_wall]), R_wall))
    alpha = bubble_alpha(3)
    H = sphere_area(2) * 0.5 * special.beta(1.0, 2.0) / 3.0
    p_plus_1 = 6.0

    def mass(delta, tau):
        xi = np.array([0.0, 0.0, tau])
        f = lambda X: bubble_value(3, delta, xi, X)
        res = exterior_lp_mass(giant, f, p_plus_1, CFG, center=xi)
        assert res.decay_ok
        return res.value, res.std_error

    m_a, s_a = mass(0.004, 0.2)
    m_b, s_b = mass(0.004, 0.1)
    m_c, s_c = mass(0.002, 0.2)
    # tau-slope: -n
    slope_tau = (math.log(m_b) - math.log(m_a)) / (math.log(0.1) - math.log(0.2))
    assert abs(slope_tau + 3.0) < 0.1
    # delta-slope: (n-2)/2 * (p+1) = n
    slope_delta = (math.log(m_c) - math.log(m_a)) / (math.log(0.002) - math.log(0.004))
    assert abs(slope_delta - 3.0) < 0.1
    # absolute value against the half-space model
    model = alpha**6 * H * 0.004**3 / 0.2**3
    assert m_a == pytest.approx(model, rel=0.03)


# ---------------------------------------------------------------------------
# expansion residual tables
# ---------------------------------------------------------------------------


def test_expansion_residual_sub_frozen_ball():
    """Unit ball in R^4, centered bubble at the optimal scale.

    Frozen residuals from 40-digit arithmetic on the exact radial closed
    forms: R(0.1) = -3.03870, R(0.05) = -2.04721, R(0.025) = -1.35081.
    """
    cn = constants(4)
    table = expansion_residual_sub(ball(4), np.zeros(4), [0.1, 0.05, 0.025], cn, CFG)
    assert table.regime == "subcritical"
    assert table.parameters["d"] == pytest.approx((1.0 / 24.0) ** 0.25, rel=1e-10)
    got = [row.residual for row in table.rows]
    for g, want in zip(got, (-3.03870, -2.04721, -1.35081)):
        assert g == pytest.approx(want, abs=1e-4)
    mags = [abs(g) for g in got]
    assert mags[0] > mags[1] > mags[2]
    assert mags[2] / mags[1] < 0.75  # shrink rate consistent with a sqrt(eps) tail
    js = [row.j_value for row in table.rows]
    for j, want in zip(js, (30.1643809563, 28.5192738939, 27.550537512)):
        assert j == pytest.approx(want, rel=1e-8)


def test_expansion_residual_hole_frozen_ball():
    """Unit ball in R^3 with a shrinking hole: frozen residuals.

    R(1e-2) = -0.257504, R(5e-3) = -0.129667, R(2.5e-3) = -0.0650643.
    """
    cn = constants(3)
    table = expansion_residual_hole(ball(3), [1e-2, 5e-3, 2.5e-3], cn, CFG)
    assert table.regime == "hole"
    assert table.parameters["d"] == pytest.approx(1.0, rel=1e-10)
    assert table.parameters["phi"] == pytest.approx(14.510394913873741, rel=1e-10)
    got = [row.residual for row in table.rows]
    for g, want in zip(got, (-0.257504, -0.129667, -0.0650643)):
        assert g == pytest.approx(want, abs=5e-4)
    mags = [abs(g) for g in got]
    assert mags[0] > mags[1] > mags[2]
    js = [row.j_value for row in table.rows]
    for j, want in zip(js, (4.28791695959, 4.27874842352, 4.27546973465)):
        assert j == pytest.approx(want, rel=1e-8)


def test_hole_core_mass_coefficient():
    """The mass inside the hole approaches |B_1| U(0)^(p+1) rho^n scaling.

    Frozen ratios measured/model: 0.982254, 0.991064, 0.995516 — the model
    coefficient is approached at first order in rho.
    """
    from bubblescape.quadrature import ball_lp_mass

    alpha = bubble_alpha(3)
    frozen = {1e-2: 0.982254, 5e-3: 0.991064, 2.5e-3: 0.995516}
    for rho, want in frozen.items():
        delta = math.sqrt(rho)
        f = lambda X: bubble_value(3, delta, np.zeros(3), X)
        got = ball_lp_mass(f, 6.0, np.zeros(3), rho, 3, CFG)
        model = (4.0 * math.pi / 3.0) * rho**3 * alpha**6 / delta**3
        assert got.value / model == pytest.approx(want, abs=5 * got.std_error / model + 1e-4)


def test_residual_table_preconditions():
    cn = constants(4)
    with pytest.raises(PreconditionError):
        expansion_residual_sub(ball(4), np.zeros(4), [0.025, 0.05], cn, CFG)  # increasing
    with pytest.raises(PreconditionError):
        expansion_residual_sub(ball(4), np.zeros(4), [0.1], cn, CFG)  # single value
    with pytest.raises(PreconditionError):
        expansion_residual_sub(ball(4), np.zeros(4), [0.3, 0.2], cn, CFG)  # too large
    cn3 = constants(3)
    with pytest.raises(PreconditionError):
        expansion_residual_hole(ball(3), [1e-2, 5e-3], cn3, CFG, hole_center=np.array([0.999, 0.0, 0.0]))
