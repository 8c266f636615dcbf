"""End-to-end acceptance gate: thirteen numbered capability checks.

Each test pins one externally meaningful behavior of the toolkit at a fixed
tolerance (and, where stated, a wall-clock budget).  Criteria that compare
stochastic quadrature output use the measured standard errors; closed-form
comparisons use hard relative bounds.

Criterion 7 checks the far-field model as what it is, the leading term of the
exterior bubble mass: at eps = 0.025 the measured mass must match the model
times its closed-form first-order factor within 5%, the gap to the bare model
must shrink along the eps sweep, and the first-order remainder must be
O(eps).  At that eps the bare model is 6.9% off: the ratio is 0.9189 from the
finite-scale profile term alone and 0.9313 with the weight-exponent offset.
The 5% bound and eps = 0.025 are unchanged.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from bubblescape.bubbles import (
    Bubble,
    bubble_value,
    expansion_residual_hole,
    expansion_residual_sub,
    interaction,
    linearization_residual,
    rescaling_isometry_check,
)
from bubblescape.cli import main
from bubblescape.critpoints import _MORSE_TOL, CritConfig, census, morse_audit
from bubblescape.geometry import Ball, Capsule, Difference, Domain, Scale, Translate, Union
from bubblescape.landscape import constants, hole_critical_point, optimal_d, reduced_energy_sub
from bubblescape.quadrature import (
    QuadratureConfig,
    bubble_alpha,
    bubble_moment,
    exterior_bubble_mass,
    psi_integrals,
    sphere_area,
)

CFG_FULL = QuadratureConfig(seed=0, near_budget=2**17, far_shells=32, replicates=8)
CFG_MED = QuadratureConfig(seed=0, near_budget=2**16, far_shells=24, replicates=4)
CFG_CENSUS = QuadratureConfig(seed=0, near_budget=2**15, far_shells=24, replicates=4)
CRIT = CritConfig(multistart=8)


def ball(n: int, radius: float = 1.0) -> Domain:
    return Domain(n, Ball(np.zeros(n), radius))


def dumbbell() -> Domain:
    c = 1.75
    return Domain(
        3,
        Union(
            Ball(np.array([-c, 0.0, 0.0]), 1.0),
            Union(
                Ball(np.array([c, 0.0, 0.0]), 1.0),
                Capsule(np.array([-c, 0.0, 0.0]), np.array([c, 0.0, 0.0]), 0.35),
            ),
        ),
    )


def interior_points(domain: Domain, count: int, rng, min_depth: float) -> np.ndarray:
    """Rejection-sample interior points with a certified depth."""
    anchor_leafs = [leaf for leaf, sign in domain.leaves() if sign > 0]
    centers = [0.5 * (l.a + l.b) for l in anchor_leafs]
    out = []
    while len(out) < count:
        c = centers[rng.integers(len(centers))]
        x = c + rng.normal(size=domain.dimension) * 0.6
        if bool(domain.contains_many(x[None, :])[0]) and float(
            domain.depth_bound_many(x[None, :])[0]
        ) >= min_depth:
            out.append(x)
    return np.asarray(out)


# ---------------------------------------------------------------------------
# 1. landscape closed form at the ball center, default configuration
# ---------------------------------------------------------------------------


def test_criterion_01_ball_center_closed_form_default_config():
    t0 = time.perf_counter()
    ev = psi_integrals(ball(3), np.zeros(3), QuadratureConfig())
    elapsed = time.perf_counter() - t0
    exact = 4.0 * math.pi / 3.0
    assert abs(ev.value - exact) <= 0.005 * exact
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. similarity laws on randomized domains
# ---------------------------------------------------------------------------


def test_criterion_02_scaling_translation_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    cfg = QuadratureConfig(seed=0, near_budget=2**18, far_shells=32, replicates=8)
    n = 3
    for case in range(20):
        kind = case % 4
        if kind == 0:
            root = Ball(rng.normal(size=n) * 0.5, float(rng.uniform(0.7, 1.4)))
        elif kind == 1:
            c = rng.normal(size=n)
            root = Union(Ball(c, 1.0), Ball(c + rng.normal(size=n) * 1.2, float(rng.uniform(0.5, 1.0))))
        elif kind == 2:
            c = rng.normal(size=n) * 0.3
            root = Difference(Ball(c, 1.2), Ball(c + np.array([0.5, 0.0, 0.0]), 0.3))
        else:
            a = rng.normal(size=n)
            root = Union(Capsule(a, a + rng.normal(size=n) * 1.5, 0.5), Ball(a, 0.8))
        dom = Domain(n, root)
        xi = interior_points(dom, 1, rng, min_depth=0.15)[0]
        lam = float(rng.uniform(0.6, 1.8))
        v = rng.uniform(-1.0, 1.0, size=n)
        mapped = Domain(n, Translate(v, Scale(lam, root)))

        base = psi_integrals(dom, xi, cfg)
        moved = psi_integrals(mapped, lam * xi + v, cfg)
        want = base.value / lam**n
        tol = 3.0 * (moved.value_std + base.value_std / lam**n) + 1e-12
        assert abs(moved.value - want) <= tol, f"case {case}: |{moved.value} - {want}| > {tol}"
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 3. derivative consistency against finite differences
# ---------------------------------------------------------------------------


def test_criterion_03_gradient_hessian_finite_difference():
    rng = np.random.default_rng(7)
    domains = [
        ball(3),
        Domain(3, Union(Ball(np.zeros(3), 1.0), Ball(np.array([2.6, 0.0, 0.0]), 0.8))),
        Domain(3, Difference(Ball(np.zeros(3), 1.2), Ball(np.array([0.45, 0.0, 0.0]), 0.3))),
    ]
    h = 1e-3
    for dom in domains:
        pts = interior_points(dom, 10, rng, min_depth=0.2)
        for x in pts:
            ev = psi_integrals(dom, x, CFG_MED)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                plus = psi_integrals(dom, x + e, CFG_MED)
                minus = psi_integrals(dom, x - e, CFG_MED)
                fd_g = (plus.value - minus.value) / (2.0 * h)
                sig = math.hypot(plus.value_std, minus.value_std) / (2.0 * h)
                tol = max(1e-4, 5.0 * math.hypot(sig, float(ev.gradient_std[i])))
                assert abs(fd_g - ev.gradient[i]) <= tol
                fd_h = (plus.gradient - minus.gradient) / (2.0 * h)
                sig_h = np.hypot(plus.gradient_std, minus.gradient_std) / (2.0 * h)
                for j in range(3):
                    tol = max(1e-4, 5.0 * math.hypot(float(sig_h[j]), float(ev.hessian_std[i, j])))
                    assert abs(fd_h[j] - ev.hessian[i, j]) <= tol


# ---------------------------------------------------------------------------
# 4. census facts on the canonical domains
# ---------------------------------------------------------------------------


def test_criterion_04_census_facts():
    t0 = time.perf_counter()

    rep = census(ball(3), CFG_CENSUS, CRIT)
    assert len(rep.points) == 1 and rep.points[0].morse_index == 0
    assert float(np.linalg.norm(rep.points[0].location)) <= 1e-6

    two = Domain(3, Union(Ball(np.array([-2.5, 0.0, 0.0]), 1.0), Ball(np.array([2.5, 0.0, 0.0]), 1.0)))
    rep2 = census(two, CFG_CENSUS, CRIT)
    assert len(rep2.minima) == 2 and len(rep2.saddles) == 0

    asym = Domain(3, Union(Ball(np.zeros(3), 1.0), Ball(np.array([4.0, 0.0, 0.0]), 0.6)))
    rep3 = census(asym, CFG_CENSUS, CRIT)
    assert len(rep3.minima) == 2
    low = rep3.points[0]
    assert low.psi_value < rep3.points[1].psi_value  # strictly smaller landscape value
    assert float(np.linalg.norm(low.location)) < 0.2  # inside the larger lobe

    rep4 = census(dumbbell(), CFG_CENSUS, CRIT)
    assert len(rep4.points) == 3
    assert sorted(p.morse_index for p in rep4.points) == [0, 0, 1]
    saddle = rep4.saddles[0]
    assert abs(saddle.location[0]) < 0.75 and float(np.linalg.norm(saddle.location[1:])) < 0.35
    assert abs(saddle.location[0]) <= 1e-3  # the mirror plane of the bridge

    assert time.perf_counter() - t0 < 900.0


# ---------------------------------------------------------------------------
# 5. closed-form optimizers against independent searches
# ---------------------------------------------------------------------------


def _golden_section_min(f, a, b, iters: int = 200):
    """Plain golden-section search on [a, b] in mpmath arithmetic.

    In float64 any value-comparison search plateaus near sqrt(eps)*scale,
    which sits exactly at the 1e-8 comparison bound; running the identical
    algorithm in high precision keeps the independent search sharper than
    the tolerance instead of loosening the tolerance.
    """
    invphi = (mp.sqrt(5) - 1) / 2
    a, b = mp.mpf(a), mp.mpf(b)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2


def test_criterion_05_closed_form_optimizers():
    mp.mp.dps = 40
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        consts = constants(n)
        psi_val = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        d_closed = optimal_d(consts, psi_val)
        # independent bracket from a coarse scan, then golden-section search
        grid = np.geomspace(1e-3, 1e3, 121)
        vals = [reduced_energy_sub(consts, psi_val, d) for d in grid]
        k = int(np.argmin(vals))
        c1psi, c2 = mp.mpf(consts.c1) * mp.mpf(psi_val), mp.mpf(consts.c2)
        found = _golden_section_min(
            lambda d: c1psi * d**n - c2 * mp.log(d), grid[k - 1], grid[k + 1]
        )
        assert abs(float(found) - d_closed) <= 1e-8 * d_closed

    for n, b1 in ((3, 4.0 * math.pi / math.sqrt(3.0)), (4, 0.7), (5, 2.3)):
        consts = constants(n)
        b2 = consts.b2_hole
        d0, zeta0 = hole_critical_point(consts, b1)
        y = np.concatenate([[1.3], np.full(n, 0.05)])  # (d, zeta) start
        for _ in range(60):
            d, zeta = float(y[0]), y[1:]
            s = 1.0 + float(zeta @ zeta)
            g = np.empty(n + 1)
            g[0] = n * b1 * d ** (n - 1) - n * b2 * d ** (-n - 1) * s**-n
            g[1:] = -2.0 * n * b2 * d**-n * s ** (-n - 1) * zeta
            H = np.zeros((n + 1, n + 1))
            H[0, 0] = n * (n - 1) * b1 * d ** (n - 2) + n * (n + 1) * b2 * d ** (-n - 2) * s**-n
            H[0, 1:] = H[1:, 0] = 2.0 * n**2 * b2 * d ** (-n - 1) * s ** (-n - 1) * zeta
            H[1:, 1:] = -2.0 * n * b2 * d**-n * (
                s ** (-n - 1) * np.eye(n) - 2.0 * (n + 1) * s ** (-n - 2) * np.outer(zeta, zeta)
            )
            if float(np.linalg.norm(g)) <= 1e-13:
                break
            y = y - np.linalg.solve(H, g)
        assert float(np.linalg.norm(g)) <= 1e-13
        assert abs(y[0] - d0) <= 1e-8 * d0
        assert float(np.linalg.norm(y[1:] - zeta0)) <= 1e-8
        eigs = np.linalg.eigvalsh(H)
        assert int((eigs > 0).sum()) == 1 and int((eigs < 0).sum()) == n


# ---------------------------------------------------------------------------
# 6 + 7. subcritical expansion and its exterior-mass term
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sub_expansion():
    t0 = time.perf_counter()
    consts = constants(4)
    table = expansion_residual_sub(ball(4), np.zeros(4), [0.1, 0.05, 0.025], consts, CFG_FULL)
    return table, consts, time.perf_counter() - t0


def test_criterion_06_subcritical_expansion_residuals(sub_expansion):
    table, _, elapsed = sub_expansion
    mags = [abs(r.residual) for r in table.rows]
    assert all(b < a for a, b in zip(mags, mags[1:]))
    assert mags[-1] < 0.5 * mags[0]
    assert elapsed < 1200.0


def test_criterion_07_exterior_mass_ratio(sub_expansion):
    """Measured exterior bubble mass versus the far-field model at eps=0.025.

    The far-field model alpha^m delta^m psi(xi) is the leading term of the
    exterior mass as eps -> 0.  For the centred unit 4-ball the exact ratio of
    mass to model is 4 int_1^inf r^3 (delta^2 + r^2)^(-m) dr; expanding the
    profile in delta^2/r^2 gives its first-order form

        4/(2m-4) - 4 m delta^2/(2m-2) + O(delta^4),

    where 4/(2m-4) = 1 + O(eps) is the weight-exponent offset and the delta^2
    term, of order sqrt(eps), is the finite-scale profile correction.  At
    eps = 0.025 the bare model is 6.9% off: the ratio is 0.9189 from the
    profile term alone and 0.9313 with the exponent offset.  So the measured
    mass is compared with the model times the first-order factor (ratio
    1.0053), at the criterion's 5% bound and at eps = 0.025 as before.

    Over the fixture's eps list the gap to the bare model must shrink
    (0.102, 0.087, 0.069), and the first-order remainder must be O(delta^4)
    = O(eps): it must fall at order at least 0.9 in eps (0.0211, 0.0106,
    0.0053).  An uncancelled O(sqrt(eps)) term would fall at order 0.5, and a
    constant misscaling of the mass or of psi would not fall at all.  The
    order bound is 0.9, not 1, because the leading remainder is
    (m + 1) delta^4 with m = 4 - eps, whose prefactor grows as eps shrinks.
    """
    table, consts, _ = sub_expansion
    d = float(table.parameters["d"])
    dom = ball(4)
    psi0 = psi_integrals(dom, np.zeros(4), CFG_FULL).value

    def mass_ratios(eps):
        """Measured exterior mass over the leading and the first-order model."""
        delta = d * eps ** (1.0 / 4.0)
        m = consts.p + 1.0 - eps
        measured = exterior_bubble_mass(dom, delta, np.zeros(4), m, CFG_FULL)
        assert measured.converged and measured.decay_ok, f"quadrature flagged at eps={eps}"
        model = bubble_alpha(4) ** m * delta**m * psi0
        first_order = 4.0 / (2.0 * m - 4.0) - 4.0 * m * delta**2 / (2.0 * m - 2.0)
        return measured.value / model, measured.value / (model * first_order)

    eps = 0.025
    _, ratio = mass_ratios(eps)
    assert abs(ratio - 1.0) <= 0.05, f"measured/first-order model = {ratio:.6f}"

    eps_list = [row.small_parameter for row in table.rows]
    ratios = [mass_ratios(e) for e in eps_list]
    lead_gaps = [abs(lead - 1.0) for lead, _ in ratios]
    assert all(b < a for a, b in zip(lead_gaps, lead_gaps[1:])), f"leading-order gaps {lead_gaps}"
    remainders = [abs(first - 1.0) for _, first in ratios]
    for k in range(len(eps_list) - 1):
        order = math.log(remainders[k] / remainders[k + 1]) / math.log(eps_list[k] / eps_list[k + 1])
        assert order >= 0.9, f"first-order remainders {remainders} fall at order {order:.3f} in eps"


# ---------------------------------------------------------------------------
# 8. shrinking-hole expansion
# ---------------------------------------------------------------------------


def test_criterion_08_hole_expansion_residuals():
    consts = constants(3)
    rho_list = [1e-2, 5e-3, 2.5e-3]
    table = expansion_residual_hole(ball(3), rho_list, consts, CFG_FULL)
    mags = [abs(r.residual) for r in table.rows]
    assert all(b < a for a, b in zip(mags, mags[1:]))

    # mass captured by the hole versus its model coefficient, at the smallest rho: the
    # whole-space mass less the mass outside the hole, exact along every ray
    rho = rho_list[-1]
    d0 = float(table.parameters["d"])
    delta = d0 * math.sqrt(rho)
    whole = bubble_moment(3, 6.0) * delta ** (3 - 6.0 * (3 - 2) / 2)
    outside = exterior_bubble_mass(ball(3, rho), delta, np.zeros(3), 6.0, CFG_FULL)
    model = (4.0 * math.pi / 3.0) * rho**3 * bubble_alpha(3) ** 6 / delta**3
    assert abs((whole - outside.value) / model - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# 9. pair interaction law
# ---------------------------------------------------------------------------


def test_criterion_09_interaction_law():
    consts = constants(3)
    delta = 1e-2
    seps = [1.0, 1.4, 2.0, 2.8, 4.0]
    vals = []
    for sep in seps:
        b1 = Bubble(sign=1, delta=delta, center=np.array([0.0, 0.0, sep / 2.0]))
        b2 = Bubble(sign=1, delta=delta, center=np.array([0.0, 0.0, -sep / 2.0]))
        got = interaction(3, b1, b2, CFG_FULL)
        vals.append(got.value)
        model = consts.c1_nodal * delta / sep
        assert abs(got.value / model - 1.0) <= 0.05
    slope = np.polyfit(np.log(seps), np.log(vals), 1)[0]
    assert abs(slope - (-1.0)) <= 0.05


# ---------------------------------------------------------------------------
# 10. profile and kernel equation residuals
# ---------------------------------------------------------------------------


def _fd_laplacian(f, X: np.ndarray, h: np.ndarray) -> np.ndarray:
    n = X.shape[1]
    out = -2.0 * n * f(X)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        out += f(X + h[:, None] * e) + f(X - h[:, None] * e)
    return out / h**2


def test_criterion_10_profile_and_kernel_residuals():
    rng = np.random.default_rng(10)
    for n in (3, 4):
        p = (n + 2.0) / (n - 2.0)
        delta = float(rng.uniform(0.3, 2.0))
        center = rng.normal(size=n) * 0.5
        radii = np.exp(rng.uniform(np.log(0.2 * delta), np.log(3.0 * delta), size=100))
        dirs = rng.normal(size=(100, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        X = center + radii[:, None] * dirs

        u = lambda Y: bubble_value(n, delta, center, Y)
        h = 1e-4 * np.sqrt(delta**2 + radii**2)
        lap = _fd_laplacian(u, X, h)
        rel = np.abs(lap + u(X) ** p) / u(X) ** p
        assert float(rel.max()) <= 1e-4

        for mode in range(n + 1):
            res = linearization_residual(n, mode, delta, center, X)
            assert float(np.max(res)) <= 1e-4


# ---------------------------------------------------------------------------
# 11. rescaling isometry and norm power laws
# ---------------------------------------------------------------------------


def test_criterion_11_rescaling_isometry():
    for n, s in ((3, 4), (3, 6), (4, 3), (4, 4)):
        chk = rescaling_isometry_check(n, s)
        assert chk["dirichlet_max_deviation"] <= 1e-6
        assert abs(chk["ls_slope"] - chk["ls_slope_expected"]) <= 1e-3


# ---------------------------------------------------------------------------
# 12. deterministic stability audit
# ---------------------------------------------------------------------------


def test_criterion_12_morse_audit_dumbbell():
    audit = morse_audit(dumbbell(), rho=0.05, trials=5, quad_cfg=CFG_CENSUS, crit_cfg=CRIT)
    assert audit.stable
    assert audit.failures == []
    assert audit.min_margin > _MORSE_TOL
    again = morse_audit(dumbbell(), rho=0.05, trials=5, quad_cfg=CFG_CENSUS, crit_cfg=CRIT)
    assert json.dumps(audit.to_dict(), sort_keys=True) == json.dumps(again.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# 13. byte-identical reruns of every command
# ---------------------------------------------------------------------------


def test_criterion_13_cli_reproducibility(tmp_path):
    ball3 = tmp_path / "ball3.json"
    ball3.write_text(
        json.dumps({"dimension": 3, "root": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}})
    )
    fast = ["--near-budget", "8192", "--far-shells", "16", "--replicates", "2", "--multistart", "4"]
    invocations = {
        "constants": ["constants", "--dim", "4"],
        "psi-grid": [
            "psi-grid", "--domain", str(ball3), *fast,
            "--steps", "5", "5", "--lo", "-0.8", "-0.8", "--hi", "0.8", "0.8",
        ],
        "crit": ["crit", "--domain", str(ball3), *fast],
        "predict": [
            "predict", "--regime", "nodal", "--domain", str(ball3), *fast,
            "--sweep-min", "1e-3", "--sweep-max", "1e-2", "--sweep-count", "3",
        ],
        "energy-check": [
            "energy-check", "--regime", "hole", "--domain", str(ball3), *fast,
            "--values", "1e-2", "5e-3",
        ],
        "morse-audit": ["morse-audit", "--domain", str(ball3), *fast, "--rho", "0.05", "--trials", "1"],
    }
    for name, argv in invocations.items():
        out = tmp_path / name.replace("-", "_")
        rc1 = main(argv + ["--out", str(out)])
        first = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        rc2 = main(argv + ["--out", str(out)])
        second = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert rc1 == rc2
        assert first == second, f"{name}: rerun changed output bytes"
        assert len(first) >= 2  # the result file plus the resolved manifest
