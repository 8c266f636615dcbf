"""Exterior quadrature: frozen oracles and statistical contracts.

Oracle routes are deliberately independent of the ray engine: closed forms
for the centered ball, 1D radial reductions with exact angular integrals for
off-center and hole configurations, and Beta/digamma closed forms for the
standard-bubble moments.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.special import beta as beta_fn
from scipy.special import digamma

import bubblescape
from bubblescape.errors import PreconditionError
from bubblescape.geometry import Ball, Capsule, Difference, Domain, Scale, Translate, Union
from bubblescape.quadrature import (
    _BLOCK_LINES,
    _TAG_LP,
    _TAG_PSI,
    QuadratureConfig,
    _base_direction_count,
    _fans,
    _folded_fan,
    _half_lines,
    _outside_segments,
    _sign_orbit,
    _stacked_half_fans,
    ball_lp_mass,
    bubble_alpha,
    bubble_moment,
    exterior_bubble_mass,
    exterior_lp_mass,
    psi_integrals,
    sphere_area,
)

CFG = QuadratureConfig(seed=0, near_budget=2**17, far_shells=32, replicates=8)


def unit_ball(n=3, radius=1.0, center=None):
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    return Domain(n, Ball(c, radius))


def dumbbell(n=3):
    return Domain(
        n,
        Union(
            Union(Ball(np.r_[-1.5, np.zeros(n - 1)], 1.0), Ball(np.r_[1.5, np.zeros(n - 1)], 1.0)),
            Capsule(np.r_[-1.5, np.zeros(n - 1)], np.r_[1.5, np.zeros(n - 1)], 0.35),
        ),
    )


def psi_ball_offcenter_oracle(n: int, t: float, radius: float = 1.0) -> float:
    """1D reduction of the exterior inverse-power integral for a ball.

    Uses the exact angular integral of |r theta - xi|^(-2n) over the sphere,
    which for n = 3 collapses to elementary antiderivatives.
    """
    assert n == 3
    if t == 0.0:
        return sphere_area(n) * radius**-n / n

    def integrand(r):
        return math.pi / (2.0 * t) * r * ((r - t) ** -4 - (r + t) ** -4)

    val, _ = integrate.quad(integrand, radius, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)
    return val


def hole_kernel_oracle(n: int, t: float, rho: float) -> float:
    """Exact integral of |x - xi|^(-2n) over a ball of radius rho at the
    origin, with |xi| = t > rho (n = 3 only)."""
    assert n == 3 and t > rho

    def integrand(r):
        return math.pi / (2.0 * t) * r * ((t - r) ** -4 - (r + t) ** -4)

    val, _ = integrate.quad(integrand, 0.0, rho, epsabs=0.0, epsrel=1e-12, limit=400)
    return val


# ---------------------------------------------------------------------------
# landscape kernels
# ---------------------------------------------------------------------------


def test_centered_ball_is_exact():
    for n in (3, 4, 5):
        dom = unit_ball(n)
        ev = psi_integrals(dom, np.zeros(n), CFG)
        omega = sphere_area(n)
        assert ev.value == pytest.approx(omega / n, rel=1e-14)
        assert np.all(ev.gradient == 0.0)
        assert np.allclose(ev.hessian, 2.0 * omega * np.eye(n), rtol=1e-14)
        assert ev.value_std == 0.0
        assert ev.converged


def test_centered_ball_scaling_law():
    n = 3
    lam = 1.7
    ev1 = psi_integrals(unit_ball(n), np.zeros(n), CFG)
    ev2 = psi_integrals(unit_ball(n, radius=lam), np.zeros(n), CFG)
    assert ev2.value == pytest.approx(lam**-n * ev1.value, rel=1e-14)
    assert np.allclose(ev2.hessian, lam ** -(n + 2) * ev1.hessian, rtol=1e-13)


def test_offcenter_ball_against_radial_oracle():
    dom = unit_ball(3)
    for t in (0.25, 0.5, 0.75):
        xi = np.array([t, 0.0, 0.0])
        ev = psi_integrals(dom, xi, CFG)
        oracle = psi_ball_offcenter_oracle(3, t)
        assert abs(ev.value - oracle) <= 5.0 * ev.value_std + 1e-7 * oracle
        # radial symmetry: gradient along the axis only
        assert abs(ev.gradient[1]) < 1e-10
        assert abs(ev.gradient[2]) < 1e-10
        assert ev.gradient[0] > 0.0  # landscape grows toward the boundary


def test_gradient_matches_value_differences():
    dom = unit_ball(3)
    xi = np.array([0.3, -0.1, 0.2])
    ev = psi_integrals(dom, xi, CFG)
    h = 2e-4
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        plus = psi_integrals(dom, xi + e, CFG)
        minus = psi_integrals(dom, xi - e, CFG)
        fd = (plus.value - minus.value) / (2.0 * h)
        sigma = math.sqrt(plus.value_std**2 + minus.value_std**2) / (2.0 * h)
        tol = max(1e-4, 5.0 * math.sqrt(sigma**2 + ev.gradient_std[j] ** 2))
        assert abs(fd - ev.gradient[j]) <= tol + 1e-4 * abs(ev.gradient[j])


def test_hessian_matches_gradient_differences():
    dom = unit_ball(3)
    xi = np.array([0.2, 0.1, -0.25])
    ev = psi_integrals(dom, xi, CFG)
    h = 2e-4
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        plus = psi_integrals(dom, xi + e, CFG)
        minus = psi_integrals(dom, xi - e, CFG)
        fd = (plus.gradient - minus.gradient) / (2.0 * h)
        sg = np.sqrt(plus.gradient_std**2 + minus.gradient_std**2) / (2.0 * h)
        tol = np.maximum(1e-4, 5.0 * np.sqrt(sg**2 + ev.hessian_std[:, j] ** 2))
        assert np.all(np.abs(fd - ev.hessian[:, j]) <= tol + 1e-4 * np.abs(ev.hessian[:, j]))


def test_translation_equivariance_within_noise():
    dom = dumbbell()
    xi = np.array([0.9, 0.05, -0.1])
    v = np.array([0.4, -1.3, 2.2])
    moved = Domain(3, Translate(v, dom.root))
    a = psi_integrals(dom, xi, CFG)
    b = psi_integrals(moved, xi + v, CFG)
    tol = 3.0 * math.sqrt(a.value_std**2 + b.value_std**2) + 5e-13 * abs(a.value)
    assert abs(a.value - b.value) <= tol
    gtol = 3.0 * np.sqrt(a.gradient_std**2 + b.gradient_std**2) + 5e-13 * np.abs(a.gradient).max()
    assert np.all(np.abs(a.gradient - b.gradient) <= gtol)


def test_scaling_equivariance_within_noise():
    dom = dumbbell()
    xi = np.array([0.9, 0.05, -0.1])
    lam = 1.6
    scaled = Domain(3, Scale(lam, dom.root))
    a = psi_integrals(dom, xi, CFG)
    b = psi_integrals(scaled, lam * xi, CFG)
    n = 3
    tol = 3.0 * math.sqrt((lam**-n * a.value_std) ** 2 + b.value_std**2) + 5e-13 * abs(b.value)
    assert abs(lam**-n * a.value - b.value) <= tol
    htol = 3.0 * np.sqrt((lam ** -(n + 2) * a.hessian_std) ** 2 + b.hessian_std**2) + 5e-13 * np.abs(
        b.hessian
    ).max().item()
    assert np.all(np.abs(lam ** -(n + 2) * a.hessian - b.hessian) <= htol)


@pytest.mark.parametrize("n", [3, 4])
def test_offcenter_ball_against_closed_forms(n):
    # For the ball B(0, r) and s = r^2 - |xi|^2: psi = |B^n| r^n s^(-n), and its
    # gradient and Hessian follow by differentiating s^(-n) in xi.
    r = 1.3
    xi = np.array([0.3, -0.2, 0.25, 0.1])[:n]
    ev = psi_integrals(unit_ball(n, radius=r), xi, CFG)
    vol = sphere_area(n) / n
    s = r * r - xi @ xi
    value = vol * r**n * s**-n
    grad = 2.0 * n * vol * r**n * s ** -(n + 1) * xi
    hess = vol * r**n * (2.0 * n * s ** -(n + 1) * np.eye(n) + 4.0 * n * (n + 1) * s ** -(n + 2) * np.outer(xi, xi))
    assert abs(ev.value - value) <= 6.0 * ev.value_std + 1e-9 * value
    assert np.all(np.abs(ev.gradient - grad) <= 6.0 * ev.gradient_std + 1e-9 * np.max(np.abs(grad)))
    assert np.all(np.abs(ev.hessian - hess) <= 6.0 * ev.hessian_std + 1e-9 * np.max(np.abs(hess)))


def _ray_segments(domain, origin, D, t_hi):
    """``_outside_segments`` of the rays ``D`` alone: it traces each row both ways, so keep the + side, cut to its most flips K."""
    a, b, mask, _ = _outside_segments(domain, origin, D, t_hi)
    m = D.shape[0]
    K = max(int(np.count_nonzero(a[:m, 1:] < t_hi, axis=1).max(initial=0)), 1)
    return a[:m, : K + 1], b[:m, : K + 1], mask[:m, : K + 1], m * (K + 1)


def _psi_replicate_per_cell(domain, xi, D, R, n, segments=_ray_segments):
    """Reference kernel: the three negative powers on every (ray, segment) cell of ``segments``, masked by np.where."""
    a, b, mask, n_seg = segments(domain, xi, D, R)
    a_safe = np.where(mask, a, 1.0)
    b_safe = np.where(mask, b, 1.0)
    iv = np.where(mask, (a_safe**-n - b_safe**-n) / n, 0.0)
    ig = np.where(mask, (a_safe ** -(n + 1) - b_safe ** -(n + 1)) / (n + 1), 0.0)
    ih = np.where(mask, (a_safe ** -(n + 2) - b_safe ** -(n + 2)) / (n + 2), 0.0)
    sv, sg, sh = iv.sum(axis=1), ig.sum(axis=1), ih.sum(axis=1)
    omega = sphere_area(n)
    value = omega * float(sv.mean())
    grad = omega * 2.0 * n * (D * sg[:, None]).mean(axis=0)
    dd = np.einsum("mi,mj,m->ij", D, D, sh) / D.shape[0]
    hess = omega * 2.0 * n * ((2.0 * n + 2.0) * dd - np.eye(n) * float(sh.mean()))
    return value, grad, hess, n_seg


def _psi_per_cell(domain, xi, fans, segments=_ray_segments):
    """``(value, gradient, hessian, n_evals)`` of psi from the per-cell kernel on each replicate's rays in ``fans``."""
    n = domain.dimension
    xi = np.asarray(xi, dtype=float)
    R = float(domain.bounding_radius(xi))
    vals, grads, hesss, n_seg = zip(*(_psi_replicate_per_cell(domain, xi, D, R, n, segments) for D in fans))
    omega = sphere_area(n)
    value = float(np.mean(vals)) + omega * R**-n / n
    hess = np.mean(hesss, axis=0) + 2.0 * omega * R ** -(n + 2) * np.eye(n)
    return value, np.mean(grads, axis=0), hess, sum(n_seg)


def _signed_fans(n, config):
    """Each replicate's folded fan expanded over the full sign-flip orbit, sign row by sign row."""
    m_base = _base_direction_count(n, config)
    for rep in range(config.replicates):
        G = _folded_fan(config.seed, _TAG_PSI, rep, n, m_base)
        yield (_sign_orbit(n)[:, None, :] * G[None, :, :]).reshape(-1, n)


def _assert_psi_matches(ev, want, rel):
    for g, w in zip((ev.value, ev.gradient, ev.hessian), want[:3]):
        assert np.max(np.abs(np.subtract(g, w))) <= rel * np.max(np.abs(w))
    assert ev.n_evals == want[3]


@pytest.mark.parametrize(
    "domain, xi",
    [
        (Domain(3, Difference(Ball(np.zeros(3), 1.0), Ball(np.array([0.3, 0.1, 0.0]), 0.2))), (-0.2, 0.1, 0.05)),
        (dumbbell(), (1.2, 0.1, 0.0)),
    ],
)
def test_psi_kernel_matches_per_cell_reference(domain, xi):
    # the engine's own rays: each replicate's half fan H and its opposites -H
    cfg = QuadratureConfig(seed=3, near_budget=2**15, replicates=2)
    fans = [np.concatenate([H, -H]) for _, H in _fans(3, cfg, _TAG_PSI)]
    _assert_psi_matches(psi_integrals(domain, xi, cfg), _psi_per_cell(domain, xi, fans), 1e-13)


@pytest.mark.parametrize(
    "domain, xi, budget",
    [
        (dumbbell(3), (1.2, 0.1, 0.0), 2**13),  # 2,048 lines a replicate: two replicates a block
        (Domain(4, Difference(Ball(np.zeros(4), 1.0), Ball([0.3, 0.1, 0.0, 0.0], 0.2))), (-0.2, 0.1, 0.05, 0.1), 2**17),
        (dumbbell(5), (1.2, 0.1, 0.0, -0.1, 0.05), 2**18),  # 65,536 lines a replicate, not cached: built block by block
    ],
    ids=["n3", "n4", "n5"],
)
def test_psi_matches_per_cell_reference_on_full_signed_fans(domain, xi, budget):
    # every sign row of the orbit, not the half orbit the engine traces
    cfg = QuadratureConfig(seed=4, near_budget=budget, replicates=2)
    n = domain.dimension
    _assert_psi_matches(psi_integrals(domain, xi, cfg), _psi_per_cell(domain, xi, _signed_fans(n, cfg)), 1e-13)


def test_nested_domains_are_monotone():
    # a larger domain has a smaller exterior, hence a smaller landscape
    xi = np.array([0.2, 0.0, 0.0])
    small = psi_integrals(unit_ball(3, radius=1.0), xi, CFG)
    large = psi_integrals(unit_ball(3, radius=1.3), xi, CFG)
    assert large.value < small.value


def test_hole_adds_kernel_mass():
    xi = np.array([0.55, 0.0, 0.0])
    rho = 0.2
    plain = unit_ball(3)
    holed = Domain(3, Difference(Ball(np.zeros(3), 1.0), Ball(np.zeros(3), rho)))
    a = psi_integrals(plain, xi, CFG)
    b = psi_integrals(holed, xi, CFG)
    extra = hole_kernel_oracle(3, 0.55, rho)
    assert b.value > a.value
    tol = 5.0 * math.sqrt(a.value_std**2 + b.value_std**2) + 1e-7 * b.value
    assert abs((b.value - a.value) - extra) <= tol


def test_symmetric_point_gradient_component_vanishes():
    dom = dumbbell()
    ev = psi_integrals(dom, np.zeros(3), CFG)
    # sign-flip orbit symmetrization: odd noise cancels at mirror symmetry
    assert abs(ev.gradient[0]) < 1e-10
    assert abs(ev.gradient[1]) < 1e-10
    assert abs(ev.gradient[2]) < 1e-10


def test_determinism_and_counters():
    dom = dumbbell()
    xi = np.array([1.2, 0.1, 0.0])
    a = psi_integrals(dom, xi, CFG)
    b = psi_integrals(dom, xi, CFG)
    assert a.value == b.value
    assert np.array_equal(a.gradient, b.gradient)
    assert np.array_equal(a.hessian, b.hessian)
    assert a.n_evals == b.n_evals > 0


def test_cached_fans_match_fresh_fans():
    cfg = QuadratureConfig(seed=5, near_budget=2**14, replicates=4)
    m_base = _base_direction_count(3, cfg)
    half = m_base * 4
    stacked = _stacked_half_fans(5, 0x5A1, 3, m_base, 4)
    assert not stacked.flags.writeable  # one cached array is handed to every call
    assert _stacked_half_fans(5, 0x5A1, 3, m_base, 4) is stacked
    for rep, (reps, H) in enumerate(_fans(3, cfg, 0x5A1)):
        assert reps == slice(rep, rep + 1) and not H.flags.writeable
        G = _folded_fan(5, 0x5A1, rep, 3, m_base)
        full = (_sign_orbit(3)[:, None, :] * G[None, :, :]).reshape(-1, 3)
        assert np.array_equal(H, _half_lines(G, 0, half))
        # the half orbit's sign rows, then their negations in reverse order: the full orbit
        assert np.array_equal(H, full[:half])
        assert np.array_equal(-H.reshape(4, m_base, 3)[::-1].reshape(-1, 3), full[half:])


@pytest.mark.parametrize("budget, replicates", [(2**12, 3), (2**14, 4), (2**17, 2), (2**19, 2), (2**18, 256)])
def test_fan_blocks_cover_the_stacked_half_fans(budget, replicates):
    # whole half fans a block, blocks of one half fan, and fans too large to
    # cache: one (2^19 x 2) built block by block, many small ones (2^18 x 256)
    cfg = QuadratureConfig(seed=6, near_budget=budget, replicates=replicates)
    m_base = _base_direction_count(3, cfg)
    half = m_base * 4
    blocks = list(_fans(3, cfg, 0x5A1, block=_BLOCK_LINES))
    assert all(H.shape[0] <= _BLOCK_LINES and H.shape[0] % (reps.stop - reps.start) == 0 for reps, H in blocks)
    covered = [r for reps, H in blocks for r in range(reps.start, reps.stop) for _ in range(H.shape[0] // (reps.stop - reps.start))]
    assert covered == sorted(covered) and len(covered) == replicates * half
    want = np.concatenate([_half_lines(_folded_fan(6, 0x5A1, rep, 3, m_base), 0, half) for rep in range(replicates)])
    assert np.array_equal(np.concatenate([H for _, H in blocks]), want)


@pytest.mark.parametrize(
    "domain, xi",
    [(dumbbell(3), (1.2, 0.1, 0.0)), (unit_ball(4), (0.3, -0.2, 0.25, 0.1))],
    ids=["dumbbell", "ball4"],
)
def test_default_budget_psi_peak_memory(domain, xi):
    # One 2^20-ray x 8 call.  Traced per replicate over whole fans, the peak
    # was 29.4 MiB on this dumbbell and 18.0 MiB on the 4-ball; one stacked
    # half fan of all replicates alone would take 12 MiB (3-D).  Traced in
    # blocks of 2^12 lines, it is 2.6 and 1.9 MiB.
    cfg = QuadratureConfig(seed=0, near_budget=2**20, replicates=8)
    psi_integrals(domain, xi, cfg)
    tracemalloc.start()
    try:
        psi_integrals(domain, xi, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_repeated_psi_calls_do_not_page_fault():
    # A 2^17-ray dumbbell call traces blocks whose arrays reach about 0.2 MB.
    # With both allocator thresholds at 128 KiB instead of those set on
    # import, each is a fresh mmap on every call: about 1,500 minor faults
    # per repeated call, against 0.
    code = (
        "import resource, sys\n"
        "import bubblescape\n"
        "if not hasattr(bubblescape, '_mallopt'): sys.exit(3)\n"
        "from bubblescape.geometry import Ball, Capsule, Domain, Union\n"
        "from bubblescape.quadrature import QuadratureConfig, psi_integrals\n"
        "a, b = [-1.5, 0.0, 0.0], [1.5, 0.0, 0.0]\n"
        "dom = Domain(3, Union(Union(Ball(a, 1.0), Ball(b, 1.0)), Capsule(a, b, 0.35)))\n"
        "cfg = QuadratureConfig(near_budget=2**17, replicates=8)\n"
        "psi_integrals(dom, [0.0, 0.0, 0.0], cfg)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "psi_integrals(dom, [0.0, 0.0, 0.0], cfg)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bubblescape.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode == 3:
        pytest.skip("libc has no mallopt")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


def test_interior_point_required():
    with pytest.raises(PreconditionError):
        psi_integrals(unit_ball(3), np.array([2.0, 0.0, 0.0]), CFG)


def test_config_validation():
    with pytest.raises(PreconditionError):
        QuadratureConfig(near_budget=512)
    with pytest.raises(PreconditionError):
        QuadratureConfig(far_shells=8)
    with pytest.raises(PreconditionError):
        QuadratureConfig(replicates=1)


def test_unreachable_tolerance_reports_failure():
    # the relative standard error here is 6.5e-3 to 8.8e-3 at seeds 1-3, against the 1e-3 target
    cfg = QuadratureConfig(seed=1, near_budget=1024, far_shells=16, replicates=4)
    ev = psi_integrals(dumbbell(), np.array([1.1, 0.2, 0.1]), cfg)
    assert not ev.converged


# ---------------------------------------------------------------------------
# general integrands
# ---------------------------------------------------------------------------


def bubble(n, delta, xi):
    alpha = bubble_alpha(n)

    def f(X):
        d2 = ((X - xi) ** 2).sum(axis=1)
        return alpha * delta ** ((n - 2) / 2.0) / (delta**2 + d2) ** ((n - 2) / 2.0)

    return f


def test_exterior_mass_radial_oracle():
    n, delta = 3, 0.3
    dom = unit_ball(n)
    f = bubble(n, delta, np.zeros(n))
    res = exterior_lp_mass(dom, f, 6.0, CFG, center=np.zeros(n))
    alpha = bubble_alpha(n)

    def integrand(r):
        return alpha**6 * delta**3 / (delta**2 + r * r) ** 3 * r * r

    oracle = sphere_area(n) * integrate.quad(integrand, 1.0, np.inf, epsrel=1e-13)[0]
    assert res.decay_ok and res.converged
    # tail truncation bias is documented to stay well below _TARGET_REL_ERR
    assert abs(res.value - oracle) <= 5.0 * res.std_error + 1e-6 * oracle


def test_exterior_mass_gaussian_oracle():
    # non-radial integrand: exterior mass = whole-space mass minus the
    # in-ball mass, the latter by an exact angular reduction
    n = 3
    x0 = np.array([0.4, -0.2, 0.1])
    s = float(np.linalg.norm(x0))
    dom = unit_ball(n)

    def f(X):
        return np.exp(-((X - x0) ** 2).sum(axis=1))

    whole = (math.pi / 2.0) ** 1.5

    def inner_integrand(r):
        return (
            2.0
            * math.pi
            * r
            * math.exp(-2.0 * (r * r + s * s))
            * math.sinh(4.0 * r * s)
            / (2.0 * s)
        )

    inner = integrate.quad(inner_integrand, 0.0, 1.0, epsrel=1e-13)[0]
    oracle = whole - inner
    res = exterior_lp_mass(dom, f, 2.0, CFG, center=x0)
    assert abs(res.value - oracle) <= 5.0 * res.std_error + 1e-6 * oracle


def test_ball_mass_gaussian_oracle():
    n = 3
    x0 = np.array([0.4, -0.2, 0.1])
    s = float(np.linalg.norm(x0))

    def f(X):
        return np.exp(-((X - x0) ** 2).sum(axis=1))

    def inner_integrand(r):
        return (
            2.0
            * math.pi
            * r
            * math.exp(-2.0 * (r * r + s * s))
            * math.sinh(4.0 * r * s)
            / (2.0 * s)
        )

    oracle = integrate.quad(inner_integrand, 0.0, 1.0, epsrel=1e-13)[0]
    res = ball_lp_mass(f, 2.0, np.zeros(n), 1.0, n, CFG)
    assert abs(res.value - oracle) <= 5.0 * res.std_error + 1e-6 * oracle


def test_exterior_mass_hole_core():
    # center of the fan inside a hole: the hole core is exterior and must be
    # captured exactly down to tiny radii
    n, rho = 3, 1e-2
    dom = Domain(n, Difference(Ball(np.zeros(n), 1.0), Ball(np.zeros(n), rho)))
    delta = 0.5 * rho
    f = bubble(n, delta, np.zeros(n))
    res = exterior_lp_mass(dom, f, 6.0, CFG, center=np.zeros(n))
    alpha = bubble_alpha(n)

    def integrand(r):
        return alpha**6 * delta**3 / (delta**2 + r * r) ** 3 * r * r

    oracle = sphere_area(n) * (
        integrate.quad(integrand, 0.0, rho, epsrel=1e-13)[0]
        + integrate.quad(integrand, 1.0, np.inf, epsrel=1e-13)[0]
    )
    assert abs(res.value - oracle) <= 5.0 * res.std_error + 1e-6 * oracle


def test_exterior_mass_translation_equivariance():
    n = 3
    dom = dumbbell(n)
    v = np.array([0.7, -0.4, 1.1])
    moved = Domain(n, Translate(v, dom.root))
    x0 = np.array([1.0, 0.1, 0.0])
    f0 = bubble(n, 0.4, x0)
    f1 = bubble(n, 0.4, x0 + v)
    a = exterior_lp_mass(dom, f0, 4.0, CFG, center=x0)
    b = exterior_lp_mass(moved, f1, 4.0, CFG, center=x0 + v)
    tol = 3.0 * math.sqrt(a.std_error**2 + b.std_error**2) + 5e-13 * abs(a.value)
    assert abs(a.value - b.value) <= tol


def bubble_mass_mpmath(n: int, delta: float, m: float, pieces) -> float:
    """Mass of U[delta, 0]^m over the radial shells ``pieces``, by mpmath at 30 digits."""
    with mp.workdps(30):
        k = m * (n - 2.0) / 2.0
        radial = sum(mp.quad(lambda r: r ** (n - 1) * (delta**2 + r * r) ** -k, [a, b]) for a, b in pieces)
        return float(sphere_area(n) * bubble_alpha(n) ** m * mp.mpf(delta) ** k * radial)


def test_exterior_bubble_mass_matches_mpmath():
    cases = [
        (Domain(3, Difference(Ball(np.zeros(3), 1.0), Ball(np.zeros(3), rho))), math.sqrt(rho), 6.0, [(0, rho), (1, np.inf)])
        for rho in (0.01, 0.0025)
    ]
    eps = 0.025
    cases.append((unit_ball(4), (1.0 / 24.0) ** 0.25 * eps**0.25, 4.0 - eps, [(1, np.inf)]))
    for dom, delta, m, pieces in cases:
        n = dom.dimension
        res = exterior_bubble_mass(dom, delta, np.zeros(n), m, CFG)
        assert res.value == pytest.approx(bubble_mass_mpmath(n, delta, m, pieces), rel=1e-12)
        assert res.decay_ok and res.converged
        # one count per ray segment: no Gauss-Legendre node and no far octave
        R = dom.bounding_radius(np.zeros(n))
        fans = _fans(n, CFG, _TAG_LP, nodes_per_ray=24)
        assert res.n_evals == sum(_outside_segments(dom, np.zeros(n), H, R)[3] for _, H in fans)


def test_exterior_bubble_mass_agrees_with_gauss_legendre_on_the_same_fans():
    hole = np.array([0.3, 0.1, 0.0])
    cases = [
        (Domain(3, Difference(Ball(np.zeros(3), 1.0), Ball(hole, 0.01))), 0.1, hole, 6.0),
        (dumbbell(3), 0.05, np.array([1.5, 0.0, 0.0]), 5.9),
    ]
    for dom, delta, center, m in cases:
        exact = exterior_bubble_mass(dom, delta, center, m, CFG)
        gl = exterior_lp_mass(dom, bubble(3, delta, center), m, CFG, center=center)
        assert exact.value == pytest.approx(gl.value, rel=1e-7)
        assert exact.std_error == pytest.approx(gl.std_error, rel=1e-6)


def test_exterior_bubble_mass_preconditions():
    with pytest.raises(PreconditionError):
        exterior_bubble_mass(unit_ball(3), 0.1, np.zeros(3), 3.0, CFG)  # 3*(3-2) = 3: not integrable
    with pytest.raises(PreconditionError):
        exterior_bubble_mass(unit_ball(3), 0.0, np.zeros(3), 6.0, CFG)
    with pytest.raises(PreconditionError):
        exterior_bubble_mass(unit_ball(3), 0.1, np.zeros(2), 6.0, CFG)


# ---------------------------------------------------------------------------
# standard-bubble moments
# ---------------------------------------------------------------------------


def moment_oracle(n: int, m: float) -> float:
    alpha = bubble_alpha(n)
    return alpha**m * sphere_area(n) * 0.5 * beta_fn(n / 2.0, m * (n - 2.0) / 2.0 - n / 2.0)


def log_moment_oracle(n: int, m: float) -> float:
    alpha = bubble_alpha(n)
    c = m * (n - 2.0) / 2.0
    B = 0.5 * beta_fn(n / 2.0, c - n / 2.0)
    return alpha**m * sphere_area(n) * (
        math.log(alpha) * B - (n - 2.0) / 2.0 * B * (digamma(c) - digamma(c - n / 2.0))
    )


def test_bubble_moment_matches_beta_closed_form():
    cases = [(3, 6.0), (3, 5.0), (4, 4.0), (4, 3.5), (5, 10.0 / 3.0), (6, 3.0), (8, 2.4)]
    for n, m in cases:
        val = bubble_moment(n, m)
        oracle = moment_oracle(n, m)
        assert val == pytest.approx(oracle, rel=1e-10)


def test_bubble_moment_frozen_values():
    # critical moments: integral of U^(2n/(n-2)) equals the Sobolev mass
    assert bubble_moment(4, 4.0) == pytest.approx(32.0 * math.pi**2 / 3.0, rel=1e-12)
    assert bubble_moment(3, 6.0) == pytest.approx(3.0**1.5 / 4.0 * math.pi**2, rel=1e-12)


def test_bubble_log_moment_matches_digamma_closed_form():
    for n, m in [(3, 6.0), (4, 4.0), (5, 10.0 / 3.0)]:
        val = bubble_moment(n, m, log_weight=True)
        oracle = log_moment_oracle(n, m)
        assert val == pytest.approx(oracle, rel=1e-9)


def test_bubble_moment_preconditions():
    with pytest.raises(PreconditionError):
        bubble_moment(3, 2.0)  # 2*(3-2) = 2 < 3: not integrable
    with pytest.raises(PreconditionError):
        bubble_moment(2, 10.0)
