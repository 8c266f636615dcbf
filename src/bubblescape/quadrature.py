"""Singular exterior quadrature on CSG domains.

Everything here integrates over the *complement* of a domain (or over whole
balls), with integrands that concentrate near the domain boundary or at a
designated center.  The engine casts a quasi-random fan of rays from the
center, cuts each ray at the domain's membership flips (exact, from the
per-leaf spans of the geometry layer; for perturbed domains, certified
roots inside per-leaf band windows, or a membership scan on the rays the
certificate does not cover) into segments that alternate between inside
and outside, and integrates radially along the outside segments:

* inverse-power kernels (the concentration landscape and its first two
  derivatives) get closed-form radial antiderivatives per segment, so the
  only stochastic error is the directional average;
* general integrands get per-segment geometric subdivision with fixed
  Gauss-Legendre rules, which resolves integrands peaked at any scale.

Directions are scrambled Sobol points pushed to the sphere, expanded over
the full 2^n sign-flip orbit.  The orbit makes every odd direction moment
vanish identically, so gradient estimates are exactly zero at points of
mirror symmetry - symmetric critical points are located to the tolerance of
the deterministic part rather than of the noise.

Each evaluation runs ``replicates`` independently scrambled copies; reported
values are replicate means and ``std_error`` is the sample standard
deviation across replicates divided by sqrt(replicates).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.stats import qmc

from .errors import PreconditionError
from .geometry import deep_point, sphere_points

__all__ = [
    "QuadratureConfig",
    "PsiEvaluation",
    "QuadratureResult",
    "psi_integrals",
    "exterior_lp_mass",
    "ball_lp_mass",
    "bubble_moment",
    "radial_integral",
    "sphere_area",
]

_TAG_PSI = 0x5A1
_TAG_LP = 0x5A2
_TAG_BALL = 0x5A4

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_MAX_OCTAVES = 48  # geometric subdivision depth for general integrands


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class QuadratureConfig:
    """Budgets and tolerances for the exterior quadrature engine.

    ``near_budget`` counts rays (sign-flip orbit copies included) summed over
    all replicates; ``far_shells`` caps the number of dyadic octaves used
    beyond the enclosing radius for general integrands; ``replicates`` is the
    number of independent scramblings used for the error estimate.
    """

    seed: int = 0
    near_budget: int = 2**20
    far_shells: int = 64
    replicates: int = 8
    target_rel_err: float = 1e-3

    def __post_init__(self):
        if self.seed < 0:
            raise PreconditionError(f"seed must be non-negative, got {self.seed}")
        if self.near_budget < 1024:
            raise PreconditionError("near_budget must be at least 1024")
        if self.far_shells < 16:
            raise PreconditionError("far_shells must be at least 16")
        if self.replicates < 2:
            raise PreconditionError("replicates must be at least 2")
        if not self.target_rel_err > 0.0:
            raise PreconditionError("target_rel_err must be positive")

    def accepts(self, value: float, std_error: float) -> bool:
        """The convergence rule: standard error within ``target_rel_err`` of |value|."""
        return bool(std_error <= self.target_rel_err * max(abs(value), 1e-300))


@dataclass
class PsiEvaluation:
    """Concentration landscape value/gradient/hessian with error estimates."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    value_std: float
    gradient_std: np.ndarray
    hessian_std: np.ndarray
    n_evals: int
    converged: bool


@dataclass
class QuadratureResult:
    value: float
    std_error: float
    n_evals: int
    converged: bool
    decay_ok: bool


# ---------------------------------------------------------------------------
# Direction fans
# ---------------------------------------------------------------------------


def _sign_orbit(n: int) -> np.ndarray:
    return np.array(list(itertools.product((1.0, -1.0), repeat=n)))


def _base_direction_count(n: int, config: QuadratureConfig, nodes_per_ray: int = 1) -> int:
    per_rep = config.near_budget / (config.replicates * (2**n) * nodes_per_ray)
    exponent = int(np.floor(np.log2(max(per_rep, 32.0))))
    return 2 ** min(max(exponent, 5), 22)


def _folded_fan(seed: int, tag: int, rep: int, n: int, m_base: int) -> np.ndarray:
    """``m_base`` scrambled-Sobol sphere points folded into the positive orthant (read-only)."""
    seed_seq = np.random.SeedSequence((seed, tag, rep))
    eng = qmc.Sobol(d=n, scramble=True, seed=np.random.default_rng(seed_seq))
    G = np.abs(sphere_points(eng.random(m_base)))
    G.setflags(write=False)
    return G


# Every call with the same seed and budget draws the same fans.  Small fans
# are cached: there the Sobol set-up is a visible share of a landscape call.
# A fan above _CACHED_FAN_MAX base points costs little next to the call that
# uses it, so caching it would only hold memory.
_cached_folded_fan = functools.lru_cache(maxsize=32)(_folded_fan)
_CACHED_FAN_MAX = 4096


def _fans(n: int, config: QuadratureConfig, tag: int, nodes_per_ray: int = 1):
    """One direction fan per replicate, each independently scrambled.

    A fan is a folded base fan expanded over the full sign-flip orbit into a
    fresh array of shape ``(m_base * 2^n, n)``.
    """
    m_base = _base_direction_count(n, config, nodes_per_ray)
    folded = _cached_folded_fan if m_base <= _CACHED_FAN_MAX else _folded_fan
    signs = _sign_orbit(n)
    for rep in range(config.replicates):
        G = folded(int(config.seed), tag, rep, n, m_base)
        yield (signs[:, None, :] * G[None, :, :]).reshape(-1, n)


def _reduce(samples):
    """Replicate mean and standard error (sample deviation / sqrt(k)) along axis 0."""
    samples = np.asarray(samples)
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])


# ---------------------------------------------------------------------------
# Segment assembly
# ---------------------------------------------------------------------------


def _outside_segments(domain, origin: np.ndarray, D: np.ndarray, t_hi: float):
    """Per-ray radial intervals lying outside the domain, within (0, t_hi).

    The domain's membership flips cut each ray into segments that alternate
    between inside and outside, starting from the ray's first-segment flag.
    Returns ``(a, b, mask, n_segments)`` where ``a``, ``b`` are (m, S)
    interval endpoint arrays, ``mask`` flags outside intervals of positive
    width, and ``n_segments = m * S`` counts the segments.
    """
    flips, inside0 = domain.surface_crossing_candidates(origin, D, t_hi)
    m, K = flips.shape
    ts = np.concatenate([np.zeros((m, 1)), np.where(np.isfinite(flips), flips, t_hi), np.full((m, 1), t_hi)], axis=1)
    a = ts[:, :-1]
    b = ts[:, 1:]
    outside = (np.arange(K + 1) % 2 == 1) == inside0[:, None]
    return a, b, outside & (b > a * (1.0 + 1e-14) + 1e-300), m * (K + 1)


# ---------------------------------------------------------------------------
# Landscape kernels (closed-form radial integrals)
# ---------------------------------------------------------------------------


def _psi_replicate(domain, xi: np.ndarray, D: np.ndarray, R: float, n: int):
    """One replicate's ray-averaged near-field value/gradient/hessian."""
    a, b, mask, n_seg = _outside_segments(domain, xi, D, R)
    a_safe = np.where(mask, a, 1.0)
    b_safe = np.where(mask, b, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        iv = np.where(mask, (a_safe**-n - b_safe**-n) / n, 0.0)
        ig = np.where(mask, (a_safe ** -(n + 1) - b_safe ** -(n + 1)) / (n + 1), 0.0)
        ih = np.where(mask, (a_safe ** -(n + 2) - b_safe ** -(n + 2)) / (n + 2), 0.0)
    sv = iv.sum(axis=1)
    sg = ig.sum(axis=1)
    sh = ih.sum(axis=1)
    m = D.shape[0]
    omega = sphere_area(n)
    value = omega * float(sv.mean())
    grad = omega * 2.0 * n * (D * sg[:, None]).mean(axis=0)
    dd = np.einsum("mi,mj,m->ij", D, D, sh) / m
    hess = omega * 2.0 * n * ((2.0 * n + 2.0) * dd - np.eye(n) * float(sh.mean()))
    return value, grad, hess, n_seg


def psi_integrals(domain, xi, config: QuadratureConfig) -> PsiEvaluation:
    """Exterior inverse-power landscape at an interior point.

    Computes ``psi(xi) = integral over the complement of the domain of
    |x - xi|^(-2n) dx`` together with its gradient and Hessian in ``xi``,
    by ray-fan quadrature inside the enclosing ball plus exact closed forms
    beyond it.  Raises ``PreconditionError`` if ``xi`` is not interior.
    """
    n = domain.dimension
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape != (n,):
        raise PreconditionError(f"expected a point of dimension {n}")
    if not bool(domain.contains_many(xi[None, :])[0]):
        raise PreconditionError("landscape evaluation requires an interior point")
    R = float(domain.bounding_radius(xi))
    omega = sphere_area(n)

    samples = [_psi_replicate(domain, xi, D, R, n) for D in _fans(n, config, _TAG_PSI)]
    vals, grads, hesss, n_seg = zip(*samples)
    value, value_std = _reduce(vals)
    gradient, gradient_std = _reduce(grads)
    hessian, hessian_std = _reduce(hesss)
    value = float(value) + omega * R**-n / n
    return PsiEvaluation(
        value=value,
        gradient=gradient,
        hessian=hessian + 2.0 * omega * R ** -(n + 2) * np.eye(n),
        value_std=float(value_std),
        gradient_std=gradient_std,
        hessian_std=hessian_std,
        n_evals=sum(n_seg),
        converged=config.accepts(value, value_std),
    )


# ---------------------------------------------------------------------------
# General integrands
# ---------------------------------------------------------------------------


def _abs_pow(f, p: float):
    """The integrand ``|f|^p`` of a point function f."""
    return lambda X: np.abs(np.asarray(f(X), dtype=float)) ** p


def _segment_quadrature(f_abs_p, origin, D, ray_idx, seg_a, seg_b):
    """Fan average of the integral of |f|^p over ray segments, via geometric GL pieces.

    ``seg_a``/``seg_b`` are flat arrays of segment endpoints belonging to the
    rays ``ray_idx``.  Integrates ``|f|^p r^(n-1) dr`` along each ray and
    returns the sphere-measure-weighted mean over the fan, together with the
    number of f evaluations.
    """
    m, n = D.shape
    acc = np.zeros(m)
    n_evals = 0
    for j in range(_MAX_OCTAVES):
        hi = seg_b * 2.0**-j
        lo = np.maximum(seg_a, seg_b * 2.0 ** -(j + 1))
        active = hi > np.maximum(seg_a, 1e-300) * (1.0 + 1e-14)
        if not np.any(active):
            break
        lo_a = lo[active]
        hi_a = hi[active]
        rid = ray_idx[active]
        mid = 0.5 * (lo_a + hi_a)
        half = 0.5 * (hi_a - lo_a)
        ts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        pts = origin[None, None, :] + ts[:, :, None] * D[rid][:, None, :]
        S, Q = ts.shape
        vals = f_abs_p(pts.reshape(S * Q, -1)).reshape(S, Q)
        n_evals += S * Q
        contrib = (vals * ts ** (n - 1) * _GL_WEIGHTS[None, :]).sum(axis=1) * half
        np.add.at(acc, rid, contrib)
    return sphere_area(n) * float(acc.mean()), n_evals


def _whole_rays(f_abs_p, origin, D, lo: float, hi: float):
    """``_segment_quadrature`` over the same interval ``[lo, hi]`` of every ray."""
    m = D.shape[0]
    return _segment_quadrature(f_abs_p, origin, D, np.arange(m), np.full(m, lo), np.full(m, hi))


def _result(samples, n_evals: int, config: QuadratureConfig, decay_ok: bool = True) -> QuadratureResult:
    """Reduce per-replicate masses; ``converged`` needs the tail check too."""
    value, std_error = map(float, _reduce(samples))
    converged = decay_ok and config.accepts(value, std_error)
    return QuadratureResult(value=value, std_error=std_error, n_evals=n_evals, converged=converged, decay_ok=decay_ok)


def exterior_lp_mass(domain, f, p: float, config: QuadratureConfig, center=None) -> QuadratureResult:
    """Integral of ``|f|^p`` over the complement of the domain.

    ``f`` maps an (m, n) array of points to m values.  The ray fan is
    centered at ``center`` (default: a deepest interior point), segments are
    subdivided geometrically toward the center so integrands peaked at any
    scale are resolved, and dyadic octaves beyond the enclosing radius are
    accumulated until they stop contributing.  ``decay_ok`` reports whether
    the far octave masses were observed to decay geometrically; a False flag
    means the tail truncation is not trusted.
    """
    n = domain.dimension
    if center is None:
        center = deep_point(domain)[0]
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.shape != (n,):
        raise PreconditionError(f"expected a center of dimension {n}")
    R = float(domain.bounding_radius(center))
    f_abs_p = _abs_pow(f, p)

    fans = list(_fans(n, config, _TAG_LP, nodes_per_ray=24))
    near = np.empty(len(fans))
    n_evals = 0
    for rep, D in enumerate(fans):
        a, b, mask, n_seg = _outside_segments(domain, center, D, R)
        ri, ci = np.nonzero(mask)
        near[rep], ne = _segment_quadrature(f_abs_p, center, D, ri, a[ri, ci], b[ri, ci])
        n_evals += n_seg + ne

    # Far octaves: everything beyond R is outside the domain.
    far = np.zeros(len(fans))
    octave_masses = []
    stopped = False
    for shell in range(config.far_shells):
        shell_vals = np.empty(len(fans))
        for rep, D in enumerate(fans):
            shell_vals[rep], ne = _whole_rays(f_abs_p, center, D, R * 2.0**shell, R * 2.0 ** (shell + 1))
            n_evals += ne
        far += shell_vals
        octave_masses.append(float(shell_vals.mean()))
        total = abs(float((near + far).mean()))
        # Geometric decay makes the truncated tail at most a small multiple of
        # the last octave, so this keeps the bias well below target_rel_err.
        if shell >= 7 and octave_masses[-1] < max(1e-4 * config.target_rel_err * total, 1e-300):
            stopped = True
            break

    masses = np.array(octave_masses)
    if stopped:
        tail = masses[-3:]
        decay_ok = bool(np.all(np.diff(tail) <= 0.0)) or masses[-1] == 0.0
    else:
        decay_ok = bool(masses[-1] < 0.5 * masses[max(len(masses) - 4, 0)]) if len(masses) >= 4 else False
    return _result(near + far, n_evals, config, decay_ok)


def ball_lp_mass(f, p: float, center, radius: float, dimension: int, config: QuadratureConfig) -> QuadratureResult:
    """Integral of ``|f|^p`` over an open ball, by the same ray-fan engine."""
    n = int(dimension)
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.shape != (n,):
        raise PreconditionError(f"expected a center of dimension {n}")
    if not radius > 0.0:
        raise PreconditionError("ball radius must be positive")
    f_abs_p = _abs_pow(f, p)
    vals, n_evals = zip(
        *(_whole_rays(f_abs_p, center, D, 0.0, float(radius)) for D in _fans(n, config, _TAG_BALL, nodes_per_ray=24))
    )
    return _result(vals, sum(n_evals), config)


# ---------------------------------------------------------------------------
# Standard-bubble moments (1D radial quadrature)
# ---------------------------------------------------------------------------


def bubble_alpha(n: int) -> float:
    """Height normalization of the standard bubble profile."""
    return (n * (n - 2.0)) ** ((n - 2.0) / 4.0)


def bubble_moment(n: int, power: float, log_weight: bool = False) -> float:
    """Whole-space moment of the standard bubble by radial quadrature.

    Computes ``integral of U^power`` (times ``ln U`` when ``log_weight``)
    over R^n for the unit-scale centered bubble
    ``U(x) = alpha_n (1 + |x|^2)^(-(n-2)/2)``, to relative accuracy 1e-10.
    Requires ``power * (n - 2) > n`` for integrability.
    """
    n = int(n)
    if n < 3:
        raise PreconditionError("bubble moments need dimension at least 3")
    if not power * (n - 2) > n:
        raise PreconditionError(
            f"moment power {power} is not integrable in dimension {n}: need power*(n-2) > n"
        )
    alpha = bubble_alpha(n)
    omega = sphere_area(n)
    beta = power * (n - 2.0) / 2.0

    # Radial integrand with the constant alpha^power factored out.
    def g(r):
        base = (1.0 + r * r) ** (-beta) * r ** (n - 1.0)
        if log_weight:
            base = base * (math.log(alpha) - (n - 2.0) / 2.0 * math.log1p(r * r))
        return base

    return omega * alpha**power * radial_integral(g)


def radial_integral(g, cut: float = 1.0, points=None) -> float:
    """Integral of g(r) over (0, inf) to relative accuracy 1e-12.

    Adaptive quadrature over ``(0, cut)`` (with optional breakpoints
    ``points``), plus the tail through the substitution ``r = cut / s``,
    ``dr = -cut ds / s^2``, which maps it onto ``s`` in ``(0, 1)``.
    """
    inner, _ = integrate.quad(g, 0.0, cut, epsabs=0.0, epsrel=1e-12, limit=400, points=points)
    outer, _ = integrate.quad(
        lambda s: g(cut / s) * cut / s**2, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=400
    )
    return inner + outer
