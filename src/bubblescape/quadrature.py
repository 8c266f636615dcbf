"""Singular exterior quadrature on CSG domains.

Everything here integrates over the *complement* of a domain (or over whole
balls), with integrands that concentrate near the domain boundary or at a
designated center.  The engine casts a quasi-random fan of rays from the
center and takes the domain's membership flips along them, flat, each with
the side it opens (exact, from the per-leaf spans of the geometry layer; for
perturbed domains, perturbed leaf spans from certified roots inside band
windows, and a bisection trace on the rays the certificate does not cover).
The flips bound the runs of each ray that lie outside the domain:

* inverse-power kernels (the concentration landscape and its first two
  derivatives) have closed-form radial antiderivatives, so each flip adds
  one signed term and no segment is formed; the only stochastic error is
  the directional average;
* general integrands sort the flips along each ray into segments that
  alternate between inside and outside, and get geometric subdivision of
  each outside segment with fixed Gauss-Legendre rules, which resolves
  integrands peaked at any scale;
* powers of a single bubble, seen from its centre, get the incomplete-Beta
  radial primitive on the same outside segments and an exact tail beyond
  the enclosing radius, so no octave is summed and no decay is guessed;
* the whole-space pair interaction ``int U_1^p U_2`` casts no rays at all:
  the spherical mean of ``U_2`` about the first centre is a closed form,
  which leaves one smooth 1-D radial integral for ``radial_integral``
  (``bubbles.interaction``).

Directions are scrambled Sobol points pushed to the sphere, expanded over
the full 2^n sign-flip orbit.  The orbit makes every odd direction moment
vanish identically, so gradient estimates are exactly zero at points of
mirror symmetry - symmetric critical points are located to the tolerance of
the deterministic part rather than of the noise.  The orbit holds each
direction with its opposite, so the engine traces lines: the half orbit
``H`` (the sign rows with first sign +1), each line giving the rays ``+H[j]``
and ``-H[j]`` from one set of leaf spans.  psi runs the lines of all
replicates through one pass, in blocks of a fixed line count.

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
from scipy import integrate, special

from .errors import PreconditionError
from .geometry import _as_point, deep_point, sobol_points, sphere_points

__all__ = [
    "QuadratureConfig",
    "PsiEvaluation",
    "QuadratureResult",
    "psi_integrals",
    "exterior_lp_mass",
    "exterior_bubble_mass",
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
_TARGET_REL_ERR = 1e-3  # an estimate converges when its standard error is within this share of |value|


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class QuadratureConfig:
    """Budgets of the exterior quadrature engine.

    ``near_budget`` counts rays (sign-flip orbit copies included) summed over
    all replicates; ``far_shells`` caps the number of dyadic octaves used
    beyond the enclosing radius for general integrands; ``replicates`` is the
    number of independent scramblings used for the error estimate.  The
    convergence target is the module constant ``_TARGET_REL_ERR``.
    """

    seed: int = 0
    near_budget: int = 2**20
    far_shells: int = 64
    replicates: int = 8

    def __post_init__(self):
        if self.seed < 0:
            raise PreconditionError(f"seed must be non-negative, got {self.seed}")
        if self.near_budget < 1024:
            raise PreconditionError("near_budget must be at least 1024")
        if self.far_shells < 16:
            raise PreconditionError("far_shells must be at least 16")
        if self.replicates < 2:
            raise PreconditionError("replicates must be at least 2")

    def accepts(self, value: float, std_error: float) -> bool:
        """The convergence rule: standard error within ``_TARGET_REL_ERR`` of |value|."""
        return bool(std_error <= _TARGET_REL_ERR * max(abs(value), 1e-300))


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
    """``m_base`` scrambled-Sobol sphere points folded into the positive orthant."""
    return np.abs(sphere_points(sobol_points(n, m_base, (seed, tag, rep))))


def _half_lines(G: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Lines ``start:stop`` of the half orbit of the folded fan ``G``: line ``i`` is sign row ``i // m`` times ``G[i % m]``.

    The half orbit is the sign rows of :func:`_sign_orbit` whose first sign
    is +1; row ``2^n - 1 - s`` is the negation of row ``s``, so it holds one
    direction of every line of the full orbit.  The range lies within one
    sign row or spans whole ones (``m = len(G)`` and the range are powers of 2).
    """
    m, n = G.shape
    s0, g0 = divmod(start, m)
    signs = _sign_orbit(n)[s0 : -(-stop // m)]
    return (signs[:, None, :] * G[None, g0 : g0 + min(stop - start, m)]).reshape(-1, n)


@functools.lru_cache(maxsize=16)
def _stacked_half_fans(seed: int, tag: int, n: int, m_base: int, replicates: int) -> np.ndarray:
    """Every replicate's half fan, stacked replicate by replicate (read-only: psi-grid's threads share it)."""
    half = m_base * 2 ** (n - 1)
    H = np.concatenate([_half_lines(_folded_fan(seed, tag, rep, n, m_base), 0, half) for rep in range(replicates)])
    H.setflags(write=False)
    return H


# Every call with the same seed and budget draws the same fans.  Stacked
# half fans of up to _CACHED_LINES lines are cached: there the Sobol set-up
# is a visible share of a call.  A larger fan costs little next to the call
# that uses it.
_CACHED_LINES = 2**16
# psi traces its lines in blocks of this many, all replicates of a call in one
# pass.  Measured on one CPU of a 2-vCPU machine, on 2^15 x 4 and 2^17 x 8
# calls: 2^11 lines took 15-20% more time, and 2^13 lines 5-10% less but
# raised the landscape benchmark's peak RSS by up to 5 MB.
_BLOCK_LINES = 2**12


def _fans(n: int, config: QuadratureConfig, tag: int, nodes_per_ray: int = 1, block: int | None = None):
    """Each replicate's half fan, independently scrambled (:func:`_half_lines`), as ``(replicates, lines)``.

    A half fan holds ``m_base 2^(n-1)`` lines; with the opposite rays
    ``[H; -H]`` it makes the full sign-flip orbit of the replicate's fan.
    ``replicates`` is the slice of replicates whose lines follow, each the
    same number of consecutive lines.  Without ``block`` each item is one
    whole half fan; with it, at most ``block`` lines: the whole half fans of
    consecutive replicates, or one block of a single replicate's, so that a
    fan larger than a block is built block by block, never whole.
    """
    m_base = _base_direction_count(n, config, nodes_per_ray)
    half, k, seed = m_base * 2 ** (n - 1), config.replicates, int(config.seed)
    per, width = max((block or half) // half, 1), min(half, block or half)
    stacked = _stacked_half_fans(seed, tag, n, m_base, k) if k * half <= _CACHED_LINES else None
    for r in range(0, k, per):
        reps = slice(r, min(r + per, k))
        if stacked is None:
            G = [_folded_fan(seed, tag, q, n, m_base) for q in range(reps.start, reps.stop)]
        for i in range(0, half, width):
            if stacked is None:
                yield reps, np.concatenate([_half_lines(g, i, i + width) for g in G])
            else:
                yield reps, stacked[r * half + i : (reps.stop - 1) * half + i + width]


def _reduce(samples):
    """Replicate mean and standard error (sample deviation / sqrt(k)) along axis 0."""
    samples = np.asarray(samples)
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])


# ---------------------------------------------------------------------------
# Segment assembly
# ---------------------------------------------------------------------------


def _pack(m: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Scatter values, grouped by ascending row, into an (m, K) NaN-padded array; K the widest row, at least 1."""
    counts = np.bincount(rows, minlength=m)
    out = np.full((m, max(int(counts.max(initial=0)), 1)), np.nan)
    out[rows, np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]] = values
    return out


def _outside_segments(domain, origin: np.ndarray, H: np.ndarray, t_hi: float):
    """Per-ray radial intervals lying outside the domain, within (0, t_hi), on the rays ``[H; -H]``.

    The domain's flips, sorted along each ray and packed into (m, K), cut each
    ray into segments that alternate between inside and outside, starting from
    its first-segment flag.  Returns ``(a, b, mask, n_segments)``: (m, K + 1)
    interval ends, ``mask`` flagging outside intervals of positive width, and
    ``n_segments = m (K + 1)``, with ``m = 2 len(H)`` rays.
    """
    ray, t, _, inside0 = domain.surface_crossing_candidates(origin, H, t_hi)
    order = np.lexsort((t, ray))
    flips = _pack(2 * H.shape[0], ray[order], t[order])
    m, K = flips.shape
    ts = np.concatenate([np.zeros((m, 1)), np.where(np.isfinite(flips), flips, t_hi), np.full((m, 1), t_hi)], axis=1)
    a = ts[:, :-1]
    b = ts[:, 1:]
    outside = (np.arange(K + 1) % 2 == 1) == inside0[:, None]
    return a, b, outside & (b > a * (1.0 + 1e-14) + 1e-300), m * (K + 1)


# ---------------------------------------------------------------------------
# Landscape kernels (closed-form radial integrals)
# ---------------------------------------------------------------------------


def psi_integrals(domain, xi, config: QuadratureConfig) -> PsiEvaluation:
    """Exterior inverse-power landscape at an interior point.

    Computes ``psi(xi) = integral over the complement of the domain of
    |x - xi|^(-2n) dx`` together with its gradient and Hessian in ``xi``,
    by ray-fan quadrature inside the enclosing ball plus exact closed forms
    beyond it.  Raises ``PreconditionError`` if ``xi`` is not interior.

    One engine pass traces the lines of every replicate's half fan, in
    blocks of ``_BLOCK_LINES`` (:func:`_fans`).  A ray's outside runs
    ``(a, b)`` give ``(a^-k - b^-k)/k`` for k = n, n + 1, n + 2: ``+t^-k/k``
    at each flip that opens one and ``-t^-k/k`` at each that closes one,
    ``-R^-k/k`` if the ray ends outside and infinity if it starts outside.  With ``sg+``, ``sg-``
    (and ``sh+``, ``sh-``) the k = n + 1 (and n + 2) sums of the rays ``+H``
    and ``-H``, the gradient takes ``(sg+ - sg-) @ H`` and the Hessian
    ``(sh+ + sh-)`` on ``H``.  ``n_evals`` counts ``m (K + 1)`` per
    replicate, m its rays and K the most flips on one of them (at least 1),
    as :func:`_outside_segments` would.
    """
    n = domain.dimension
    xi = _as_point(xi, n)
    if not bool(domain.contains_many(xi[None, :])[0]):
        raise PreconditionError("landscape evaluation requires an interior point")
    R = float(domain.bounding_radius(xi))
    omega = sphere_area(n)

    k = config.replicates
    m = _base_direction_count(n, config) * 2**n  # rays per replicate: the full sign-flip orbit
    sv, sh, sg, dd = np.zeros(k), np.zeros(k), np.zeros((k, n)), np.zeros((k, n, n))
    K = np.ones(k, dtype=np.int64)
    for reps, H in _fans(n, config, _TAG_PSI, block=_BLOCK_LINES):
        ray, t, opens, inside0 = domain.surface_crossing_candidates(xi, H, R)
        rays = 2 * H.shape[0]
        count = np.bincount(ray, minlength=rays)
        ends_out, start = inside0 == (count & 1).astype(bool), np.zeros(rays)
        start[~inside0] = np.inf
        r = 1.0 / t
        p = np.where(opens, r, -r)
        for _ in range(n - 1):
            p *= r
        sums = []
        for j in range(n, n + 3):
            sums.append(np.bincount(ray, p / j, minlength=rays) - ends_out * (R**-j / j) + start)
            p *= r
        q = reps.stop - reps.start
        v, g, h = (s.reshape(2, q, -1) for s in sums)  # [side, replicate, line]
        Hq = H.reshape(q, -1, n)
        sv[reps] += v.sum(axis=(0, 2))
        sh[reps] += h.sum(axis=(0, 2))
        sg[reps] += ((g[0] - g[1])[:, None, :] @ Hq)[:, 0]
        dd[reps] += (Hq.transpose(0, 2, 1) * (h[0] + h[1])[:, None, :]) @ Hq
        K[reps] = np.maximum(K[reps], count.reshape(2, q, -1).max(axis=(0, 2)))

    value, value_std = _reduce(omega * sv / m)
    gradient, gradient_std = _reduce(omega * 2.0 * n * sg / m)
    hess = omega * 2.0 * n * ((2.0 * n + 2.0) * dd / m - np.eye(n) * (sh / m)[:, None, None])
    hessian, hessian_std = _reduce(hess)
    value = float(value) + omega * R**-n / n
    return PsiEvaluation(
        value=value,
        gradient=gradient,
        hessian=hessian + 2.0 * omega * R ** -(n + 2) * np.eye(n),
        value_std=float(value_std),
        gradient_std=gradient_std,
        hessian_std=hessian_std,
        n_evals=int(m * (K + 1).sum()),
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
    center = _as_point(center, n)
    R = float(domain.bounding_radius(center))
    f_abs_p = _abs_pow(f, p)

    fans = [(H, np.concatenate([H, -H])) for _, H in _fans(n, config, _TAG_LP, nodes_per_ray=24)]
    near = np.empty(len(fans))
    n_evals = 0
    for rep, (H, D) in enumerate(fans):
        a, b, mask, n_seg = _outside_segments(domain, center, H, R)
        ri, ci = np.nonzero(mask)
        near[rep], ne = _segment_quadrature(f_abs_p, center, D, ri, a[ri, ci], b[ri, ci])
        n_evals += n_seg + ne

    # Far octaves: everything beyond R is outside the domain.
    far = np.zeros(len(fans))
    octave_masses = []
    stopped = False
    for shell in range(config.far_shells):
        shell_vals = np.empty(len(fans))
        for rep, (_, D) in enumerate(fans):
            shell_vals[rep], ne = _whole_rays(f_abs_p, center, D, R * 2.0**shell, R * 2.0 ** (shell + 1))
            n_evals += ne
        far += shell_vals
        octave_masses.append(float(shell_vals.mean()))
        total = abs(float((near + far).mean()))
        # Geometric decay makes the truncated tail at most a small multiple of
        # the last octave, so this keeps the bias well below _TARGET_REL_ERR.
        if shell >= 7 and octave_masses[-1] < max(1e-4 * _TARGET_REL_ERR * total, 1e-300):
            stopped = True
            break

    masses = np.array(octave_masses)
    if stopped:
        tail = masses[-3:]
        decay_ok = bool(np.all(np.diff(tail) <= 0.0)) or masses[-1] == 0.0
    else:
        decay_ok = bool(masses[-1] < 0.5 * masses[max(len(masses) - 4, 0)]) if len(masses) >= 4 else False
    return _result(near + far, n_evals, config, decay_ok)


def exterior_bubble_mass(domain, delta: float, center, m: float, config: QuadratureConfig) -> QuadratureResult:
    """Integral of ``U[delta, center]^m`` over the complement of the domain, exact along each ray.

    With ``k = m (n-2)/2`` the share of the whole-space mass between radii
    a < b is ``I(u(b)) - I(u(a))``, the regularized incomplete Beta function
    ``I_u(n/2, k - n/2)`` at ``u(r) = r^2/(delta^2 + r^2)``, taken from the
    nearer end of the law so that a thin core or a far tail keeps full
    relative accuracy.  The rays and segments are those of
    ``exterior_lp_mass``; one exact tail replaces the far octaves, so
    ``decay_ok`` holds and ``n_evals`` counts segments.  Requires ``m (n-2) > n``.
    """
    n = domain.dimension
    center = _as_point(center, n)
    if not delta > 0.0:
        raise PreconditionError("bubble scale must be positive")
    whole = bubble_moment(n, m) * delta ** (n - m * (n - 2.0) / 2.0)
    s, t, d2 = n / 2.0, m * (n - 2.0) / 2.0 - n / 2.0, float(delta) ** 2
    R = float(domain.bounding_radius(center))

    def beyond(r):
        return special.betainc(t, s, d2 / (d2 + r * r))

    def share(a, b):
        within = special.betainc(s, t, b * b / (d2 + b * b)) - special.betainc(s, t, a * a / (d2 + a * a))
        return np.where(b * b <= d2, within, beyond(a) - beyond(b))

    samples, n_evals = [], 0
    for _, H in _fans(n, config, _TAG_LP, nodes_per_ray=24):
        a, b, mask, n_seg = _outside_segments(domain, center, H, R)
        ri, ci = np.nonzero(mask)
        per_ray = np.bincount(ri, share(a[ri, ci], b[ri, ci]), minlength=a.shape[0])
        samples.append(whole * (float(per_ray.mean()) + beyond(R)))
        n_evals += n_seg
    return _result(samples, n_evals, config)


def ball_lp_mass(f, p: float, center, radius: float, dimension: int, config: QuadratureConfig) -> QuadratureResult:
    """Integral of ``|f|^p`` over an open ball, by the same ray-fan engine."""
    n = int(dimension)
    center = _as_point(center, n)
    if not radius > 0.0:
        raise PreconditionError("ball radius must be positive")
    f_abs_p = _abs_pow(f, p)
    vals, n_evals = zip(
        *(
            _whole_rays(f_abs_p, center, np.concatenate([H, -H]), 0.0, float(radius))
            for _, H in _fans(n, config, _TAG_BALL, nodes_per_ray=24)
        )
    )
    return _result(vals, sum(n_evals), config)


# ---------------------------------------------------------------------------
# Standard-bubble moments
# ---------------------------------------------------------------------------


def bubble_alpha(n: int) -> float:
    """Height normalization of the standard bubble profile."""
    return (n * (n - 2.0)) ** ((n - 2.0) / 4.0)


def bubble_moment(n: int, power: float, log_weight: bool = False) -> float:
    """Whole-space moment of the standard bubble.

    Computes ``integral of U^power`` (times ``ln U`` when ``log_weight``)
    over R^n for the unit-scale centered bubble
    ``U(x) = alpha_n (1 + |x|^2)^(-(n-2)/2)``: the Beta integral
    ``omega_n alpha^power B(n/2, power (n-2)/2 - n/2) / 2``, or with the log
    weight a radial quadrature to relative accuracy 1e-10.  Requires
    ``power * (n - 2) > n`` for integrability.
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
    if not log_weight:
        return omega * alpha**power * 0.5 * float(special.beta(n / 2.0, beta - n / 2.0))

    # Radial integrand with the constant alpha^power factored out.
    def g(r):
        return (1.0 + r * r) ** (-beta) * r ** (n - 1.0) * (math.log(alpha) - (n - 2.0) / 2.0 * math.log1p(r * r))

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
