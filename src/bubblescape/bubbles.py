"""Standard bubbles, their kernel modes, rescalings, interactions, and ansatz energies.

The building block is the radial profile

    U[delta, xi](x) = alpha_n * delta^((n-2)/2) / (delta^2 + |x-xi|^2)^((n-2)/2)

which solves ``-Delta U = U^p`` with ``p = (n+2)/(n-2)``.  This module
provides

* pointwise evaluation of U and of the ``n + 1`` kernel modes of the
  linearized operator (one dilation mode, ``n`` translation modes),
* a finite-difference residual check for the linearized equation,
* the scaling map ``u -> delta^(-(n-2)/2) u((x - xi)/delta)`` together with a
  numerical isometry/scaling audit,
* the free energy ``J = 1/2 |grad u|^2 - (1/m) W[u]`` of a one-bubble
  ansatz on a bounded region, where the weighted mass
  ``W = whole-space mass - 2 * exterior mass`` encodes a weight that is +1
  inside the region and -1 outside,
* the closed-form interaction ``int U_1^p U_2`` of two bubbles, and
* energy-expansion residual tables for the slightly subcritical regime and
  the critical shrinking-hole regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .geometry import Ball, Difference, Domain, _finite, deep_point
from .landscape import Constants, _check_eps, hole_critical_point, optimal_d, reduced_energy_hole, reduced_energy_sub
from .quadrature import (
    QuadratureConfig,
    QuadratureResult,
    bubble_alpha,
    bubble_moment,
    exterior_bubble_mass,
    psi_integrals,
    radial_integral,
    sphere_area,
)

__all__ = [
    "Bubble",
    "EnergyReport",
    "ResidualRow",
    "ResidualTable",
    "bubble_value",
    "z_value",
    "linearization_residual",
    "rescale",
    "rescaling_isometry_check",
    "energy",
    "interaction",
    "expansion_residual_sub",
    "expansion_residual_hole",
]


@dataclass(frozen=True)
class Bubble:
    """One signed bubble: orientation, scale, and concentration point."""

    sign: int
    delta: float
    center: np.ndarray

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise PreconditionError("bubble sign must be +1 or -1")
        if not self.delta > 0.0:
            raise PreconditionError("bubble scale must be positive")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(-1))


def _as_points(X, n: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n:
        raise PreconditionError(f"expected points of dimension {n}")
    return X


def bubble_value(n: int, delta: float, center, X) -> np.ndarray:
    """Evaluate U[delta, center] at an (m, n) array of points."""
    if not delta > 0.0:
        raise PreconditionError("bubble scale must be positive")
    center = np.asarray(center, dtype=float).reshape(-1)
    X = _as_points(X, n)
    q = 0.5 * (n - 2.0)
    r2 = ((X - center[None, :]) ** 2).sum(axis=1)
    return bubble_alpha(n) * delta**q / (delta**2 + r2) ** q


def z_value(n: int, mode: int, delta: float, center, X) -> np.ndarray:
    """Kernel modes of the linearization at U[delta, center].

    ``mode = 0`` is the dilation mode ``delta * dU/ddelta``; ``mode = i`` for
    ``1 <= i <= n`` is the normalized translation mode ``delta * dU/dxi_i``.
    All of them solve ``-Delta z = p U^(p-1) z``.
    """
    if not delta > 0.0:
        raise PreconditionError("bubble scale must be positive")
    if not 0 <= mode <= n:
        raise PreconditionError(f"mode must lie in 0..{n}")
    center = np.asarray(center, dtype=float).reshape(-1)
    X = _as_points(X, n)
    diff = X - center[None, :]
    r2 = (diff**2).sum(axis=1)
    alpha = bubble_alpha(n)
    q = 0.5 * (n - 2.0)
    if mode == 0:
        return alpha * q * delta**q * (r2 - delta**2) / (delta**2 + r2) ** (n / 2.0)
    return alpha * (n - 2.0) * delta ** (n / 2.0) * diff[:, mode - 1] / (delta**2 + r2) ** (n / 2.0)


def linearization_residual(n: int, mode: int, delta: float, center, X) -> np.ndarray:
    """Normalized FD residual of ``-Delta z = p U^(p-1) z`` at each sample.

    The Laplacian is a central second difference with the locally scaled
    step ``h = 1e-4 * sqrt(delta^2 + |x - center|^2)``; the residual is
    normalized by ``p (n-2) U^p``, which bounds the natural size of either
    side.  Samples closer than 1e-3 to the concentration point are rejected
    so the relative step stays meaningful at tiny scales.
    """
    center = np.asarray(center, dtype=float).reshape(-1)
    X = _as_points(X, n)
    dist2 = ((X - center[None, :]) ** 2).sum(axis=1)
    if np.any(dist2 < 1e-6):
        raise PreconditionError("samples must stay at least 1e-3 away from the concentration point")
    p = (n + 2.0) / (n - 2.0)
    h = 1e-4 * np.sqrt(delta**2 + dist2)
    lap = np.zeros(X.shape[0])
    z0 = z_value(n, mode, delta, center, X)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        zp = z_value(n, mode, delta, center, X + h[:, None] * e[None, :])
        zm = z_value(n, mode, delta, center, X - h[:, None] * e[None, :])
        lap += (zp - 2.0 * z0 + zm) / h**2
    u = bubble_value(n, delta, center, X)
    scale = p * (n - 2.0) * u**p
    return np.abs(lap + p * u ** (p - 1.0) * z0) / scale


def rescale(n: int, delta: float, center, u):
    """Concentration-scaling map: ``(Pu)(x) = delta^(-(n-2)/2) u((x-center)/delta)``."""
    if not delta > 0.0:
        raise PreconditionError("scale must be positive")
    center = np.asarray(center, dtype=float).reshape(-1)
    q = 0.5 * (n - 2.0)

    def v(X):
        X = _as_points(X, n)
        return delta**-q * np.asarray(u((X - center[None, :]) / delta), dtype=float)

    return v


def rescaling_isometry_check(n: int, s: float, deltas=(0.25, 0.5, 1.0, 2.0, 4.0)) -> dict:
    """Measure norm behavior of the bubble family under the scaling map.

    Returns the maximal relative deviation of the Dirichlet energy across
    scales (an isometry would give 0) and the measured log-log slope of the
    L^s norm against the expected exponent ``n/s - (n-2)/2``.  All integrals
    are radial quadratures carried out in the unscaled variable, so the
    scaling behavior is measured rather than assumed.
    """
    if not s * (n - 2.0) > n:
        raise PreconditionError("the L^s mass of a bubble diverges for this exponent")
    alpha = bubble_alpha(n)
    q = 0.5 * (n - 2.0)
    omega = sphere_area(n)
    deltas = [float(d) for d in deltas]
    if len(deltas) < 2 or any(d <= 0 for d in deltas):
        raise PreconditionError("need at least two positive scales")

    dirichlet = []
    ls_norm = []
    for d in deltas:
        # breakpoints and cut tied to the scale
        cut, points = 10.0 * d + 10.0, [d, 1.0]

        def grad2(r, d=d):
            return (alpha * d**q * (n - 2.0) * r) ** 2 / (d**2 + r * r) ** n * r ** (n - 1.0)

        def us(r, d=d):
            return (alpha * d**q) ** s / (d**2 + r * r) ** (s * q) * r ** (n - 1.0)

        dirichlet.append(omega * radial_integral(grad2, cut, points))
        ls_norm.append((omega * radial_integral(us, cut, points)) ** (1.0 / s))
    dirichlet = np.array(dirichlet)
    ls_norm = np.array(ls_norm)
    dev = float(np.max(np.abs(dirichlet / dirichlet[0] - 1.0)))
    slope = float(np.polyfit(np.log(deltas), np.log(ls_norm), 1)[0])
    return {
        "dirichlet_max_deviation": dev,
        "dirichlet_values": dirichlet,
        "ls_slope": slope,
        "ls_slope_expected": n / s - q,
        "deltas": np.array(deltas),
    }


# ---------------------------------------------------------------------------
# Ansatz energies
# ---------------------------------------------------------------------------


@dataclass
class EnergyReport:
    """Free energy of a one-bubble ansatz and the pieces it was assembled from."""

    j_eps: float
    j_std: float
    gradient_part: float
    weighted_part: float
    whole_mass: float
    exterior_mass: float
    exponent: float
    n_evals: int = 0
    converged: bool = True


def interaction(n: int, b1: Bubble, b2: Bubble, config: QuadratureConfig) -> QuadratureResult:
    """Whole-space interaction integral ``int U_1^p U_2``, exact up to 1-D quadrature round-off.

    With ``q = (n-2)/2``, ``d = |xi_1 - xi_2|``, ``A = delta_2^2 + r^2 + d^2``
    and ``z = 2 r d / A``, the mean of ``U_2`` over the sphere
    ``|x - xi_1| = r`` is ``alpha delta_2^q A^(-q) 2F1(q/2, (q+1)/2; n/2; z^2)``
    (the Funk-Hecke identity for ``(1 - z cos theta)^(-q)``).  As
    ``n/2 = q/2 + (q+1)/2 + 1/2``, the quadratic transformation
    ``2F1(a, b; a+b+1/2; 4x(1-x)) = 2F1(2a, 2b; a+b+1/2; x)`` makes it the
    elementary ``alpha delta_2^q (2 / (A + P))^q`` with
    ``P = sqrt(A^2 - 4 r^2 d^2) = |(delta_2, r - d)| |(delta_2, r + d)|``,
    so ``A + P`` adds positive terms and loses no digits near ``r = d``.
    The interaction is the radial integral of ``|S^(n-1)| U_1^p r^(n-1)``
    against that mean, with breakpoints spaced geometrically from ``r = 0``
    and ``r = d``.  The result carries no standard error and no integrand
    evaluations; ``config`` is unused, as the value needs no sampling
    budget.  Decays like ``(separation)^-(n-2)`` with the leading
    coefficient ``c1_nodal (delta_1 delta_2)^((n-2)/2)``.
    """
    if np.allclose(b1.center, b2.center):
        raise PreconditionError("interaction needs distinct concentration points")
    p = (n + 2.0) / (n - 2.0)
    q = 0.5 * (n - 2.0)
    alpha = bubble_alpha(n)
    d1, d2 = float(b1.delta), float(b2.delta)
    d = float(np.linalg.norm(b1.center - b2.center))
    scale = sphere_area(n) * alpha ** (p + 1.0) * d1 ** (q * p) * d2**q

    def g(r):
        mean = (2.0 / (d2 * d2 + r * r + d * d + math.hypot(d2, r - d) * math.hypot(d2, r + d))) ** q
        return (d1 * d1 + r * r) ** (-q * p) * mean * r ** (n - 1.0)

    # U_1^p falls off from r = 0 over delta_1 and the mean bends at r = d over
    # delta_2: breakpoints in geometric steps away from both features keep
    # the adaptive rule from stepping over either scale
    cut = 2.0 * (d + d1 + d2)
    steps = 4.0 ** np.arange(64)
    points = np.unique(np.concatenate([d1 * steps, d - d2 * steps, [d], d + d2 * steps]))
    value = scale * radial_integral(g, cut, points[(points > 0.0) & (points < cut)])
    return QuadratureResult(value, 0.0, 0, True, True)


def energy(domain: Domain, bubble: Bubble, eps: float, consts: Constants, config: QuadratureConfig) -> EnergyReport:
    """Free energy ``J = 1/2 int |grad u|^2 - (1/m) W`` of the one-bubble ansatz ``u = U[delta, xi]``.

    ``m = p + 1 - eps`` (``eps = 0`` is the critical case) and
    ``W = int_whole u^m - 2 int_exterior u^m`` realizes a weight +1 on the
    region and -1 outside.  The gradient part is the moment
    ``1/2 int U^(p+1)`` and the whole-space mass a Beta integral, both
    exact; the exterior mass is exact along each ray
    (``exterior_bubble_mass``), so the standard error of ``J`` is that of
    its directional average alone.  The center may lie outside the open
    region (a hole-regime bubble peaks inside the carved hole) but must
    stay within its bounding ball.
    """
    n = consts.n
    if domain.dimension != n:
        raise PreconditionError("domain dimension does not match the constants")
    if eps != 0.0:  # 0 is the critical case
        _check_eps(eps)
    if bubble.center.shape[0] != n:
        raise PreconditionError("bubble center does not match the domain dimension")
    anchor = deep_point(domain)[0]
    if np.linalg.norm(bubble.center - anchor) > domain.bounding_radius(anchor):
        raise PreconditionError("bubble center must lie within the region's bounding ball")
    p = consts.p
    m = p + 1.0 - eps

    gradient_part = 0.5 * bubble_moment(n, p + 1.0)
    whole_mass = bubble.delta ** (eps * (n - 2.0) / 2.0) * bubble_moment(n, m)
    ext = exterior_bubble_mass(domain, bubble.delta, bubble.center, m, config)
    weighted_part = (whole_mass - 2.0 * ext.value) / m
    j = gradient_part - weighted_part
    j_std = 2.0 * ext.std_error / m
    return EnergyReport(
        j_eps=j,
        j_std=j_std,
        gradient_part=gradient_part,
        weighted_part=weighted_part,
        whole_mass=whole_mass,
        exterior_mass=ext.value,
        exponent=m,
        n_evals=ext.n_evals,
        converged=bool(ext.decay_ok and config.accepts(j, j_std)),
    )


# ---------------------------------------------------------------------------
# Expansion residual tables
# ---------------------------------------------------------------------------


@dataclass
class ResidualRow:
    small_parameter: float
    j_value: float
    j_std: float
    residual: float
    residual_std: float


@dataclass
class ResidualTable:
    regime: str
    rows: list
    parameters: dict


def _check_decreasing(values, name: str):
    values = _finite(values, f"{name} values").tolist()
    if len(values) < 2:
        raise PreconditionError(f"need at least two {name} values")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise PreconditionError(f"{name} values must be strictly decreasing")
    return values


def _check_eps_grid(eps_list) -> list:
    """The subcritical eps grid: strictly decreasing, every value in the range of ``_check_eps``."""
    eps_list = _check_decreasing(eps_list, "eps")
    for eps in eps_list:
        _check_eps(eps)
    return eps_list


def expansion_residual_sub(domain, xi, eps_list, consts: Constants, config: QuadratureConfig) -> ResidualTable:
    """Residuals of ``J = a + eps (b + Psi) + c eps ln eps`` on a shrinking grid.

    For each eps the single-bubble ansatz ``delta = d eps^(1/n)`` at ``xi``,
    ``d`` the optimal scale coefficient for ``psi(xi)``, is assembled, its
    energy measured, and the first-order expansion removed; the leftover is
    divided by eps.  Residuals shrinking roughly like sqrt(eps) certify the
    expansion.
    """
    eps_list = _check_eps_grid(eps_list)
    n = consts.n
    xi = np.asarray(xi, dtype=float).reshape(-1)
    ev = psi_integrals(domain, xi, config)
    d = optimal_d(consts, ev.value)
    psi_level = reduced_energy_sub(consts, ev.value, d)
    rows = []
    for eps in eps_list:
        delta = d * eps ** (1.0 / n)
        rep = energy(domain, Bubble(1, delta, xi), eps, consts, config)
        predicted = consts.a + consts.c * eps * math.log(eps) + eps * (consts.b + psi_level)
        residual = (rep.j_eps - predicted) / eps
        # the psi uncertainty enters the prediction linearly in eps
        res_std = math.sqrt((rep.j_std / eps) ** 2 + (consts.c1 * d**n * ev.value_std) ** 2)
        rows.append(ResidualRow(eps, rep.j_eps, rep.j_std, residual, res_std))
    return ResidualTable(
        regime="subcritical",
        rows=rows,
        parameters={"d": d, "psi_value": ev.value, "psi_std": ev.value_std, "reduced_energy": psi_level},
    )


def expansion_residual_hole(domain, rho_list, consts: Constants, config: QuadratureConfig, hole_center=None) -> ResidualTable:
    """Residuals of ``J = a + rho^(n/2) Phi(d, 0)`` for a shrinking hole.

    The hole of radius rho is carved out of the region at ``hole_center``
    (default: origin), the critical single-bubble ansatz ``delta = d sqrt(rho)``,
    ``d`` the reduced energy's critical point, is centered there, and the
    reduced-energy prediction is removed.
    """
    rho_list = _check_decreasing(rho_list, "rho")
    if rho_list[-1] <= 0.0:
        raise PreconditionError("rho values must be positive")
    n = consts.n
    center = np.zeros(n) if hole_center is None else np.asarray(hole_center, dtype=float).reshape(-1)
    depth = float(domain.depth_bound_many(center[None, :])[0])
    if depth <= 2.0 * rho_list[0]:
        raise PreconditionError("the hole center must be interior with clearance twice the largest rho")
    ev = psi_integrals(domain, center, config)
    b1 = consts.c1 * ev.value
    d = hole_critical_point(consts, b1)[0]
    phi = reduced_energy_hole(consts, b1, d, np.zeros(n))
    rows = []
    for rho in rho_list:
        holed = Domain(n, Difference(domain.root, Ball(center, rho)))
        delta = d * math.sqrt(rho)
        rep = energy(holed, Bubble(1, delta, center), 0.0, consts, config)
        predicted = consts.a + rho ** (n / 2.0) * phi
        residual = (rep.j_eps - predicted) / rho ** (n / 2.0)
        res_std = math.sqrt(
            (rep.j_std / rho ** (n / 2.0)) ** 2 + (consts.c1 * d**n * ev.value_std) ** 2
        )
        rows.append(ResidualRow(rho, rep.j_eps, rep.j_std, residual, res_std))
    return ResidualTable(
        regime="hole",
        rows=rows,
        parameters={"d": d, "b1": b1, "psi_value": ev.value, "psi_std": ev.value_std, "phi": phi},
    )
