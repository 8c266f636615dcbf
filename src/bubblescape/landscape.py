"""Dimensional constants, reduced energies, and blow-up rate predictions.

Three concentration regimes share one bookkeeping scheme:

* slightly subcritical interior bubble: the reduced energy in the scale
  variable d is ``Psi(d) = c1 * psi(xi) * d^n - c2 * ln d``, minimized at
  ``optimal_d``; the bubble scale follows ``delta = d* eps^(1/n)``;
* two boundary bubbles of opposite sign: the reduced energy splits into a
  leading part Xi (bubble-bubble interaction plus logarithmic self-energy)
  and a next-order part Upsilon (separation drift plus wall repulsion) in the
  variables ``d1, d2, t1, t2`` anchored at a diameter-realizing boundary
  pair; Xi fixes the scale product ``d1 d2 = sbar^2`` and Upsilon separates,
  so its minimizer over the split ``r = sqrt(d1/d2)`` and ``t1, t2`` is
  closed-form; scales follow ``delta_j = d_j eps^(1/(n-2))`` and wall
  distances ``tau_j = t_j eps^(2/((n-2)(n+1)))``;
* critical problem with a shrinking hole of radius rho: the reduced energy
  ``Phi(d, zeta) = b1 d^n + b2 d^(-n) (1 + |zeta|^2)^(-n)`` has a saddle at
  ``d0 = (b2/b1)^(1/(2n))``, ``zeta = 0``; the scale follows
  ``delta = d0 sqrt(rho)``.

All dimension-dependent constants are produced by :func:`constants`: Beta
integrals for the bubble's whole-space mass and the half-space wall kernel,
a Beta-digamma closed form for its log-weighted moment, and closed forms for
the couplings; no constant needs a quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import ConvergenceError, PreconditionError
from .geometry import BoundaryPoint, _as_point, deep_point, diameter_pair
from .quadrature import QuadratureConfig, bubble_alpha, bubble_moment, psi_integrals, sphere_area

__all__ = [
    "Constants",
    "RatePrediction",
    "constants",
    "reduced_energy_sub",
    "optimal_d",
    "predict_subcritical",
    "reduced_energy_nodal",
    "predict_nodal",
    "reduced_energy_hole",
    "hole_critical_point",
    "predict_hole",
]


@dataclass(frozen=True)
class Constants:
    """Dimension-dependent coefficients of the reduced energies.

    ``critical_mass`` is the whole-space mass of ``U^(p+1)`` for the standard
    bubble U and ``log_mass`` the corresponding ``U^(p+1) ln U`` moment; the
    derived coefficients are

    * ``a``      constant energy level of one bubble,
    * ``b``      linear-in-eps level shift,
    * ``c``      coefficient of the ``eps ln eps`` level term,
    * ``c1``     weight of ``psi(xi) d^n`` in the subcritical reduced energy,
    * ``c2``     weight of ``ln d``, and of ``ln(d1 d2)`` in the nodal one,
    * ``c1_nodal``, ``c3_nodal``, ``c4_nodal``  the two-bubble interaction coefficients,
    * ``b2_hole``  the hole-repulsion weight ``c1 * |B_1|``.

    Each field's ``provenance`` metadata says how its value is obtained.
    """

    n: int = field(metadata={"provenance": "input dimension"})
    p: float = field(metadata={"provenance": "closed form"})
    critical_mass: float = field(metadata={"provenance": "Beta integral of the bubble profile"})
    log_mass: float = field(metadata={"provenance": "Beta-digamma closed form of the log-weighted bubble moment"})
    a: float = field(metadata={"provenance": "Beta integral (leading energy level)"})
    b: float = field(metadata={"provenance": "Beta-digamma closed form of the log-weighted moment (first-order coefficient)"})
    c: float = field(metadata={"provenance": "Beta integral (log-term coefficient)"})
    c1: float = field(metadata={"provenance": "closed form (landscape coupling)"})
    c2: float = field(metadata={"provenance": "Beta integral (log-derivative coupling)"})
    c1_nodal: float = field(metadata={"provenance": "closed form (pair interaction)"})
    c3_nodal: float = field(metadata={"provenance": "closed form (pair interaction)"})
    c4_nodal: float = field(metadata={"provenance": "Beta integral (half-space wall kernel)"})
    b2_hole: float = field(metadata={"provenance": "closed form (hole coupling)"})


def _half_space_kernel(n: int) -> float:
    """Integral of |y - e_n|^(-2n) over the half-space y_n < 0.

    Radial reduction: the (n-1)-dimensional slice at depth s integrates to
    ``omega_(n-2) * kappa * (1+s)^(-(n+1))`` with the Beta integral
    ``kappa = B((n-1)/2, (n+1)/2) / 2``, and the depth integral is exact.
    """
    return sphere_area(n - 1) * 0.5 * float(special.beta((n - 1) / 2.0, (n + 1) / 2.0)) / n


@lru_cache(maxsize=None)
def constants(n: int) -> Constants:
    """Reduced-energy constants for dimension ``3 <= n <= 8``."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise PreconditionError("dimension must be an integer")
    n = int(n)
    if not 3 <= n <= 8:
        raise PreconditionError("constants are defined for dimensions 3 through 8")
    p = (n + 2.0) / (n - 2.0)
    m = p + 1.0
    alpha = bubble_alpha(n)
    M = bubble_moment(n, m)
    L = bubble_moment(n, m, log_weight=True)
    c1 = 2.0 * alpha**m / m
    ball_volume = sphere_area(n) / n
    c1_nodal = alpha**m * ball_volume
    return Constants(
        n=n,
        p=p,
        critical_mass=M,
        log_mass=L,
        a=M / n,
        b=L / m - M / (m * m),
        c=-M / (m * m),
        c1=c1,
        c2=n * M / (m * m),
        c1_nodal=c1_nodal,
        c3_nodal=(n - 2.0) * c1_nodal,
        c4_nodal=(2.0 / m) * alpha**m * _half_space_kernel(n),
        b2_hole=c1 * ball_volume,
    )


# ---------------------------------------------------------------------------
# Rate predictions
# ---------------------------------------------------------------------------


@dataclass
class RatePrediction:
    """Concentration parameters as functions of the small parameter.

    ``delta(eps)`` returns one scale per bubble, ``tau(eps)`` the boundary
    distances (zero for interior regimes), ``centers(eps)`` the predicted
    concentration points, and ``signs`` the bubble orientations; the
    dimension is the width of ``anchors``.
    """

    regime: str
    parameters: dict
    anchors: np.ndarray  # (k, n) anchor points (centers or boundary points)
    normals: np.ndarray  # (k, n) inner normals (zero rows for interior)
    signs: tuple
    delta_coeff: np.ndarray  # (k,)
    delta_exponent: float
    tau_coeff: np.ndarray  # (k,)
    tau_exponent: float

    def delta(self, eps: float) -> np.ndarray:
        return self.delta_coeff * float(eps) ** self.delta_exponent

    def tau(self, eps: float) -> np.ndarray:
        return self.tau_coeff * float(eps) ** self.tau_exponent

    def centers(self, eps: float) -> np.ndarray:
        return self.anchors + self.tau(eps)[:, None] * self.normals


def _interior_prediction(
    regime: str, parameters: dict, anchor: np.ndarray, delta_coeff: float, delta_exponent: float
) -> RatePrediction:
    """One positive bubble fixed at the interior point ``anchor``: no wall distance."""
    return RatePrediction(
        regime=regime,
        parameters=parameters,
        anchors=anchor[None, :],
        normals=np.zeros((1, anchor.size)),
        signs=(1,),
        delta_coeff=np.array([delta_coeff]),
        delta_exponent=delta_exponent,
        tau_coeff=np.zeros(1),
        tau_exponent=1.0,
    )


def reduced_energy_sub(consts: Constants, psi_val: float, d: float) -> float:
    """Subcritical reduced energy ``c1 psi d^n - c2 ln d``."""
    if not psi_val > 0.0:
        raise PreconditionError("landscape value must be positive")
    if not d > 0.0:
        raise PreconditionError("bubble scale d must be positive")
    n = consts.n
    return consts.c1 * psi_val * d**n - consts.c2 * math.log(d)


def optimal_d(consts: Constants, psi_val: float) -> float:
    """Unique minimizer of the subcritical reduced energy."""
    if not psi_val > 0.0:
        raise PreconditionError("landscape value must be positive")
    n = consts.n
    return (consts.c2 / (n * consts.c1 * psi_val)) ** (1.0 / n)


def predict_subcritical(domain, eps: float, xi_star, consts: Constants, config: QuadratureConfig) -> RatePrediction:
    """Blow-up rate for one interior bubble at a landscape minimizer.

    Evaluates the landscape at ``xi_star``, minimizes the reduced energy in
    the scale variable, and packages ``delta(eps) = d* eps^(1/n)`` with the
    fixed concentration point.  Requires ``0 < eps < 0.2``.
    """
    _check_eps(eps)
    n = consts.n
    xi_star = np.asarray(xi_star, dtype=float).reshape(-1)
    ev = psi_integrals(domain, xi_star, config)
    d_star = optimal_d(consts, ev.value)
    level = reduced_energy_sub(consts, ev.value, d_star)
    return _interior_prediction(
        regime="subcritical",
        parameters={
            "d_star": d_star,
            "psi_value": ev.value,
            "psi_std": ev.value_std,
            "reduced_energy": level,
            "eps": float(eps),
        },
        anchor=xi_star,
        delta_coeff=d_star,
        delta_exponent=1.0 / n,
    )


def _check_eps(eps: float):
    if not 0.0 < eps < 0.2:
        raise PreconditionError("the subcriticality parameter must lie in (0, 0.2)")


# ---------------------------------------------------------------------------
# Nodal (two boundary bubbles of opposite sign)
# ---------------------------------------------------------------------------


def _canonical_nodal_order(d1, d2, t1, t2, eta1: BoundaryPoint, eta2: BoundaryPoint):
    k1 = (float(d1), float(t1), tuple(map(float, eta1.point)), tuple(map(float, eta1.inner_normal)))
    k2 = (float(d2), float(t2), tuple(map(float, eta2.point)), tuple(map(float, eta2.inner_normal)))
    if k2 > k1:
        return d2, d1, t2, t1, eta2, eta1
    return d1, d2, t1, t2, eta1, eta2


def reduced_energy_nodal(
    consts: Constants,
    d1: float,
    d2: float,
    t1: float,
    t2: float,
    eta1: BoundaryPoint,
    eta2: BoundaryPoint,
) -> float:
    """Two-bubble reduced energy ``Xi + Upsilon``.

    ``Xi`` couples the bubble scales through the boundary separation;
    ``Upsilon`` adds the separation drift of the wall offsets and the wall
    repulsion.  The pair is reordered canonically before evaluation, so the
    value is bitwise invariant under swapping the two bubbles.
    """
    n = consts.n
    if min(d1, d2, t1, t2) <= 0.0:
        raise PreconditionError("scales and wall distances must be positive")
    d1, d2, t1, t2, eta1, eta2 = _canonical_nodal_order(d1, d2, t1, t2, eta1, eta2)
    diff = np.asarray(eta1.point, dtype=float) - np.asarray(eta2.point, dtype=float)
    sep = float(np.linalg.norm(diff))
    if sep <= 0.0:
        raise PreconditionError("boundary anchors must be distinct")
    prod = d1 * d2
    xi_term = consts.c1_nodal * prod ** ((n - 2.0) / 2.0) / sep ** (n - 2.0) - consts.c2 * math.log(prod)
    drift = float(diff @ (t1 * np.asarray(eta1.inner_normal) - t2 * np.asarray(eta2.inner_normal)))
    upsilon = (
        -consts.c3_nodal * prod ** ((n - 2.0) / 2.0) * drift / sep**n
        + consts.c4_nodal * ((d1 / t1) ** n + (d2 / t2) ** n)
    )
    return xi_term + upsilon


def predict_nodal(
    domain,
    eps: float,
    consts: Constants,
    config: QuadratureConfig,
) -> RatePrediction:
    """Blow-up rates for an opposite-sign boundary pair at the diameter.

    Anchors the two bubbles at a diameter-realizing boundary pair and fixes
    the scale product ``d1 d2 = sbar^2`` from the leading reduced energy.
    With ``d1 = r sbar``, ``d2 = sbar / r`` the next-order part is
    ``w1 t1 + w2 t2 + c4 (r sbar / t1)^n + c4 (sbar / (r t2))^n``, whose
    drift weights are ``w1 = -kappa a1``, ``w2 = kappa a2`` with
    ``kappa = c3 sbar^(n-2) / sep^(n-1)`` and ``a_j`` the normals' components
    along the separation axis.  Its exact minimizer is
    ``t1 = u1 r^(n/(n+1))``, ``t2 = u2 r^(-n/(n+1))`` with
    ``u_j = (n c4 sbar^n / w_j)^(1/(n+1))`` and ``r = sqrt(w2 / w1)``.
    """
    _check_eps(eps)
    n = consts.n
    deep_point(domain)  # an empty or too-thin domain is a precondition error, not a failed search
    bp1, bp2 = diameter_pair(domain)
    diff = bp1.point - bp2.point
    sep = float(np.linalg.norm(diff))
    e = diff / sep
    a1 = float(e @ bp1.inner_normal)
    a2 = float(e @ bp2.inner_normal)
    if abs(a1 + 1.0) > 1e-6 or abs(a2 - 1.0) > 1e-6:
        raise ConvergenceError(
            "diameter normals are not aligned with the separation axis; "
            "the two-bubble ansatz needs facing boundary caps"
        )
    sbar = sep * (2.0 * consts.c2 / ((n - 2.0) * consts.c1_nodal)) ** (1.0 / (n - 2.0))
    # drift weights of t1 and t2, both positive because the normals face each other
    kappa = consts.c3_nodal * sbar ** (n - 2.0) / sep ** (n - 1.0)
    w1 = -kappa * a1
    w2 = kappa * a2
    r = math.sqrt(w2 / w1)
    t1 = (n * consts.c4_nodal * sbar**n / w1) ** (1.0 / (n + 1.0)) * r ** (n / (n + 1.0))
    t2 = (n * consts.c4_nodal * sbar**n / w2) ** (1.0 / (n + 1.0)) * r ** (-n / (n + 1.0))
    d1 = r * sbar
    d2 = sbar / r
    value = reduced_energy_nodal(consts, d1, d2, t1, t2, bp1, bp2)
    return RatePrediction(
        regime="nodal",
        parameters={
            "d1": d1,
            "d2": d2,
            "t1": t1,
            "t2": t2,
            "separation": sep,
            "reduced_energy": value,
            "eps": float(eps),
        },
        anchors=np.stack([bp1.point, bp2.point]),
        normals=np.stack([bp1.inner_normal, bp2.inner_normal]),
        signs=(1, -1),
        delta_coeff=np.array([d1, d2]),
        delta_exponent=1.0 / (n - 2.0),
        tau_coeff=np.array([t1, t2]),
        tau_exponent=2.0 / ((n - 2.0) * (n + 1.0)),
    )


# ---------------------------------------------------------------------------
# Shrinking hole at criticality
# ---------------------------------------------------------------------------


def reduced_energy_hole(consts: Constants, b1: float, d: float, zeta) -> float:
    """Hole-regime reduced energy ``b1 d^n + b2 d^(-n) (1+|zeta|^2)^(-n)``.

    ``b1 = c1 * psi`` takes the landscape of the *unholed* domain at the
    hole's center; the hole enters only through the universal repulsion
    weight ``b2``.
    """
    if not d > 0.0:
        raise PreconditionError("bubble scale d must be positive")
    n = consts.n
    zeta = _as_point(zeta, n)
    return b1 * d**n + consts.b2_hole * d**-n * (1.0 + float(zeta @ zeta)) ** -n


def hole_critical_point(consts: Constants, b1: float):
    """Saddle of the hole reduced energy: ``d0 = (b2/b1)^(1/(2n))``, zeta 0."""
    if not b1 > 0.0:
        raise PreconditionError("b1 must be positive")
    n = consts.n
    d0 = (consts.b2_hole / b1) ** (1.0 / (2.0 * n))
    return d0, np.zeros(n)


def predict_hole(domain, rho: float, consts: Constants, config: QuadratureConfig) -> RatePrediction:
    """Blow-up rate for the critical problem with a hole of radius rho."""
    if not 0.0 < rho < 0.5:
        raise PreconditionError("the hole radius must lie in (0, 0.5)")
    n = consts.n
    ev = psi_integrals(domain, np.zeros(n), config)
    b1 = consts.c1 * ev.value
    d0, zeta0 = hole_critical_point(consts, b1)
    level = reduced_energy_hole(consts, b1, d0, zeta0)
    return _interior_prediction(
        regime="hole",
        parameters={
            "d0": d0,
            "b1": b1,
            "b2": consts.b2_hole,
            "psi_value": ev.value,
            "psi_std": ev.value_std,
            "reduced_energy": level,
            "rho": float(rho),
        },
        anchor=zeta0,
        delta_coeff=d0,
        delta_exponent=0.5,
    )
