"""Critical points of the concentration landscape.

Locates minima in two stages.  The starts come from the geometry: each
positive-leaf anchor inside the domain, or a deep interior point when none
is.  Each start runs a damped Newton descent at a light quadrature budget;
each light endpoint is then polished once by a full-budget Newton
iteration, unless it lies within the merge radius of a minimum already
polished, so every basin pays the full budget once (sample-size
continuation, Byrd, Chin, Nocedal and Wu 2012, with the basin test of
multi-level single linkage, Rinnooy Kan and Timmer 1987).  As there, the
merge radius comes from the domain (a tenth of its largest positive leaf
radius), so similar domains have similar censuses.  Sobol starts run only
as a counted fallback, in a leaf component left without a minimum.
Neighbouring minima are joined by a saddle: the highest node of the segment
between them is polished by a full Newton iteration (the mountain pass of
Ambrosetti and Rabinowitz 1973); both are assembled into a census, and the
census is audited for stability under random C^2-small domain
perturbations.

All derivative information comes from :func:`bubblescape.quadrature.
psi_integrals`, whose direction-orbit construction cancels odd noise at
mirror-symmetric points; Newton therefore converges essentially to machine
precision at symmetric critical points, and elsewhere down to the measured
noise floor.  ``_NEWTON_TOL`` is the acceptance bound on the final gradient
norm (inflated by three standard errors of the measured gradient noise), not
an early-stopping threshold.  Only full-budget points are reported, and
each passes that bound; ``_MORSE_TOL`` is the relative eigenvalue floor
below which a Hessian counts as degenerate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConvergenceError, PreconditionError
from .geometry import (
    PerturbationField,
    PerturbedDomain,
    _member,
    contains,
    deep_point,
    leaf_anchors,
    perturb,
    positive_leaf_components,
    sobol_points,
)
from .quadrature import QuadratureConfig, psi_integrals

__all__ = [
    "CritConfig",
    "CriticalPoint",
    "CensusReport",
    "MorseAudit",
    "Minima",
    "find_minima",
    "mountain_pass",
    "census",
    "morse_audit",
]

_NEWTON_ITERS = 80  # Newton steps before the acceptance check
_PATH_NODES = 11  # mountain-pass segment nodes, both endpoints included; odd, so one is on a mirror plane
_NEWTON_TOL = 1e-3  # accepted final gradient norm, before three standard errors of noise
_MORSE_TOL = 1e-6  # relative eigenvalue floor of a nondegenerate Hessian


@dataclass(frozen=True)
class CritConfig:
    """Knobs for critical-point search.

    ``multistart`` caps :func:`find_minima`'s fallback Sobol starts per leaf.
    The merge radius is not a knob: :func:`_merge_radius` derives it from the domain.
    """

    multistart: int = 12

    def __post_init__(self):
        if self.multistart < 1:
            raise PreconditionError("multistart must be at least 1")


def _merge_radius(domain) -> float:
    """Distance within which two points are one: a tenth of the largest positive leaf radius of the (base) domain."""
    base = domain.base if isinstance(domain, PerturbedDomain) else domain
    return 0.1 * max(leaf.radius for leaf, sign in base.leaves() if sign > 0)


@dataclass
class CriticalPoint:
    """A located critical point with its local classification.

    ``psi_std`` is the standard error of ``psi_value``; it orders the census
    and is not written by :meth:`to_dict`.
    """

    location: np.ndarray
    psi_value: float
    grad_norm: float
    grad_std: float
    hess_eigs: np.ndarray  # ascending
    morse_index: int
    nondegenerate: bool
    psi_std: float = 0.0

    def margin(self) -> float:
        """Scale-free nondegeneracy margin ``|det H| / ||H||_op^n``."""
        eigs = np.abs(self.hess_eigs)
        top = float(eigs.max())
        if top == 0.0:
            return 0.0
        return float(np.prod(eigs / top))

    def to_dict(self) -> dict:
        return {
            "location": [float(v) for v in self.location],
            "psi_value": float(self.psi_value),
            "grad_norm": float(self.grad_norm),
            "grad_std": float(self.grad_std),
            "hess_eigs": [float(v) for v in self.hess_eigs],
            "morse_index": int(self.morse_index),
            "nondegenerate": bool(self.nondegenerate),
            "margin": self.margin(),
        }


@dataclass
class CensusReport:
    """Minima and joining saddles, a topological richness check, and :class:`Minima`'s counts (not in ``to_dict``)."""

    points: list
    cat_lower_bound: int
    satisfied: bool
    fallback_descents: int = 0
    dropped_starts: int = 0

    @property
    def minima(self):
        return [p for p in self.points if p.morse_index == 0]

    @property
    def saddles(self):
        return [p for p in self.points if p.morse_index > 0]

    def to_dict(self) -> dict:
        return {
            "points": [p.to_dict() for p in self.points],
            "cat_lower_bound": int(self.cat_lower_bound),
            "satisfied": bool(self.satisfied),
        }


@dataclass
class MorseAudit:
    """Stability of the census under random C^2-small boundary deformations."""

    trials: int
    rho: float
    stable: bool
    base: CensusReport
    min_margin: float
    max_displacement: float
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "trials": int(self.trials),
            "rho": float(self.rho),
            "stable": bool(self.stable),
            "base": self.base.to_dict(),
            "min_margin": float(self.min_margin),
            "max_displacement": float(self.max_displacement),
            "failures": [str(f) for f in self.failures],
        }


# ---------------------------------------------------------------------------
# Newton iteration with noise-aware acceptance
# ---------------------------------------------------------------------------


def _lex_key(x: np.ndarray):
    return tuple(float(v) for v in x)


def _newton(domain, x0, quad_cfg: QuadratureConfig, pd_floor: bool, scale: float):
    """Newton iteration on ``grad psi = 0``, down to the measured noise floor.

    ``pd_floor=True`` floors Hessian eigenvalues from below (descent toward
    minima); ``pd_floor=False`` floors their magnitudes preserving signs, so
    the iteration converges to the nearest critical point of any index.
    With ``pd_floor=False`` each accepted step ``s`` also corrects the
    measured Hessian ``H`` by the symmetric rank-one secant update
    ``H + r r^T / (r.s)``, ``r = y - H s``, ``y`` the gradient change over
    ``s`` (Nocedal and Wright, Numerical Optimization, 2nd ed., 6.2).  Every
    point shares the direction fans, so ``y`` is a common-random-number
    difference, far less noisy than ``H`` near a saddle on a thin neck; SR1
    keeps the indefinite curvature a saddle needs.  Returns where it
    stopped; :func:`_polish` verifies the ``_NEWTON_TOL`` contract.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not contains(domain, x):
        raise PreconditionError("Newton start must lie inside the region")
    ev = psi_integrals(domain, x, quad_cfg)
    H = ev.hessian
    for _ in range(_NEWTON_ITERS):
        g = ev.gradient
        gn = float(np.linalg.norm(g))
        sig = float(np.linalg.norm(ev.gradient_std))
        floor = 1e-13 * max(1.0, abs(ev.value))
        if gn <= max(floor, 3.0 * sig):
            break
        w, V = np.linalg.eigh(H)
        amax = max(float(np.max(np.abs(w))), 1e-300)
        if pd_floor:
            w2 = np.maximum(w, 1e-4 * amax)
        else:
            signs = np.where(w >= 0.0, 1.0, -1.0)
            w2 = signs * np.maximum(np.abs(w), 1e-4 * amax)
        step = -V @ ((V.T @ g) / w2)
        slen = float(np.linalg.norm(step))
        if slen < 1e-14 * scale:
            break
        if slen > 0.5 * scale:
            step *= 0.5 * scale / slen
        lam = 1.0
        accepted = False
        for _ in range(12):
            xn = x + lam * step
            if contains(domain, xn):
                evn = psi_integrals(domain, xn, quad_cfg)
                gnn = float(np.linalg.norm(evn.gradient))
                sn = float(np.linalg.norm(evn.gradient_std))
                if gnn <= (1.0 - 0.25 * lam) * gn + 3.0 * (sig + sn):
                    s, H = xn - x, evn.hessian
                    if not pd_floor:
                        r = evn.gradient - g - H @ s
                        rs = float(r @ s)
                        if abs(rs) > 1e-8 * float(np.linalg.norm(r)) * float(np.linalg.norm(s)):
                            H = H + np.outer(r, r) / rs
                    x, ev = xn, evn
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            break
    return x, ev


def _polish(domain, x0, quad_cfg: QuadratureConfig, scale: float, pd_floor: bool) -> CriticalPoint:
    """Newton from ``x0`` at ``quad_cfg``, classified by its Hessian.

    Raises ``ConvergenceError`` unless the final gradient norm is within
    ``_NEWTON_TOL`` plus three standard errors of the measured noise.
    """
    x, ev = _newton(domain, x0, quad_cfg, pd_floor=pd_floor, scale=scale)
    gn = float(np.linalg.norm(ev.gradient))
    sig = float(np.linalg.norm(ev.gradient_std))
    if gn > _NEWTON_TOL + 3.0 * sig:
        raise ConvergenceError(f"Newton stalled at gradient norm {gn:.3e} (noise {sig:.3e}, tol {_NEWTON_TOL:.3e})")
    eigs = np.sort(np.linalg.eigvalsh(ev.hessian))
    amax = max(float(np.max(np.abs(eigs))), 1e-300)
    return CriticalPoint(
        location=x,
        psi_value=float(ev.value),
        grad_norm=gn,
        grad_std=sig,
        hess_eigs=eigs,
        morse_index=int(np.sum(eigs < 0.0)),
        nondegenerate=bool(np.min(np.abs(eigs)) > _MORSE_TOL * amax),
        psi_std=float(ev.value_std),
    )


def _dedupe(points: list, radius: float) -> list:
    """Merge points within ``radius``, keeping the lowest landscape value, in census order.

    Census order is by psi value, but values within their combined standard
    error ``sqrt(std_i^2 + std_j^2)`` are a tie: each run of consecutive
    points within that bound of the run's first point is ordered by
    location, so mirror-image points whose values differ by round-off keep
    one order.
    """
    kept: list = []
    for p in sorted(points, key=lambda p: (p.psi_value, _lex_key(p.location))):
        if all(np.linalg.norm(p.location - q.location) > radius for q in kept):
            kept.append(p)
    runs: list = []
    for p in kept:
        if runs and p.psi_value - runs[-1][0].psi_value <= math.hypot(p.psi_std, runs[-1][0].psi_std):
            runs[-1].append(p)
        else:
            runs.append([p])
    return [p for run in runs for p in sorted(run, key=lambda p: _lex_key(p.location))]


class Minima(list):
    """Minima in census order, counting the fallback descents run and the starts dropped on ``ConvergenceError``."""

    def __init__(self, points, fallback_descents: int = 0, dropped_starts: int = 0):
        super().__init__(points)
        self.fallback_descents, self.dropped_starts = fallback_descents, dropped_starts


def _component_of(comps: list, x: np.ndarray) -> int:
    """Index of the positive leaf component holding ``x``, or -1."""
    return next((ci for ci, comp in enumerate(comps) if any(_member(leaf, x[None, :])[0] for leaf in comp)), -1)


def find_minima(domain, quad_cfg: QuadratureConfig, crit_cfg: CritConfig | None = None) -> Minima:
    """Local landscape minima: light descent from every start, one full polish per basin.

    The starts are every positive-leaf anchor inside the domain (each
    distinct point once, in lexicographic order), or :func:`deep_point` when
    none is inside.  Each start descends at :func:`_light_config`; its
    endpoint is polished at ``quad_cfg`` unless it lies within
    :func:`_merge_radius` of a minimum polished earlier.  A polished point is
    kept when :func:`_polish` accepts it and it has Morse index 0.  A positive
    leaf component that then holds no minimum gets fallback starts: in each
    leaf, the first ``multistart`` Sobol points of its axis-aligned box,
    scrambled from ``quad_cfg.seed``, that lie in the leaf and the domain.  No
    start certifies a complete census: a component split by carving, or a
    missing minimum-saddle pair, does not fire the fallback.
    """
    cfg = crit_cfg or CritConfig()
    radius = _merge_radius(domain)
    anchor = deep_point(domain)[0]
    scale = float(domain.bounding_radius(anchor))
    comps = positive_leaf_components(domain)
    anchors = [c for comp in comps for leaf in comp for c in leaf_anchors(leaf)]
    starts = []
    if anchors:
        A = np.unique(np.array(anchors), axis=0)
        starts = list(A[domain.contains_many(A)])
    if not starts:
        starts = [anchor]

    found, dropped = [], 0

    def descend(x0):
        nonlocal dropped
        x, _ = _newton(domain, x0, _light_config(quad_cfg), pd_floor=True, scale=scale)
        if any(np.linalg.norm(x - p.location) <= radius for p in found):
            return
        try:
            p = _polish(domain, x, quad_cfg, scale, pd_floor=True)
        except ConvergenceError:
            dropped += 1
            return
        if p.morse_index == 0:
            found.append(p)

    for x0 in starts:
        descend(x0)
    held = {_component_of(comps, p.location) for p in found}
    extra = []
    for leaf in [leaf for ci, comp in enumerate(comps) if ci not in held for leaf in comp]:
        lo, hi = np.minimum(leaf.a, leaf.b) - leaf.radius, np.maximum(leaf.a, leaf.b) + leaf.radius
        pts = lo + sobol_points(domain.dimension, 8 * cfg.multistart, (int(quad_cfg.seed), 0xC417)) * (hi - lo)
        extra += list(pts[_member(leaf, pts) & domain.contains_many(pts)][: cfg.multistart])
    for x0 in extra:
        descend(x0)
    if not found:
        raise ConvergenceError("no landscape minimum could be located")
    return Minima(_dedupe(found, radius), len(extra), dropped)


def _light_config(quad_cfg: QuadratureConfig) -> QuadratureConfig:
    budget, replicates = max(1024, quad_cfg.near_budget // 8), max(2, quad_cfg.replicates // 4)
    return dataclasses.replace(quad_cfg, near_budget=budget, replicates=replicates)


def mountain_pass(domain, x1, x2, quad_cfg: QuadratureConfig, crit_cfg: CritConfig | None = None):
    """Separating saddle between two minima: Newton from the top of the segment joining them.

    The segment must lie inside the region: one ray query
    (``surface_crossing_candidates``) must find no membership flip on it.
    Its interior nodes, of ``_PATH_NODES`` evenly spaced, are evaluated at
    :func:`_light_config`, and the highest seeds a full Newton polish with
    signed curvature (:func:`_polish`).  The endpoints are taken in ascending coordinate order,
    so swapping them returns the same saddle.  Raises if the polished point
    is not a genuine barrier (positive index, away from both endpoints).
    ``crit_cfg`` is unused; it is accepted so that :func:`census` calls its
    routines alike.
    """
    radius = _merge_radius(domain)
    x1, x2 = sorted((np.asarray(x, dtype=float).reshape(-1) for x in (x1, x2)), key=_lex_key)
    if not (contains(domain, x1) and contains(domain, x2)):
        raise PreconditionError("both endpoints must lie inside the region")
    length = float(np.linalg.norm(x2 - x1))
    if length <= radius:
        raise PreconditionError("endpoints are too close to separate")
    ray, *_ = domain.surface_crossing_candidates(x1, ((x2 - x1) / length)[None, :], length)
    if np.any(ray == 0):  # ray 1 runs backward from x1, off the segment
        raise ConvergenceError("the segment between the two minima leaves the region")
    scale = float(domain.bounding_radius(deep_point(domain)[0]))
    light = _light_config(quad_cfg)

    nodes = np.linspace(0.0, 1.0, _PATH_NODES)[1:-1, None] * (x2 - x1)[None, :] + x1[None, :]
    peak = max(nodes, key=lambda x: psi_integrals(domain, x, light).value)
    p = _polish(domain, peak, quad_cfg, scale, pd_floor=False)
    if min(float(np.linalg.norm(p.location - x1)), float(np.linalg.norm(p.location - x2))) <= radius:
        raise ConvergenceError("the saddle polish fell back onto an endpoint")
    if p.morse_index == 0:
        raise ConvergenceError("no barrier separates the endpoints (polish found a minimum)")
    return p


def census(domain, quad_cfg: QuadratureConfig, crit_cfg: CritConfig | None = None, warm_starts=None) -> CensusReport:
    """Minima plus the saddles that join the minima of each positive leaf component.

    Same-component pairs of minima are taken nearest first (ties by index),
    and :func:`mountain_pass` searches a pair only if the saddles found so
    far do not already join its two minima, so the saddles form a minimum
    spanning forest (Kruskal 1956).  With ``warm_starts`` (an iterable of
    critical points or locations) the census is re-established by polishing
    each start on this domain instead of searching from scratch — the mode
    used by the perturbation audit.
    """
    radius = _merge_radius(domain)
    scale = float(domain.bounding_radius(deep_point(domain)[0]))
    comps = positive_leaf_components(domain)

    if warm_starts is not None:
        pts = [
            _polish(domain, w.location if isinstance(w, CriticalPoint) else w, quad_cfg, scale, pd_floor=False)
            for w in warm_starts
        ]
        minima = Minima(_dedupe([p for p in pts if p.morse_index == 0], radius))
        saddles = _dedupe([p for p in pts if p.morse_index > 0], radius)
    else:
        minima = find_minima(domain, quad_cfg, crit_cfg)
        locs = [p.location for p in minima]
        cid = [_component_of(comps, x) for x in locs]
        pairs = [(i, j) for i in range(len(locs)) for j in range(i + 1, len(locs)) if cid[i] == cid[j] >= 0]
        pairs.sort(key=lambda ij: (float(np.linalg.norm(locs[ij[0]] - locs[ij[1]])), ij))
        label = list(range(len(locs)))  # minima joined by the saddles so far share a label
        saddles = []
        for i, j in pairs:
            if label[i] != label[j]:
                saddles.append(mountain_pass(domain, locs[i], locs[j], quad_cfg, crit_cfg))
                label = [label[i] if lab == label[j] else lab for lab in label]
        saddles = _dedupe(saddles, radius)

    cat = len(comps)
    # both lists come from _dedupe, already in census order
    return CensusReport(minima + saddles, cat, len(minima) >= cat, minima.fallback_descents, minima.dropped_starts)


def morse_audit(
    domain, rho: float, trials: int, quad_cfg: QuadratureConfig, crit_cfg: CritConfig | None = None
) -> MorseAudit:
    """Census stability under random boundary deformations of C^2 size rho.

    Each trial perturbs the domain by a bump field drawn from
    ``quad_cfg.seed``, rescaled to C^2 norm ``rho``, re-polishes the census
    points on the deformed domain, and verifies that every point survives
    with the same Morse index, nondegenerate Hessian, and a displacement
    comparable to ``rho``.  Base and re-polished points are paired by the
    assignment of least total displacement, so a swapped pair neither fakes
    a failure nor hides one.
    """
    if not 0.0 < rho < 0.5:
        raise PreconditionError("the perturbation size must lie in (0, 0.5)")
    if trials < 1:
        raise PreconditionError("need at least one trial")
    base = census(domain, quad_cfg, crit_cfg)
    anchor = deep_point(domain)[0]
    scale = float(domain.bounding_radius(anchor))

    failures: list = []
    min_margin = min((p.margin() for p in base.points), default=0.0)
    max_disp = 0.0
    for t in range(trials):
        sub_seed = int(np.random.SeedSequence((int(quad_cfg.seed), 0xA0D1, t)).generate_state(1)[0])
        fld = PerturbationField.random(
            domain.dimension, bumps=3, seed=sub_seed, support_center=anchor, support_radius=1.2 * scale
        ).with_c2_norm(rho)
        pdom = perturb(domain, fld)
        try:
            rep = census(pdom, _light_config(quad_cfg), crit_cfg, warm_starts=base.points)
        except (ConvergenceError, PreconditionError) as exc:
            failures.append(f"trial {t}: census failed: {exc}")
            continue
        if len(rep.points) != len(base.points):
            failures.append(f"trial {t}: point count changed from {len(base.points)} to {len(rep.points)}")
            continue
        cost = np.array([[np.linalg.norm(bp.location - rp.location) for rp in rep.points] for bp in base.points])
        for i, k in zip(*linear_sum_assignment(cost)):
            bp, rp, dist = base.points[i], rep.points[k], float(cost[i, k])
            max_disp = max(max_disp, dist)
            if dist > 0.25 * scale:
                failures.append(f"trial {t}: a critical point moved by {dist:.3f}")
            if rp.morse_index != bp.morse_index:
                failures.append(f"trial {t}: Morse index flipped {bp.morse_index} -> {rp.morse_index}")
            if not rp.nondegenerate:
                failures.append(f"trial {t}: a Hessian became degenerate")
            min_margin = min(min_margin, rp.margin())
    return MorseAudit(trials, rho, not failures, base, min_margin, max_disp, failures)
