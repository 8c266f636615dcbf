"""Constructive solid geometry in n dimensions.

Domains are finite unions and differences of open balls and capsules,
optionally translated and rescaled.  The module provides exact membership
tests, exact ray classification, conservative interior-depth bounds,
enclosing radii, boundary projections with inner normals, diameter pairs
(exact for unions of leaves, refused when carving removes a longer pair),
and smooth volume-preservation-free perturbations ``y = x + theta(x)`` with
certified small C^2 norm.

Ray classification: every leaf is convex, so a ray meets it in one span of
parameters.  Membership along the ray is a comparison of the ray parameter
with those spans, combined down the CSG tree like point membership; the
parameters where it flips are the ray's boundary crossings.  On a perturbed
domain each leaf's surface can only be crossed inside band windows of the
same spans, where a certificate admits one root, solved on the pulled-back
leaf; rays the certificate does not cover take a membership scan.

All queries are deterministic.  Batched variants operate on ``(m, n)`` arrays
of row points and are the workhorses of the quadrature layer; scalar wrappers
accept a single point.

Conventions
-----------
* Membership is open: a point exactly on a surface is outside.  Set
  differences remove the closed subtrahend, so the boundary shell of a hole
  is excluded from the domain.
* ``depth_bound`` is positive inside, negative outside, and conservative:
  the open ball of that radius around an interior point is certified to stay
  inside the domain.
* Inner normals point from the boundary into the domain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from .errors import ConvergenceError, PreconditionError

__all__ = [
    "Ball",
    "Capsule",
    "Union",
    "Difference",
    "Translate",
    "Scale",
    "Domain",
    "PerturbedDomain",
    "BoundaryPoint",
    "PerturbationField",
    "contains",
    "boundary_nearest",
    "diameter_pair",
    "perturb",
    "deep_point",
    "positive_leaf_components",
    "domain_from_dict",
    "load_domain",
]

_EPS_FLIP = 1e-9  # relative probe offset for boundary membership flips


def _as_point(x, n: int) -> np.ndarray:
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.shape != (n,):
        raise PreconditionError(f"expected a point of dimension {n}, got shape {p.shape}")
    return p


def _finite(value, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise PreconditionError(f"{what} must be finite")
    return arr


def sphere_points(U: np.ndarray) -> np.ndarray:
    """Map rows of the unit cube to unit vectors (Gaussian quantiles, normalized).

    The clip keeps the quantiles finite at cube corners; a row whose
    quantile vector vanishes maps to the diagonal direction.
    """
    G = ndtri(np.clip(U, 2.0**-50, 1.0 - 2.0**-50))
    nrm = np.linalg.norm(G, axis=1)
    bad = nrm < 1e-12
    G[bad] = 1.0
    nrm[bad] = np.sqrt(G.shape[1])
    return G / nrm[:, None]


# ---------------------------------------------------------------------------
# CSG nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """Open ball ``{x : |x - center| < radius}``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _finite(self.center, "ball center"))
        object.__setattr__(self, "radius", float(self.radius))
        if not 0.0 < self.radius < np.inf:
            raise PreconditionError("ball radius must be positive and finite")


@dataclass(frozen=True)
class Capsule:
    """Open capsule: points within ``radius`` of the segment from ``a`` to ``b``."""

    a: np.ndarray
    b: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "a", _finite(self.a, "capsule endpoint"))
        object.__setattr__(self, "b", _finite(self.b, "capsule endpoint"))
        object.__setattr__(self, "radius", float(self.radius))
        if not 0.0 < self.radius < np.inf:
            raise PreconditionError("capsule radius must be positive and finite")
        if self.a.shape != self.b.shape:
            raise PreconditionError("capsule endpoints must share a dimension")


@dataclass(frozen=True)
class Union:
    left: object
    right: object


@dataclass(frozen=True)
class Difference:
    """Left set minus the *closure* of the right set."""

    left: object
    right: object


@dataclass(frozen=True)
class Translate:
    offset: np.ndarray
    inner: object

    def __post_init__(self):
        object.__setattr__(self, "offset", _finite(self.offset, "translation offset"))


@dataclass(frozen=True)
class Scale:
    factor: float
    inner: object

    def __post_init__(self):
        object.__setattr__(self, "factor", float(self.factor))
        if not 0.0 < self.factor < np.inf:
            raise PreconditionError("scale factor must be positive and finite")


def _normalize(node, offset: np.ndarray, factor: float):
    """Push accumulated translation/scaling into the leaves.

    Returns an equivalent tree containing only Ball/Capsule/Union/Difference.
    The map applied to a leaf point p is ``factor * p + offset``.
    """
    if isinstance(node, Ball):
        return Ball(factor * node.center + offset, factor * node.radius)
    if isinstance(node, Capsule):
        return Capsule(factor * node.a + offset, factor * node.b + offset, factor * node.radius)
    if isinstance(node, Union):
        return Union(_normalize(node.left, offset, factor), _normalize(node.right, offset, factor))
    if isinstance(node, Difference):
        return Difference(_normalize(node.left, offset, factor), _normalize(node.right, offset, factor))
    if isinstance(node, Translate):
        return _normalize(node.inner, offset + factor * node.offset, factor)
    if isinstance(node, Scale):
        return _normalize(node.inner, offset, factor * node.factor)
    raise PreconditionError(f"unknown CSG node {type(node).__name__}")


def _leaves(node, sign: int = 1) -> list[tuple[object, int]]:
    """All leaves of a normalized tree with their inclusion parity."""
    if isinstance(node, (Ball, Capsule)):
        return [(node, sign)]
    if isinstance(node, Union):
        return _leaves(node.left, sign) + _leaves(node.right, sign)
    if isinstance(node, Difference):
        return _leaves(node.left, sign) + _leaves(node.right, -sign)
    raise PreconditionError(f"non-normalized node {type(node).__name__}")


def _axis_offset(leaf, X: np.ndarray) -> np.ndarray:
    """Each row of X minus its nearest point on the leaf's center or axis segment."""
    if isinstance(leaf, Ball):
        return X - leaf.center
    u = leaf.b - leaf.a
    uu = float(u @ u)
    if uu == 0.0:
        return X - leaf.a
    t = np.clip((X - leaf.a) @ u / uu, 0.0, 1.0)
    return X - leaf.a - t[:, None] * u


def _member(node, X: np.ndarray, closed: bool) -> np.ndarray:
    if isinstance(node, (Ball, Capsule)):
        d = _axis_offset(node, X)
        d2 = np.einsum("ij,ij->i", d, d)
        r2 = node.radius * node.radius
        return d2 <= r2 if closed else d2 < r2
    if isinstance(node, Union):
        return _member(node.left, X, closed) | _member(node.right, X, closed)
    if isinstance(node, Difference):
        return _member(node.left, X, closed) & ~_member(node.right, X, not closed)
    raise PreconditionError(f"non-normalized node {type(node).__name__}")


def _depth(node, X: np.ndarray) -> np.ndarray:
    """Conservative signed interior depth (positive inside) for each row."""
    if isinstance(node, (Ball, Capsule)):
        d = _axis_offset(node, X)
        return node.radius - np.sqrt(np.einsum("ij,ij->i", d, d))
    if isinstance(node, Union):
        return np.maximum(_depth(node.left, X), _depth(node.right, X))
    if isinstance(node, Difference):
        return np.minimum(_depth(node.left, X), -_depth(node.right, X))
    raise PreconditionError(f"non-normalized node {type(node).__name__}")


def _enclosing_radius(node, center: np.ndarray) -> float:
    if isinstance(node, Ball):
        return float(np.linalg.norm(node.center - center)) + node.radius
    if isinstance(node, Capsule):
        return (
            max(
                float(np.linalg.norm(node.a - center)),
                float(np.linalg.norm(node.b - center)),
            )
            + node.radius
        )
    if isinstance(node, Union):
        return max(_enclosing_radius(node.left, center), _enclosing_radius(node.right, center))
    if isinstance(node, Difference):
        return _enclosing_radius(node.left, center)
    raise PreconditionError(f"non-normalized node {type(node).__name__}")


# ---------------------------------------------------------------------------
# Ray spans (Roth, "Ray casting for modeling solids", CGIP 18, 1982)
# ---------------------------------------------------------------------------


def _quadratic_roots(A, B, C):
    """Roots of ``A t^2 + B t + C`` per row, ascending; NaN without two distinct real roots."""
    disc = B * B - 4.0 * A * C
    s = np.sqrt(np.where((A > 1e-14) & (disc > 0.0), disc, np.nan))
    return (-B - s) / (2.0 * A), (-B + s) / (2.0 * A)


def _leaf_span(leaf, o: np.ndarray, D: np.ndarray):
    """Entry and exit parameters of the rays ``o + t D`` (unit rows D) through a leaf.

    A leaf is convex, so each ray meets it in one open interval; both ends
    are NaN when the ray misses.  A capsule's interval is the hull of its end
    balls' intervals and of the wall roots whose foot on the axis lies on the
    segment.
    """
    r2 = leaf.radius * leaf.radius

    def ball(c):
        w = o - c
        return _quadratic_roots(1.0, 2.0 * (D @ w), float(w @ w) - r2)

    if isinstance(leaf, Ball):
        return ball(leaf.center)
    lo, hi = ball(leaf.a)
    lo_b, hi_b = ball(leaf.b)
    lo, hi = np.fmin(lo, lo_b), np.fmax(hi, hi_b)
    u = leaf.b - leaf.a
    L = float(np.sqrt(u @ u))
    if L > 0.0:
        uhat = u / L
        w = o - leaf.a
        Du = D @ uhat
        Dp = D - np.outer(Du, uhat)
        wp = w - (w @ uhat) * uhat
        for t in _quadratic_roots(np.einsum("ij,ij->i", Dp, Dp), 2.0 * (Dp @ wp), float(wp @ wp) - r2):
            foot = w @ uhat + t * Du
            t = np.where((foot >= 0.0) & (foot <= L), t, np.nan)
            lo, hi = np.fmin(lo, t), np.fmax(hi, t)
    return lo, hi


def _leaf_slope(leaf, Y: np.ndarray, D: np.ndarray) -> np.ndarray:
    """``grad s . D`` at each row of Y, s the distance to the leaf's center or axis segment."""
    d = _axis_offset(leaf, Y)
    return np.einsum("ij,ij->i", d, D) / np.sqrt(np.einsum("ij,ij->i", d, d))


def _on_ray(node, T: np.ndarray, spans) -> np.ndarray:
    """``_member`` along rays: open membership at the (m, S) ray parameters T.

    ``spans`` yields each leaf's ``(lo, hi)`` from ``_leaf_span``, in
    ``_leaves`` order.
    """
    if isinstance(node, (Ball, Capsule)):
        lo, hi = next(spans)
        return (lo[:, None] < T) & (T < hi[:, None])
    if isinstance(node, Union):
        return _on_ray(node.left, T, spans) | _on_ray(node.right, T, spans)
    if isinstance(node, Difference):
        return _on_ray(node.left, T, spans) & ~_on_ray(node.right, T, spans)
    raise PreconditionError(f"non-normalized node {type(node).__name__}")


def _pack(m: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Scatter values, grouped by ascending row, into an (m, K) NaN-padded array; K the widest row, at least 1."""
    counts = np.bincount(rows, minlength=m)
    out = np.full((m, max(int(counts.max(initial=0)), 1)), np.nan)
    out[rows, np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]] = values
    return out


def _probe_fan(n: int) -> np.ndarray:
    """The fixed 512-direction fan of the boundary and carved-leaf queries."""
    return sphere_points(qmc.Sobol(d=n, scramble=False).random(512))


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------


@dataclass
class Domain:
    """A CSG solid in ``dimension`` dimensions."""

    dimension: int
    root: object
    _norm: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.dimension = int(self.dimension)
        if self.dimension < 1:
            raise PreconditionError("dimension must be >= 1")
        self._norm = _normalize(self.root, np.zeros(self.dimension), 1.0)
        for leaf, _ in _leaves(self._norm):
            pt = leaf.center if isinstance(leaf, Ball) else leaf.a
            if pt.shape != (self.dimension,):
                raise PreconditionError(
                    f"leaf of dimension {pt.shape[0]} in a domain of dimension {self.dimension}"
                )

    # -- queries ------------------------------------------------------------

    def contains_many(self, X: np.ndarray, closed: bool = False) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return _member(self._norm, X, closed)

    def depth_bound_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return _depth(self._norm, X)

    def bounding_radius(self, center) -> float:
        return _enclosing_radius(self._norm, _as_point(center, self.dimension))

    def surface_crossing_candidates(self, origin, D: np.ndarray, t_hi: float):
        """Membership flips along the rays ``origin + t D``, t in (0, t_hi), and first-segment flags.

        Returns ``(flips, inside0)``: ``flips`` is (m, K), each row ascending
        and NaN-padded.  The leaf span ends cut each ray into gaps, classified
        at their midpoints by ``_on_ray``; an end is a flip where that changes.
        """
        o = _as_point(origin, self.dimension)
        D = np.asarray(D, dtype=float)
        spans = [_leaf_span(leaf, o, D) for leaf, _ in _leaves(self._norm)]
        ends = np.concatenate([np.stack(span, axis=1) for span in spans], axis=1)
        ends = np.where((ends > 1e-14 * max(t_hi, 1.0)) & (ends < t_hi), ends, np.nan)
        ends.sort(axis=1)
        m = D.shape[0]
        edges = np.concatenate([np.zeros((m, 1)), np.where(np.isfinite(ends), ends, t_hi), np.full((m, 1), t_hi)], axis=1)
        inside = _on_ray(self._norm, 0.5 * (edges[:, :-1] + edges[:, 1:]), iter(spans))
        ray, col = np.nonzero((inside[:, 1:] != inside[:, :-1]) & np.isfinite(ends))
        return _pack(m, ray, ends[ray, col]), inside[:, 0]

    def leaves(self) -> list[tuple[object, int]]:
        return _leaves(self._norm)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {"dimension": self.dimension, "root": _node_to_dict(self.root)}


def _node_to_dict(node) -> dict:
    if isinstance(node, Ball):
        return {"type": "ball", "center": list(map(float, node.center)), "radius": node.radius}
    if isinstance(node, Capsule):
        return {
            "type": "capsule",
            "a": list(map(float, node.a)),
            "b": list(map(float, node.b)),
            "radius": node.radius,
        }
    if isinstance(node, Union):
        return {"type": "union", "left": _node_to_dict(node.left), "right": _node_to_dict(node.right)}
    if isinstance(node, Difference):
        return {
            "type": "difference",
            "left": _node_to_dict(node.left),
            "right": _node_to_dict(node.right),
        }
    if isinstance(node, Translate):
        return {
            "type": "translate",
            "offset": list(map(float, node.offset)),
            "inner": _node_to_dict(node.inner),
        }
    if isinstance(node, Scale):
        return {"type": "scale", "factor": node.factor, "inner": _node_to_dict(node.inner)}
    raise PreconditionError(f"unknown CSG node {type(node).__name__}")


def _node_from_dict(data: dict):
    try:
        kind = data["type"]
    except (TypeError, KeyError) as exc:
        raise PreconditionError("CSG node must be an object with a 'type' field") from exc
    try:
        if kind == "ball":
            return Ball(data["center"], data["radius"])
        if kind == "capsule":
            return Capsule(data["a"], data["b"], data["radius"])
        if kind == "union":
            return Union(_node_from_dict(data["left"]), _node_from_dict(data["right"]))
        if kind == "difference":
            return Difference(_node_from_dict(data["left"]), _node_from_dict(data["right"]))
        if kind == "translate":
            return Translate(data["offset"], _node_from_dict(data["inner"]))
        if kind == "scale":
            return Scale(data["factor"], _node_from_dict(data["inner"]))
    except KeyError as exc:
        raise PreconditionError(f"missing field {exc} in '{kind}' node") from exc
    raise PreconditionError(f"unknown CSG node type {kind!r}")


def domain_from_dict(data: dict) -> Domain:
    if not isinstance(data, dict) or "dimension" not in data or "root" not in data:
        raise PreconditionError("domain description needs 'dimension' and 'root' fields")
    return Domain(int(data["dimension"]), _node_from_dict(data["root"]))


def load_domain(path: str) -> Domain:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read domain file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"domain file {path} is not valid JSON: {exc}") from exc
    return domain_from_dict(data)


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------


@dataclass
class PerturbationField:
    """Superposition of vector Gaussian bumps.

    ``theta(x) = sum_k disp[k] * exp(-|x - centers[k]|^2 / widths[k]^2)``.

    ``c2_bound`` is a certified upper bound for the C^2 norm
    ``max(sup|theta|, sup|D theta|, sup|D^2 theta|)`` obtained by summing the
    per-bump extrema of a Gaussian and its first two derivatives.
    """

    centers: np.ndarray
    widths: np.ndarray
    displacements: np.ndarray

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.widths = np.asarray(self.widths, dtype=float).reshape(-1)
        self.displacements = np.atleast_2d(np.asarray(self.displacements, dtype=float))
        if not np.all(self.widths > 0.0):
            raise PreconditionError("bump widths must be positive")
        if self.centers.shape != self.displacements.shape:
            raise PreconditionError("need one displacement vector per bump center")
        if self.centers.shape[0] != self.widths.shape[0]:
            raise PreconditionError("need one width per bump center")

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        C = self.centers
        # |x - c|^2 expanded: no (m, k, n) difference array
        r2 = np.einsum("ij,ij->i", X, X)[:, None] - 2.0 * (X @ C.T) + np.einsum("kj,kj->k", C, C)[None, :]
        g = np.exp(-r2 / self.widths[None, :] ** 2)
        return g @ self.displacements

    def jacobian(self, X: np.ndarray) -> np.ndarray:
        """D theta at each row of X, shape (m, n, n) with J[m, i, j] = d theta_i / d x_j."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        diff = X[:, None, :] - self.centers[None, :, :]
        r2 = np.einsum("mkj,mkj->mk", diff, diff)
        w2 = self.widths[None, :] ** 2
        g = np.exp(-r2 / w2)
        scale = -2.0 * g / w2
        return np.einsum("mk,ki,mkj->mij", scale, self.displacements, diff)

    def amplitude_bound(self) -> float:
        return float(np.sum(np.linalg.norm(self.displacements, axis=1)))

    def lipschitz_bound(self) -> float:
        mags = np.linalg.norm(self.displacements, axis=1)
        return float(np.sum(mags * np.sqrt(2.0 / np.e) / self.widths))

    def c2_bound(self) -> float:
        mags = np.linalg.norm(self.displacements, axis=1)
        per_bump = mags * np.maximum.reduce(
            [
                np.ones_like(self.widths),
                np.sqrt(2.0 / np.e) / self.widths,
                4.0 * np.exp(-0.5) / self.widths**2,
            ]
        )
        return float(np.sum(per_bump))

    def with_c2_norm(self, target: float) -> "PerturbationField":
        """Rescale displacement amplitudes so that ``c2_bound() == target``."""
        cur = self.c2_bound()
        if cur == 0.0:
            raise PreconditionError("cannot rescale a zero field")
        return PerturbationField(self.centers, self.widths, self.displacements * (target / cur))

    @staticmethod
    def random(
        dimension: int,
        bumps: int,
        seed: int,
        support_center=None,
        support_radius: float = 1.0,
    ) -> "PerturbationField":
        """Seeded random field with unit-scale displacements (rescale before use)."""
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x7E27)))
        c0 = (
            np.zeros(dimension)
            if support_center is None
            else _as_point(support_center, dimension)
        )
        centers = c0 + support_radius * rng.uniform(-1.0, 1.0, size=(bumps, dimension))
        widths = support_radius * rng.uniform(0.25, 0.6, size=bumps)
        disp = rng.normal(size=(bumps, dimension))
        disp /= np.linalg.norm(disp, axis=1, keepdims=True)
        disp *= rng.uniform(0.5, 1.0, size=(bumps, 1))
        return PerturbationField(centers, widths, disp)


class PerturbedDomain:
    """Image ``(I + theta)(Omega)`` of a base domain under a C^2-small field.

    Membership inverts the map by the contraction iteration
    ``x <- y - theta(x)`` to absolute tolerance 1e-12 (times the domain
    scale); the C^2 bound below one half certifies the contraction.

    Band certificate: the base depth is 1-Lipschitz and has the sign of base
    membership, and every pulled-back point lies within
    ``theta.amplitude_bound()`` of its image.  So a point whose base depth
    exceeds that band (plus 1e-9 times the domain scale for rounding) in
    absolute value is inside the perturbed domain exactly when it is inside
    the base domain, for open and closed membership alike.  Only points
    inside the band, or with a non-finite depth, are pulled back.  The same
    argument holds leaf by leaf, which is what the ray crossings use.
    """

    def __init__(self, base, theta: PerturbationField):
        if theta.c2_bound() >= 0.5:
            raise PreconditionError(
                f"perturbation C^2 bound {theta.c2_bound():.6g} must be below one half"
            )
        if theta.dimension != base.dimension:
            raise PreconditionError("perturbation dimension does not match the domain")
        self.base = base
        self.theta = theta
        self._scale = base.bounding_radius(np.zeros(base.dimension))
        self._band = theta.amplitude_bound() + 1e-9 * max(self._scale, 1.0)
        self.fallback_rays = 0  # rays whose crossings came from the membership scan
        # Each base leaf with its band-widened copy, its band-narrowed copy
        # (None when r <= band + a, which no window certificate covers) and
        # kappa, the bound on |g' - q| of surface_crossing_candidates.
        a, L = theta.amplitude_bound(), theta.lipschitz_bound()
        self._leaf_bands = []
        for leaf, _ in base.leaves() if isinstance(base, Domain) else []:
            r = leaf.radius
            certifiable = r > self._band + a
            self._leaf_bands.append((
                leaf,
                replace(leaf, radius=r + self._band),
                replace(leaf, radius=r - self._band) if certifiable else None,
                (L + a / (r - self._band - a)) / (1.0 - L) if certifiable else np.inf,
            ))

    @property
    def dimension(self) -> int:
        return self.base.dimension

    # -- inverse map ----------------------------------------------------------

    def pull_back(self, Y: np.ndarray) -> np.ndarray:
        """Solve ``x + theta(x) = y`` for each row, to 1e-12 * scale."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        X = Y.copy()
        tol = 1e-12 * max(self._scale, 1.0)
        for _ in range(200):
            X_new = Y - self.theta(X)
            step = np.max(np.abs(X_new - X)) if X.size else 0.0
            X = X_new
            if step < tol:
                return X
        raise ConvergenceError("perturbation inverse iteration stalled")

    def push_forward(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X + self.theta(X)

    # -- queries --------------------------------------------------------------

    def contains_many(self, Y: np.ndarray, closed: bool = False) -> np.ndarray:
        """Membership of each row; rows outside the depth band skip the pull-back."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        d = self.base.depth_bound_many(Y)
        inside = d > 0.0
        near = ~(np.isfinite(d) & (np.abs(d) > self._band))  # non-finite depths take the full path
        if np.any(near):
            inside[near] = self.base.contains_many(self.pull_back(Y[near]), closed)
        return inside

    def depth_bound_many(self, Y: np.ndarray) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        margin = 1.0 - min(self.theta.lipschitz_bound(), 0.999)
        return margin * self.base.depth_bound_many(self.pull_back(Y))

    def bounding_radius(self, center) -> float:
        return self.base.bounding_radius(center) + self.theta.amplitude_bound()

    def surface_crossing_candidates(self, origin, D: np.ndarray, t_hi: float):
        """Membership flips along the rays ``origin + t D``, t in (0, t_hi), with ``Domain``'s ``(flips, inside0)`` contract.

        Band windows: let ``s`` be the distance to a leaf's center or axis
        segment minus its radius ``r``, ``a`` and ``L`` the field's amplitude
        and Lipschitz bounds, and ``g(t) = s(pull_back(o + t D))``.  Since
        ``|g(t) - s(o + t D)| <= a < band``, the leaf's perturbed surface
        meets a ray only where ``|s| < band``: inside the leaf's span at
        radius ``r + band`` and outside its span at ``r - band``, which is an
        entry and an exit window ``[w0, w1]`` (one window when the ray misses
        the inner span).  Outside every window, perturbed membership equals
        base membership (class docstring).

        Certificate: ``s`` is convex, so ``q(t) = grad s(o + t D) . D`` is
        nondecreasing along the ray, and
        ``|g' - q| <= kappa = (L + a / (r - band - a)) / (1 - L)``.  An entry
        or exit window with ``w0 > 0`` where ``q`` has one sign and
        ``|q| > kappa`` at both ends therefore holds exactly one root of
        ``g``; ``g`` has opposite signs at its ends, where ``|s| = band``.
        The domain flips at that root exactly when base membership differs
        at the window's ends, and only then is the root solved, by Illinois
        regula falsi (Dowell and Jarratt, BIT 11, 1971) to the pull-back
        tolerance.

        Fallback: a ray with an uncertified window (grazing rays, leaves with
        ``r <= band + a``, an origin inside a window) or with two leaves'
        windows overlapping (CSG creases) takes the membership scan of
        :meth:`_scan_crossings` and is counted in ``fallback_rays``.  Only
        these rays can miss features thinner than the scan's probe spacing.
        Every ray's first-segment flag is the membership of ``origin``.
        """
        o = _as_point(origin, self.dimension)
        D = np.asarray(D, dtype=float)
        m = D.shape[0]
        if not any(inner is not None for _, _, inner, _ in self._leaf_bands):
            self.fallback_rays += m
            return self._scan_crossings(o, D, t_hi)
        W0, W1, certified = [], [], []
        for leaf, outer, inner, kappa in self._leaf_bands:
            lo_out, hi_out = _leaf_span(outer, o, D)
            lo_in, hi_in = _leaf_span(inner, o, D) if inner is not None else (np.full(m, np.nan),) * 2
            hit = np.isfinite(lo_in)
            for w0, w1 in ((lo_out, np.where(hit, lo_in, hi_out)), (np.where(hit, hi_in, np.nan), hi_out)):
                q0, q1 = (_leaf_slope(leaf, o + w[:, None] * D, D) for w in (w0, w1))
                certified.append(hit & (w0 > 0.0) & (q0 * q1 > 0.0) & (np.minimum(np.abs(q0), np.abs(q1)) > kappa))
                W0.append(w0)
                W1.append(w1)
        W0, W1, certified = (np.stack(cols, axis=1) for cols in (W0, W1, certified))  # (m, 2 * leaves)
        live = (W1 > 0.0) & (W0 < t_hi)
        # two live windows of one ray overlap when one starts before an earlier-starting one ends
        order = np.argsort(np.where(live, W0, np.inf), axis=1)
        starts = np.take_along_axis(np.where(live, W0, np.inf), order, axis=1)
        ends = np.maximum.accumulate(np.take_along_axis(np.where(live, W1, -np.inf), order, axis=1), axis=1)
        fallback = np.any(starts[:, 1:] <= ends[:, :-1], axis=1) | np.any(live & ~certified, axis=1)
        spans = [_leaf_span(leaf, o, D) for leaf, *_ in self._leaf_bands]
        at_ends = _on_ray(self.base._norm, np.concatenate([W0, W1], axis=1), iter(spans))
        ray, col = np.nonzero(live & ~fallback[:, None] & (at_ends[:, : W0.shape[1]] != at_ends[:, W0.shape[1] :]))
        t = self._leaf_roots(o, D[ray], col // 2, W0[ray, col], W1[ray, col])
        fallback[ray[np.isnan(t)]] = True  # end signs that contradict the certificate
        keep = ~fallback[ray] & (t < t_hi)
        rows, values = ray[keep], t[keep]
        fb = np.nonzero(fallback)[0]
        if fb.size:
            self.fallback_rays += int(fb.size)
            flips, _ = self._scan_crossings(o, D[fb], t_hi)
            fb_ray, fb_col = np.nonzero(np.isfinite(flips))
            rows = np.concatenate([rows, fb[fb_ray]])
            values = np.concatenate([values, flips[fb_ray, fb_col]])
        order = np.lexsort((values, rows))
        return _pack(m, rows[order], values[order]), np.full(m, self.contains_many(o[None, :])[0])

    def _leaf_roots(self, o: np.ndarray, D: np.ndarray, leaf: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The root of ``s(pull_back(o + t D[i]))`` for leaf ``leaf[i]`` in each bracket ``[a[i], b[i]]``.

        Illinois regula falsi: after the same end moves twice in a row, the
        other end's value is halved.  Stops at a value or bracket within the
        pull-back tolerance.  NaN where the ends do not have opposite signs.
        """

        def g(t, rows):
            X = self.pull_back(o + t[:, None] * D[rows])
            s = np.empty(rows.size)
            for k in np.unique(leaf[rows]):
                sel = leaf[rows] == k
                base_leaf = self._leaf_bands[k][0]
                s[sel] = np.linalg.norm(_axis_offset(base_leaf, X[sel]), axis=1) - base_leaf.radius
            return s

        n = a.size
        a, b = a.copy(), b.copy()
        fa, fb = np.split(g(np.concatenate([a, b]), np.tile(np.arange(n), 2)), 2)
        root = np.full(n, np.nan)
        moved = np.zeros(n)  # -1: a moved last, +1: b moved last
        act = np.nonzero(fa * fb < 0.0)[0]
        tol = 1e-12 * max(self._scale, 1.0)
        for _ in range(100):
            if act.size == 0:
                break
            A, B, FA, FB = a[act], b[act], fa[act], fb[act]
            c = (A * FB - B * FA) / (FB - FA)
            c = np.where((c > A) & (c < B), c, 0.5 * (A + B))
            fc = g(c, act)
            done = (np.abs(fc) <= tol) | (B - A <= tol)
            root[act[done]] = c[done]
            low = np.sign(fc) == np.sign(FA)  # the root lies in (c, b]: c replaces a
            ia, ib = act[low], act[~low]
            fb[ia[moved[ia] < 0]] *= 0.5
            a[ia], fa[ia], moved[ia] = c[low], fc[low], -1.0
            fa[ib[moved[ib] > 0]] *= 0.5
            b[ib], fb[ib], moved[ib] = c[~low], fc[~low], 1.0
            act = act[~done]
        root[act] = 0.5 * (a[act] + b[act])
        return root

    def _scan_crossings(self, origin, D: np.ndarray, t_hi: float):
        """Membership-scan flips along each ray, with ``Domain``'s ``(flips, inside0)`` contract.

        A geometric probe grid (16 probes per octave over 14 octaves below
        ``t_hi``) locates membership flips, which are then refined by 46
        bisection steps.  Features thinner than the local probe spacing can
        be missed; the grid is sized for the smooth, C^2-small perturbations
        this class produces.  Every probe goes through ``contains_many``, so
        probes outside the depth band of the class docstring are answered by
        the base domain alone, with the same booleans the pull-back gives.
        Every ray's first-segment flag is the membership of ``origin``.
        """
        o = _as_point(origin, self.dimension)
        D = np.asarray(D, dtype=float)
        m = D.shape[0]
        exps = np.arange(14 * 16, -1, -1, dtype=float)
        ts = t_hi * np.power(2.0, -exps / 16)
        P = ts.shape[0]
        pts = o[None, None, :] + ts[None, :, None] * D[:, None, :]
        inside = self.contains_many(pts.reshape(m * P, -1)).reshape(m, P)
        at0 = self.contains_many(o[None, :])[0]
        inside = np.concatenate([np.full((m, 1), at0), inside], axis=1)
        grid = np.concatenate([[0.0], ts])
        flips = inside[:, 1:] != inside[:, :-1]
        ray_idx, col = np.nonzero(flips)
        lo = grid[col].copy()
        hi = grid[col + 1].copy()
        for _ in range(46):
            mid = 0.5 * (lo + hi)
            pts = o[None, :] + mid[:, None] * D[ray_idx]
            mid_in = self.contains_many(pts)
            upper = mid_in != inside[ray_idx, col + 1]
            lo = np.where(upper, mid, lo)
            hi = np.where(upper, hi, mid)
        return _pack(m, ray_idx, 0.5 * (lo + hi)), np.full(m, at0)

    def deep_point_hint(self):
        x, d = deep_point(self.base)
        y = self.push_forward(x[None, :])[0]
        margin = 1.0 - min(self.theta.lipschitz_bound(), 0.999)
        return y, margin * d


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


def contains(domain, x) -> bool:
    """Open membership of a single point."""
    x = _as_point(x, domain.dimension)
    return bool(domain.contains_many(x[None, :])[0])


def perturb(domain, theta: PerturbationField) -> PerturbedDomain:
    """The image domain ``(I + theta)(Omega)``; requires C^2 bound < 1/2."""
    return PerturbedDomain(domain, theta)


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary location together with the unit normal pointing inward."""

    point: np.ndarray
    inner_normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float).reshape(-1))
        object.__setattr__(
            self, "inner_normal", np.asarray(self.inner_normal, dtype=float).reshape(-1)
        )


def _lex_key(p: np.ndarray) -> tuple:
    return tuple(-np.asarray(p, dtype=float))


def _inner_normals(domain, P: np.ndarray, N: np.ndarray, scale: float) -> np.ndarray:
    """Inner unit normals at candidate boundary points, from one two-sided membership probe.

    Row i is ``N[i]`` or ``-N[i]`` (unit rows), whichever side of ``P[i]``
    lies inside the domain when exactly one does, and NaN otherwise.
    """
    eps = _EPS_FLIP * max(scale, 1.0)
    ins = domain.contains_many(np.concatenate([P + eps * N, P - eps * N])).reshape(2, -1)
    return np.where((ins[0] != ins[1])[:, None], np.where(ins[0][:, None], N, -N), np.nan)


def _leaf_nearest(leaf, x: np.ndarray):
    """Nearest point on the leaf surface and the outward leaf normal there."""
    if isinstance(leaf, Ball):
        v = x - leaf.center
        nv = np.linalg.norm(v)
        if nv < 1e-300:
            v = np.zeros_like(x)
            v[0] = 1.0
            nv = 1.0
        nhat = v / nv
        return leaf.center + leaf.radius * nhat, nhat
    u = leaf.b - leaf.a
    uu = float(u @ u)
    t = 0.0 if uu == 0.0 else float(np.clip((x - leaf.a) @ u / uu, 0.0, 1.0))
    q = leaf.a + t * u
    v = x - q
    nv = np.linalg.norm(v)
    if nv < 1e-300:
        v = np.zeros_like(x)
        v[0] = 1.0
        nv = 1.0
    nhat = v / nv
    return q + leaf.radius * nhat, nhat


def boundary_nearest(domain, x) -> BoundaryPoint:
    """Project a point to the nearest boundary location, with inner normal.

    Exact per-leaf projections are validated by one two-sided membership probe;
    if every leaf projection lands on a carved-away surface patch (the
    nearest boundary point sits on a CSG crease), the closest first
    membership flip along a fixed direction fan supplies the answer.
    Distance ties are broken toward the lexicographically largest point.
    """
    if isinstance(domain, PerturbedDomain):
        inner = boundary_nearest(domain.base, domain.pull_back(np.atleast_2d(x))[0])
        p = domain.push_forward(inner.point[None, :])[0]
        J = domain.theta.jacobian(inner.point[None, :])[0]
        A = np.eye(domain.dimension) + J
        nu = np.linalg.solve(A.T, inner.inner_normal)
        return BoundaryPoint(p, nu / np.linalg.norm(nu))

    x = _as_point(x, domain.dimension)
    scale = domain.bounding_radius(x)
    P, N = (np.array(rows) for rows in zip(*(_leaf_nearest(leaf, x) for leaf, _ in domain.leaves())))
    nu = _inner_normals(domain, P, N, scale)
    dist = np.linalg.norm(P - x, axis=1)
    valid = np.nonzero(np.isfinite(nu[:, 0]))[0]
    if valid.size:
        i = min(valid, key=lambda i: (dist[i], _lex_key(P[i])))
        return BoundaryPoint(P[i], nu[i])

    # Crease fallback: the closest first flip along a deterministic direction
    # fan (lexicographic tie-break among flips within eps of the closest).
    D = _probe_fan(domain.dimension)
    flips, inside0 = domain.surface_crossing_candidates(x, D, 2.0 * scale)
    first = flips[:, 0]
    if not np.any(np.isfinite(first)):
        raise ConvergenceError("no boundary found within the enclosing ball")
    eps = _EPS_FLIP * max(scale, 1.0)
    i = min(np.nonzero(first <= np.nanmin(first) + eps)[0], key=lambda i: _lex_key(x + first[i] * D[i]))
    p = x + first[i] * D[i]
    nu = _inner_normals(domain, p[None, :], D[i][None, :], scale)[0]
    return BoundaryPoint(p, (-D[i] if inside0[i] else D[i]) if np.isnan(nu[0]) else nu)


def diameter_pair(domain):
    """Diameter-realizing boundary pair, with inner normals, larger point first.

    The farthest points of two balls lie on the line through their centers,
    ``|c_i - c_j| + r_i + r_j`` apart, and a capsule's farthest points lie on
    its end balls.  So the candidates are the pairs of positive-leaf ends
    (ball centers, capsule endpoints), ranked by that analytic length; a
    repeated end is tried along the coordinate axes, then along the probe
    fan.  Length ties go to the lexicographically largest point.  Both ends
    of every candidate are probed in one membership call, and the first pair
    whose ends both lie on the boundary is returned: exact for unions.  When
    carving removed a strictly longer candidate the diameter may sit on a
    crease, and ``ConvergenceError`` is raised instead of a shorter pair.
    A ``PerturbedDomain`` has no leaves to rank and raises ``PreconditionError``.
    """
    if isinstance(domain, PerturbedDomain):
        raise PreconditionError("diameter_pair needs a CSG Domain; perturbed domains are not supported")
    n = domain.dimension
    ends = [
        (c, leaf.radius)
        for leaf, sign in domain.leaves()
        if sign > 0
        for c in ([leaf.center] if isinstance(leaf, Ball) else [leaf.a, leaf.b])
    ]
    C, R = (np.array(values) for values in zip(*ends))
    i, j = np.triu_indices(len(ends), k=1)
    V = C[i] - C[j]
    dist = np.linalg.norm(V, axis=1)
    apart = dist > 0.0
    i, j, V, dist = i[apart], j[apart], V[apart], dist[apart]
    # repeated ends: the coordinate axes (tier 0), then the fan (tier 1)
    fan = np.concatenate([np.eye(n), _probe_fan(n)])
    k = np.repeat(np.arange(len(ends)), fan.shape[0])
    I, J = np.concatenate([i, k]), np.concatenate([j, k])
    U = np.concatenate([V / dist[:, None], np.tile(fan, (len(ends), 1))])
    L = np.concatenate([dist + R[i] + R[j], 2.0 * R[k]])
    tier = np.concatenate([np.zeros(i.size), np.tile(np.arange(fan.shape[0]) >= n, len(ends))])
    P = C[I] + R[I][:, None] * U
    Q = C[J] - R[J][:, None] * U
    nu = _inner_normals(domain, np.concatenate([P, Q]), np.concatenate([U, -U]), float(L.max()))
    nu_p, nu_q = nu[: U.shape[0]], nu[U.shape[0] :]
    # orient each pair larger point first
    diff = P - Q
    swap = diff[np.arange(diff.shape[0]), np.argmax(diff != 0.0, axis=1)] < 0.0
    P[swap], Q[swap], nu_p[swap], nu_q[swap] = Q[swap], P[swap], nu_q[swap], nu_p[swap]
    order = np.lexsort((*(-P[:, ::-1].T), tier, -L))
    hit = order[np.isfinite(nu_p[order, 0]) & np.isfinite(nu_q[order, 0])]
    if hit.size == 0 or L[hit[0]] < L[order[0]]:
        raise ConvergenceError("the diameter endpoints are carved away")
    h = hit[0]
    return BoundaryPoint(P[h], nu_p[h]), BoundaryPoint(Q[h], nu_q[h])


def leaf_anchors(leaf) -> list:
    """Anchor points inside a leaf, middle first: a ball's center; a capsule's midpoint and ends."""
    if isinstance(leaf, Ball):
        return [leaf.center]
    return [0.5 * (leaf.a + leaf.b), leaf.a, leaf.b]


def deep_point(domain, seed: int = 0):
    """An interior point of (approximately) maximal conservative depth.

    Checks exact leaf candidates first (ball centers, capsule axis points);
    falls back to a seeded uniform scan of the enclosing ball.  Ties go to
    the lexicographically largest point.  Raises ``PreconditionError`` when
    the scan finds no interior point (an empty or very thin domain).
    """
    if isinstance(domain, PerturbedDomain):
        return domain.deep_point_hint()
    n = domain.dimension
    cands = [c for leaf, sign in domain.leaves() if sign > 0 for c in leaf_anchors(leaf)]
    if cands:
        C = np.array(cands)
        depths = domain.depth_bound_many(C)
        order = sorted(range(len(cands)), key=lambda i: (-depths[i], _lex_key(C[i])))
        i = order[0]
        if depths[i] > 0.0:
            return C[i].copy(), float(depths[i])
    center = np.zeros(n) if not cands else np.mean(np.array(cands), axis=0)
    R = domain.bounding_radius(center)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xDEE9)))
    X = center + R * rng.uniform(-1.0, 1.0, size=(8192, n))
    depths = domain.depth_bound_many(X)
    i = int(np.argmax(depths))
    if depths[i] <= 0.0:
        raise PreconditionError("the domain is empty or too thin to find an interior point")
    return X[i].copy(), float(depths[i])


def _leaf_overlap(a, b) -> bool:
    ra = a.radius
    rb = b.radius
    if isinstance(a, Ball) and isinstance(b, Ball):
        return float(np.linalg.norm(a.center - b.center)) < ra + rb
    sa = (a.center, a.center) if isinstance(a, Ball) else (a.a, a.b)
    sb = (b.center, b.center) if isinstance(b, Ball) else (b.a, b.b)
    return _segment_segment_distance(sa[0], sa[1], sb[0], sb[1]) < ra + rb


def _segment_segment_distance(p1, p2, q1, q2) -> float:
    """Euclidean distance between two segments (standard clamped solve)."""
    d1 = p2 - p1
    d2 = q2 - q1
    r = p1 - q1
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)
    if a <= 1e-300 and e <= 1e-300:
        return float(np.linalg.norm(r))
    if a <= 1e-300:
        t = np.clip(f / e, 0.0, 1.0)
        return float(np.linalg.norm(p1 - (q1 + t * d2)))
    c = float(d1 @ r)
    if e <= 1e-300:
        s = np.clip(-c / a, 0.0, 1.0)
        return float(np.linalg.norm(p1 + s * d1 - q1))
    b = float(d1 @ d2)
    denom = a * e - b * b
    s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom > 1e-300 else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = np.clip(-c / a, 0.0, 1.0)
    elif t > 1.0:
        t = 1.0
        s = np.clip((b - c) / a, 0.0, 1.0)
    return float(np.linalg.norm(p1 + s * d1 - q1 - t * d2))


def positive_leaf_components(domain) -> list[list[object]]:
    """Connected groups of positive leaves under pairwise overlap.

    The number of groups is a lower bound for the number of connected
    components of the domain (carving can only disconnect further, and any
    connection within the domain passes through overlapping positive leaves).
    A leaf is kept when some ray of the fixed 512-direction fan from its
    first anchor starts inside the domain or enters it before leaving the
    leaf; leaves carved away along every ray are dropped.
    """
    base = domain.base if isinstance(domain, PerturbedDomain) else domain
    D = _probe_fan(base.dimension)
    kept = []
    for leaf, sign in base.leaves():
        if sign < 0:
            continue
        o = leaf_anchors(leaf)[0]
        flips, inside0 = base.surface_crossing_candidates(o, D, base.bounding_radius(o))
        if np.any(inside0) or np.any(flips[:, 0] < _leaf_span(leaf, o, D)[1]):
            kept.append(leaf)
    parent = list(range(len(kept)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            if _leaf_overlap(kept[i], kept[j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list] = {}
    for i, leaf in enumerate(kept):
        groups.setdefault(find(i), []).append(leaf)
    return list(groups.values())
