"""Constructive solid geometry in n dimensions.

Domains are finite unions and differences of open balls and capsules,
optionally translated and rescaled.  Normalization makes every leaf one
shape, the points within ``radius`` of a segment ``[a, b]``: a ball is the
capsule with ``a == b``.  The module provides exact membership
tests, exact ray classification, conservative interior-depth bounds,
enclosing radii, boundary projections with inner normals, diameter pairs
(exact for unions of leaves, refused when carving removes a longer pair),
and smooth volume-preservation-free perturbations ``y = x + theta(x)`` with
certified small C^2 norm.  Perturbed domains answer membership, depth, ray
crossings, pull-backs and deep points only.

One fold over the tree (``_csg``) serves every tree query: membership,
depth, enclosing radius, the leaf list and the ray rule.  Membership and
depth share the implicit-CSG rule (Ricci, The Computer Journal 16, 1973):
each leaf's inside value, combined by ``max`` over a union and
``min(l, -r)`` over a difference.  Membership holds where the CSG value of
``r^2 - |x - axis|^2`` is positive.

Ray classification: every leaf is convex, so a ray meets it in one span of
parameters.  Membership along the ray is a comparison of the ray parameter
with those spans, combined down the CSG tree like point membership; it can
flip only at a span end, so only the ends are classified.  The unit is the
line: its span also serves the opposite ray, so the two rays of a line are
classified together.  On a perturbed
domain each leaf's surface can only be crossed inside band windows of the
same spans; where a certificate admits one root, that root replaces the
span end, and the perturbed spans combine down the tree the same way.  A
ray with an uncertified window is traced over the hull of those windows by
bisecting the perturbed depth, which misses only features thinner than the
pull-back tolerance; each flip keeps the side its own source gives it.

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
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.special import ndtri

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


# Joe-Kuo direction numbers (SIAM J. Sci. Comput. 30, 2008) for dimensions
# 1-8, the range of landscape.constants: each dimension's primitive
# polynomial and its initial direction numbers, as SciPy tabulates them.
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37)
_SOBOL_VINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13), (1, 1, 5, 5, 17))
_SOBOL_BITS = 30
_SOBOL_MSB = np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)  # bit shifts, most significant bit first


def _sobol_directions() -> np.ndarray:
    """The (8, 30) direction numbers: each row extends its initial numbers by the polynomial's recurrence."""
    rows = []
    for poly, vinit in zip(_SOBOL_POLY, _SOBOL_VINIT):
        m, row = len(vinit), list(vinit) or [1] * _SOBOL_BITS
        for j in range(len(row), _SOBOL_BITS):
            new = row[j - m]
            for k in range(m):
                new ^= ((poly >> (m - 1 - k)) & 1) * row[j - k - 1] << (k + 1)
            row.append(new)
        rows.append(row)
    return np.array(rows, dtype=np.uint32) << _SOBOL_MSB


_SOBOL_V = _sobol_directions()


def sobol_points(n: int, count: int, key=None) -> np.ndarray:
    """The first ``count`` n-dimensional Sobol points, scrambled from ``SeedSequence(key)`` unless ``key`` is None.

    Bit for bit the points of ``scipy.stats.qmc.Sobol(n, scramble=key is not
    None, seed=default_rng(SeedSequence(key)))``: a Matousek linear scramble
    with a digital shift (J. Complexity 14, 1998), in Gray-code order.
    """
    if not 1 <= n <= len(_SOBOL_POLY):
        raise PreconditionError(f"Sobol points are tabulated for dimensions 1 through {len(_SOBOL_POLY)}, got {n}")
    v, shift = _SOBOL_V[:n], np.zeros(n, dtype=np.uint32)
    if key is not None:
        # the child generator SciPy spawns from the one it is given; shift first, then the scramble
        rng = np.random.default_rng(np.random.SeedSequence(key).spawn(1)[0])
        shift = rng.integers(2, size=(n, _SOBOL_BITS), dtype=np.uint32) @ (np.uint32(1) << _SOBOL_MSB[::-1])
        L = np.tril(rng.integers(2, size=(n, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
        L |= np.eye(_SOBOL_BITS, dtype=np.uint32)
        # each direction number's bits, most significant first, times L mod 2 (Matousek's scramble)
        v = (((v[:, :, None] >> _SOBOL_MSB) & 1) @ L.transpose(0, 2, 1) & 1) @ (np.uint32(1) << _SOBOL_MSB)
    q = np.empty((count, n), dtype=np.uint32)
    q[:1] = shift
    for b in range(max(count - 1, 0).bit_length()):
        # Gray-code order: the next 2^b points mirror the first 2^b, with direction b flipped
        lo = 1 << b
        hi = min(2 * lo, count)
        np.bitwise_xor(q[2 * lo - hi : lo][::-1], v[:, b], out=q[lo:hi])
    return q * 2.0**-_SOBOL_BITS


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

    Returns an equivalent Capsule/Union/Difference tree (a ball is the
    zero-length capsule); a leaf point p maps to ``factor * p + offset``.
    Leaf points and offsets must have the length of ``offset``.
    """
    if isinstance(node, Ball):
        return _normalize(Capsule(node.center, node.center, node.radius), offset, factor)
    if isinstance(node, Capsule):
        _check_length(node.a, offset, "leaf")
        return Capsule(factor * node.a + offset, factor * node.b + offset, factor * node.radius)
    if isinstance(node, Union):
        return Union(_normalize(node.left, offset, factor), _normalize(node.right, offset, factor))
    if isinstance(node, Difference):
        return Difference(_normalize(node.left, offset, factor), _normalize(node.right, offset, factor))
    if isinstance(node, Translate):
        _check_length(node.offset, offset, "translation offset")
        return _normalize(node.inner, offset + factor * node.offset, factor)
    if isinstance(node, Scale):
        return _normalize(node.inner, offset, factor * node.factor)
    raise PreconditionError(f"unknown CSG node {type(node).__name__}")


def _check_length(v: np.ndarray, offset: np.ndarray, what: str) -> None:
    if v.shape != offset.shape:
        raise PreconditionError(f"{what} of dimension {v.shape[0]} in a domain of dimension {offset.shape[0]}")


def _csg(node, leaf, union, difference):
    """Fold a normalized tree: ``leaf`` of each capsule, in ``_leaves`` order, combined by ``union`` and ``difference``."""
    if isinstance(node, Capsule):
        return leaf(node)
    if isinstance(node, (Union, Difference)):
        combine = union if isinstance(node, Union) else difference
        return combine(_csg(node.left, leaf, union, difference), _csg(node.right, leaf, union, difference))
    raise PreconditionError(f"non-normalized node {type(node).__name__}")


def _leaves(node) -> list[tuple[object, int]]:
    """All leaves of a normalized tree with their inclusion parity."""
    return _csg(node, lambda c: [(c, 1)], list.__add__, lambda l, r: l + [(c, -sign) for c, sign in r])


def _axis_offset(leaf, X: np.ndarray) -> np.ndarray:
    """Each row of X minus its nearest point on the leaf's axis segment."""
    u = leaf.b - leaf.a
    uu = float(u @ u)
    if uu == 0.0:
        return X - leaf.a
    t = np.clip((X - leaf.a) @ u / uu, 0.0, 1.0)
    return X - leaf.a - t[:, None] * u


def _csg_value(node, X: np.ndarray, leaf) -> np.ndarray:
    """The CSG value of each row: ``leaf`` values, max over a union, ``min(l, -r)`` over a difference (Ricci, 1973)."""
    return _csg(node, lambda c: leaf(c, _axis_offset(c, X)), np.maximum, lambda l, r: np.minimum(l, -r))


def _member(node, X: np.ndarray) -> np.ndarray:
    """Open membership of each row: the CSG value of ``r^2 - |x - axis|^2`` is > 0."""
    return _csg_value(node, X, lambda c, d: c.radius * c.radius - np.einsum("ij,ij->i", d, d)) > 0.0


def _depth(node, X: np.ndarray) -> np.ndarray:
    """Conservative signed interior depth (positive inside) for each row."""
    return _csg_value(node, X, lambda c, d: c.radius - np.sqrt(np.einsum("ij,ij->i", d, d)))


def _enclosing_radius(node, center: np.ndarray) -> float:
    def far(c):
        return max(float(np.linalg.norm(c.a - center)), float(np.linalg.norm(c.b - center))) + c.radius

    return _csg(node, far, max, lambda l, r: l)


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
    are NaN when the ray misses.  The interval is the hull of the end balls'
    intervals and of the wall roots whose foot on the axis lies on the
    segment; a zero-length axis has one end ball and no wall.
    """
    r2 = leaf.radius * leaf.radius

    def ball(c):
        w = o - c
        return _quadratic_roots(1.0, 2.0 * (D @ w), float(w @ w) - r2)

    lo, hi = ball(leaf.a)
    u = leaf.b - leaf.a
    L = float(np.sqrt(u @ u))
    if L > 0.0:
        lo_b, hi_b = ball(leaf.b)
        lo, hi = np.fmin(lo, lo_b), np.fmax(hi, hi_b)
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
    """``grad s . D`` at each row of Y, s the distance to the leaf's axis segment."""
    d = _axis_offset(leaf, Y)
    return np.einsum("ij,ij->i", d, D) / np.sqrt(np.einsum("ij,ij->i", d, d))


def _span_flips(norm, spans, t_hi: float):
    """Membership flips along both rays of each line from its leaf spans, flat, and first-segment flags.

    ``spans`` holds each leaf's ``(lo, hi)`` along the m lines ``o + tau H``
    in ``_leaves`` order.  Ray ``j`` is ``+H[j]`` and ray ``j + m`` is
    ``-H[j]``, which meets the leaf in ``(-hi, -lo)``, so one span serves
    both.  Only the ends with ``|tau|`` in (0, t_hi) are classified, by
    open-interval states folded down the tree in line coordinates: a hi end
    by the states just below it and at it, a lo end by those at it and just
    above it, on either side.  Equal ends of one line count once per kind,
    so ends that coincide act as a zero-width gap classified at them, and a
    crease or a tangency flips once or twice there, never more.

    Returns ``(ray, t, opens, inside0)`` with ``t = |tau|``: the flips
    grouped by kind, not sorted by ``t`` within a ray; ``opens`` where
    membership ends there (an outside run opens: the state behind the end,
    which is below it on the + side and above it on the - side); each ray's
    membership at the midpoint of its first gap.
    """
    L = len(spans)
    ends = np.stack([hi for _, hi in spans] + [lo for lo, _ in spans])  # (2L, m): the hi ends, then the lo ends
    m = ends.shape[1]
    size = np.abs(ends)
    live = (size > 1e-14 * max(t_hi, 1.0)) & (size < t_hi)
    for i in range(1, L):
        for j in range(i):
            live[i] &= ends[i] != ends[j]
            live[L + i] &= ends[L + i] != ends[L + j]
    mid0 = np.empty((2, m))  # each ray's first-gap midpoint in line coordinates: ahead of the origin, behind it
    for side, on_side in enumerate((ends > 0.0, ends < 0.0)):
        mid0[side] = np.where(live & on_side, size, t_hi).min(axis=0)
    mid0 *= [[0.5], [-0.5]]
    idx = np.flatnonzero(live)
    counts = np.count_nonzero(live, axis=1)
    tau = ends.take(idx)
    line = np.subtract(idx, np.repeat(np.arange(2 * L) * m, counts), out=idx)
    nx = int(counts[:L].sum())
    x, e = slice(None, nx), slice(nx, None)  # the hi ends, the lo ends
    it = iter(spans)

    def leaf(_):
        lo, hi = next(it)
        a, b = lo[line], hi[line]
        below, above = (a[x] < tau[x]) & (tau[x] <= b[x]), (a[e] <= tau[e]) & (tau[e] < b[e])
        return np.concatenate([(a < tau) & (tau < b), below, above, ((lo < mid0) & (mid0 < hi)).ravel()])

    at, beside, inside0 = np.split(_csg(norm, leaf, np.logical_or, lambda l, r: l & ~r), [tau.size, 2 * tau.size])
    flip = at != beside
    ahead = tau > 0.0
    opens = np.concatenate([np.where(ahead[x], beside[x], at[x]), np.where(ahead[e], at[e], beside[e])])
    return (line + m * ~ahead)[flip], np.abs(tau)[flip], opens[flip], inside0


def _probe_fan(n: int) -> np.ndarray:
    """The fixed 512-direction fan of the boundary and carved-leaf queries; as lines the ray engine takes its first 256 (512 rays)."""
    return sphere_points(sobol_points(n, 512))


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
        try:
            origin = np.zeros(self.dimension)
        except (ValueError, MemoryError) as exc:
            raise PreconditionError(f"cannot hold a point of dimension {self.dimension}: {exc}") from exc
        self._norm = _normalize(self.root, origin, 1.0)

    # -- queries ------------------------------------------------------------

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return _member(self._norm, X)

    def depth_bound_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return _depth(self._norm, X)

    def bounding_radius(self, center) -> float:
        return _enclosing_radius(self._norm, _as_point(center, self.dimension))

    def surface_crossing_candidates(self, origin, H: np.ndarray, t_hi: float):
        """Membership flips along both rays ``origin + t H[j]`` and ``origin - t H[j]`` of each line, t in (0, t_hi).

        Flat as ``(ray, t, opens, inside0)`` over ``2 m`` rays, ray ``j`` the
        ``+H[j]`` side and ray ``j + m`` the ``-H[j]`` side (m the rows of
        ``H``).  Each leaf span is computed once per line (:func:`_span_flips`).
        """
        o = _as_point(origin, self.dimension)
        H = np.asarray(H, dtype=float)
        return _span_flips(self._norm, [_leaf_span(leaf, o, H) for leaf, _ in _leaves(self._norm)], t_hi)

    def leaves(self) -> list[tuple[object, int]]:
        return _leaves(self._norm)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {"dimension": self.dimension, "root": _node_to_dict(self.root)}


# The JSON schema: a node is {"type": <key below>, <its dataclass fields in
# order>...}; the fields in _CHILD_FIELDS hold nodes, arrays are float lists.
_NODE_TYPES = {
    "ball": Ball, "capsule": Capsule, "union": Union, "difference": Difference, "translate": Translate, "scale": Scale
}
_CHILD_FIELDS = ("left", "right", "inner")


def _node_to_dict(node) -> dict:
    kind = next((key for key, cls in _NODE_TYPES.items() if type(node) is cls), None)
    if kind is None:
        raise PreconditionError(f"unknown CSG node {type(node).__name__}")
    out = {"type": kind}
    for f in fields(node):
        v = getattr(node, f.name)
        if f.name in _CHILD_FIELDS:
            v = _node_to_dict(v)
        elif isinstance(v, np.ndarray):
            v = list(map(float, v))
        out[f.name] = v
    return out


def _node_from_dict(data: dict):
    try:
        kind = data["type"]
    except (TypeError, KeyError) as exc:
        raise PreconditionError("CSG node must be an object with a 'type' field") from exc
    cls = _NODE_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise PreconditionError(f"unknown CSG node type {kind!r}")
    try:
        args = [_node_from_dict(data[f.name]) if f.name in _CHILD_FIELDS else data[f.name] for f in fields(cls)]
    except KeyError as exc:
        raise PreconditionError(f"missing field {exc} in '{kind}' node") from exc
    try:
        return cls(*args)
    except PreconditionError:
        raise  # a leaf's own range check, not a malformed number
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed number in '{kind}' node: {exc}") from exc


def domain_from_dict(data: dict) -> Domain:
    if not isinstance(data, dict) or "dimension" not in data or "root" not in data:
        raise PreconditionError("domain description needs 'dimension' and 'root' fields")
    raw = data["dimension"]
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise PreconditionError(f"malformed domain dimension: {raw!r} is not an integer")
    try:
        dimension = int(raw)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed domain dimension: {exc}") from exc
    try:
        return Domain(dimension, _node_from_dict(data["root"]))
    except RecursionError as exc:
        raise PreconditionError("the CSG tree nests too deeply") from exc


def load_domain(path: str) -> Domain:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read domain file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"domain file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise PreconditionError(f"domain file {path} nests too deeply to parse") from exc
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

    It answers membership, depth, ray crossings, pull-backs and deep points
    only.  Membership inverts the map by the contraction iteration
    ``x <- y - theta(x)`` to absolute tolerance 1e-12 (times the domain
    scale); the C^2 bound below one half certifies the contraction.

    Band certificate: every pulled-back point lies within
    ``theta.amplitude_bound()`` of its image, and the distance to a leaf's
    axis is 1-Lipschitz.  So a point farther than that band (plus 1e-9
    times the domain scale for rounding) from a leaf's surface is inside the
    perturbed leaf exactly when it is inside the base leaf.  The ray
    crossings use this leaf by leaf; ``fallback_rays`` counts the rays they
    trace instead, where only features thinner than the pull-back tolerance
    can be missed.
    """

    def __init__(self, base, theta: PerturbationField):
        if theta.c2_bound() >= 0.5:
            raise PreconditionError(
                f"perturbation C^2 bound {theta.c2_bound():.6g} must be below one half"
            )
        if theta.dimension != base.dimension:
            raise PreconditionError("perturbation dimension does not match the domain")
        if not isinstance(base, Domain):
            raise PreconditionError("a perturbed domain's base must be a CSG Domain")
        self.base = base
        self.theta = theta
        self._scale = base.bounding_radius(np.zeros(base.dimension))
        self._band = theta.amplitude_bound() + 1e-9 * max(self._scale, 1.0)
        a, L = theta.amplitude_bound(), theta.lipschitz_bound()
        self._margin = 1.0 - min(L, 0.999)  # depth_bound_many's factor on the base depth
        self.fallback_rays = 0  # rays traced by _trace because a window was not certified
        # Each base leaf with its band-widened copy, its band-narrowed copy
        # (None when r <= band + a, which no window certificate covers) and
        # kappa, the bound on |g' - q| of surface_crossing_candidates.
        self._leaf_bands = []
        for leaf, _ in base.leaves():
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

    def contains_many(self, Y: np.ndarray) -> np.ndarray:
        """Membership of each row: the base membership of its pull-back."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        return self.base.contains_many(self.pull_back(Y))

    def depth_bound_many(self, Y: np.ndarray) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        return self._margin * self.base.depth_bound_many(self.pull_back(Y))

    def bounding_radius(self, center) -> float:
        return self.base.bounding_radius(center) + self.theta.amplitude_bound()

    def surface_crossing_candidates(self, origin, H: np.ndarray, t_hi: float):
        """Membership flips along both rays of each line ``origin + t H[j]``, t in (0, t_hi), with ``Domain``'s ``(ray, t, opens, inside0)`` contract.

        The rays ``D = [H; -H]`` are traced one by one, as follows.

        Perturbed leaf spans: let ``s`` be the distance to a leaf's axis
        segment minus its radius ``r``, ``a`` and ``L`` the field's amplitude
        and Lipschitz bounds, and ``g(t) = s(pull_back(o + t D))``.  Since
        ``|g(t) - s(o + t D)| <= a < band``, the perturbed leaf surface meets
        a ray only inside the leaf's span at radius ``r + band`` and outside
        its span at ``r - band``: an entry and an exit window ``[w0, w1]``
        (one window when the ray misses the inner span).  Outside its windows
        the perturbed leaf holds a ray parameter exactly when the widened
        span does (class docstring).

        Certificate: ``s`` is convex, so ``q(t) = grad s(o + t D) . D`` is
        nondecreasing along the ray, and
        ``|g' - q| <= kappa = (L + a / (r - band - a)) / (1 - L)``.  A window
        with ``w0 > 0`` where ``q`` has one sign and ``|q| > kappa`` at both
        ends holds exactly one root of ``g``.  :meth:`_roots` solves each such
        window that meets (0, t_hi), and the root replaces that end of the
        widened span.  The perturbed spans combine down the CSG tree like the
        base spans (:func:`_span_flips`, Roth's ray classification), so CSG
        creases are exact.

        Trace: a ray with an uncertified window in (0, t_hi) (a grazing ray,
        a leaf with ``r <= band + a``, an origin inside a window) is counted
        in ``fallback_rays``; inside the hull of those windows, started no
        nearer than ``eps = 1e-9 * max(scale, 1)`` (the band's rounding term),
        its flips come from :meth:`_trace`, and outside it from its spans,
        each with the ``opens`` of its own source.  A hull that reaches
        ``eps`` also takes the first-segment flag from the trace (membership
        at ``eps``) and drops the span flips nearer than ``eps``; every other
        ray takes its flag from its spans.
        """
        o = _as_point(origin, self.dimension)
        H = np.asarray(H, dtype=float)
        D = np.concatenate([H, -H])
        m = D.shape[0]
        ends, W0, W1, certified = [], [], [], []
        for leaf, outer, inner, kappa in self._leaf_bands:
            lo_out, hi_out = _leaf_span(outer, o, D)
            lo_in, hi_in = _leaf_span(inner, o, D) if inner is not None else (np.full(m, np.nan),) * 2
            hit = np.isfinite(lo_in)
            ends += [lo_out, hi_out]
            for w0, w1 in ((lo_out, np.where(hit, lo_in, hi_out)), (np.where(hit, hi_in, np.nan), hi_out)):
                q0, q1 = (_leaf_slope(leaf, o + w[:, None] * D, D) for w in (w0, w1))
                certified.append(hit & (w0 > 0.0) & (q0 * q1 > 0.0) & (np.minimum(np.abs(q0), np.abs(q1)) > kappa))
                W0.append(w0)
                W1.append(w1)
        # column 2k is leaf k's entry window and span start, 2k + 1 its exit window and span end
        ends, W0, W1, certified = (np.stack(cols, axis=1) for cols in (ends, W0, W1, certified))
        live = (W1 > 0.0) & (W0 < t_hi)
        ray, col = np.nonzero(live & certified)
        ends[ray, col] = self._roots(o, D[ray], W0[ray, col], W1[ray, col], col // 2)
        # each ray is the + side of its own line: an end behind the origin becomes -inf, so no flip lies on the - side
        ahead = np.where(ends > 0.0, ends, -np.inf).T
        ray, t, opens, inside0 = _span_flips(self.base._norm, list(zip(ahead[0::2], ahead[1::2])), t_hi)
        eps, uncertified = min(1e-9 * max(self._scale, 1.0), t_hi), live & ~certified
        lo = np.clip(np.where(uncertified, W0, t_hi).min(axis=1), eps, t_hi)  # the hull of a ray's uncertified
        hi = np.clip(np.where(uncertified, W1, 0.0).max(axis=1), lo, t_hi)  # windows, cut off below eps
        rows = np.flatnonzero(uncertified.any(axis=1))
        if rows.size:
            self.fallback_rays += int(rows.size)
            keep = (t < lo[ray]) & (lo[ray] > eps) | (t > hi[ray])
            tr_ray, tr_t, tr_opens, inside = self._trace(o, D[rows], lo[rows], hi[rows])
            inside0[rows] = np.where(lo[rows] > eps, inside0[rows], inside)
            ray, t, opens = (np.concatenate([u[keep], v]) for u, v in ((ray, rows[tr_ray]), (t, tr_t), (opens, tr_opens)))
        return ray, t, opens, inside0[:m]

    def _roots(self, o: np.ndarray, D: np.ndarray, a: np.ndarray, b: np.ndarray, leaf: np.ndarray) -> np.ndarray:
        """The zero of base leaf ``leaf[i]``'s perturbed depth ``r - dist(pull_back(o + t D[i]), axis)`` in each bracket ``[a[i], b[i]]``.

        Illinois regula falsi (Dowell and Jarratt, BIT 11, 1971): after the
        same end moves twice in a row, the other end's value is halved.
        Stops at a value or bracket within the pull-back tolerance.  An end
        where the depth is exactly zero is the root; NaN where the ends have
        one sign, which a certified window excludes.
        """

        def g(t, rows):
            X = self.pull_back(o + t[:, None] * D[rows])
            depths = [lf.radius - np.linalg.norm(_axis_offset(lf, X), axis=1) for lf, *_ in self._leaf_bands]
            return np.stack(depths)[leaf[rows], np.arange(rows.size)]

        n = a.size
        a, b = a.copy(), b.copy()
        fa, fb = np.split(g(np.concatenate([a, b]), np.tile(np.arange(n), 2)), 2)
        root = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))
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

    def _trace(self, o: np.ndarray, D: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        """Membership flips of the rays ``o + t D[i]`` inside ``[lo[i], hi[i]]`` as ``(rows, t, opens)``, and each ray's membership at ``lo[i]``.

        Breadth-first bisection of the perturbed depth
        ``g(t) = depth_bound_many(o + t D[i])``, which is 1-Lipschitz in t
        and positive exactly where open membership holds.  A gap whose ends
        have one membership and ``|g_l| + |g_r| > width`` holds no zero of
        ``g`` (the bound behind sphere tracing: Hart, The Visual Computer 12,
        1996) and is dropped; every other gap is halved until it is no wider
        than the pull-back tolerance, and one whose ends still differ in
        membership gives its midpoint as a flip (opening an outside run where
        ``g > 0`` at the gap's start).  So only thinner features are missed.
        """
        tol = 1e-12 * max(self._scale, 1.0)
        rows, a, b = np.arange(lo.size), lo, hi
        ga, gb = np.split(self.depth_bound_many(o + np.concatenate([a, b])[:, None] * np.tile(D, (2, 1))), 2)
        inside, found = ga > 0.0, []
        while rows.size:
            c = 0.5 * (a + b)
            flip = (ga > 0.0) != (gb > 0.0)
            split = flip | (np.abs(ga) + np.abs(gb) <= b - a)  # else the Lipschitz bound excludes a zero
            fine = (b - a <= tol) | (c <= a) | (c >= b)
            found.append((rows[fine & flip], c[fine & flip], ga[fine & flip] > 0.0))
            rows, a, b, c, ga, gb = (v[split & ~fine] for v in (rows, a, b, c, ga, gb))
            gc = self.depth_bound_many(o + c[:, None] * D[rows])
            rows, a, b = np.tile(rows, 2), np.concatenate([a, c]), np.concatenate([c, b])
            ga, gb = np.concatenate([ga, gc]), np.concatenate([gc, gb])
        return (*(np.concatenate(v) for v in zip(*found)), inside)


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
    v = _axis_offset(leaf, x[None, :])[0]
    q = x - v
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
    membership flip along the rays of a fixed fan of lines supplies the answer.
    Distance ties are broken toward the lexicographically largest point.
    A ``PerturbedDomain`` has no leaf projections and raises ``PreconditionError``.
    """
    if isinstance(domain, PerturbedDomain):
        raise PreconditionError("boundary_nearest needs a CSG Domain; perturbed domains are not supported")
    x = _as_point(x, domain.dimension)
    scale = domain.bounding_radius(x)
    P, N = (np.array(rows) for rows in zip(*(_leaf_nearest(leaf, x) for leaf, _ in domain.leaves())))
    nu = _inner_normals(domain, P, N, scale)
    dist = np.linalg.norm(P - x, axis=1)
    valid = np.nonzero(np.isfinite(nu[:, 0]))[0]
    if valid.size:
        i = min(valid, key=lambda i: (dist[i], _lex_key(P[i])))
        return BoundaryPoint(P[i], nu[i])

    # Crease fallback: the closest first flip along the probe fan's lines, both
    # ways (lexicographic tie-break among flips within eps of the closest).
    H = _probe_fan(domain.dimension)[:256]
    ray, t, _, inside0 = domain.surface_crossing_candidates(x, H, 2.0 * scale)
    D = np.concatenate([H, -H])
    first = np.full(D.shape[0], np.nan)
    np.fmin.at(first, ray, t)
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
    ``|c_i - c_j| + r_i + r_j`` apart, and a leaf's farthest points lie on
    its end balls.  So the candidates are the pairs of positive-leaf axis
    ends (each distinct end once), ranked by that analytic length; a
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
        for c in ([leaf.a] if np.array_equal(leaf.a, leaf.b) else [leaf.a, leaf.b])
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
    """Anchor points inside a leaf, middle first: its axis midpoint and ends, or the one point of a zero-length axis."""
    if np.array_equal(leaf.a, leaf.b):
        return [leaf.a]
    return [0.5 * (leaf.a + leaf.b), leaf.a, leaf.b]


def deep_point(domain):
    """An interior point of (approximately) maximal conservative depth.

    Checks exact leaf candidates first (the :func:`leaf_anchors` of each positive leaf);
    falls back to a fixed-seed uniform scan of the enclosing ball.  Ties go to
    the lexicographically largest point.  Raises ``PreconditionError`` when
    the scan finds no interior point (an empty or very thin domain).  A
    ``PerturbedDomain`` pushes its base's point forward, with its depth margin.
    """
    if isinstance(domain, PerturbedDomain):
        x, d = deep_point(domain.base)
        return domain.push_forward(x[None, :])[0], domain._margin * d
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
    rng = np.random.default_rng(np.random.SeedSequence((0, 0xDEE9)))
    X = center + R * rng.uniform(-1.0, 1.0, size=(8192, n))
    depths = domain.depth_bound_many(X)
    i = int(np.argmax(depths))
    if depths[i] <= 0.0:
        raise PreconditionError("the domain is empty or too thin to find an interior point")
    return X[i].copy(), float(depths[i])


def _leaf_overlap(a, b) -> bool:
    """Whether two leaves' axis segments are closer than the sum of their radii.

    The squared distance between ``a.a + s u`` and ``b.a + t w`` is convex in
    ``(s, t)``: its minimum on the unit square is its stationary point or lies
    on an edge, where it is a segment end's distance to the other segment.
    """
    ends = np.concatenate([_axis_offset(b, np.array([a.a, a.b])), _axis_offset(a, np.array([b.a, b.b]))])
    dist = float(np.min(np.linalg.norm(ends, axis=1)))
    u, w, r = a.b - a.a, b.b - b.a, a.a - b.a
    uu, ww, uw, ur, wr = u @ u, w @ w, u @ w, u @ r, w @ r
    det = uu * ww - uw * uw  # zero for parallel or zero-length axes, whose minimum lies on an edge
    if det > 0.0:
        s = (uw * wr - ww * ur) / det  # Cramer's rule
        t = (uw * s + wr) / ww  # the best t for this s: rounding in s moves the distance to second order
        if 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0:
            dist = min(dist, float(np.linalg.norm(r + s * u - t * w)))
    return dist < a.radius + b.radius


def positive_leaf_components(domain) -> list[list[object]]:
    """Connected groups of positive leaves under pairwise overlap.

    The number of groups is a lower bound for the number of connected
    components of the domain (carving can only disconnect further, and any
    connection within the domain passes through overlapping positive leaves).
    A leaf is kept when some ray of the fixed 512-ray fan (256 lines, both
    ways) from its first anchor starts inside the domain or enters it before
    leaving the leaf; leaves carved away along every ray are dropped.
    """
    base = domain.base if isinstance(domain, PerturbedDomain) else domain
    H = _probe_fan(base.dimension)[:256]
    kept = []
    for leaf, sign in base.leaves():
        if sign < 0:
            continue
        o = leaf_anchors(leaf)[0]
        ray, t, _, inside0 = base.surface_crossing_candidates(o, H, base.bounding_radius(o))
        lo, hi = _leaf_span(leaf, o, H)
        if np.any(inside0) or np.any(t < np.concatenate([hi, -lo])[ray]):
            kept.append(leaf)
    overlap = [[i < j and _leaf_overlap(a, b) for j, b in enumerate(kept)] for i, a in enumerate(kept)]
    count, labels = connected_components(np.array(overlap, dtype=bool).reshape(len(kept), len(kept)), directed=False)
    return [[leaf for leaf, label in zip(kept, labels) if label == k] for k in range(count)]
