"""Correctness checks for the benchmark workloads.

Every reference here is independent of the program: closed forms, mpmath
quadrature of radial integrals, or a property that holds by symmetry or by
set inclusion.  None is a recorded program output.  Stochastic comparisons
use the standard errors the program reports, ``K_SIGMA`` of them, so each
check holds for any seed.  Each ``check_<workload>`` returns a list of
failure messages; an empty list means the outputs are correct.  The
output of an operation that failed is missing from its argument, and the
check skips what depends on it (the failure itself is reported by
``workload.py``).
"""

from __future__ import annotations

import copy
import math

import mpmath as mp

mp.mp.dps = 30

K_SIGMA = 6.0  # standard errors allowed between an estimate and its reference
REL_EXACT = 1e-9  # relative slack for values the program computes without noise


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def sphere_area(n: int):
    return 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)


def ball_psi_3d(r: float, a: float = 1.0) -> float:
    """psi at distance r from the centre of a 3-ball of radius a.

    Shell integral: the mean of |x - xi|^-6 over the sphere |x| = s is
    pi/(2 s r) * ((s - r)^-4 - (s + r)^-4), integrated over s > a.
    """
    if r == 0.0:
        return float(4 * mp.pi / (3 * mp.mpf(a) ** 3))
    r = mp.mpf(r)
    a = mp.mpf(a)
    f = lambda s: mp.pi * s / (2 * r) * ((s - r) ** -4 - (s + r) ** -4)
    return float(mp.quad(f, [a, 2 * a, 8 * a, mp.inf]))


def axisymmetric_psi_3d(x0: float, radius, breaks) -> float:
    """psi at (x0, 0, 0) for a solid of revolution about the x axis whose
    cross-section at x is the disk of radius ``radius(x)`` (0 outside).

    The exterior at abscissa x is rho > radius(x); integrating
    |x - xi|^-6 over it in rho and angle leaves
    pi/2 * ((x - x0)^2 + radius(x)^2)^-2, integrated over x.
    """
    x0 = mp.mpf(x0)
    f = lambda x: mp.pi / 2 * ((x - x0) ** 2 + mp.mpf(radius(x)) ** 2) ** -2
    pts = sorted(set([mp.mpf(b) for b in breaks] + [x0]))
    return float(mp.quad(f, [-mp.inf] + pts + [mp.inf]))


def dumbbell_radius(x) -> float:
    """Cross-section radius of the canonical dumbbell: unit balls at
    x = -1.75 and 1.75 joined by a capsule of radius 0.35."""
    r = 0.35 if abs(x) <= 1.75 else 0.0
    for c in (-1.75, 1.75):
        if abs(x - c) < 1.0:
            r = max(r, mp.sqrt(1 - (x - c) ** 2))
    return r


DUMBBELL_BREAKS = (-2.75, -1.75, -1.75 + math.sqrt(1 - 0.35**2), -0.75, 0.75, 1.75 - math.sqrt(1 - 0.35**2), 1.75, 2.75)


def alpha(n: int):
    return mp.mpf(n * (n - 2)) ** (mp.mpf(n - 2) / 4)


def _bubble_mass(n: int, delta, power, lo, hi):
    """Integral of U_delta^power over lo < |x| < hi, U centred at 0."""
    k = mp.mpf(n - 2) / 2
    f = lambda r: r ** (n - 1) * (delta**2 + r**2) ** (-k * power)
    pts = [lo] + [x for x in (delta, 10 * delta, 1) if lo < x < hi] + [hi]
    return sphere_area(n) * alpha(n) ** power * delta ** (k * power) * mp.quad(f, pts)


def energy_sub_reference(n: int, d: float, eps: float) -> float:
    """J of one bubble, delta = d eps^(1/n), centred in the unit n-ball."""
    d, eps = mp.mpf(d), mp.mpf(eps)
    p = mp.mpf(n + 2) / (n - 2)
    m = p + 1 - eps
    delta = d * eps ** (mp.mpf(1) / n)
    crit = _bubble_mass(n, mp.mpf(1), p + 1, 0, mp.inf)
    whole = _bubble_mass(n, delta, m, 0, mp.inf)
    ext = _bubble_mass(n, delta, m, 1, mp.inf)
    return float(crit / 2 - (whole - 2 * ext) / m)


def exterior_mass_model(n: int, d: float, eps: float) -> float:
    """Criterion 07's first-order model of that bubble's exterior mass."""
    d, eps = mp.mpf(d), mp.mpf(eps)
    p = mp.mpf(n + 2) / (n - 2)
    m = p + 1 - eps
    delta = d * eps ** (mp.mpf(1) / n)
    psi0 = sphere_area(n) / n  # psi at the centre of the unit n-ball
    model = alpha(n) ** m * delta**m * psi0
    first_order = 4 / (2 * m - 4) - 4 * m * delta**2 / (2 * m - 2)
    return float(model * first_order)


def energy_hole_reference(n: int, d: float, rho: float) -> float:
    """J of the critical bubble delta = d sqrt(rho) in the unit n-ball minus B_rho."""
    d, rho = mp.mpf(d), mp.mpf(rho)
    m = 2 * mp.mpf(n) / (n - 2)
    delta = d * mp.sqrt(rho)
    crit = _bubble_mass(n, mp.mpf(1), m, 0, mp.inf)
    ext = _bubble_mass(n, delta, m, 1, mp.inf) + _bubble_mass(n, delta, m, 0, rho)
    return float(crit / 2 - (crit - 2 * ext) / m)


def c1_nodal(n: int) -> float:
    """Leading interaction coefficient from the flux of -Delta U = U^p:
    int U^p = (n-2) |S^(n-1)| alpha, times U(x) ~ alpha |x|^(2-n) far out."""
    return float((n - 2) * sphere_area(n) * alpha(n) ** 2)


CLOSED_FORM_RATES = {
    "sub": {"d_star": (1.0 / 24.0) ** 0.25},
    "nodal": {
        "d1": math.pi / 16.0,
        "d2": math.pi / 16.0,
        "t1": (math.pi**2 / 512.0) ** 0.25,
        "t2": (math.pi**2 / 512.0) ** 0.25,
    },
    "hole": {"d0": 1.0},
}


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _close(got: float, want: float, sigma: float = 0.0, rel: float = REL_EXACT) -> bool:
    return abs(got - want) <= K_SIGMA * sigma + rel * abs(want)


def _decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _mirror_pair(a: dict, b: dict) -> bool:
    """Two census points are mirror images through x = 0 on the x axis, to
    within their location error: gradient noise over the smallest Hessian
    eigenvalue."""
    tol = K_SIGMA * sum(p["grad_std"] / min(abs(e) for e in p["hess_eigs"]) for p in (a, b)) + 1e-12
    x, y = a["location"], b["location"]
    return abs(x[0] + y[0]) <= tol and max(abs(v) for v in x[1:] + y[1:]) <= tol


def _dist(p, q) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def _dist_segment(p, a, b) -> float:
    ab = [y - x for x, y in zip(a, b)]
    t = sum((pi - ai) * d for pi, ai, d in zip(p, a, ab)) / sum(d * d for d in ab)
    t = min(max(t, 0.0), 1.0)
    return _dist(p, [ai + t * d for ai, d in zip(a, ab)])


# ---------------------------------------------------------------------------
# Workload checks
# ---------------------------------------------------------------------------


def check_landscape(out: dict, geo: dict) -> list:
    """``out`` holds, per grid, ``cells`` {(i, j): (x, y, value)} from the CSV
    and ``sample`` {(i, j): (value, value_std)} re-evaluated after the run."""
    errors = []
    for name, grid in out.items():
        for key, (value, _) in grid["sample"].items():
            if value != grid["cells"][key][2]:
                errors.append(f"{name} {key}: re-evaluated psi {value!r} differs from the CSV")
        for key, (x, y, value) in grid["cells"].items():
            inside = geo[name]["inside"]((x, y, 0.0))
            if inside and not value > 0.0:
                errors.append(f"{name} {key}: interior cell has value {value!r}")
            if not inside and value != -1.0:
                errors.append(f"{name} {key}: exterior cell lacks the -1.0 sentinel ({value!r})")

    ball = out.get("ball", {"cells": {}, "sample": {}})
    for key, (value, std) in ball["sample"].items():
        x, y, _ = ball["cells"][key]
        want = ball_psi_3d(math.hypot(x, y))
        if not _close(value, want, std):
            errors.append(f"ball {key}: psi {value!r} vs shell integral {want!r} (std {std:.3g})")

    if "dumbbell" not in out:
        return errors
    dumb = out["dumbbell"]
    ni = 1 + max(i for i, _ in dumb["cells"])
    nj = 1 + max(j for _, j in dumb["cells"])
    for (i, j), (_, _, value) in dumb["cells"].items():
        for mirror in ((ni - 1 - i, j), (i, nj - 1 - j)):
            other = dumb["cells"][mirror][2]
            if abs(value - other) > 1e-12 * abs(value):
                errors.append(f"dumbbell {(i, j)} vs {mirror}: mirror values {value!r} and {other!r}")
    lobes = geo["dumbbell"]["lobes"]
    enclosing = geo["dumbbell"]["enclosing"]
    for key, (value, std) in dumb["sample"].items():
        x, y, _ = dumb["cells"][key]
        if y == 0.0:
            want = axisymmetric_psi_3d(x, dumbbell_radius, DUMBBELL_BREAKS)
            if not _close(value, want, std):
                errors.append(f"dumbbell {key}: psi {value!r} vs axisymmetric integral {want!r} (std {std:.3g})")
        low = ball_psi_3d(_dist((x, y, 0.0), enclosing[0]), enclosing[1])
        if value < low - K_SIGMA * std:
            errors.append(f"dumbbell {key}: psi {value!r} below the enclosing ball's {low!r}")
        for centre, radius in lobes:
            r = _dist((x, y, 0.0), centre)
            if r < radius:
                high = ball_psi_3d(r, radius)
                if value > high + K_SIGMA * std:
                    errors.append(f"dumbbell {key}: psi {value!r} above its lobe ball's {high!r}")
    return errors


def check_census(out: dict) -> list:
    """``out``: the holed-ball census JSON and exit code, and the peanut's
    warm-start census points and mountain-pass saddle."""
    errors = []
    for k, holed in enumerate(out["holed"]):
        if holed["rc"] != 0 or not holed["census"]["satisfied"]:
            errors.append(f"holed ball {k}: crit exit {holed['rc']}, satisfied {holed['census']['satisfied']}")
        pts = holed["census"]["points"]
        if [p["morse_index"] for p in pts] != [0]:
            errors.append(f"holed ball {k}: Morse signature {[p['morse_index'] for p in pts]}, want [0]")
        elif not sum(a * b for a, b in zip(pts[0]["location"], out["hole"])) < 0.0:
            # Reflecting through the plane through the centre normal to the
            # hole's direction moves the hole away from any point on the
            # hole's side and lowers psi there, so the minimiser is not there.
            errors.append(f"holed ball {k}: minimum at {pts[0]['location']} is on the hole's side")

    minima = out["peanut"].get("minima", [])
    saddles = [out["peanut"]["saddle"]] if "saddle" in out["peanut"] else []
    if "minima" in out["peanut"] and [p["morse_index"] for p in minima] != [0, 0]:
        errors.append(f"peanut: Morse indices {[p['morse_index'] for p in minima]} of the minima, want [0, 0]")
    elif len(minima) == 2 and not _mirror_pair(*minima):
        errors.append(f"peanut: minima {[p['location'] for p in minima]} are not a mirror pair on the axis")
    for saddle in saddles:
        if saddle["morse_index"] != 1:
            errors.append(f"peanut: saddle has Morse index {saddle['morse_index']}, want 1")
        if abs(saddle["location"][0]) > 1e-3:
            errors.append(f"peanut: saddle at {saddle['location']} is off the neck plane x = 0")
    if not all(p["nondegenerate"] for p in minima + saddles):
        errors.append("peanut: a degenerate critical point")
    return errors


def check_audit(out: dict) -> list:
    errors = []
    for k, run in enumerate(out["audits"]):
        audit = run["audit"]
        if run["rc"] != 0 or not audit["stable"] or audit["failures"]:
            errors.append(f"audit {k}: exit {run['rc']}, stable {audit['stable']}, failures {audit['failures']}")
        if not audit["max_displacement"] <= 0.25 * out["scale"]:
            errors.append(f"audit {k}: displacement {audit['max_displacement']} above 0.25 * {out['scale']}")
        base = audit["base"]["points"]
        if [p["morse_index"] for p in base] != [0, 0] or audit["base"]["cat_lower_bound"] != 2:
            errors.append(f"audit {k}: base census {[p['morse_index'] for p in base]}, want one minimum per ball")
        elif not _mirror_pair(*base):
            errors.append(f"audit {k}: base minima {[p['location'] for p in base]} are not a mirror pair")
    if not out["roundtrip_error"] <= 1e-10 * out["scale"]:
        errors.append(f"audit: pull_back(push_forward(x)) misses x by {out['roundtrip_error']:.3g}")
    return errors


def _check_energy_sub(sub: dict) -> list:
    errors = []
    if not _close(sub["params"]["d"], CLOSED_FORM_RATES["sub"]["d_star"]):
        errors.append(f"energy-check sub: d {sub['params']['d']} vs (1/24)^(1/4)")
    for row in sub["rows"]:
        eps, std = row["small"], row["small"] * row["std"]
        want = energy_sub_reference(4, sub["params"]["d"], eps)
        if not _close(row["j"], want, std):
            errors.append(f"energy-check sub eps={eps}: J {row['j']!r} vs mpmath {want!r}")
        if eps == 0.025:
            m = 4.0 - eps
            whole = float(_bubble_mass(4, sub["params"]["d"] * eps**0.25, m, 0, mp.inf))
            crit = float(_bubble_mass(4, mp.mpf(1), 4, 0, mp.inf))
            ext = (whole - m * (crit / 2 - row["j"])) / 2
            model = exterior_mass_model(4, sub["params"]["d"], eps)
            if abs(ext / model - 1.0) > 0.05:
                errors.append(f"energy-check sub: exterior mass / first-order model = {ext / model:.4f}")
    return errors


def _check_energy_hole(hole: dict) -> list:
    errors = []
    if not _close(hole["params"]["d"], CLOSED_FORM_RATES["hole"]["d0"]):
        errors.append(f"energy-check hole: d {hole['params']['d']} vs d0 = 1")
    for row in hole["rows"]:
        rho = row["small"]
        want = energy_hole_reference(3, hole["params"]["d"], rho)
        if not _close(row["j"], want, rho**1.5 * row["std"]):
            errors.append(f"energy-check hole rho={rho}: J {row['j']!r} vs mpmath {want!r}")
    rows = hole["rows"]
    for a, b in zip(rows, rows[1:]):
        order = math.log(abs(a["residual"]) / abs(b["residual"])) / math.log(a["small"] / b["small"])
        if not 0.75 <= order <= 1.25:
            errors.append(f"energy-check hole: residuals fall at order {order:.3f} in rho, want about 1")
    return errors


def check_energy(out: dict) -> list:
    errors = []
    for regime, table in out["energy_check"].items():
        mags = [abs(r["residual"]) for r in table["rows"]]
        if table["rc"] != 0 or not _decreasing(mags):
            errors.append(f"energy-check {regime}: exit {table['rc']}, |residuals| {mags}")

    if "sub" in out["energy_check"]:
        errors += _check_energy_sub(out["energy_check"]["sub"])
    if "hole" in out["energy_check"]:
        errors += _check_energy_hole(out["energy_check"]["hole"])

    for regime, got in out["predict"].items():
        want = CLOSED_FORM_RATES[regime]
        if got["rc"] != 0:
            errors.append(f"predict {regime}: exit {got['rc']}")
        for key, value in want.items():
            if not _close(got["params"][key], value, rel=1e-6):
                errors.append(f"predict {regime}: {key} {got['params'][key]!r} vs closed form {value!r}")
    for regime, psi0 in (("sub", math.pi**2 / 2.0), ("hole", 4.0 * math.pi / 3.0)):
        if regime not in out["predict"]:
            continue
        params = out["predict"][regime]["params"]
        if not _close(params["psi_value"], psi0, params["psi_std"]):
            errors.append(f"predict {regime}: psi(0) {params['psi_value']!r} vs {psi0!r}")

    law = c1_nodal(3)
    for item in out["interaction"]:
        model = law * item["delta"] / item["sep"]
        # The law is the leading term; criterion 09 allows it 5%.
        if abs(item["value"] - model) > 0.05 * model + K_SIGMA * item["std"]:
            errors.append(f"interaction sep={item['sep']}: {item['value']!r} vs c1_nodal*delta/sep {model!r}")
    return errors


CHECKS = {
    "landscape": check_landscape,
    "census": check_census,
    "audit": check_audit,
    "energy": check_energy,
}


# ---------------------------------------------------------------------------
# Deliberately wrong outputs, each of which a check must reject
# ---------------------------------------------------------------------------


def _scale_grid(grid, factor):
    """Scale every interior value of a grid, which keeps its symmetry."""

    def mutate(out):
        cells = out[grid]["cells"]
        for key, (x, y, v) in cells.items():
            if v > 0.0:
                cells[key] = (x, y, v * factor)
        for key, (v, std) in out[grid]["sample"].items():
            out[grid]["sample"][key] = (v * factor, std)

    return mutate


def _set(path, fn):
    def mutate(out):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]])

    return mutate


def _swap_sentinel(out):
    key = next(k for k, c in out["dumbbell"]["cells"].items() if c[2] == -1.0)
    x, y, _ = out["dumbbell"]["cells"][key]
    out["dumbbell"]["cells"][key] = (x, y, 1.0)


def _break_mirror(out):
    key = sorted(k for k, c in out["dumbbell"]["cells"].items() if c[2] > 0.0)[0]
    x, y, v = out["dumbbell"]["cells"][key]
    out["dumbbell"]["cells"][key] = (x, y, v * (1.0 + 1e-9))


def _swap_index(points, a, b):
    def mutate(out):
        pa, pb = points(out)[a], points(out)[b]
        pa["morse_index"], pb["morse_index"] = pb["morse_index"], pa["morse_index"]

    return mutate


def _scale_row(regime, k, factor):
    return _set(["energy_check", regime, "rows", k, "j"], lambda v: v * factor)


MUTATIONS = {
    "landscape": [
        ("ball grid scaled by 1.02", _scale_grid("ball", 1.02)),
        ("dumbbell grid scaled by 1.02", _scale_grid("dumbbell", 1.02)),
        ("exterior cell given a value", _swap_sentinel),
        ("mirror cell moved by 1e-9", _break_mirror),
    ],
    "census": [
        ("holed-ball minimum given index 1",
         _set(["holed", 0, "census", "points", 0, "morse_index"], lambda v: 1)),
        ("holed-ball minimum mirrored to the hole's side",
         _set(["holed", -1, "census", "points", 0, "location"], lambda v: [-c for c in v])),
        ("peanut minimum and saddle indices swapped",
         _swap_index(lambda o: o["peanut"]["minima"] + [o["peanut"]["saddle"]], 0, 2)),
        ("peanut saddle moved off the neck plane",
         _set(["peanut", "saddle", "location"], lambda v: [v[0] + 0.01] + v[1:])),
    ],
    "audit": [
        ("audit reported unstable", _set(["audits", 0, "audit", "stable"], lambda v: False)),
        ("displacement beyond a quarter scale",
         _set(["audits", -1, "audit", "max_displacement"], lambda v: 0.3 * 6.0)),
        ("base minimum given index 1", _set(["audits", 1, "audit", "base", "points", 0, "morse_index"], lambda v: 1)),
        ("inverse map off by 1e-6", _set(["roundtrip_error"], lambda v: 1e-6)),
    ],
    "energy": [
        ("sub energy scaled by 1.02", _scale_row("sub", 0, 1.02)),
        ("hole energy scaled by 1.02", _scale_row("hole", 2, 1.02)),
        ("sub residuals reordered", _set(["energy_check", "sub", "rows"], lambda rows: rows[::-1])),
        ("nodal d1 scaled by 1.02", _set(["predict", "nodal", "params", "d1"], lambda v: v * 1.02)),
        ("hole psi(0) scaled by 1.02", _set(["predict", "hole", "params", "psi_value"], lambda v: v * 1.02)),
        ("interaction scaled by 1.1", _set(["interaction", 0, "value"], lambda v: v * 1.1)),
    ],
}


def rejected_mutations(workload: str, out: dict, *extra) -> list:
    """Names of the mutations that the workload's check fails to reject."""
    missed = []
    for name, mutate in MUTATIONS[workload]:
        bad = copy.deepcopy(out)
        mutate(bad)
        if not CHECKS[workload](bad, *extra):
            missed.append(name)
    return missed
