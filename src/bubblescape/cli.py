"""Reproducible command-line workflows over the landscape toolkit.

Every subcommand resolves its flags into a :class:`RunManifest`, and
:func:`main` writes the resolved manifest next to the outputs of a
subcommand that returns.  Every output holds only deterministic bytes
(floats via ``repr``, JSON with sorted keys, LF newlines, no timestamps), so
rerunning the same invocation reproduces every output file byte for byte.

Exit codes: 0 for success / a PASS verdict, 1 for a completed run whose
verdict is FAIL (census not satisfied, residuals not shrinking, audit
unstable), 2 for violated preconditions (a request too large to allocate
included), 3 for numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bubbles import _check_eps_grid, expansion_residual_hole, expansion_residual_sub
from .critpoints import CritConfig, census, find_minima, morse_audit
from .errors import ConvergenceError, PreconditionError
from .geometry import _finite, deep_point, load_domain
from .landscape import constants, predict_hole, predict_nodal, predict_subcritical
from .quadrature import QuadratureConfig, psi_integrals

__all__ = [
    "RunManifest",
    "cmd_psi_grid",
    "cmd_crit",
    "cmd_predict",
    "cmd_energy_check",
    "cmd_morse_audit",
    "cmd_constants",
    "main",
]

_REGIMES = ("sub", "nodal", "hole")


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Fully resolved description of one command-line run."""

    command: str
    domain_file: str | None
    dimension: int
    seed: int
    output_dir: str
    regime: str | None
    quadrature: QuadratureConfig
    critical: CritConfig
    options: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# Deterministic writers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    """Full-precision, round-trippable text for one scalar."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_text(path: str, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_psi_grid(manifest: RunManifest, domain) -> int:
    """Sample the landscape over a 2D slice and write a long-format CSV grid.

    Cells outside the region carry the sentinel value -1.0, which is
    unambiguous because the landscape is strictly positive at interior
    points.  The stdout summary counts the cells whose estimate missed the
    convergence target.
    """
    opt = manifest.options
    n = domain.dimension
    a0, a1 = opt["axes"]
    xs = np.linspace(opt["lo"][0], opt["hi"][0], opt["steps"][0])
    ys = np.linspace(opt["lo"][1], opt["hi"][1], opt["steps"][1])
    fixed = np.asarray(opt["fixed"], dtype=float)

    points = np.empty((xs.size * ys.size, n))
    points[:, :] = _embed_fixed(n, (a0, a1), fixed)
    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
    points[:, a0] = grid_x.ravel()
    points[:, a1] = grid_y.ravel()

    keep = domain.contains_many(points)
    if not bool(keep.any()):
        raise PreconditionError("the requested slice does not meet the region interior")

    values = np.full(points.shape[0], -1.0)
    idx = np.flatnonzero(keep)
    with ThreadPoolExecutor(max_workers=min(8, _usable_cpus())) as pool:
        evals = list(pool.map(lambda k: psi_integrals(domain, points[k], manifest.quadrature), idx))
    values[idx] = [ev.value for ev in evals]
    unconverged = sum(not ev.converged for ev in evals)
    if np.any(values[idx] <= 0.0):
        raise ConvergenceError("quadrature produced a non-positive landscape value")

    values = values.reshape(xs.size, ys.size)
    summary = _grid_summary(values, xs, ys)
    lines = [
        "# concentration landscape over a 2D slice; sentinel -1.0 marks cells outside"
        " the region (interior values are strictly positive)",
        f"# axes=({a0},{a1}); fixed={[float(v) for v in fixed]!r}",
        summary,
        f"i,j,x{a0},x{a1},psi",
    ]
    for i in range(xs.size):
        for j in range(ys.size):
            lines.append(
                f"{i},{j},{_fmt(xs[i])},{_fmt(ys[j])},{_fmt(values[i, j])}"
            )
    _write_text(os.path.join(manifest.output_dir, "psi_grid.csv"), lines)
    print(
        f"psi-grid: {idx.size} interior cells of {points.shape[0]}"
        f" ({unconverged} not converged); {summary[2:]}"
    )
    return 0


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _grid_summary(values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> str:
    inner = values >= 0.0
    imin, jmin = np.unravel_index(int(np.argmin(np.where(inner, values, np.inf))), values.shape)
    imax, jmax = np.unravel_index(int(np.argmax(np.where(inner, values, -np.inf))), values.shape)
    return "# summary: min={} at ({},{}); max={} at ({},{})".format(
        _fmt(values[imin, jmin]), _fmt(xs[imin]), _fmt(ys[jmin]),
        _fmt(values[imax, jmax]), _fmt(xs[imax]), _fmt(ys[jmax]),
    )


def cmd_crit(manifest: RunManifest, domain) -> int:
    """Run the critical-point census and write it as stable-key JSON."""
    rep = census(domain, manifest.quadrature, manifest.critical)
    _write_json(os.path.join(manifest.output_dir, "census.json"), rep.to_dict())
    verdict = "PASS" if rep.satisfied else "FAIL"
    print(
        f"crit: {len(rep.minima)} minima, {len(rep.saddles)} saddles;"
        f" category lower bound {rep.cat_lower_bound}; {verdict}"
    )
    return 0 if rep.satisfied else 1


def _sub_xi(manifest: RunManifest, domain) -> np.ndarray:
    """The ``--xi`` point of the sub regime; by default the lowest landscape minimum."""
    xi = manifest.options.get("xi")
    if xi is None:
        pts = find_minima(domain, manifest.quadrature, manifest.critical)
        xi = min(pts, key=lambda p: p.psi_value).location
    return np.asarray(xi, dtype=float)


def _predict(manifest: RunManifest, domain):
    opt = manifest.options
    consts = constants(domain.dimension)
    rep_small = float(opt["sweep"][-1])
    if manifest.regime == "sub":
        return predict_subcritical(domain, rep_small, _sub_xi(manifest, domain), consts, manifest.quadrature)
    if manifest.regime == "nodal":
        return predict_nodal(domain, rep_small, consts, manifest.quadrature)
    return predict_hole(domain, rep_small, consts, manifest.quadrature)


def cmd_predict(manifest: RunManifest, domain) -> int:
    """Tabulate predicted concentration scales/points over a log sweep."""
    pred = _predict(manifest, domain)
    sweep = manifest.options["sweep"]
    small_name = "rho" if manifest.regime == "hole" else "epsilon"
    k, n = pred.anchors.shape

    head = [small_name]
    head += [f"delta_{b + 1}" for b in range(k)]
    if pred.regime == "nodal":
        head += [f"tau_{b + 1}" for b in range(k)]
    for b in range(k):
        head += [f"xi_{b + 1}_{c}" for c in range(n)]

    limits = "; ".join(f"{key}={_fmt(val)}" for key, val in sorted(pred.parameters.items()))
    lines = [
        f"# predicted blow-up rates; regime={pred.regime}; signs={tuple(pred.signs)!r}",
        f"# exponents: delta~{small_name}^{_fmt(pred.delta_exponent)},"
        f" tau~{small_name}^{_fmt(pred.tau_exponent)}",
        f"# limiting constants: {limits}",
        ",".join(head),
    ]
    for s in sweep:
        row = [_fmt(s)]
        row += [_fmt(v) for v in pred.delta(s)]
        if pred.regime == "nodal":
            row += [_fmt(v) for v in pred.tau(s)]
        row += [_fmt(v) for v in pred.centers(s).ravel()]
        lines.append(",".join(row))
    out = os.path.join(manifest.output_dir, f"predict_{manifest.regime}.csv")
    _write_text(out, lines)
    print(f"predict: regime={pred.regime}; {len(sweep)} sweep rows; {limits}")
    return 0


def cmd_energy_check(manifest: RunManifest, domain) -> int:
    """Tabulate expansion residuals and report whether they shrink."""
    opt = manifest.options
    consts = constants(domain.dimension)
    values = [float(v) for v in opt["values"]]
    if manifest.regime == "sub":
        table = expansion_residual_sub(domain, _sub_xi(manifest, domain), values, consts, manifest.quadrature)
        small_name = "epsilon"
    else:
        table = expansion_residual_hole(domain, values, consts, manifest.quadrature, hole_center=opt.get("hole_center"))
        small_name = "rho"

    mags = [abs(row.residual) for row in table.rows]
    passed = all(b < a for a, b in zip(mags, mags[1:]))
    verdict = "PASS" if passed else "FAIL"
    params = "; ".join(f"{key}={_fmt(val)}" for key, val in sorted(table.parameters.items()))
    lines = [
        f"# energy expansion residuals; regime={table.regime}; {params}",
        f"# verdict: {verdict} (PASS iff |residual| strictly decreases down the table)",
        f"{small_name},j_eps,residual,std_error",
    ]
    for row in table.rows:
        lines.append(
            ",".join(
                [_fmt(row.small_parameter), _fmt(row.j_value), _fmt(row.residual), _fmt(row.residual_std)]
            )
        )
    out = os.path.join(manifest.output_dir, f"energy_check_{manifest.regime}.csv")
    _write_text(out, lines)
    print(f"energy-check: regime={table.regime}; residuals {[f'{m:.6g}' for m in mags]}; {verdict}")
    return 0 if passed else 1


def cmd_morse_audit(manifest: RunManifest, domain) -> int:
    """Audit census stability under random boundary perturbations."""
    opt = manifest.options
    audit = morse_audit(
        domain,
        rho=float(opt["rho"]),
        trials=int(opt["trials"]),
        quad_cfg=manifest.quadrature,
        crit_cfg=manifest.critical,
    )
    _write_json(os.path.join(manifest.output_dir, "morse_audit.json"), audit.to_dict())
    verdict = "PASS" if audit.stable else "FAIL"
    print(
        f"morse-audit: {audit.trials} trials at rho={_fmt(audit.rho)};"
        f" min margin {_fmt(audit.min_margin)}; {verdict}"
    )
    return 0 if audit.stable else 1


_PROVENANCE = {
    "n": "input dimension",
    "p": "closed form",
    "critical_mass": "Beta integral of the bubble profile",
    "log_mass": "radial quadrature of the log-weighted bubble moment",
    "a": "Beta integral (leading energy level)",
    "b": "radial quadrature of the log-weighted moment (first-order coefficient)",
    "c": "Beta integral (log-term coefficient)",
    "c1": "closed form (landscape coupling)",
    "c2": "Beta integral (log-derivative coupling)",
    "c1_nodal": "closed form (pair interaction)",
    "c2_nodal": "injected default: identified with c2",
    "c3_nodal": "closed form (pair interaction)",
    "c4_nodal": "Beta integral (half-space wall kernel)",
    "b2_hole": "closed form (hole coupling)",
}


def cmd_constants(manifest: RunManifest, domain=None) -> int:
    """Dump the dimensional model constants with provenance notes."""
    consts = constants(manifest.dimension)
    values = dataclasses.asdict(consts)
    payload = {
        "dimension": int(manifest.dimension),
        "values": {key: (int(v) if key == "n" else float(v)) for key, v in values.items()},
        "provenance": {key: _PROVENANCE[key] for key in values},
    }
    _write_json(os.path.join(manifest.output_dir, "constants.json"), payload)
    print(f"constants: n={manifest.dimension}; wrote {len(values)} values")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and manifest resolution
# ---------------------------------------------------------------------------


def _embed_fixed(n: int, axes: tuple, fixed: np.ndarray) -> np.ndarray:
    out = np.zeros(n)
    rest = [c for c in range(n) if c not in axes]
    out[rest] = fixed
    return out


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--domain", metavar="FILE", help="JSON domain description")
    common.add_argument("--dim", type=int, help="space dimension (checked against the domain file)")
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument("--out", metavar="DIR", default=".", help="output directory (default .)")
    common.add_argument("--near-budget", type=int, default=2**20, help="quadrature ray budget")
    common.add_argument("--far-shells", type=int, default=64, help="dyadic far-field octaves")
    common.add_argument("--replicates", type=int, default=8, help="independent scramblings")
    common.add_argument("--multistart", type=int, default=12, help="extra Newton starts")

    top = argparse.ArgumentParser(
        prog="bubblescape",
        description="Concentration landscapes, critical points, and blow-up rate prediction.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    grid = sub.add_parser("psi-grid", parents=[common], help="sample the landscape on a 2D slice")
    grid.add_argument("--axes", type=int, nargs=2, default=(0, 1), metavar=("I", "J"))
    grid.add_argument("--lo", type=float, nargs=2, metavar=("A", "B"), help="lower slice corner")
    grid.add_argument("--hi", type=float, nargs=2, metavar=("A", "B"), help="upper slice corner")
    grid.add_argument("--steps", type=int, nargs=2, default=(33, 33), metavar=("NI", "NJ"))
    grid.add_argument("--fixed", type=float, nargs="*", help="values of the remaining coordinates")

    sub.add_parser("crit", parents=[common], help="critical-point census")

    pred = sub.add_parser("predict", parents=[common], help="blow-up rate tables")
    pred.add_argument("--regime", choices=_REGIMES, required=True)
    pred.add_argument("--sweep-min", type=float, default=1e-3)
    pred.add_argument("--sweep-max", type=float, default=1e-1)
    pred.add_argument("--sweep-count", type=int, default=13)
    pred.add_argument("--xi", type=float, nargs="+", help="concentration point (sub; default: argmin)")

    en = sub.add_parser("energy-check", parents=[common], help="expansion residual verdict")
    en.add_argument("--regime", choices=("sub", "hole"), required=True)
    en.add_argument("--values", type=float, nargs="+", help="strictly decreasing small parameters")
    en.add_argument("--xi", type=float, nargs="+", help="concentration point (sub; default: argmin)")
    en.add_argument("--hole-center", type=float, nargs="+", help="hole center (hole; default: origin)")

    audit = sub.add_parser("morse-audit", parents=[common], help="census stability audit")
    audit.add_argument("--rho", type=float, default=0.05, help="C^2 size of the perturbations")
    audit.add_argument("--trials", type=int, default=5, help="number of random trials")

    sub.add_parser("constants", parents=[common], help="dimensional model constants")
    return top


def _resolve(args) -> tuple:
    """Validate flags into a RunManifest plus the loaded domain (if any)."""
    quad = QuadratureConfig(
        seed=args.seed,
        near_budget=args.near_budget,
        far_shells=args.far_shells,
        replicates=args.replicates,
    )
    crit = CritConfig(multistart=args.multistart)

    domain = None
    if args.command == "constants":
        if args.dim is None:
            raise PreconditionError("constants requires --dim")
        dimension = args.dim
    else:
        if not args.domain:
            raise PreconditionError(f"{args.command} requires --domain FILE")
        if not os.path.exists(args.domain):
            raise PreconditionError(f"domain file {args.domain!r} does not exist")
        domain = load_domain(args.domain)
        dimension = domain.dimension
        if args.dim is not None and args.dim != dimension:
            raise PreconditionError(
                f"--dim {args.dim} contradicts the domain file dimension {dimension}"
            )

    regime = getattr(args, "regime", None)
    options: dict = {}
    if args.command == "psi-grid":
        options = _resolve_grid_options(args, domain)
    elif args.command == "predict":
        options = _resolve_predict_options(args, dimension)
    elif args.command == "energy-check":
        options = _resolve_energy_options(args, dimension, regime)
    elif args.command == "morse-audit":
        if args.trials < 1:
            raise PreconditionError("--trials must be at least 1")
        options = {"rho": float(args.rho), "trials": int(args.trials)}

    os.makedirs(args.out, exist_ok=True)
    manifest = RunManifest(
        command=args.command,
        domain_file=args.domain,
        dimension=dimension,
        seed=args.seed,
        output_dir=args.out,
        regime=regime,
        quadrature=quad,
        critical=crit,
        options=options,
    )
    return manifest, domain


def _resolve_grid_options(args, domain) -> dict:
    n = domain.dimension
    a0, a1 = args.axes
    if not (0 <= a0 < n and 0 <= a1 < n) or a0 == a1:
        raise PreconditionError("--axes needs two distinct indices below the dimension")
    axes = (a0, a1)
    if args.steps[0] < 2 or args.steps[1] < 2:
        raise PreconditionError("--steps must be at least 2 in each direction")
    fixed = [0.0] * (n - 2) if args.fixed is None else _finite(args.fixed, "--fixed").tolist()
    if len(fixed) != n - 2:
        raise PreconditionError(f"--fixed needs exactly {n - 2} values")
    lo = None if args.lo is None else _finite(args.lo, "--lo").tolist()
    hi = None if args.hi is None else _finite(args.hi, "--hi").tolist()
    if lo is None or hi is None:
        anchor, _ = deep_point(domain)
        radius = domain.bounding_radius(anchor)
        lo = lo or [float(anchor[a0] - radius), float(anchor[a1] - radius)]
        hi = hi or [float(anchor[a0] + radius), float(anchor[a1] + radius)]
    if not (lo[0] < hi[0] and lo[1] < hi[1]):
        raise PreconditionError("--lo must be strictly below --hi on both axes")
    return {
        "axes": list(axes),
        "lo": lo,
        "hi": hi,
        "steps": [int(args.steps[0]), int(args.steps[1])],
        "fixed": fixed,
    }


def _point_option(options: dict, name: str, values, regime: str, wanted: str, dimension: int) -> None:
    """Validate a point flag that only the ``wanted`` regime reads; store it in options."""
    if values is None:
        return
    flag = "--" + name.replace("_", "-")
    if regime != wanted:
        raise PreconditionError(f"{flag} applies only to the {wanted} regime")
    if len(values) != dimension:
        raise PreconditionError(f"{flag} needs exactly {dimension} coordinates")
    options[name] = _finite(values, flag).tolist()


def _resolve_predict_options(args, dimension: int) -> dict:
    if not 0.0 < args.sweep_min <= args.sweep_max < np.inf:
        raise PreconditionError("need 0 < --sweep-min <= --sweep-max < inf")
    if args.sweep_count < 1:
        raise PreconditionError("--sweep-count must be at least 1")
    sweep = [float(v) for v in np.geomspace(args.sweep_min, args.sweep_max, args.sweep_count)]
    options = {"sweep": sweep}
    _point_option(options, "xi", args.xi, args.regime, "sub", dimension)
    return options


def _resolve_energy_options(args, dimension: int, regime: str) -> dict:
    defaults = {"sub": [0.1, 0.05, 0.025], "hole": [1e-2, 5e-3, 2.5e-3]}
    values = defaults[regime] if args.values is None else [float(v) for v in args.values]
    options: dict = {"values": values}
    _point_option(options, "xi", args.xi, regime, "sub", dimension)
    _point_option(options, "hole_center", args.hole_center, regime, "hole", dimension)
    if regime == "sub":
        _check_eps_grid(values)  # before the default xi's minimum search
    return options


_DISPATCH = {
    "psi-grid": cmd_psi_grid,
    "crit": cmd_crit,
    "predict": cmd_predict,
    "energy-check": cmd_energy_check,
    "morse-audit": cmd_morse_audit,
    "constants": cmd_constants,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        manifest, domain = _resolve(args)
        rc = _DISPATCH[manifest.command](manifest, domain)
        _write_json(os.path.join(manifest.output_dir, "manifest.json"), manifest.to_dict())
        return rc
    except (PreconditionError, MemoryError) as exc:  # MemoryError: a request too large to allocate
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"failed to converge: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
