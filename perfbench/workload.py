"""Run one benchmark workload in this process: set up, time whole rounds, check.

Started by ``run.py`` in a fresh process, from the root of a checkout, with
``src`` on the import path and the numeric libraries' thread pools at one
thread.  Every round runs the same operations through the program's public
entry points; rounds repeat until ``--seconds`` have passed.  The outputs of
the last round are checked against independent references (``checks.py``),
and the outputs of every round must be byte-identical to the first.  The
result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

SPAWNED_AT = float(os.environ.get("PERFBENCH_SPAWNED_AT", time.monotonic()))
# The process and every thread it starts run on one CPU, so that a time
# does not depend on how much of a second CPU the machine lends psi-grid's
# pool at the moment (README, "Thread setting").  Set before NumPy starts
# any thread: threads inherit the affinity of the thread that starts them.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import numpy as np  # noqa: E402

import bubblescape  # noqa: E402
from bubblescape import bubbles, cli, critpoints, geometry, landscape, quadrature  # noqa: E402

import tracing  # noqa: E402

# Canonical domains.  The peanut (two overlapping unit balls) stands in for
# the dumbbell in the saddle search: see CHANGES.md for the seeds on which
# the dumbbell's census misses a lobe or its saddle polish stalls.
DOMAINS = {
    "ball3": (3, {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}),
    "ball4": (4, {"type": "ball", "center": [0.0, 0.0, 0.0, 0.0], "radius": 1.0}),
    "dumbbell": (3, {
        "type": "union",
        "left": {"type": "ball", "center": [-1.75, 0.0, 0.0], "radius": 1.0},
        "right": {
            "type": "union",
            "left": {"type": "ball", "center": [1.75, 0.0, 0.0], "radius": 1.0},
            "right": {"type": "capsule", "a": [-1.75, 0.0, 0.0], "b": [1.75, 0.0, 0.0], "radius": 0.35},
        },
    }),
    "holed": (3, {
        "type": "difference",
        "left": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
        "right": {"type": "ball", "center": [0.4, 0.0, 0.0], "radius": 0.25},
    }),
    "two_balls": (3, {
        "type": "union",
        "left": {"type": "ball", "center": [-2.5, 0.0, 0.0], "radius": 1.0},
        "right": {"type": "ball", "center": [2.5, 0.0, 0.0], "radius": 1.0},
    }),
    "peanut": (3, {
        "type": "union",
        "left": {"type": "ball", "center": [-0.9, 0.0, 0.0], "radius": 1.0},
        "right": {"type": "ball", "center": [0.9, 0.0, 0.0], "radius": 1.0},
    }),
}

# Quadrature budgets, each written once: the CLI flags (``_budget_argv``)
# and the library configs (``_config``) are both made from them.  The
# energy workload's CLI calls keep the CLI default (2^20 rays x 8); its
# budget here is that of the ``bubbles.interaction`` calls.
BUDGETS = {
    "landscape": {"near_budget": 2**17, "replicates": 8},
    "census": {"near_budget": 2**15, "replicates": 4, "far_shells": 24},
    "audit": {"near_budget": 2**14, "replicates": 4, "far_shells": 24},
    "energy": {"near_budget": 2**17, "replicates": 8, "far_shells": 32},
}
GRIDS = {
    "dumbbell": ["--steps", "7", "3", "--lo", "-2.4", "-0.5", "--hi", "2.4", "0.5"],
    "ball": ["--steps", "7", "7", "--lo", "-0.9", "-0.9", "--hi", "0.9", "0.9"],
}
# The cost of crit and morse-audit follows the Newton step counts, which
# the program seed sets, so repeating a round at one seed does not average
# them out.  The census and the audit run at several program seeds made
# from the workload seed instead: seed, seed + 1000, seed + 2000, ...  The
# audit runs one trial per seed at rho = 0.01: over 36 seeds one trial cost
# 1.10 s with a coefficient of variation of 0.25 there, against 1.52 s and
# 0.27 at rho = 0.05.
SEEDS_PER_RUN = {"census": 4, "audit": 12}
AUDIT_TRIALS = 1
AUDIT_RHO = 0.01
INTERACTION_SEPS = (1.0, 2.0, 4.0)
INTERACTION_DELTA = 1e-2


def _budget_argv(workload: str) -> list:
    return [arg for key, value in BUDGETS[workload].items() for arg in (f"--{key.replace('_', '-')}", str(value))]


def _config(workload: str, seed: int):
    return quadrature.QuadratureConfig(seed=seed, **BUDGETS[workload])


class Workload:
    """Operations of one round, and how to collect and check their outputs."""

    def __init__(self, name: str, seed: int, rundir: str):
        self.name = name
        self.seed = seed
        self.rundir = rundir
        self.files = {}
        for key, (dimension, root) in DOMAINS.items():
            path = os.path.join(rundir, f"{key}.json")
            with open(path, "w") as fh:
                json.dump({"dimension": dimension, "root": root}, fh)
            self.files[key] = path
        self.domains = {key: geometry.load_domain(path) for key, path in self.files.items()}
        landscape.constants(3)
        landscape.constants(4)
        self.ops = getattr(self, f"_ops_{name}")()
        self.state: dict = {}
        # Operations that failed in any round; their outputs are not collected.
        self.failed: set = set()

    # -- helpers ---------------------------------------------------------------

    def _dir(self, op: str) -> str:
        return os.path.join(self.rundir, op)

    def _program_seeds(self) -> list:
        k = SEEDS_PER_RUN.get(self.name, 1)
        return [self.seed + 1000 * j for j in range(k)]

    def _cli(self, op: str, argv: list, seed: int | None = None):
        seed = self.seed if seed is None else seed

        def run():
            rc = cli.main(argv + ["--seed", str(seed), "--out", self._dir(op)])
            self.state[op] = rc
            return rc

        return (op, run, self._dir(op))

    # -- operations ------------------------------------------------------------

    def _ops_landscape(self):
        return [
            self._cli("grid_dumbbell", ["psi-grid", "--domain", self.files["dumbbell"], *_budget_argv("landscape"),
                                        *GRIDS["dumbbell"]]),
            self._cli("grid_ball", ["psi-grid", "--domain", self.files["ball3"], *_budget_argv("landscape"),
                                    *GRIDS["ball"]]),
        ]

    def _ops_census(self):
        cfg = _config("census", self.seed)
        starts = [np.array([-0.9, 0.0, 0.0]), np.array([0.9, 0.0, 0.0])]

        def minima():
            rep = critpoints.census(self.domains["peanut"], cfg, critpoints.CritConfig(), warm_starts=starts)
            self.state["peanut_minima"] = rep.points
            return 0

        def saddle():
            a, b = self.state["peanut_minima"]
            self.state["peanut_saddle"] = critpoints.mountain_pass(
                self.domains["peanut"], a.location, b.location, cfg, critpoints.CritConfig()
            )
            return 0

        return [
            *(self._cli(f"crit_holed_{k}", ["crit", "--domain", self.files["holed"], *_budget_argv("census")], seed)
              for k, seed in enumerate(self._program_seeds())),
            ("peanut_minima", minima, None),
            ("peanut_saddle", saddle, None),
        ]

    def _ops_audit(self):
        argv = ["morse-audit", "--domain", self.files["two_balls"], *_budget_argv("audit"), "--rho", str(AUDIT_RHO),
                "--trials", str(AUDIT_TRIALS)]
        return [self._cli(f"audit_{k}", argv, seed) for k, seed in enumerate(self._program_seeds())]

    def _ops_energy(self):
        cfg = _config("energy", self.seed)

        def interactions():
            out = []
            for sep in INTERACTION_SEPS:
                b1 = bubbles.Bubble(1, INTERACTION_DELTA, np.array([0.0, 0.0, sep / 2.0]))
                b2 = bubbles.Bubble(1, INTERACTION_DELTA, np.array([0.0, 0.0, -sep / 2.0]))
                res = bubbles.interaction(3, b1, b2, cfg)
                out.append({"sep": sep, "delta": INTERACTION_DELTA, "value": res.value, "std": res.std_error})
            self.state["interaction"] = out
            return 0

        centre4 = ["--xi", "0", "0", "0", "0"]
        return [
            self._cli("energy_sub", ["energy-check", "--regime", "sub", "--domain", self.files["ball4"], *centre4]),
            self._cli("energy_hole", ["energy-check", "--regime", "hole", "--domain", self.files["ball3"]]),
            self._cli("predict_sub", ["predict", "--regime", "sub", "--domain", self.files["ball4"], *centre4]),
            self._cli("predict_nodal", ["predict", "--regime", "nodal", "--domain", self.files["ball3"]]),
            self._cli("predict_hole", ["predict", "--regime", "hole", "--domain", self.files["ball3"]]),
            ("interaction", interactions, None),
        ]

    # -- per-round bookkeeping ----------------------------------------------------

    def points_per_round(self) -> int:
        """Critical points a round locates (for ``critpoints.psi_calls_per_point``)."""
        if self.name == "census":
            return SEEDS_PER_RUN["census"] + 2 + 1
        if self.name == "audit":
            return SEEDS_PER_RUN["audit"] * 2 * (1 + AUDIT_TRIALS)
        return 0

    def full_budget(self) -> int:
        return BUDGETS[self.name]["near_budget"]

    # -- outputs -------------------------------------------------------------------

    def collect(self) -> tuple:
        """Outputs of the last round for ``checks``, plus extra check
        arguments.  Operations in ``self.failed`` are left out, so the
        checks of the others still run."""
        return getattr(self, f"_collect_{self.name}")()

    def _ok(self, op: str) -> bool:
        return op not in self.failed

    def _collect_landscape(self):
        from checks import _dist, _dist_segment

        out = {}
        plans = {"dumbbell": (self.domains["dumbbell"], "grid_dumbbell"), "ball": (self.domains["ball3"], "grid_ball")}
        cfg = _config("landscape", self.seed)
        for name, (domain, op) in plans.items():
            if not self._ok(op):
                continue
            cells = _read_grid(os.path.join(self._dir(op), "psi_grid.csv"))
            ni = 1 + max(i for i, _ in cells)
            nj = 1 + max(j for _, j in cells)
            # One quadrant: the other three repeat it by symmetry.
            keys = [k for k, c in sorted(cells.items()) if c[2] > 0.0 and 2 * k[0] >= ni - 1 and 2 * k[1] >= nj - 1]
            with ThreadPoolExecutor(max_workers=2) as pool:
                evs = list(pool.map(
                    lambda k: quadrature.psi_integrals(domain, np.array([cells[k][0], cells[k][1], 0.0]), cfg), keys
                ))
            out[name] = {"cells": cells, "sample": {k: (ev.value, ev.value_std) for k, ev in zip(keys, evs)}}
        geo = {
            "ball": {"inside": lambda p: _dist(p, (0.0, 0.0, 0.0)) < 1.0},
            "dumbbell": {
                "inside": lambda p: (
                    _dist(p, (-1.75, 0.0, 0.0)) < 1.0
                    or _dist(p, (1.75, 0.0, 0.0)) < 1.0
                    or _dist_segment(p, (-1.75, 0.0, 0.0), (1.75, 0.0, 0.0)) < 0.35
                ),
                "lobes": [((-1.75, 0.0, 0.0), 1.0), ((1.75, 0.0, 0.0), 1.0)],
                "enclosing": ((0.0, 0.0, 0.0), 2.75),
            },
        }
        return out, geo

    def _collect_census(self):
        holed = []
        for k in range(SEEDS_PER_RUN["census"]):
            op = f"crit_holed_{k}"
            if not self._ok(op):
                continue
            with open(os.path.join(self._dir(op), "census.json")) as fh:
                holed.append({"rc": self.state[op], "census": json.load(fh)})
        peanut = {}
        if self._ok("peanut_minima"):
            peanut["minima"] = [p.to_dict() for p in self.state["peanut_minima"]]
        if self._ok("peanut_saddle"):
            peanut["saddle"] = self.state["peanut_saddle"].to_dict()
        return ({"holed": holed, "hole": DOMAINS["holed"][1]["right"]["center"], "peanut": peanut},)

    def _collect_audit(self):
        audits = []
        for k in range(SEEDS_PER_RUN["audit"]):
            if not self._ok(f"audit_{k}"):
                continue
            with open(os.path.join(self._dir(f"audit_{k}"), "morse_audit.json")) as fh:
                audits.append({"rc": self.state[f"audit_{k}"], "audit": json.load(fh)})
        # The deepest points of two unit balls 5 apart are their centres, and
        # the far side of the other ball is 2 * 2.5 + 1 from either.
        scale = 6.0
        fld = geometry.PerturbationField.random(
            3, bumps=3, seed=self.seed, support_center=np.array([2.5, 0.0, 0.0]), support_radius=1.2 * scale
        ).with_c2_norm(AUDIT_RHO)
        pdom = geometry.perturb(self.domains["two_balls"], fld)
        X = np.random.default_rng(self.seed).uniform(-3.5, 3.5, size=(256, 3))
        err = float(np.max(np.abs(pdom.pull_back(pdom.push_forward(X)) - X)))
        return ({"audits": audits, "scale": scale, "roundtrip_error": err},)

    def _collect_energy(self):
        def table(op, regime):
            params, rows = _read_csv(os.path.join(self._dir(op), f"energy_check_{regime}.csv"), 0)
            rows = [{"small": r[0], "j": r[1], "residual": r[2], "std": r[3]} for r in rows]
            return {"rc": self.state[op], "params": params, "rows": rows}

        def prediction(op, regime):
            params, _ = _read_csv(os.path.join(self._dir(op), f"predict_{regime}.csv"), 2)
            return {"rc": self.state[op], "params": params}

        return ({
            "energy_check": {r: table(f"energy_{r}", r) for r in ("sub", "hole") if self._ok(f"energy_{r}")},
            "predict": {r: prediction(f"predict_{r}", r) for r in ("sub", "nodal", "hole") if self._ok(f"predict_{r}")},
            "interaction": self.state["interaction"] if self._ok("interaction") else [],
        },)


def _read_grid(path: str) -> dict:
    cells = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("i,"):
                continue
            i, j, x, y, v = line.strip().split(",")
            cells[(int(i), int(j))] = (float(x), float(y), float(v))
    return cells


def _read_csv(path: str, param_line: int) -> tuple:
    """``key=value`` pairs from one comment line, and the numeric rows."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    params = {}
    for part in lines[param_line].split(";"):
        if "=" in part:
            key, value = part.split("=", 1)
            key = key.strip().split(" ")[-1]
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    rows = [[float(v) for v in line.split(",")] for line in lines if line[:1].isdigit()]
    return params, rows


def _digest(path: str | None) -> str | None:
    if path is None:
        return None
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of NumPy array work and
    interpreter work.  It runs no bubblescape code, so it shows the
    machine's current speed and nothing a change to the program can move.
    It is printed beside the measured times, to make a drift in the
    machine's speed visible; it scales no metric."""
    X = np.random.default_rng(12345).standard_normal((1 << 15, 3))
    t = time.perf_counter()
    acc = 0.0
    for _ in range(6):
        r = np.sqrt(np.einsum("ij,ij->i", X, X))
        Y = np.where(r[:, None] > 1.0, X / r[:, None], X)
        acc += float((Y**3).sum()) + float(np.sort(r)[::7].sum())
    total = 0
    for k in range(30000):
        total += (k * 7) % 13
    return time.perf_counter() - t


def _usage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime, r.ru_stime, r.ru_minflt


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("landscape", "census", "audit", "energy"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--mutations", action="store_true", help="also show that each check rejects wrong outputs")
    ap.add_argument("--fail-first-op", action="store_true", help="make the first operation raise, to show that a "
                    "failed operation makes the run incorrect")
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(bubblescape.__file__).startswith(src + os.sep):
        print(f"bubblescape was imported from {bubblescape.__file__}, not from {src}", file=sys.stderr)
        return 2
    os.makedirs(args.rundir, exist_ok=True)
    work = Workload(args.workload, args.seed, args.rundir)
    setup_s = time.monotonic() - SPAWNED_AT
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0
    if args.fail_first_op:
        op, _, outdir = work.ops[0]

        def broken():
            raise RuntimeError("deliberate failure")

        work.ops[0] = (op, broken, outdir)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    times = {op: [] for op, _, _ in work.ops}
    cpu = {op: [] for op, _, _ in work.ops}
    fails = {op: 0 for op, _, _ in work.ops}
    digests: dict = {}
    calibrations: list = []
    errors: list = []
    attempted = failed = rounds = 0
    u0, s0, f0 = _usage()
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        calibrations.append(calibrate())
        for op, run, outdir in work.ops:
            attempted += 1
            ut, st, _ = _usage()
            t = time.perf_counter()
            try:
                ok = run() == 0
            except Exception as exc:  # an operation that raises is counted as failed
                print(f"{op}: {type(exc).__name__}: {exc}", file=sys.stderr)
                ok = False
            times[op].append(time.perf_counter() - t)
            ut2, st2, _ = _usage()
            cpu[op].append(ut2 - ut + st2 - st)
            failed += not ok
            fails[op] += not ok
            if ok:
                digest = _digest(outdir)
                if digests.setdefault(op, digest) != digest:
                    errors.append(f"{op}: output bytes changed between rounds")
        rounds += 1
    u1, s1, f1 = _usage()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "calibration_s": statistics.median(calibrations),
        "wall_s": sum(statistics.median(v) for v in times.values()),
        "cpu_s": sum(statistics.median(v) for v in cpu.values()),
        "peak_rss_mb": peak_rss_mb,
        "op_wall_s": {op: statistics.median(v) for op, v in times.items()},
    }
    if tracer is not None:
        result["per_layer"] = tracing.layer_metrics(tracer, rounds, work.full_budget(), work.points_per_round())
        result["per_layer"].update({
            "process.user_s": (u1 - u0) / rounds,
            "process.sys_s": (s1 - s0) / rounds,
            "process.minor_faults": (f1 - f0) / rounds,
        })
        tracing.dump(tracer, os.path.join(args.rundir, "trace.json"))

    import checks  # mpmath loads here, after the timed part

    # A failed operation makes the run incorrect; the outputs of the
    # operations that did not fail are still checked.
    errors += [f"{op}: failed in {n} of {rounds} rounds" for op, n in fails.items() if n]
    work.failed = {op for op, n in fails.items() if n}
    outputs = work.collect()
    errors += checks.CHECKS[args.workload](*outputs)
    if failed == 0 and args.mutations:
        missed = checks.rejected_mutations(args.workload, *outputs)
        errors += [f"the checks accept a wrong output: {name}" for name in missed]
        result["mutations"] = len(checks.MUTATIONS[args.workload])
    result["errors"] = errors
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
