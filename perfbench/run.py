"""bubblescape benchmark: one command for every workload and metric.

Run from the root of a checkout:

    python3 perfbench/run.py --workload landscape --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --seed 0                  # every workload in turn
    python3 perfbench/run.py --steady 10               # two sets of ten runs each
    python3 perfbench/run.py --mutations --seconds 1   # checks reject wrong outputs and failed operations

A run starts the workload in a fresh process (``workload.py``), with ``src``
on the import path and the numeric libraries' thread pools at one thread.
It starts ``SETUP_PROBES`` more processes that only set up, and reports the
median set-up time of the three.  Times are measured seconds.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which are the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The exit code is 0 only when every operation succeeded
and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("landscape", "census", "audit", "energy")
RUN_ROOT = ".perfbench_runs"
SETUP_PROBES = 2
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 170


def _load_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child(workload: str, seed: int, seconds: float, trace: int, rundir: str, extra=()) -> dict:
    """Run ``workload.py`` in a fresh process and return its result record."""
    result = os.path.join(rundir, f"result-{time.monotonic_ns()}.json")
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env["PERFBENCH_SPAWNED_AT"] = repr(time.monotonic())
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--rundir", rundir, "--result", result, *extra,
    ]
    with open(os.path.join(rundir, "workload.log"), "a") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result):
        raise RuntimeError(f"{workload} process exited {proc.returncode}; see {rundir}/workload.log")
    with open(result) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float, trace: int, extra=()) -> tuple:
    """One benchmark run: the result line and the child's full record."""
    rundir = os.path.join(RUN_ROOT, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    rec = _child(workload, seed, seconds, trace, rundir, extra)
    probes = [rec] + [_child(workload, seed, 0, 0, rundir, ["--setup-only"]) for _ in range(SETUP_PROBES)]
    rec["setup_samples"] = [p["setup_s"] for p in probes]
    spec = _load_spec()
    if trace:
        metrics = {m["name"]: {"value": rec["per_layer"][m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": rec["wall_s"],
            "cpu_s": rec["cpu_s"],
            "peak_rss_mb": rec["peak_rss_mb"],
            "setup_s": statistics.median(rec["setup_samples"]),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    line = {
        "correct": not rec["errors"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    return line, rec


def _quartile_spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def steady(runs: int, seconds: float, workloads) -> int:
    """Two sets of ``runs`` runs per workload on fresh seeds; print, per
    metric and workload, each set's median and spread, the gap between the
    medians, and the bound."""
    spec = _load_spec()
    ok = True
    for workload in workloads:
        sets = []
        for k in range(2):
            values: dict = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in range(k * runs, (k + 1) * runs):
                line, rec = run_once(workload, seed, seconds, 0)
                ok &= line["correct"] and line["failed"] == 0
                for name, m in line["metrics"].items():
                    values[name].append(m["value"])
                side = {k: rec[k] for k in ("setup_samples", "calibration_s", "rounds")}
                print(workload, seed, json.dumps(line), json.dumps(side), flush=True)
            sets.append(values)
        for m in spec["end_to_end"]:
            a, b = sets[0][m["name"]], sets[1][m["name"]]
            gap = statistics.median(b) / statistics.median(a) - 1.0
            spreads = (_quartile_spread(a), _quartile_spread(b))
            print(
                f"{workload:9s} {m['name']:12s} median {statistics.median(a):.4g} / {statistics.median(b):.4g}"
                f" {m['unit']}; spread {spreads[0]:.3f} / {spreads[1]:.3f}; gap {gap:+.3f}; bound {m['bound']}",
                flush=True,
            )
            ok &= max(spreads) <= m["bound"]
            ok &= gap <= m["bound"]
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None, help="measured time per run (default from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="RUNS", help="two sets of RUNS runs of every workload")
    ap.add_argument("--mutations", action="store_true", help="show that every check rejects a wrong output")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "bubblescape", "__init__.py")):
        print("run from the root of a bubblescape checkout: src/bubblescape is missing", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _load_spec()["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.steady:
        return steady(args.steady, seconds, workloads)
    if args.mutations:
        ok = True
        for workload in workloads:
            line, rec = run_once(workload, args.seed, seconds, 0, ["--mutations"])
            print(f"{workload}: {rec.get('mutations', 0)} wrong outputs tried; errors: {rec['errors'] or 'none'}")
            ok &= line["correct"]
            line, rec = run_once(workload, args.seed, seconds, 0, ["--fail-first-op"])
            print(f"{workload}: first operation made to raise; correct {line['correct']}, failed {line['failed']}"
                  f" of {line['attempted']}; errors: {rec['errors']}")
            ok &= not line["correct"]
        return 0 if ok else 1
    ok = True
    for workload in workloads:
        line, rec = run_once(workload, args.seed, seconds, args.trace)
        for err in rec["errors"]:
            print(f"check failed: {err}", file=sys.stderr)
        print(f"{workload}: {rec['rounds']} rounds; set-up samples {rec['setup_samples']} s;"
              f" calibration {rec['calibration_s']:.5f} s;"
              f" per-operation wall s {json.dumps(rec['op_wall_s'])}")
        if args.trace:
            print(f"{workload}: traced wall_s {rec['wall_s']:.4f}")
        if len(workloads) > 1:
            print(f"{workload}: attempted {line['attempted']}, failed {line['failed']}, correct {line['correct']}; "
                  + ", ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in line["metrics"].items()))
        ok &= line["correct"]
    # With one workload, the last line is that run's result object.
    print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
