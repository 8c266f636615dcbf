"""Span tracer that wraps bubblescape's public layer functions from outside.

The tracer replaces each traced function or method, in every bubblescape
module namespace that holds it, with a wrapper that records one span:
name, start, end, parent span and thread.  Spans stay in memory until the
run ends.  psi-grid evaluates the landscape on a thread pool, so each thread
keeps its own stack of open spans; a span opened on a pool thread has no
parent on that thread and is attributed to the enclosing ``cli.main`` span
by time when ``cli.self_s`` is derived.

Nothing under ``src/`` is touched: the program runs its own code, and only
the module attributes are swapped for the life of the benchmark process.
"""

from __future__ import annotations

import functools
import json
import threading
import time

import numpy as np


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.theta_points = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped to record a span; ``attrs(args, kwargs, result)``
        gives the counts stored with it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = {
                "name": name,
                "parent": stack[-1] if stack else None,
                "thread": threading.get_ident(),
                "start": time.perf_counter(),
            }
            with tracer._lock:
                span["id"] = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced

    def count_theta(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(field, X):
            n = _rows(X)
            with tracer._lock:
                tracer.theta_points += n
            return fn(field, X)

        return counted


def install(tracer: Tracer) -> None:
    """Swap every traced public function and method for its traced wrapper."""
    from bubblescape import bubbles, cli, critpoints, geometry, landscape, quadrature

    modules = (geometry, quadrature, critpoints, landscape, bubbles, cli)

    def patch_function(module, name, span_name, attrs=None):
        original = getattr(module, name)
        wrapped = tracer.wrap(span_name, original, attrs)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def patch_method(cls, name, span_name, attrs=None):
        setattr(cls, name, tracer.wrap(span_name, getattr(cls, name), attrs))

    def evals(args, kwargs, result):
        return {"n_evals": int(result.n_evals)}

    def psi_attrs(args, kwargs, result):
        config = args[2] if len(args) > 2 else kwargs["config"]
        return {
            "n_evals": int(result.n_evals),
            "budget": int(config.near_budget),
            "rel_std": float(result.value_std / result.value) if result.value else 0.0,
        }

    patch_method(geometry.Domain, "surface_crossing_candidates", "geometry.crossings",
                 lambda a, k, r: {"rays": _rows(a[2])})
    patch_method(geometry.PerturbedDomain, "surface_crossing_candidates", "geometry.crossings",
                 lambda a, k, r: {"rays": _rows(a[2])})
    patch_method(geometry.Domain, "contains_many", "geometry.membership",
                 lambda a, k, r: {"points": _rows(a[1])})
    patch_method(geometry.PerturbedDomain, "contains_many", "geometry.membership")
    patch_method(geometry.PerturbedDomain, "pull_back", "geometry.pullback",
                 lambda a, k, r: {"points": _rows(a[1])})
    geometry.PerturbationField.__call__ = tracer.count_theta(geometry.PerturbationField.__call__)
    patch_function(geometry, "boundary_nearest", "geometry.boundary")
    patch_function(geometry, "diameter_pair", "geometry.boundary")

    patch_function(quadrature, "psi_integrals", "quadrature.psi", psi_attrs)
    patch_function(quadrature, "exterior_lp_mass", "quadrature.lp", evals)
    patch_function(quadrature, "ball_lp_mass", "quadrature.lp", evals)

    patch_function(critpoints, "find_minima", "critpoints.find_minima")
    patch_function(critpoints, "mountain_pass", "critpoints.mountain_pass")
    patch_function(critpoints, "census", "critpoints.census",
                   lambda a, k, r: {"warm": k.get("warm_starts") is not None})
    patch_function(critpoints, "morse_audit", "critpoints.morse_audit")

    for name in ("predict_subcritical", "predict_nodal", "predict_hole"):
        patch_function(landscape, name, "landscape.predict")
    patch_function(bubbles, "energy", "bubbles.energy")
    patch_function(bubbles, "interaction", "bubbles.interaction")
    patch_function(bubbles, "expansion_residual_sub", "bubbles.expansion_residual")
    patch_function(bubbles, "expansion_residual_hole", "bubbles.expansion_residual")
    patch_function(cli, "main", "cli.main")


def _union_length(intervals) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(tracer: Tracer, rounds: int, full_budget: int, points_per_round: int) -> dict:
    """Per-layer figures per round, derived from the recorded spans.

    Geometry, quadrature and ``cli.self_s`` times are self times: a span's
    duration minus the time covered by the spans it opened.  The stage
    times of critpoints, landscape and bubbles are inclusive.  Spans on the
    two psi-grid pool threads add up, so a layer's time can exceed wall time.
    """
    spans = tracer.spans
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        return dur(s) - sum(dur(c) for c in children.get(s["id"], ()))

    def ancestors(s):
        while s["parent"] is not None:
            s = spans[s["parent"]]
            yield s

    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name, fn):
        return float(sum(fn(s) for s in named(name)))

    psi = named("quadrature.psi")
    crit_psi = [s for s in psi if any(a["name"].startswith("critpoints.") for a in ancestors(s))]
    full = [s for s in crit_psi if s["budget"] == full_budget]
    light = [s for s in crit_psi if s["budget"] != full_budget]
    psi_rays = sum(
        c.get("rays", 0) for s in psi for c in children.get(s["id"], ()) if c["name"] == "geometry.crossings"
    )
    psi_incl = total("quadrature.psi", dur)
    lp_incl = total("quadrature.lp", dur)
    lp_evals = total("quadrature.lp", lambda s: s["n_evals"])
    scored = [s["rel_std"] * np.sqrt(dur(s)) for s in psi if s["rel_std"] > 0.0]

    main_thread = threading.get_ident()
    cli_self = 0.0
    for m in named("cli.main"):
        inner = [(c["start"], c["end"]) for c in children.get(m["id"], ())]
        inner += [
            (s["start"], s["end"])
            for s in spans
            if s["parent"] is None and s["thread"] != main_thread and m["start"] <= s["start"] <= m["end"]
        ]
        cli_self += dur(m) - _union_length(inner)

    per_round = {
        "geometry.crossings_s": total("geometry.crossings", self_time),
        "geometry.crossings_rays": total("geometry.crossings", lambda s: s["rays"]),
        "geometry.membership_s": total("geometry.membership", self_time),
        "geometry.membership_points": total("geometry.membership", lambda s: s.get("points", 0)),
        "geometry.pullback_s": total("geometry.pullback", self_time),
        "geometry.pullback_points": total("geometry.pullback", lambda s: s["points"]),
        "geometry.theta_points": float(tracer.theta_points),
        "geometry.boundary_s": total("geometry.boundary", self_time),
        "quadrature.psi_calls": float(len(psi)),
        "quadrature.psi_s": total("quadrature.psi", self_time),
        "quadrature.psi_n_evals": total("quadrature.psi", lambda s: s["n_evals"]),
        "quadrature.lp_calls": float(len(named("quadrature.lp"))),
        "quadrature.lp_s": total("quadrature.lp", self_time),
        "quadrature.lp_n_evals": lp_evals,
        "critpoints.find_minima_s": total("critpoints.find_minima", dur),
        "critpoints.mountain_pass_s": total("critpoints.mountain_pass", dur),
        "critpoints.psi_calls_full": float(len(full)),
        "critpoints.psi_calls_light": float(len(light)),
        "critpoints.warm_census_s": float(sum(dur(s) for s in named("critpoints.census") if s["warm"])),
        "landscape.predict_s": total("landscape.predict", dur),
        "bubbles.energy_s": total("bubbles.energy", dur),
        "bubbles.energy_calls": float(len(named("bubbles.energy"))),
        "cli.self_s": cli_self,
    }
    out = {k: v / rounds for k, v in per_round.items()}
    # Ratios are the same per round and per run.
    out["quadrature.psi_rays_per_s"] = psi_rays / psi_incl if psi_incl > 0 else 0.0
    out["quadrature.lp_evals_per_s"] = lp_evals / lp_incl if lp_incl > 0 else 0.0
    out["quadrature.psi_stderr_sqrt_s"] = float(np.median(scored)) if scored else 0.0
    out["critpoints.light_call_ms"] = 1e3 * float(np.mean([dur(s) for s in light])) if light else 0.0
    calls = len(full) + len(light)
    out["critpoints.psi_calls_per_point"] = calls / (rounds * points_per_round) if points_per_round else 0.0
    return out


def dump(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"theta_points": tracer.theta_points, "spans": tracer.spans}, fh)
