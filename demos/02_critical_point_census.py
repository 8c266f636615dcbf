#!/usr/bin/env python3
"""Find and classify every critical point of a landscape.

Minima of the concentration landscape host single concentrating bubbles;
saddles between minima host the unstable ones found by min-max methods.
This script runs the full census machinery on two reference regions:

  1. the unit ball, whose landscape has exactly one critical point -- the
     center, a nondegenerate minimum with Hessian exactly (2*omega) I;
  2. a symmetric dumbbell, which carries two mirror minima plus the
     mountain-pass saddle on the neck.

It then perturbs the dumbbell boundary with random C^2-small bump fields
and verifies the census is STABLE: every critical point persists, keeps its
Morse index, and moves only by the order of the perturbation.

Run:  python3 demos/02_critical_point_census.py
Deterministic: all randomness is seeded; reruns print identical numbers.
"""

import numpy as np

from bubblescape.critpoints import CritConfig, census, morse_audit, mountain_pass
from bubblescape.geometry import Ball, Capsule, Domain, Union
from bubblescape.quadrature import QuadratureConfig, sphere_area

CFG = QuadratureConfig(seed=0, near_budget=2**15, far_shells=24, replicates=4)
CRIT = CritConfig(multistart=8)


def show(report, title: str) -> None:
    print(f"\n{title}")
    print(f"  component lower bound: {report.cat_lower_bound};"
          f" rich enough: {report.satisfied}")
    for p in report.points:
        loc = ", ".join(f"{v:+.6f}" for v in p.location)
        kind = "minimum" if p.morse_index == 0 else f"saddle (index {p.morse_index})"
        print(f"  {kind:18s} at ({loc})  psi = {p.psi_value:.8f}"
              f"  |grad| = {p.grad_norm:.2e}  margin = {p.margin():.3f}")


def main() -> None:
    print("=" * 72)
    print("Critical-point census: unit ball, then a symmetric dumbbell")
    print("=" * 72)

    ball = Domain(3, Ball(np.zeros(3), 1.0))
    rep = census(ball, CFG, CRIT)
    show(rep, "unit ball:")
    omega = sphere_area(3)
    center = rep.points[0]
    print(f"  checks: |location| = {np.linalg.norm(center.location):.2e} (exact center),")
    print(f"          eigenvalues {center.hess_eigs} vs 2*omega = {2 * omega:.6f}")

    c = 1.75
    dumbbell = Domain(
        3,
        Union(
            Ball(np.array([-c, 0.0, 0.0]), 1.0),
            Union(Ball(np.array([c, 0.0, 0.0]), 1.0),
                  Capsule(np.array([-c, 0.0, 0.0]), np.array([c, 0.0, 0.0]), 0.35)),
        ),
    )
    rep = census(dumbbell, CFG, CRIT)
    show(rep, "dumbbell (lobes at x = -1.75 and +1.75, neck radius 0.35):")
    saddle = rep.saddles[0]
    print(f"  the saddle sits on the neck mid-plane: x1 = {saddle.location[0]:+.2e}")
    print(f"  its Hessian has exactly one descending direction: {saddle.hess_eigs}")

    # The same saddle, found independently as the mountain pass between the
    # two minima: relax a string of states joining them and polish its peak.
    m1, m2 = (p.location for p in rep.minima)
    mp = mountain_pass(dumbbell, m1, m2, CFG, CRIT)
    drift = np.linalg.norm(mp.location - saddle.location)
    print(f"\nmountain pass from the two minima lands {drift:.2e} away"
          f" from the census saddle")

    print("\nstability audit: 3 random C^2-small boundary deformations, size 0.05")
    audit = morse_audit(dumbbell, rho=0.05, trials=3, quad_cfg=CFG, crit_cfg=CRIT)
    print(f"  stable: {audit.stable};  worst nondegeneracy margin: {audit.min_margin:.4f}")
    print(f"  largest critical-point displacement: {audit.max_displacement:.4f}"
          f"  (perturbation size 0.05)")
    for f in audit.failures:
        print(f"  FAILURE: {f}")
    print("\nreading: the census is a Morse-stable picture -- small dents in the")
    print("boundary move the critical points a little but never create, destroy,")
    print("or reclassify them.")


if __name__ == "__main__":
    main()
