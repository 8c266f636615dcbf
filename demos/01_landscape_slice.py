#!/usr/bin/env python3
"""Map the concentration landscape of a dumbbell-shaped region.

The landscape of a region assigns to every interior point the mass of the
*complement* under an inverse-power kernel.  Deep interior points see little
of the outside world and get small values; points near the wall get large
ones.  Where the landscape is critical is where concentrating solutions of
the associated elliptic problem can sit, so the first thing to do with a new
region is simply to look at its landscape.

This script samples a 2D slice of the landscape of an asymmetric dumbbell
(two balls of different size joined by a narrow bridge), writes the grid as
CSV next to this script, and prints the structure a reader should see:

  * the global minimum sits inside the LARGER lobe,
  * the smaller lobe carries its own local minimum,
  * the bridge carries a ridge separating the two.

Run:  python3 demos/01_landscape_slice.py
Deterministic: fixed seed, fixed grid; reruns write identical bytes.
"""

import os

import numpy as np

from bubblescape.geometry import Ball, Capsule, Domain, Union
from bubblescape.quadrature import QuadratureConfig, psi_integrals

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
CFG = QuadratureConfig(seed=0, near_budget=2**14, far_shells=24, replicates=4)


def dumbbell() -> Domain:
    big = Ball(np.array([-1.5, 0.0, 0.0]), 1.0)
    small = Ball(np.array([1.5, 0.0, 0.0]), 0.7)
    bridge = Capsule(np.array([-1.5, 0.0, 0.0]), np.array([1.5, 0.0, 0.0]), 0.3)
    return Domain(3, Union(big, Union(small, bridge)))


def main() -> None:
    dom = dumbbell()
    xs = np.linspace(-2.7, 2.4, 35)
    ys = np.linspace(-1.2, 1.2, 17)

    print("=" * 72)
    print("Concentration landscape of an asymmetric dumbbell, slice x3 = 0")
    print("=" * 72)

    values = np.full((xs.size, ys.size), -1.0)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            p = np.array([x, y, 0.0])
            if bool(dom.contains_many(p[None, :])[0]):
                values[i, j] = psi_integrals(dom, p, CFG).value

    interior = values >= 0.0
    print(f"grid: {xs.size} x {ys.size} cells, {int(interior.sum())} interior")

    # Global minimum and the two lobe minima.
    masked = np.where(interior, values, np.inf)
    imin, jmin = np.unravel_index(int(np.argmin(masked)), masked.shape)
    print(f"\nglobal minimum: psi = {values[imin, jmin]:.6f}"
          f" at x = ({xs[imin]:+.3f}, {ys[jmin]:+.3f})")

    left = np.where(interior & (xs[:, None] < -0.8), values, np.inf)
    right = np.where(interior & (xs[:, None] > 0.9), values, np.inf)
    mid = np.where(interior & (np.abs(xs[:, None]) < 0.45), values, np.inf)
    print(f"larger lobe minimum : {left.min():.6f}")
    print(f"smaller lobe minimum: {right.min():.6f}")
    print(f"bridge ridge (min over the neck): {mid.min():.6f}")
    assert left.min() < right.min() < mid.min(), "expected big-lobe < small-lobe < bridge"
    print("\nreading: the global minimum lives in the larger lobe; the bridge is a")
    print("ridge, so a concentrating family started on the bridge must slide into")
    print("one of the lobes.  The saddle between the lobes is located exactly by")
    print("the census demo (02).")

    # A coarse ASCII rendering, dark = deep (small psi).
    print("\nASCII rendering ('.' = outside, letters a..z from deep to shallow):")
    finite = values[interior]
    lo, hi = np.log(finite.min()), np.log(np.percentile(finite, 95))
    for j in reversed(range(ys.size)):
        row = ""
        for i in range(xs.size):
            if not interior[i, j]:
                row += "."
            else:
                t = (np.log(values[i, j]) - lo) / (hi - lo)
                row += chr(ord("a") + int(np.clip(t, 0.0, 1.0) * 25))
        print(row)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "dumbbell_slice.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("i,j,x0,x1,psi\n")
        for i in range(xs.size):
            for j in range(ys.size):
                fh.write(f"{i},{j},{float(xs[i])!r},{float(ys[j])!r},{float(values[i, j])!r}\n")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
