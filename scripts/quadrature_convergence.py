#!/usr/bin/env python3
"""Grid-convergence study behind the quadrature tolerances.

Tabulates the four character integrals at 3..7 nodes per dimension for
the shipped product rule (periodic nodes on the flat full-period axes,
Gauss-Legendre with the density weight on beta, b, theta), and contrasts
a pure Gauss-Legendre rule and the stated-ranges box.  Shows why:

* the flat axes need periodic nodes (pure GL converges far too slowly
  for the oscillatory integrands),
* a phi grid with a node count divisible by 3 is blind to the lowest
  surviving phi harmonic of quartic class functions (nodes=6 without the
  bump would report <adj,adj> ~ 0.54),
* the stated-ranges box gives biased values at any resolution.

Run:  python scripts/quadrature_convergence.py
"""

from su3geom import RANGES_STATED, quadrature_mean
from su3geom.verify import (SCHUR_NAMES, SCHUR_TARGETS,
                            character_integrals_quadrature, schur_integrands)


def stated_box_characters(nodes):
    means, _ = quadrature_mean(schur_integrands, nodes, ranges=RANGES_STATED)
    return [(name, complex(m), None, target)
            for name, m, target in zip(SCHUR_NAMES, means, SCHUR_TARGETS)]


def show(rows, label):
    print(f"  {label}")
    for name, val, _, target in rows:
        print(f"    {name:<17} = {val.real:+.6f}{val.imag:+.6f}i"
              f"   (target {target}, error {abs(val - target):.2e})")


def main():
    print("== shipped rule over the full-period cover box ==")
    for nodes in (3, 4, 5, 6, 7):
        rows = character_integrals_quadrature(nodes)
        show(rows, f"nodes_per_dim = {nodes}")

    print("\n== stated-ranges box (does not tile the group) ==")
    for nodes in (5, 6):
        show(stated_box_characters(nodes), f"nodes_per_dim = {nodes}")


if __name__ == "__main__":
    main()
