#!/usr/bin/env python3
"""Exactness table of the product rule for the four character integrals.

Tabulates the four Schur integrals at 3..7 nodes per flat axis for the
shipped product rule (periodic midpoint nodes on the flat full-period
axes, Gauss-Legendre nodes in s = sin^2 x on beta, b and theta, as many
as the degree (nodes - 1) // 2 needs), then over the stated-ranges box.
What it prints:

* below 5 nodes the rule is exact to degree 1 only, and the integrands
  of degree 2 in U alias (<adj,adj> = 1.10 at 3 nodes and 1.75 at 4,
  <fund,antifund> = -1/3 at both), while <fund,fund> and <fund,1>, of
  degree 1, are exact from 3 nodes;
* from 5 nodes on every error is roundoff, below 1e-15, on 25 000 nodes
  at 5 and 201 684 at 7;
* the stated-ranges box stays biased at any resolution (|<fund,1>| = 0.071
  at 5 and 6 nodes), because it does not tile the group.

Each row also prints its node count on each axis, the grid's node count
and the rule's wall time, so the cost of a resolution shows next to its
accuracy.

Run:  python scripts/quadrature_convergence.py
"""

from su3geom import RANGES_QUAD, RANGES_STATED, integrate_quadrature
from su3geom.haar import _quad_axis
from su3geom.verify import SCHUR_NAMES, SCHUR_TARGETS, schur_integrands


def characters(nodes, ranges=RANGES_QUAD):
    """The four character integrals as (name, value, None, target) rows,
    with the grid's node count and the rule's wall time in seconds."""
    r = integrate_quadrature(schur_integrands, nodes, ranges=ranges)
    rows = [(name, complex(m), None, target)
            for name, m, target in zip(SCHUR_NAMES, r.estimate, SCHUR_TARGETS)]
    return rows, r.n, r.elapsed_s


def stated_box_characters(nodes):
    """The rows of ``characters`` over the stated-ranges box."""
    return characters(nodes, RANGES_STATED)[0]


def axis_counts(nodes, ranges=RANGES_QUAD):
    """Nodes on alpha, beta, gamma, theta, a, b, c and phi, in that order."""
    return [len(_quad_axis(dim, lo, hi, nodes)[0])
            for dim, (lo, hi) in enumerate(ranges.as_tuples())]


def show(nodes, ranges=RANGES_QUAD):
    rows, n_nodes, seconds = characters(nodes, ranges)
    counts = " x ".join(map(str, axis_counts(nodes, ranges)))
    print(f"  nodes_per_dim = {nodes}: {counts} = {n_nodes} nodes in {seconds:.3f} s")
    for name, val, _, target in rows:
        print(f"    {name:<17} = {val.real:+.6f}{val.imag:+.6f}i"
              f"   (target {target}, error {abs(val - target):.2e})")


def main():
    print("== shipped rule over the full-period cover box ==")
    for nodes in (3, 4, 5, 6, 7):
        show(nodes)

    print("\n== stated-ranges box (does not tile the group) ==")
    for nodes in (5, 6):
        show(nodes, RANGES_STATED)


if __name__ == "__main__":
    main()
