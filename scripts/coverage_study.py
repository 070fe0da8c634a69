#!/usr/bin/env python3
"""Empirical study of which coordinate boxes tile SU(3).

Compares the Euler-angle sampler against an independent QR-based Haar
sampler, decomposes reference-sampled elements to histogram where their
canonical representatives land, and tabulates the density integral over
the candidate range boxes.  This is the evidence behind the extended
gamma and phi ranges used by the sampler (see su3geom.haar docstring).

Run:  python scripts/coverage_study.py [--n 200000] [--seed 0]
"""

import argparse
import math

import numpy as np

from su3geom import (RANGES_COVER, RANGES_STATED, compose_many, decompose,
                     group_volume, sample_angles)
from su3geom.euler import PHI_PERIOD
from su3geom.haar import sub_seed


def qr_haar_su3(n, seed):
    rng = np.random.default_rng(seed)
    Z = (rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3)))
    Q, R = np.linalg.qr(Z / np.sqrt(2.0))
    d = np.einsum("nii->ni", R)
    Q = Q * (d / np.abs(d))[:, None, :]
    det = np.linalg.det(Q)
    return Q / (det ** (1.0 / 3.0))[:, None, None]


def stated_box_sample(n, seed):
    """Sampler restricted to the stated ranges (gamma < pi, phi < 2 pi)."""
    rng = np.random.default_rng(seed)
    u = rng.random((n, 8))
    x = np.empty_like(u)
    x[:, 0] = math.pi * u[:, 0]
    x[:, 1] = np.arcsin(np.sqrt(u[:, 1]))
    x[:, 2] = math.pi * u[:, 2]
    x[:, 3] = np.arcsin(u[:, 3] ** 0.25)
    x[:, 4] = math.pi * u[:, 4]
    x[:, 5] = np.arcsin(np.sqrt(u[:, 5]))
    x[:, 6] = math.pi * u[:, 6]
    x[:, 7] = 2 * math.pi * u[:, 7]
    return x


def moments(us, label):
    tr = np.einsum("nii->n", us)
    tr2 = np.einsum("nii->n", us @ us)
    n = len(tr)
    print(f"  {label}")
    print(f"    E[tr U]      = {tr.mean():+.5f}   (Haar: 0, se ~ {1/np.sqrt(n):.1e})")
    print(f"    E[|tr U|^2]  = {np.mean(np.abs(tr) ** 2):+.5f}   (Haar: 1)")
    print(f"    E[tr U^2]    = {tr2.mean():+.5f}   (Haar: 0)")
    print(f"    E[|U_11|^2]  = {np.mean(np.abs(us[:, 0, 0]) ** 2):+.5f}   (Haar: 1/3)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    n = args.n

    print("== sampler moments vs independent QR reference ==")
    moments(compose_many(stated_box_sample(n, sub_seed(args.seed, 1))),
            "stated box (gamma < pi, phi < 2 pi)  [biased]")
    moments(compose_many(sample_angles(n, sub_seed(args.seed, 2))),
            "cover box (gamma < 2 pi, phi < 2 sqrt(3) pi)")
    moments(qr_haar_su3(n, sub_seed(args.seed, 3)), "QR reference")

    print("\n== decomposition of QR-sampled elements ==")
    m = min(n, 20_000)
    us = qr_haar_su3(m, sub_seed(args.seed, 4))
    worst = 0.0
    gammas = np.empty(m)
    phis = np.empty(m)
    for i in range(m):
        rep = decompose(us[i], full_output=True)
        worst = max(worst, rep.residual)
        gammas[i] = rep.angles.gamma
        phis[i] = rep.angles.phi
    print(f"  worst roundtrip residual over {m} elements: {worst:.2e}")
    print(f"  fraction with gamma >= pi:   {(gammas >= math.pi).mean():.3f}"
          f"   (the stated gamma range misses these)")
    print(f"  fraction with phi >= 2 pi:   {(phis >= 2 * math.pi).mean():.3f}"
          f"   (the stated phi range misses these)")
    z = np.exp(2j * math.pi * phis / PHI_PERIOD)
    print(f"  |mean phase of phi over its period| = {abs(z.mean()):.4f}"
          f"   (uniform -> ~{1/math.sqrt(m):.4f})")

    print("\n== density integrals over candidate boxes ==")
    pi5 = math.pi ** 5
    print(f"  stated ranges:      {group_volume(RANGES_STATED):12.4f}"
          f"  = {group_volume(RANGES_STATED)/pi5:.4f} pi^5")
    print(f"  sphere-product:     {2 * pi5:12.4f}  =  2.0000 pi^5 (target)")
    print(f"  exact cover:        {group_volume(RANGES_COVER):12.4f}"
          f"  = {group_volume(RANGES_COVER)/pi5:.4f} pi^5 (= 2 sqrt(3))")


if __name__ == "__main__":
    main()
