#!/usr/bin/env python3
"""Desk-scale asymptotics on the unit disk from the radial instrument alone:
peak-height law, spike-scale law, energy and local mass, profile corrections,
and the bottom spectrum per angular mode.  Runs in seconds at any p.
"""

import argparse
import math

import numpy as np

from spikelab import lane_emden, liouville, radial

SQRT_E = math.sqrt(math.e)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", default="10,20,30,40,60,80")
    ap.add_argument("--spectrum", action="store_true", help="include per-mode eigenvalues")
    args = ap.parse_args()
    ps = [float(t) for t in args.p.split(",")]
    prof = liouville.solve_w0()
    y = np.linspace(1e-3, 10.0, 400)
    w0y = prof.w0(y)

    hdr = f"{'p':>5} {'u_max':>10} {'law resid':>10} {'log eps + p/4':>14} " \
          f"{'energy':>9} {'rho_p':>7} {'sup|v-w0|':>10} {'sup|k|':>8}"
    print(hdr)
    print("-" * len(hdr))
    for p in ps:
        r = radial.solve_radial(p)
        resid = r.u0 - lane_emden.predicted_umax(p, 0.0)
        sub = math.log(r.eps0) + p / 4.0
        v = p * (r.w(y) - liouville.U(y))
        sup_v = float(np.max(np.abs(v - w0y)))
        sup_k = p * sup_v
        print(
            f"{p:5.0f} {r.u0:10.6f} {resid:+10.2e} {sub:14.6f} "
            f"{r.energy():9.4f} {r.mass_deficit():7.4f} {sup_v:10.4f} {sup_k:8.4f}"
        )
    print(f"\nlimits: u_max -> {SQRT_E:.6f}, log eps + p/4 -> "
          f"{-(1.5 * math.log(2) + 0.75):.6f}, energy -> {8 * math.pi * math.e:.4f}, "
          f"rho -> 3")

    if args.spectrum:
        print(f"\n{'p':>5} {'morse':>6} {'margin':>9}  modes nearest zero (value, m)")
        for p in ps:
            spec = radial.disk_spectrum(radial.solve_radial(p), m_max=3)
            near = [(round(v, 4), m) for v, m in spec.eigenvalues_near_zero()]
            print(f"{p:5.0f} {spec.morse_index:6d} {spec.margin():9.4f}  {near}")


if __name__ == "__main__":
    main()
