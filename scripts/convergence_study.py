#!/usr/bin/env python3
"""Measure how fast truncated lifts approach a deep reference truncation.

Prints the per-level sup distances of both lift levels on a dyadic grid,
the fitted geometric ratios (overall and per matrix entry), and the
rough-topology rate the fits are compared against.
"""

import argparse

import numpy as np

from weierpath import VectorWeierstrass, convergence_report, validate_component
from weierpath.cli import FIGURE_COMPONENTS
from weierpath.roughpath import RATE_MARGIN


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--Ns", default="4,5,6,7,8,9,10,11,12")
    ap.add_argument("--depth", type=int, default=10)
    ap.add_argument("--eps-prime", dest="eps_prime", type=float, default=0.1)
    args = ap.parse_args()

    v = VectorWeierstrass([validate_component(c["b"], a=c["a"]) for c in FIGURE_COMPONENTS])
    Ns = [int(x) for x in args.Ns.split(",")]
    rep = convergence_report(v, Ns, depth=args.depth, eps_prime=args.eps_prime)
    print(f"reference level N* = {rep.reference_level}, grid {rep.grid_spec}")
    print(f"{'N':>4} {'supFirst':>12} {'supSecond':>12}")
    for k, N in enumerate(rep.Ns):
        print(f"{N:>4} {rep.sup_first[k]:>12.4e} {rep.sup_second[k]:>12.4e}")
    print(f"fitted ratio (level 1):  {rep.fitted_ratio_first:.4f}")
    print(f"fitted ratio (level 2):  {rep.fitted_ratio_second:.4f}")
    print("fitted ratios per entry:")
    print(np.array_str(rep.fitted_ratio_entries, precision=4))
    single_rates = [c.b ** (-c.alpha + rep.eps_prime) for c in v.components]
    print(f"single-mode rates b_i^(-alpha_i + eps'): {[round(r, 4) for r in single_rates]}")
    print(f"rough-topology rate rho^kappa: {rep.theoretical_rho:.4f} "
          f"(kappa = {rep.kappa:.4f}); fitted <= rho*{RATE_MARGIN}: {rep.rate_ok}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
