#!/usr/bin/env python3
"""Adiabatic sweep experiment on the Heisenberg model.

Runs the eps-family solver down a dyadic eps ladder, prints the decay
diagnostics per eps, the fitted log-log slopes, and the residual of the
sqrt2-rescaled limit candidate.  Use --kmax to extend the ladder.
"""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from contactmono import catalog_model, loglog_slope, sweep


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--kmax", type=int, default=6, help="smallest eps is 2^-kmax")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    model = catalog_model("heisenberg")
    eps_list = [2.0**-k for k in range(1, args.kmax + 1)]
    records = sweep(model, eps_list, seed=args.seed)

    print(f"{'eps':>10} {'sup|Phi|^2':>12} {'T-norm^2':>12} {'Xi-norm^2':>12} {'identity':>10} {'it':>3}")
    for r in records:
        print(
            f"{r.eps:>10.6f} {r.sup_phi_sq:>12.4e} {r.norm_T_deriv_sq:>12.4e} "
            f"{r.norm_Xi_deriv_sq:>12.4e} {r.identity_gap:>10.2e} {r.iterations:>3}"
        )
    eps_vals = [r.eps for r in records]
    slope_t = loglog_slope(eps_vals, [r.norm_T_deriv_sq for r in records], floor=1e-12)
    slope_s = loglog_slope(eps_vals, [r.sup_phi_sq for r in records], floor=1e-12)
    print()
    print(f"branch slopes:   T-norm^2 ~ eps^{slope_t and round(slope_t, 3)}, "
          f"sup|Phi|^2 ~ eps^{slope_s and round(slope_s, 3)}")
    print(f"expected laws:   T-norm^2 = 4 eps^5 (1-2 eps), sup|Phi|^2 = 2 eps (1-2 eps)")
    res = records[-1].residual_limit
    print(f"limit candidate: residual {res:.4e}  (structural: eps*sqrt2 = "
          f"{eps_list[-1] * math.sqrt(2):.4e}), constraint {records[-1].constraint_limit:.2e}")


if __name__ == "__main__":
    main()
