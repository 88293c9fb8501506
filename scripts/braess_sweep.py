#!/usr/bin/env python3
"""Sweep the edge-addition experiment across price families and player counts.

Prints one row per (family, n): simulated severity ratio, the closed-form
prediction, and their gap; exits 1 if any gap exceeds 1e-9.
"""

import argparse

from routegame.braess import build_priced_braess, edge_addition_experiment, rho_formula
from routegame.model import profile_count
from routegame.pricing import PriceSpec, eval_u

GAP_TOL = 1e-9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[2, 4, 6, 10, 100, 300])
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--c1", type=float, default=0.5)
    parser.add_argument("--c2", type=float, default=0.5)
    args = parser.parse_args()

    specs = [
        PriceSpec("identity"),
        PriceSpec("sin"),
        PriceSpec("log1p"),
        PriceSpec("saturating", {"beta": args.beta}),
    ]
    print(f"{'family':<12}{'n':>4}{'u(1/n)':>12}{'rho_sim':>12}{'rho_formula':>14}{'gap':>12}")
    worst = 0.0
    for spec in specs:
        for n in args.n:
            before, after = build_priced_braess(n, spec, args.c1, args.c2)
            # the oracle scans C(n+2, 2) path-count states, but the cap counts
            # the 3^n profiles of the post-shortcut network: lift it to that
            cap = profile_count(after)
            report = edge_addition_experiment(before, after, cap=cap)
            u = eval_u(spec, 1.0 / n)
            predicted = rho_formula(u, args.c1, args.c2)
            worst = max(worst, abs(report.rho - predicted))
            print(
                f"{spec.fn:<12}{n:>4}{u:>12.6f}{report.rho:>12.6f}"
                f"{predicted:>14.6f}{abs(report.rho - predicted):>12.2e}"
            )
    ok = worst <= GAP_TOL
    print(f"\nlargest gap {worst:.2e} (tolerance {GAP_TOL:.0e}): {'OK' if ok else 'VIOLATED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
