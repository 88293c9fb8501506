#!/usr/bin/env python3
"""Exhaustive Price of Anarchy sweep over random small affine instances.

Checks equilibrium existence on every instance and reports the worst ratio
observed against the (3 + sqrt(5))/2 ceiling; exits 1 if the ceiling is
exceeded.
"""

import argparse
import random

from routegame.oracle import POA_BOUND, price_of_anarchy
from routegame.random_instances import random_affine_instance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-profiles", type=int, default=2000)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    worst = 1.0
    for k in range(args.instances):
        inst = random_affine_instance(rng, max_profiles=args.max_profiles)
        report = price_of_anarchy(inst)
        if report.poa > worst:
            worst = report.poa
            print(
                f"[{k}] new max PoA {report.poa:.6f} "
                f"({len(inst.commodities)} players, {len(inst.edges)} edges, "
                f"{report.equilibrium_count} equilibria)"
            )
    ok = worst <= POA_BOUND + 1e-6
    print(f"\nswept {args.instances} instances; max PoA {worst:.6f}")
    print(f"bound (3+sqrt(5))/2 = {POA_BOUND:.6f}: {'OK' if ok else 'VIOLATED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
