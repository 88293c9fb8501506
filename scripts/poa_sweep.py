#!/usr/bin/env python3
"""Exhaustive Price of Anarchy sweep over random small affine instances and
the priced Braess diamonds.

Checks equilibrium existence on every instance and reports the worst ratio
observed against the proven (3 + sqrt(5))/2 bound for weighted affine games,
and the worst over the instances whose players all have one demand against
that case's bound, 5/2. On every instance, at epsilon 0 and at the default,
best-response dynamics from the all-zero profile must converge to an
equilibrium the exhaustive scan lists. Exits 1 if a bound is exceeded or the
dynamics end anywhere else. The diamonds (n = 2, 4, 6, every
price family, without and with the shortcut) have exact ties between paths,
which random instances almost never have.
"""

import argparse
import random

from routegame.braess import build_priced_braess
from routegame.engine import (
    DEFAULT_EPS_IMPROVE,
    DynamicsConfig,
    StrategyProfile,
    run_best_response_dynamics,
)
from routegame.oracle import POA_BOUND, POA_BOUND_EQUAL_DEMANDS, equilibria_and_poa
from routegame.pricing import PRICE_FAMILIES, PriceSpec
from routegame.random_instances import random_affine_instance


def diamonds():
    """The priced Braess diamonds, without and with the shortcut."""
    for fn in PRICE_FAMILIES:
        price = PriceSpec(fn, {"beta": 2.5} if fn == "saturating" else {})
        for n in (2, 4, 6):
            yield from build_priced_braess(n, price)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-profiles", type=int, default=2000)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    instances = [
        random_affine_instance(rng, max_profiles=args.max_profiles)
        for _ in range(args.instances)
    ]
    instances += diamonds()
    worst = worst_equal = 1.0
    equal = unlisted = 0
    for k, inst in enumerate(instances):
        start = StrategyProfile((0,) * len(inst.commodities))
        for eps in (0.0, DEFAULT_EPS_IMPROVE):
            equilibria, report = equilibria_and_poa(inst, eps_improve=eps)
            result = run_best_response_dynamics(
                inst, start, DynamicsConfig(eps_improve=eps)
            )
            listed = [p for p, _ in equilibria]
            if not result.converged or result.final not in listed:
                unlisted += 1
                print(
                    f"[{k}] epsilon {eps}: dynamics ended on {result.final.choice}"
                    f" (converged: {result.converged}), not a listed equilibrium"
                )
        if len({c.demand for c in inst.commodities}) == 1:
            equal += 1
            worst_equal = max(worst_equal, report.poa)
        if report.poa > worst:
            worst = report.poa
            print(
                f"[{k}] new max PoA {report.poa:.6f} "
                f"({len(inst.commodities)} players, {len(inst.edges)} edges, "
                f"{report.equilibrium_count} equilibria)"
            )
    ok = worst <= POA_BOUND + 1e-6
    print(f"\nswept {len(instances)} instances; max PoA {worst:.6f}")
    print(f"bound (3+sqrt(5))/2 = {POA_BOUND:.6f}: {'OK' if ok else 'VIOLATED'}")
    ok_equal = worst_equal <= POA_BOUND_EQUAL_DEMANDS + 1e-6
    print(
        f"bound 5/2 on {equal} equal-demand instances: max PoA {worst_equal:.6f}:"
        f" {'OK' if ok_equal else 'VIOLATED'}"
    )
    print(f"dynamics off the equilibrium list: {unlisted}")
    return 0 if ok and ok_equal and not unlisted else 1


if __name__ == "__main__":
    raise SystemExit(main())
