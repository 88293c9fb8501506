"""Exact social costs and potentials, for comparison with ==.

Test-only, and independent of the package's cost code: a cost is the sum of
its rounded terms in rational arithmetic (`fractions.Fraction`), rounded once
to the nearest float, with an overflow mapped to inf. The terms are the ones
the package documents:

- social cost: (c1 * a) * f * f per edge, and per player r * p, where p is the
  exact sum of c2 * u(r) and c1 * b over the player's path, rounded once;
- potential: c1 * (a * f + b) * f per edge, and per player the exact sum over
  its path of c1 * (a * r + b) * r + 2 * c2 * u(r) * r, rounded once.

Loads f add the players' demands from 0.0 in player order.

`ExactCosts.move_costs` is the documented deviation rule, written over dicts
of edge ids: player i's cost on each of its paths if it moved there from its
current path, with each edge of that path at its load f, every other edge at
f + r, and each path summed from 0.0 in path order.
"""

import math
from fractions import Fraction
from typing import Iterable, Sequence

from routegame.model import GameInstance
from routegame.pricing import eval_u


def exact(terms: Iterable[float]) -> float:
    """The correctly rounded sum of `terms`, or inf when it overflows."""
    try:
        return float(sum(map(Fraction, terms)))
    except OverflowError:
        return math.inf


class ExactCosts:
    """The exact costs of the profiles of one prepared instance."""

    def __init__(self, inst: GameInstance):
        self.inst = inst
        edges = {e.id: e for e in inst.edges}
        # per (commodity, path): the player's social-cost and potential terms
        self.load_free: list[list[float]] = []
        self.own: list[list[float]] = []
        for c, plist in zip(inst.commodities, inst.paths):
            r, load_free, own = c.demand, [], []
            for path in plist:
                es = [edges[eid] for eid in path]
                u = [eval_u(e.price, r) if e.c2 else 0.0 for e in es]
                prices = [e.c2 * x for e, x in zip(es, u)]
                load_free.append(r * exact(prices + [e.c1 * e.b for e in es]))
                own.append(exact(
                    e.c1 * (e.a * r + e.b) * r + 2.0 * e.c2 * x * r
                    for e, x in zip(es, u)
                ))
            self.load_free.append(load_free)
            self.own.append(own)

    def loads(self, choice: Sequence[int]) -> list[float]:
        load = {e.id: 0.0 for e in self.inst.edges}
        for c, plist, j in zip(self.inst.commodities, self.inst.paths, choice):
            for eid in plist[j]:
                load[eid] += c.demand
        return [load[e.id] for e in self.inst.edges]

    def social_cost(self, choice: Sequence[int]) -> float:
        f = self.loads(choice)
        return exact(
            [e.c1 * e.a * x * x for e, x in zip(self.inst.edges, f)]
            + [self.load_free[i][j] for i, j in enumerate(choice)]
        )

    def potential(self, choice: Sequence[int]) -> float:
        f = self.loads(choice)
        return exact(
            [e.c1 * (e.a * x + e.b) * x for e, x in zip(self.inst.edges, f)]
            + [self.own[i][j] for i, j in enumerate(choice)]
        )

    def move_costs(self, i: int, choice: Sequence[int]) -> list[float]:
        inst = self.inst
        edges = {e.id: e for e in inst.edges}
        load = dict(zip(edges, self.loads(choice)))
        r = inst.commodities[i].demand
        current = set(inst.paths[i][choice[i]])
        costs = []
        for path in inst.paths[i]:
            total = 0.0
            for eid in path:
                e = edges[eid]
                x = load[eid] if eid in current else load[eid] + r
                u = eval_u(e.price, r) if e.c2 else 0.0
                total += e.c1 * (e.a * x + e.b) + e.c2 * u
            costs.append(total)
        return costs
