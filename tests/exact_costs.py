"""The exact model: the test suite's one oracle, for comparison with ==.

Test-only, and independent of the package's cost code: it reads the prepared
instance's edges, commodities and paths, spells each path out in edge ids
once, and keys everything after by edge id; it reads nothing of
`GameInstance.compiled`. A cost is the sum of its rounded terms in exact
arithmetic, rounded once to the nearest float, with an overflow mapped to inf.
The terms are the ones the package documents:

- social cost: (c1 * a) * f * f per edge, and per player r * p, where p is the
  exact sum of c2 * u(r) and c1 * b over the player's path, rounded once;
- potential: c1 * (a * f + b) * f per edge, and per player the exact sum over
  its path of c1 * (a * r + b) * r + 2 * c2 * u(r) * r, rounded once.

Loads f add the players' demands from 0.0 in player order. A unit path cost
is c1 * (a * f + b) + c2 * u(r) per edge, summed from 0.0 in path order.

`ExactCosts.move_costs` is the documented deviation rule: player i's unit cost
on each of its paths if it moved there from its current path, with each edge
of that path at its load f and every other edge at f + r. `equilibria` scans
every profile in index order by that rule: a profile is an equilibrium when
no player's current cost exceeds its least move cost by more than eps. A
player's current move cost is always one of its move costs, so at a negative
eps no profile with a player is an equilibrium.
"""

import math
from itertools import product
from typing import Iterable, Iterator, Sequence

from routegame.model import GameInstance
from routegame.pricing import eval_u


class ProfileCapError(RuntimeError):
    """More profiles than the cap of a brute-force scan."""


def exact(terms: Iterable[float]) -> float:
    """The correctly rounded sum of `terms`, or inf when it overflows.

    Each float is an integer over a power of two, so the terms are summed as
    integers over the largest denominator, and the one int division rounds
    the sum correctly, as `float(fractions.Fraction(...))` does."""
    try:
        ratios = [x.as_integer_ratio() for x in terms]
        den = max((d for _, d in ratios), default=1)
        return sum(n * (den // d) for n, d in ratios) / den
    except OverflowError:
        return math.inf


class ExactCosts:
    """The exact costs of the profiles of one prepared instance."""

    def __init__(self, inst: GameInstance):
        self.inst = inst
        self.edges = {e.id: e for e in inst.edges}
        ids = [e.id for e in inst.edges]
        # per commodity: its strategy set, each path as edge ids
        self.paths = [
            [tuple(ids[k] for k in path) for path in plist] for plist in inst.paths
        ]
        # per commodity: c2 * u(r) by the id of each edge on one of its paths
        self.price: list[dict[str, float]] = []
        # per (commodity, path): the player's social-cost and potential terms
        self.load_free: list[list[float]] = []
        self.own: list[list[float]] = []
        for c, plist in zip(inst.commodities, self.paths):
            r, load_free, own = c.demand, [], []
            u = {
                eid: eval_u(self.edges[eid].price, r) if self.edges[eid].c2 else 0.0
                for path in plist
                for eid in path
            }
            self.price.append({eid: self.edges[eid].c2 * x for eid, x in u.items()})
            for path in plist:
                es = [self.edges[eid] for eid in path]
                prices = [self.price[-1][eid] for eid in path]
                load_free.append(r * exact(prices + [e.c1 * e.b for e in es]))
                own.append(exact(
                    e.c1 * (e.a * r + e.b) * r + 2.0 * e.c2 * u[e.id] * r for e in es
                ))
            self.load_free.append(load_free)
            self.own.append(own)

    def profiles(self) -> Iterator[tuple[int, ...]]:
        """Every profile, in index order (commodity 0 most significant)."""
        return product(*(range(len(p)) for p in self.paths))

    def loads(self, choice: Sequence[int]) -> dict[str, float]:
        """Each edge's load by edge id, in edge order."""
        load = {e.id: 0.0 for e in self.inst.edges}
        for c, plist, j in zip(self.inst.commodities, self.paths, choice):
            for eid in plist[j]:
                load[eid] += c.demand
        return load

    def unit_path_cost(
        self, i: int, path: Sequence[str], loads: dict[str, float]
    ) -> float:
        """Player i's per-unit cost on `path` (edge ids on its strategy set) at
        `loads` (by edge id)."""
        price = self.price[i]
        total = 0.0
        for eid in path:
            e = self.edges[eid]
            total += e.c1 * (e.a * loads[eid] + e.b) + price[eid]
        return total

    def social_cost(self, choice: Sequence[int]) -> float:
        f = self.loads(choice)
        return exact(
            [e.c1 * e.a * f[e.id] * f[e.id] for e in self.inst.edges]
            + [self.load_free[i][j] for i, j in enumerate(choice)]
        )

    def potential(self, choice: Sequence[int]) -> float:
        f = self.loads(choice)
        return exact(
            [e.c1 * (e.a * f[e.id] + e.b) * f[e.id] for e in self.inst.edges]
            + [self.own[i][j] for i, j in enumerate(choice)]
        )

    def move_costs(
        self, i: int, choice: Sequence[int], loads: dict[str, float] | None = None
    ) -> list[float]:
        """Player i's unit cost on each of its paths after a move there from
        its current path; `loads` are the profile's, computed when omitted."""
        load = self.loads(choice) if loads is None else loads
        r = self.inst.commodities[i].demand
        current = set(self.paths[i][choice[i]])
        moved = {eid: f if eid in current else f + r for eid, f in load.items()}
        return [self.unit_path_cost(i, path, moved) for path in self.paths[i]]

    def equilibria(self, eps: float, cap: int) -> list[tuple[int, ...]]:
        """Every profile, in index order, where no player's current cost exceeds
        one of its move costs by more than eps. Raises ProfileCapError when
        there are more than `cap` profiles."""
        total = math.prod(map(len, self.paths))
        if total > cap:
            raise ProfileCapError(f"{total} profiles exceed cap {cap}")
        found = []
        for p in self.profiles():
            f = self.loads(p)
            moves = (self.move_costs(i, p, f) for i in range(len(p)))
            if all(m[d] - min(m) <= eps for m, d in zip(moves, p)):
                found.append(p)
        return found
