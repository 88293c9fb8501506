"""Exhaustive ground truth on small instances: all pure equilibria, the optimal
profile, the worst equilibrium, and the Price of Anarchy.

Profiles are indexed by a mixed-radix counter over per-commodity path indices
(commodity 0 most significant); that index is the universal tie-breaker. Every
entry point makes one pass over the profiles in index order, in one thread.
Loads come from a stack of prefix sums, one level per commodity: advancing
digit i rebuilds the levels above i only, about one path per profile, with the
same additions in the same player order as a full recompute, so every float
and every tie-break matches it. Social costs are `CompiledGame.social_cost`,
as in the engine; each player's load-free term is kept beside its level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .engine import StrategyProfile, DEFAULT_EPS_IMPROVE
from .model import GameInstance

DEFAULT_PROFILE_CAP = 200_000

#: Empirical ceiling on the Price of Anarchy for affine congestion.
POA_BOUND = (3.0 + math.sqrt(5.0)) / 2.0
POA_BOUND_TOL = 1e-6


class ProfileCapError(RuntimeError):
    """The instance has more strategy profiles than the exhaustive-search cap."""


class NoEquilibriumError(RuntimeError):
    """Exhaustive search found no pure equilibrium (unexpected on affine instances)."""


@dataclass(frozen=True)
class PoAReport:
    optimal_profile: StrategyProfile
    optimal_cost: float
    worst_equilibrium_profile: StrategyProfile
    worst_equilibrium_cost: float
    equilibrium_count: int
    poa: float
    bound: float = POA_BOUND

    @property
    def within_bound(self) -> bool:
        return self.poa <= self.bound + POA_BOUND_TOL


def cost_ratio(cost: float, reference: float) -> float:
    """cost / reference, where a zero reference gives 1 for a zero cost and inf
    otherwise: costs are nonnegative, and an all-zero game is not inefficient."""
    if reference == 0.0:
        return 1.0 if cost == 0.0 else math.inf
    return cost / reference


def profile_count(instance: GameInstance) -> int:
    """Product of strategy-set sizes over all commodities."""
    if not instance.prepared:
        raise ValueError("instance has no enumerated paths; call prepare() first")
    count = 1
    for plist in instance.paths:
        count *= len(plist)
        if count > 2**63:
            raise OverflowError("profile count exceeds 2^63")
    return count


class _Indexed:
    """Precomputed tables for the profile-scan loops.

    Only the compiled table's active edges (c1*a != 0) need loads, kept by slot
    in `active` order; every other cost contribution is linear in the profile
    digits. Deviations whose cost difference does not depend on loads are
    resolved here once, into `static_bad`.
    """

    def __init__(self, instance: GameInstance, eps_improve: float):
        self.eps = eps_improve
        g = instance.compiled
        c1a = [c1 * a for c1, a in zip(g.c1, g.a)]
        c1b = [c1 * b for c1, b in zip(g.c1, g.b)]
        slot = {k: s for s, k in enumerate(g.active)}
        self.slope = g.slope

        self.demand = list(g.demand)
        self.radices = [len(p) for p in g.paths]

        # per (commodity, path): active slots on the path, the player's
        # load-free social-cost term
        self.path_active: list[list[tuple[int, ...]]] = []
        self.load_free: list[list[float]] = []
        # per (commodity, path): load-dependent deviations as
        # (alt index, cur-exclusive slots, alt-exclusive slots, constant)
        self.deviations: list[list[list[tuple[int, tuple, tuple, float]]]] = []
        # digits that can never appear in an equilibrium, decided load-free
        self.static_bad: list[list[bool]] = []

        for i, r in enumerate(g.demand):
            unit_price = g.unit_price[i]
            idx_lists, act_lists, prices = [], [], []
            for idxs in g.paths[i]:
                idx_lists.append(frozenset(idxs))
                act_lists.append(tuple(slot[j] for j in idxs if j in slot))
                prices.append(sum(unit_price[j] for j in idxs))
            self.path_active.append(act_lists)
            n_paths = len(prices)
            self.load_free.append([g.load_free_cost(i, d) for d in range(n_paths)])

            devs: list[list] = []
            bad: list[bool] = []
            for d in range(n_paths):
                dlist = []
                is_bad = False
                for j in range(n_paths):
                    if j == d:
                        continue
                    cur_excl = idx_lists[d] - idx_lists[j]
                    alt_excl = idx_lists[j] - idx_lists[d]
                    cur_act = tuple(slot[e] for e in sorted(cur_excl) if e in slot)
                    alt_act = tuple(slot[e] for e in sorted(alt_excl) if e in slot)
                    const = (
                        prices[d]
                        - prices[j]
                        + sum(c1b[e] for e in cur_excl)
                        - sum(c1b[e] for e in alt_excl)
                        - r * sum(c1a[e] for e in alt_excl)
                    )
                    if not cur_act and not alt_act:
                        if const > eps_improve:
                            is_bad = True
                            break
                    else:
                        dlist.append((j, cur_act, alt_act, const))
                devs.append(dlist)
                bad.append(is_bad)
            self.deviations.append(devs)
            self.static_bad.append(bad)

    def is_equilibrium(self, digits: list[int], f: list[float]) -> bool:
        eps = self.eps
        slope = self.slope
        for i, d in enumerate(digits):
            if self.static_bad[i][d]:
                return False
            for _, cur_act, alt_act, const in self.deviations[i][d]:
                improvement = const
                for s in cur_act:
                    improvement += slope[s] * f[s]
                for s in alt_act:
                    improvement -= slope[s] * f[s]
                if improvement > eps:
                    return False
        return True

    def profiles(self) -> Iterator[tuple[list[int], list[float], list[float]]]:
        """Every profile in index order as (digits, loads, load-free terms), all
        updated in place. levels[i] holds the loads of players 0..i-1, so
        advancing digit i rebuilds levels i+1.. and the terms of players i..
        only. Each slot sums its users' demands in player order."""
        radices, demand, path_active = self.radices, self.demand, self.path_active
        load_free = self.load_free
        k = len(radices)
        digits = [0] * k
        own = [0.0] * k
        levels = [[0.0] * len(self.slope)] + [[]] * k
        i = 0
        while True:
            for j in range(i, k):
                d = digits[j]
                f = levels[j].copy()
                r = demand[j]
                for s in path_active[j][d]:
                    f[s] += r
                levels[j + 1] = f
                own[j] = load_free[j][d]
            yield digits, levels[k], own
            i = k - 1
            while i >= 0 and digits[i] + 1 == radices[i]:
                digits[i] = 0
                i -= 1
            if i < 0:
                return
            digits[i] += 1


@dataclass(frozen=True)
class _Scan:
    equilibria: list[StrategyProfile]
    count: int
    worst: Optional[StrategyProfile]
    worst_cost: float
    optimum: Optional[StrategyProfile]
    optimal_cost: float

    def checked(self) -> "_Scan":
        if self.count == 0:
            raise NoEquilibriumError("exhaustive search found no pure equilibrium")
        return self

    def report(self) -> PoAReport:
        self.checked()
        return PoAReport(
            optimal_profile=self.optimum,
            optimal_cost=self.optimal_cost,
            worst_equilibrium_profile=self.worst,
            worst_equilibrium_cost=self.worst_cost,
            equilibrium_count=self.count,
            poa=cost_ratio(self.worst_cost, self.optimal_cost),
        )


def _scan(
    instance: GameInstance,
    cap: int,
    eps_improve: float,
    optimum: bool = False,
    keep: bool = False,
) -> _Scan:
    """One pass over every profile: the equilibrium count, the worst
    equilibrium, and on request the optimum and the list of equilibria. Ties
    go to the lowest profile index. Social costs are computed for every
    profile only when the optimum is wanted, otherwise for equilibria only."""
    total = profile_count(instance)
    if total > cap:
        raise ProfileCapError(f"{total} profiles exceed cap {cap}")
    idx = _Indexed(instance, eps_improve)
    social_cost = instance.compiled.social_cost
    found: list[StrategyProfile] = []
    count = 0
    worst, worst_sc = None, -math.inf
    best, best_sc = None, math.inf
    for digits, f, own in idx.profiles():
        sc = None
        if optimum:
            sc = social_cost(f, own)
            if sc < best_sc:
                best, best_sc = StrategyProfile(tuple(digits)), sc
        if idx.is_equilibrium(digits, f):
            count += 1
            if keep:
                found.append(StrategyProfile(tuple(digits)))
            if sc is None:
                sc = social_cost(f, own)
            if sc > worst_sc:
                worst, worst_sc = StrategyProfile(tuple(digits)), sc
    return _Scan(found, count, worst, worst_sc, best, best_sc)


# Each entry point below makes one pass; `workers`, where taken, is accepted
# for compatibility and has no effect.


def find_all_equilibria(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    eps_improve: float = DEFAULT_EPS_IMPROVE,
    workers: int = 1,
) -> list[StrategyProfile]:
    """Every pure equilibrium, in profile-index order."""
    return _scan(instance, cap, eps_improve, keep=True).equilibria


def worst_equilibrium(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    eps_improve: float = DEFAULT_EPS_IMPROVE,
    workers: int = 1,
) -> tuple[StrategyProfile, float, int]:
    """The equilibrium with the highest social cost (lowest index on ties)
    plus the total equilibrium count."""
    scan = _scan(instance, cap, eps_improve).checked()
    return scan.worst, scan.worst_cost, scan.count


def optimal_profile(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    workers: int = 1,
) -> tuple[StrategyProfile, float]:
    """Global social-cost minimum; ties broken by lowest profile index."""
    scan = _scan(instance, cap, DEFAULT_EPS_IMPROVE, optimum=True)
    return scan.optimum, scan.optimal_cost


def price_of_anarchy(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    eps_improve: float = DEFAULT_EPS_IMPROVE,
    workers: int = 1,
) -> PoAReport:
    """Worst-equilibrium social cost over optimal social cost, with the
    empirical affine bound attached."""
    return _scan(instance, cap, eps_improve, optimum=True).report()


def equilibria_and_poa(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    eps_improve: float = DEFAULT_EPS_IMPROVE,
) -> tuple[list[StrategyProfile], PoAReport]:
    """find_all_equilibria and price_of_anarchy from the same single pass."""
    scan = _scan(instance, cap, eps_improve, optimum=True, keep=True)
    return scan.equilibria, scan.report()
