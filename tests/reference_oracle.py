"""Frozen copy of the original multi-pass oracle, for bit-for-bit comparison.

Test-only: the package's single-pass oracle must reproduce every profile, cost
and count these functions return. The only change from the original is that
`_map_chunks` runs the chunks one after another, without a thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from routegame.engine import StrategyProfile, DEFAULT_EPS_IMPROVE
from routegame.model import GameInstance

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

    Only edges with a nonzero weighted congestion slope (c1*a != 0) need loads;
    every other cost contribution is linear in the profile digits and folded
    into per-(commodity, path) constants. Deviations whose cost difference does
    not depend on loads are resolved here once, into `static_bad`.
    """

    def __init__(self, instance: GameInstance, eps_improve: float):
        self.eps = eps_improve
        g = instance.compiled
        c1a = [c1 * a for c1, a in zip(g.c1, g.a)]
        c1b = [c1 * b for c1, b in zip(g.c1, g.b)]
        active = [j for j in range(len(c1a)) if c1a[j] != 0.0]
        slot = {j: s for s, j in enumerate(active)}
        self.n_active = len(active)
        self.slope = [c1a[j] for j in active]

        self.demand = list(g.demand)
        self.radices = [len(p) for p in g.paths]

        # per (commodity, path): active slots on the path, demand to add there,
        # load-free path-cost constant, load-free social-cost contribution
        self.path_active: list[list[tuple[int, ...]]] = []
        self.path_const: list[list[float]] = []
        self.sc_const: list[list[float]] = []
        # per (commodity, path): load-dependent deviations as
        # (alt index, cur-exclusive slots, alt-exclusive slots, constant)
        self.deviations: list[list[list[tuple[int, tuple, tuple, float]]]] = []
        # digits that can never appear in an equilibrium, decided load-free
        self.static_bad: list[list[bool]] = []

        for i, r in enumerate(g.demand):
            unit_price = g.unit_price[i]
            idx_lists, act_lists, consts, scs, prices = [], [], [], [], []
            for idxs in g.paths[i]:
                price = sum(unit_price[j] for j in idxs)
                base = price + sum(c1b[j] for j in idxs)
                idx_lists.append(frozenset(idxs))
                act_lists.append(tuple(slot[j] for j in idxs if j in slot))
                consts.append(base)
                scs.append(r * base)
                prices.append(price)
            self.path_active.append(act_lists)
            self.path_const.append(consts)
            self.sc_const.append(scs)

            devs: list[list] = []
            bad: list[bool] = []
            for d in range(len(consts)):
                dlist = []
                is_bad = False
                for j in range(len(consts)):
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

    def decode(self, index: int) -> list[int]:
        digits = [0] * len(self.radices)
        for i in range(len(self.radices) - 1, -1, -1):
            index, digits[i] = divmod(index, self.radices[i])
        return digits

    def loads(self, digits: list[int]) -> list[float]:
        f = [0.0] * self.n_active
        for i, d in enumerate(digits):
            r = self.demand[i]
            for s in self.path_active[i][d]:
                f[s] += r
        return f

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

    def social_cost(self, digits: list[int], f: list[float]) -> float:
        total = 0.0
        for s, fe in enumerate(f):
            total += self.slope[s] * fe * fe
        for i, d in enumerate(digits):
            total += self.sc_const[i][d]
        return total


def _chunks(total: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, min(workers, total))
    size = -(-total // workers)
    return [(s, min(s + size, total)) for s in range(0, total, size)]


def _advance(idx: _Indexed, digits: list[int]) -> None:
    i = len(digits) - 1
    while True:
        digits[i] += 1
        if digits[i] < idx.radices[i]:
            return
        digits[i] = 0
        i -= 1


def _map_chunks(total: int, workers: int, run: Callable) -> list:
    return [run(chunk) for chunk in _chunks(total, workers)]


def _checked_indexed(
    instance: GameInstance, cap: int, eps_improve: float
) -> tuple[_Indexed, int]:
    total = profile_count(instance)
    if total > cap:
        raise ProfileCapError(f"{total} profiles exceed cap {cap}")
    return _Indexed(instance, eps_improve), total


def find_all_equilibria(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    eps_improve: float = DEFAULT_EPS_IMPROVE,
    workers: int = 1,
) -> list[StrategyProfile]:
    """Every pure equilibrium, in profile-index order."""
    idx, total = _checked_indexed(instance, cap, eps_improve)

    def run(bounds: tuple[int, int]) -> list[StrategyProfile]:
        start, stop = bounds
        digits = idx.decode(start)
        out = []
        for index in range(start, stop):
            if idx.is_equilibrium(digits, idx.loads(digits)):
                out.append(StrategyProfile(tuple(digits)))
            if index + 1 < stop:
                _advance(idx, digits)
        return out

    return [p for chunk in _map_chunks(total, workers, run) for p in chunk]


def worst_equilibrium(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    eps_improve: float = DEFAULT_EPS_IMPROVE,
    workers: int = 1,
) -> tuple[StrategyProfile, float, int]:
    """Single pass over all profiles: the equilibrium with the highest social
    cost (lowest index on ties) plus the total equilibrium count."""
    idx, total = _checked_indexed(instance, cap, eps_improve)

    def run(bounds: tuple[int, int]):
        start, stop = bounds
        digits = idx.decode(start)
        count = 0
        best_sc, best_index, best_digits = -math.inf, -1, None
        for index in range(start, stop):
            f = idx.loads(digits)
            if idx.is_equilibrium(digits, f):
                count += 1
                sc = idx.social_cost(digits, f)
                if sc > best_sc:
                    best_sc, best_index, best_digits = sc, index, list(digits)
            if index + 1 < stop:
                _advance(idx, digits)
        return best_sc, best_index, best_digits, count

    parts = _map_chunks(total, workers, run)
    count = sum(p[3] for p in parts)
    if count == 0:
        raise NoEquilibriumError("exhaustive search found no pure equilibrium")
    best_sc, best_index, best_digits, _ = max(
        (p for p in parts if p[2] is not None),
        key=lambda t: (t[0], -t[1]),
    )
    return StrategyProfile(tuple(best_digits)), best_sc, count


def optimal_profile(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    workers: int = 1,
) -> tuple[StrategyProfile, float]:
    """Global social-cost minimum; ties broken by lowest profile index."""
    idx, total = _checked_indexed(instance, cap, DEFAULT_EPS_IMPROVE)

    def run(bounds: tuple[int, int]):
        start, stop = bounds
        digits = idx.decode(start)
        best_sc, best_index, best_digits = math.inf, -1, None
        for index in range(start, stop):
            sc = idx.social_cost(digits, idx.loads(digits))
            if sc < best_sc:
                best_sc, best_index, best_digits = sc, index, list(digits)
            if index + 1 < stop:
                _advance(idx, digits)
        return best_sc, best_index, best_digits

    parts = _map_chunks(total, workers, run)
    best_sc, best_index, best_digits = min(parts, key=lambda t: (t[0], t[1]))
    return StrategyProfile(tuple(best_digits)), best_sc


def price_of_anarchy(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    eps_improve: float = DEFAULT_EPS_IMPROVE,
    workers: int = 1,
) -> PoAReport:
    """Worst-equilibrium social cost over optimal social cost, with the
    empirical affine bound attached."""
    worst, worst_sc, count = worst_equilibrium(instance, cap, eps_improve, workers)
    opt, opt_sc = optimal_profile(instance, cap, workers)
    return PoAReport(
        optimal_profile=opt,
        optimal_cost=opt_sc,
        worst_equilibrium_profile=worst,
        worst_equilibrium_cost=worst_sc,
        equilibrium_count=count,
        poa=worst_sc / opt_sc,
    )
