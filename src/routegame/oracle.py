"""Exhaustive ground truth on small instances: all pure equilibria, the optimal
profile, the worst equilibrium, and the Price of Anarchy.

Profiles are indexed by a mixed-radix counter over per-commodity path indices
(commodity 0 most significant); that index is the universal tie-breaker.
Players are grouped into runs: maximal blocks of consecutive commodities with
equal demand and strategy set, and hence equal cost tables. Every entry point makes one pass, in one thread, over the states:
one path-count vector per run, named by its canonical (lowest-index) digits,
nondecreasing within the run. A run of one player is a plain path index, so an
instance without repeated commodities scans one state per profile.

All profiles of a state have the same loads: each slot adds its users' demands
in player order, and the users a run puts on a slot all add the same r. Loads
come from a stack of prefix sums, one level per run, with r added once per
user, so every load has the bits of a full recompute. Equilibrium status is a
function of the loads too; it is tested once per (run, used path), and a state
counts its number of profiles, the product of the runs' multinomials.

Social costs are `CompiledGame.social_cost`, as in the engine. It adds the
players' load-free terms in player order, so the profiles of one state may
differ in the last bits. The optimum and the worst equilibrium are therefore
chosen exactly: a state's cost at its canonical profile, widened by a rigorous
bound on that reordering error, decides whether the state can still reach the
extreme; the states that can are expanded into their profiles, and the lowest
index among the profiles with the extreme cost wins, as in a scan of every
profile. A state whose cost or bound is not finite is always expanded. That
expansion is why the cap counts profiles, not states: near the extreme, a
state of a long run can hold exponentially many profiles.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

from .engine import StrategyProfile, DEFAULT_EPS_IMPROVE
from .model import GameInstance

DEFAULT_PROFILE_CAP = 200_000

#: Empirical ceiling on the Price of Anarchy for affine congestion.
POA_BOUND = (3.0 + math.sqrt(5.0)) / 2.0
POA_BOUND_TOL = 1e-6

_UNIT_ROUNDOFF = 2.0**-53


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


def _arrangements(canonical: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every ordering of the nondecreasing `canonical`, in lexicographic order."""
    seq = list(canonical)
    while True:
        yield tuple(seq)
        i = len(seq) - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = reversed(seq[i + 1:])


def _orderings(canonical: tuple[int, ...]) -> int:
    """The number of distinct orderings of `canonical` (a multinomial)."""
    ways, placed = 1, 0
    for d in dict.fromkeys(canonical):
        c = canonical.count(d)
        placed += c
        ways *= math.comb(placed, c)
    return ways


class _Indexed:
    """Precomputed tables for the state scan, one set per run.

    Only the compiled table's active edges (c1*a != 0) need loads, kept by slot
    in `active` order; every other cost contribution is linear in the path
    counts. Deviations whose cost difference does not depend on loads are
    resolved here once, into `static_bad`.
    """

    def __init__(self, instance: GameInstance, eps_improve: float):
        self.eps = eps_improve
        g = instance.compiled
        c1a = [c1 * a for c1, a in zip(g.c1, g.a)]
        c1b = [c1 * b for c1, b in zip(g.c1, g.b)]
        slot = {k: s for s, k in enumerate(g.active)}
        self.slope = g.slope
        # twice 2·γ_K for K players, rounded up: see rounding_bound
        self.slack = 4.0 * (len(g.demand) + 1) * _UNIT_ROUNDOFF

        #: per run: its first player and one past its last
        self.spans: list[tuple[int, int]] = []
        for i, (r, paths) in enumerate(zip(g.demand, g.paths)):
            if i and r == g.demand[i - 1] and paths == g.paths[i - 1]:
                self.spans[-1] = (self.spans[-1][0], i + 1)
            else:
                self.spans.append((i, i + 1))

        self.demand = [g.demand[lo] for lo, _ in self.spans]
        # per (run, path): a player's load-free social-cost term
        self.load_free: list[list[float]] = []
        # per (run, path): load-dependent deviations as
        # (alt index, cur-exclusive slots, alt-exclusive slots, constant)
        self.deviations: list[list[list[tuple[int, tuple, tuple, float]]]] = []
        # digits that can never appear in an equilibrium, decided load-free
        self.static_bad: list[list[bool]] = []
        # per (run, path): active slots on the path
        self.path_active: list[list[tuple[int, ...]]] = []
        # per (run, state of the run): canonical digits, used paths, canonical
        # load-free terms, and the number of orderings
        self.canonical: list[list[tuple[int, ...]]] = []
        self.used: list[list[tuple[int, ...]]] = []
        self.own: list[list[list[float]]] = []
        self.orderings: list[list[int]] = []

        for lo, hi in self.spans:
            r, unit_price = g.demand[lo], g.unit_price[lo]
            idx_lists, act_lists, prices = [], [], []
            for idxs in g.paths[lo]:
                idx_lists.append(frozenset(idxs))
                act_lists.append(tuple(slot[j] for j in idxs if j in slot))
                prices.append(sum(unit_price[j] for j in idxs))
            self.path_active.append(act_lists)
            n_paths = len(prices)
            load_free = [g.load_free_cost(lo, d) for d in range(n_paths)]
            self.load_free.append(load_free)

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

            # lists, and tuples built from lists: tuple() of an iterator is
            # resized, which moves blocks between the interpreter's per-size
            # tuple free lists and grew a long-running process by megabytes
            canonical = list(combinations_with_replacement(range(n_paths), hi - lo))
            self.canonical.append(canonical)
            self.used.append([tuple(dict.fromkeys(c)) for c in canonical])
            self.own.append([[load_free[d] for d in c] for c in canonical])
            self.orderings.append(list(map(_orderings, canonical)))

    def is_equilibrium(self, digits: list[int], f: list[float]) -> bool:
        eps = self.eps
        slope = self.slope
        for j, c in enumerate(digits):
            bad, devs = self.static_bad[j], self.deviations[j]
            for d in self.used[j][c]:
                if bad[d]:
                    return False
                for _, cur_act, alt_act, const in devs[d]:
                    improvement = const
                    for s in cur_act:
                        improvement += slope[s] * f[s]
                    for s in alt_act:
                        improvement -= slope[s] * f[s]
                    if improvement > eps:
                        return False
        return True

    def states(self) -> Iterator[tuple[list[int], list[float], list[float], int]]:
        """Every state as (per-run state indices, loads, canonical load-free
        terms in player order, number of profiles), the lists updated in
        place; a yielded loads list itself is never changed later.
        levels[j] holds the loads of runs 0..j-1, so advancing run j rebuilds
        levels j+1.. and the terms of runs j.. only."""
        demand, path_active, canonical = self.demand, self.path_active, self.canonical
        own_of, orderings = self.own, self.orderings
        runs = [slice(lo, hi) for lo, hi in self.spans]
        radices = [len(c) for c in canonical]
        k = len(radices)
        digits = [0] * k
        own = [0.0] * (self.spans[-1][1] if self.spans else 0)
        levels = [[0.0] * len(self.slope)] + [[]] * k
        ways = [1] * (k + 1)
        i = 0
        while True:
            for j in range(i, k):
                d = digits[j]
                f = levels[j].copy()
                r = demand[j]
                active = path_active[j]
                for path in canonical[j][d]:  # r once per user
                    for s in active[path]:
                        f[s] += r
                levels[j + 1] = f
                ways[j + 1] = ways[j] * orderings[j][d]
                own[runs[j]] = own_of[j][d]
            yield digits, levels[k], own, ways[k]
            i = k - 1
            while i >= 0 and digits[i] + 1 == radices[i]:
                digits[i] = 0
                i -= 1
            if i < 0:
                return
            digits[i] += 1

    def profiles(self, digits: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """The profiles of a state, in index order."""
        runs = [self.canonical[j][d] for j, d in enumerate(digits)]
        for parts in product(*(_arrangements(c) if len(c) > 1 else (c,) for c in runs)):
            yield tuple([d for part in parts for d in part])

    def load_free_terms(self, choice: Sequence[int]) -> list[float]:
        """The players' load-free terms of one profile, in player order."""
        return [
            self.load_free[j][choice[i]]
            for j, (lo, hi) in enumerate(self.spans)
            for i in range(lo, hi)
        ]

    def rounding_bound(self, f: Sequence[float], own: Sequence[float]) -> float:
        """How far the social costs of two profiles of one state may lie
        apart, or inf when a partial sum might overflow. Both sum the same
        K + 1 terms: slope·f·f over the active edges, then the K load-free
        terms in some order. Recursive summation of n terms lies within
        γ_(n-1)·Σ|terms| of the exact sum, γ_m = m·u/(1 - m·u) (Higham,
        Accuracy and Stability of Numerical Algorithms, 2002, §4.2), so the
        two lie within 2·γ_K·Σ|terms|; `slack` is twice that factor, which
        covers the rounding of this bound and of the comparisons using it."""
        total = 0.0
        for s, x in zip(self.slope, f):
            total += abs(s * x * x)
        for x in own:
            total += abs(x)
        return total * self.slack if total < sys.float_info.max / 2 else math.inf


class _Extreme:
    """The lowest-index profile whose `sign` * social cost is least, as a scan
    of every profile in index order with a strict `<` finds it: sign 1 gives
    the optimum, sign -1 the greatest cost. Offered states are kept while
    their lower bound may still reach the least key of a canonical profile."""

    def __init__(self, idx: _Indexed, social_cost: Callable, sign: float):
        self.idx, self.social_cost, self.sign = idx, social_cost, sign
        self.least = math.inf
        self.kept: list[tuple[float, tuple[int, ...], list[float], int, float]] = []
        self.prune_at = 64

    def offer(self, digits, f, own, ways: int, cost: float) -> None:
        key = self.sign * cost
        if key < self.least:
            self.least = key
        low = key - self.idx.rounding_bound(f, own) if ways > 1 else key
        if low <= self.least or not math.isfinite(low):
            self.kept.append((low, tuple(digits), f, ways, key))
            if len(self.kept) >= self.prune_at:  # keeps memory near the reachable
                self.kept = self._reachable()
                self.prune_at = 2 * len(self.kept) + 64

    def _reachable(self) -> list[tuple[float, tuple[int, ...], list[float], int, float]]:
        least = self.least
        return [s for s in self.kept if s[0] <= least or not math.isfinite(s[0])]

    def best(self) -> tuple[Optional[StrategyProfile], float]:
        idx, social_cost, sign = self.idx, self.social_cost, self.sign
        found = []
        for _, digits, f, ways, key in self._reachable():
            for choice in idx.profiles(digits):
                if ways > 1:  # a state of one profile has its canonical key
                    key = sign * social_cost(f, idx.load_free_terms(choice))
                found.append((choice, key))
        found.sort(key=itemgetter(0))
        best, best_key = None, math.inf
        for choice, key in found:
            if key < best_key:
                best, best_key = choice, key
        return (None if best is None else StrategyProfile(best)), sign * best_key


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
    """One pass over every state: the equilibrium count, the worst
    equilibrium, and on request the optimum and the list of equilibria. Ties
    go to the lowest profile index. Social costs are computed for every state
    only when the optimum is wanted, otherwise for equilibria only."""
    total = profile_count(instance)
    if total > cap:
        raise ProfileCapError(f"{total} profiles exceed cap {cap}")
    idx = _Indexed(instance, eps_improve)
    social_cost = instance.compiled.social_cost
    least = _Extreme(idx, social_cost, 1.0)
    greatest = _Extreme(idx, social_cost, -1.0)
    equilibrium_states: list[tuple[int, ...]] = []
    count = 0
    for digits, f, own, ways in idx.states():
        sc = None
        if optimum:
            sc = social_cost(f, own)
            least.offer(digits, f, own, ways, sc)
        if idx.is_equilibrium(digits, f):
            count += ways
            if keep:
                equilibrium_states.append(tuple(digits))
            if sc is None:
                sc = social_cost(f, own)
            greatest.offer(digits, f, own, ways, sc)
    found = sorted(p for state in equilibrium_states for p in idx.profiles(state))
    worst, worst_sc = greatest.best()
    best, best_sc = least.best()
    return _Scan(list(map(StrategyProfile, found)), count, worst, worst_sc, best, best_sc)


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
