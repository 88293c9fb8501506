"""Exhaustive ground truth on small instances: all pure equilibria, the optimal
profile, the worst equilibrium, and the Price of Anarchy.

Profiles are indexed by a mixed-radix counter over per-commodity path indices
(commodity 0 most significant); that index is the universal tie-breaker.
Players are grouped into runs: maximal blocks of consecutive commodities of
one class (`CompiledGame.class_of`), and hence with equal cost tables. Every
entry point makes one pass, in one thread, over the states: one path-count
vector per run, named by its canonical (lowest-index) digits, nondecreasing
within the run. A run of one player is a plain path index, so an instance
without repeated commodities scans one state per profile.

All profiles of a state have the same loads: each edge adds its users'
demands in player order, and the users a run puts on an edge all add the same
r. Loads come from a stack of prefix sums, one level per run, with r added once
per user, so every load has the bits of a full recompute. Equilibrium status is
a function of the loads too. It is decided by `CompiledGame.best_move`, the
engine's own test, once per (run, used path), and a state counts its number of
profiles, the product of the runs' multinomials.

Social costs are `CompiledGame.social_cost`, as in the engine: the exact sum
of the terms, correctly rounded, so every profile of a state has the state's
one cost. A state's canonical profile is its lowest-index profile, and states
are visited in canonical-profile index order, so a strict `<` (optimum) or `>`
(worst equilibrium) over the states finds the lowest-index extreme profile, as
a scan of every profile would. The cap still counts profiles, not states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Iterator, Optional, Sequence

from .engine import StrategyProfile, DEFAULT_EPS_IMPROVE
from .model import CostOverflowError, GameInstance

DEFAULT_PROFILE_CAP = 200_000

#: The tight bound on the pure Price of Anarchy of weighted congestion games
#: with affine costs (Awerbuch, Azar & Epstein, STOC 2005). A player's price
#: term c2 * u(r) is a load-free constant per player and edge, which the same
#: smoothness argument covers.
POA_BOUND = (3.0 + math.sqrt(5.0)) / 2.0
#: The tight bound when every player has the same demand, an unweighted affine
#: congestion game (Christodoulou & Koutsoupias, STOC 2005).
POA_BOUND_EQUAL_DEMANDS = 2.5
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
    otherwise: costs are nonnegative, and an all-zero game is not inefficient.
    An infinite reference has no ratio and raises CostOverflowError."""
    if reference == math.inf:
        raise CostOverflowError("no cost ratio: the reference cost overflows")
    if reference == 0.0:
        return 1.0 if cost == 0.0 else math.inf
    return cost / reference


def profile_count(instance: GameInstance) -> int:
    """Product of strategy-set sizes over all commodities, an exact int of
    any size, so the cap check rejects any instance too large to scan."""
    if not instance.prepared:
        raise ValueError("instance has no enumerated paths; call prepare() first")
    return math.prod(map(len, instance.paths))


def _count_text(total: int) -> str:
    """`total` in decimal below 10^100, else "at least 10^k" with 10^k <= total
    < 10^(k+1): Python refuses to print an int of more than 4,300 digits."""
    if total < 10**100:
        return str(total)
    k = int(math.log10(total))
    while 10**k > total:
        k -= 1
    while 10 ** (k + 1) <= total:
        k += 1
    return f"at least 10^{k}"


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

    Loads are kept by edge number, as the engine keeps them.
    """

    def __init__(self, instance: GameInstance, eps_improve: float):
        self.eps = eps_improve
        g = self.g = instance.compiled

        #: per run: its first player and one past its last
        self.spans: list[tuple[int, int]] = []
        for i, cls in enumerate(g.class_of):
            if i and cls == g.class_of[i - 1]:
                self.spans[-1] = (self.spans[-1][0], i + 1)
            else:
                self.spans.append((i, i + 1))

        self.demand = [g.demand[lo] for lo, _ in self.spans]
        # each run's rows as a tuple: a counted strategy set is listed, once
        self.paths = [tuple(g.paths[lo]) for lo, _ in self.spans]
        # per (run, state of the run): canonical digits, used paths, canonical
        # load-free terms, and the number of orderings
        self.canonical: list[list[tuple[int, ...]]] = []
        self.used: list[list[tuple[int, ...]]] = []
        self.own: list[list[list[float]]] = []
        self.orderings: list[list[int]] = []

        for (lo, hi), paths in zip(self.spans, self.paths):
            load_free = [g.load_free_cost(lo, d) for d in range(len(paths))]
            # lists, and tuples built from lists: tuple() of an iterator is
            # resized, which moves blocks between the interpreter's per-size
            # tuple free lists and grew a long-running process by megabytes
            canonical = list(combinations_with_replacement(range(len(paths)), hi - lo))
            self.canonical.append(canonical)
            self.used.append([tuple(dict.fromkeys(c)) for c in canonical])
            self.own.append([[load_free[d] for d in c] for c in canonical])
            self.orderings.append(list(map(_orderings, canonical)))

    def is_equilibrium(self, digits: list[int], f: list[float]) -> bool:
        """No player of the state saves more than eps by `best_move`, once per
        (run, used path), asked at eps = inf: only the saving is read."""
        eps, best_move = self.eps, self.g.best_move
        for (lo, _), used, c in zip(self.spans, self.used, digits):
            for d in used[c]:
                current, best, _, _ = best_move(lo, d, f, math.inf)
                if current - best > eps:
                    return False
        return True

    def states(self) -> Iterator[tuple[list[int], list[float], list[float], int]]:
        """Every state as (per-run state indices, loads, canonical load-free
        terms in player order, number of profiles), the lists updated in
        place; a yielded loads list itself is never changed later.
        levels[j] holds the loads of runs 0..j-1, so advancing run j rebuilds
        levels j+1.. and the terms of runs j.. only."""
        demand, paths_of, canonical = self.demand, self.paths, self.canonical
        own_of, orderings = self.own, self.orderings
        runs = [slice(lo, hi) for lo, hi in self.spans]
        radices = [len(c) for c in canonical]
        k = len(radices)
        digits = [0] * k
        own = [0.0] * (self.spans[-1][1] if self.spans else 0)
        levels = [[0.0] * len(self.g.c1)] + [[]] * k
        ways = [1] * (k + 1)
        i = 0
        while True:
            for j in range(i, k):
                d = digits[j]
                f = levels[j].copy()
                r = demand[j]
                paths = paths_of[j]
                for path in canonical[j][d]:  # r once per user
                    for e in paths[path]:
                        f[e] += r
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

    def canonical_profile(
        self, digits: Optional[Sequence[int]]
    ) -> Optional[StrategyProfile]:
        """A state's lowest-index profile, or None for no state: its runs'
        canonical digits, concatenated."""
        if digits is None:
            return None
        return StrategyProfile(
            tuple([p for j, d in enumerate(digits) for p in self.canonical[j][d]])
        )

    def profiles(self, digits: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """The profiles of a state, in index order."""
        runs = [self.canonical[j][d] for j, d in enumerate(digits)]
        for parts in product(*(_arrangements(c) if len(c) > 1 else (c,) for c in runs)):
            yield tuple([d for part in parts for d in part])


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
        raise ProfileCapError(f"{_count_text(total)} profiles exceed cap {cap}")
    idx = _Indexed(instance, eps_improve)
    social_cost = instance.compiled.social_cost
    equilibrium_states: list[tuple[int, ...]] = []
    best = worst = None
    best_sc, worst_sc, count = math.inf, -math.inf, 0
    for digits, f, own, ways in idx.states():
        sc = None
        if optimum:
            sc = social_cost(f, own)
            if sc < best_sc or best is None:
                best, best_sc = tuple(digits), sc
        if idx.is_equilibrium(digits, f):
            count += ways
            if keep:
                equilibrium_states.append(tuple(digits))
            if sc is None:
                sc = social_cost(f, own)
            if sc > worst_sc or worst is None:
                worst, worst_sc = tuple(digits), sc
    found = sorted(p for state in equilibrium_states for p in idx.profiles(state))
    return _Scan(
        list(map(StrategyProfile, found)),
        count,
        idx.canonical_profile(worst),
        worst_sc,
        idx.canonical_profile(best),
        best_sc,
    )


def find_all_equilibria(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    eps_improve: float = DEFAULT_EPS_IMPROVE,
) -> list[StrategyProfile]:
    """Every pure equilibrium, in profile-index order."""
    return _scan(instance, cap, eps_improve, keep=True).equilibria


def worst_equilibrium(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    eps_improve: float = DEFAULT_EPS_IMPROVE,
) -> tuple[StrategyProfile, float, int]:
    """The equilibrium with the highest social cost (lowest index on ties)
    plus the total equilibrium count."""
    scan = _scan(instance, cap, eps_improve).checked()
    return scan.worst, scan.worst_cost, scan.count


def optimal_profile(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
) -> tuple[StrategyProfile, float]:
    """Global social-cost minimum; ties broken by lowest profile index."""
    scan = _scan(instance, cap, DEFAULT_EPS_IMPROVE, optimum=True)
    return scan.optimum, scan.optimal_cost


def price_of_anarchy(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    eps_improve: float = DEFAULT_EPS_IMPROVE,
) -> PoAReport:
    """Worst-equilibrium social cost over optimal social cost, with the
    proven tight bound (3 + sqrt(5)) / 2 for weighted affine games attached
    (`POA_BOUND`)."""
    return _scan(instance, cap, eps_improve, optimum=True).report()


def equilibria_and_poa(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    eps_improve: float = DEFAULT_EPS_IMPROVE,
) -> tuple[list[StrategyProfile], PoAReport]:
    """find_all_equilibria and price_of_anarchy from the same single pass."""
    scan = _scan(instance, cap, eps_improve, optimum=True, keep=True)
    return scan.equilibria, scan.report()
