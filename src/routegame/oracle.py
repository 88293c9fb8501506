"""Exhaustive ground truth on small instances: all pure equilibria, the optimal
profile, the worst equilibrium, and the Price of Anarchy.

Profiles are indexed by a mixed-radix counter over per-commodity path indices
(commodity 0 most significant); that index is the universal tie-breaker.
Players are grouped into runs: maximal blocks of consecutive commodities of
one class (`CompiledGame.class_of`), and hence with equal cost tables. Every
entry point makes one pass, in one thread, over the states: one path-count
vector per run, held as its used paths and their counts. States are made on
the fly, one at a time, and no per-state table is kept: a state takes O(used
paths) memory and time to advance, whatever the number of players. A run of
one player is its one used path, so an instance without repeated commodities
scans one state per profile.

All profiles of a state have the same loads: each edge adds its users'
demands in player order, and the users a run puts on an edge all add the same
r. Run 0 reads an edge's load by its user count from the sums 0.0 + r + ...,
and every later run adds its r once per user, so every load has the bits of a
full recompute. Equilibrium status is a function of the loads too. It is
decided by `CompiledGame.stable`, on the engine's own deviation rule, once per
(run, used path), and an equilibrium counts its number of profiles, the
product of the runs' multinomials.

When every player has the same demand r and every strategy set is listed (none
is searched), the scan counts users instead of summing loads. A state then
carries each edge's user count u, and every float of the deviation rule comes
from a table per (run, edge on the run's paths), built once per scan:
T[m] = c1 * (a * S[m] + b) + c2 * u(r) for m = 0 .. N + 1, with S[m] the load
of m users (`CompiledGame.costs_by_count`). A player on path d sees each edge
of d at T[u] and every other edge at T[u + 1], the floats `best_move` computes
from the loads, since S[u] + r is S[u + 1] by construction. Path costs are
summed from 0.0 in path order, and a state is no equilibrium when some (run,
used path) d costs more than eps above the least, as `stable` decides. One
row of every edge at T[u + 1] is made per run and state, then copied per used
path with the path's own edges overwritten: O(E + P * L) per (run, used path).
The loads S[u] are made only where a social cost is needed.

Social costs are `CompiledGame.social_cost`, as in the engine: the exact sum
of the terms, each used path's load-free term repeated by its count (in O(1),
`_Multiples`), correctly rounded, so every profile of a state has the state's
one cost, which the list of equilibria carries. A state's canonical profile is
its lowest-index profile, and states are visited in canonical-profile index
order (more players on a lower path first), so a strict `<` (optimum) or `>`
(worst equilibrium) over the states finds the lowest-index extreme profile, as
a scan of every profile would. The cap still counts profiles, not states: pass
a larger one for a large instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, product, repeat
from operator import getitem
from typing import Iterator, Optional, Sequence

from .engine import StrategyProfile
from .model import (
    DEFAULT_EPS_IMPROVE,
    DEFAULT_PROFILE_CAP,
    CostOverflowError,
    GameInstance,
    NoEquilibriumError,
    ProfileCapError,
    profile_count,
)

#: The tight bound on the pure Price of Anarchy of weighted congestion games
#: with affine costs (Awerbuch, Azar & Epstein, STOC 2005). A player's price
#: term c2 * u(r) is a load-free constant per player and edge, which the same
#: smoothness argument covers.
POA_BOUND = (3.0 + math.sqrt(5.0)) / 2.0
#: The tight bound when every player has the same demand, an unweighted affine
#: congestion game (Christodoulou & Koutsoupias, STOC 2005).
POA_BOUND_EQUAL_DEMANDS = 2.5
POA_BOUND_TOL = 1e-6


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


def check_cap(total: int, cap: int) -> None:
    """Raise ProfileCapError when a scan of `total` profiles would exceed `cap`."""
    if total > cap:
        raise ProfileCapError(f"{_count_text(total)} profiles exceed cap {cap}")


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


def _advance(used: list[int], counts: list[int], last: int) -> bool:
    """Step a run's state, its used paths (ascending) and their player counts,
    to the next one in canonical order: a player leaves the highest used path
    below `last` for the path above it, and every player on `last` joins it.
    False after the last state."""
    tail = 0
    if used[-1] == last:
        used.pop()
        tail = counts.pop()
    if not used:
        return False
    counts[-1] -= 1
    if counts[-1]:
        used.append(used[-1] + 1)
        counts.append(tail + 1)
    else:
        used[-1] += 1
        counts[-1] = tail + 1
    return True


#: A state: per run, its used paths in ascending order and their player counts.
State = Sequence[tuple[list[int], list[int]]]


def _canonical(state: State) -> tuple[int, ...]:
    """The state's lowest-index profile: each run's used paths repeated by
    their counts. A tuple of a list: tuple() of an iterator is resized, which
    moves blocks between the interpreter's per-size tuple free lists and grew
    a long-running process by megabytes."""
    return tuple([d for run in state for d in chain.from_iterable(map(repeat, *run))])


def _ways(state: State) -> int:
    """The state's number of profiles: the product of its runs' multinomials."""
    return math.prod(
        math.comb(placed, c)
        for _, counts in state
        for placed, c in zip(accumulate(counts), counts)
    )


class _Multiples(dict):
    """A path's load-free term t repeated c times, by c, made on first use from
    entry 1, [t]. Where c >= 16 and p = c * t rounded is finite, it is [p, rest]
    with rest the exact sum of -p (first: no partial sum overflows) and t * 2^b
    over the set bits b of c, since c * t - p fits in as many bits as c."""

    def __missing__(self, c: int) -> list[float]:
        t = self[1][0]
        if c < 16 or not math.isfinite(p := t * c):
            return self.setdefault(c, [t] * c)
        bits = [t * (1 << b) for b in range(c.bit_length()) if c >> b & 1]
        return self.setdefault(c, [p, math.fsum([-p, *bits])])


class _Indexed:
    """The state scan's tables, one entry per run; loads are by edge number.
    A state's level is its loads or, where the scan counts users (`tables` is
    not None), its per-edge user counts, from which `loads` and `stable`
    read."""

    def __init__(self, instance: GameInstance):
        g = self.g = instance.compiled

        #: per run: its first player and one past its last
        self.spans: list[tuple[int, int]] = []
        for i, cls in enumerate(g.class_of):
            if i and cls == g.class_of[i - 1]:
                self.spans[-1] = (self.spans[-1][0], i + 1)
            else:
                self.spans.append((i, i + 1))

        self.demand = [g.demand[lo] for lo, _ in self.spans]
        # each run's paths as a tuple: a counted strategy set is listed, once
        self.paths = [tuple(g.paths[lo]) for lo, _ in self.spans]
        #: per (run, path): a player's load-free cost on it, and its multiples
        self.multiples = [
            [_Multiples({1: [g.load_free_cost(lo, d)]}) for d in range(len(paths))]
            for (lo, _), paths in zip(self.spans, self.paths)
        ]
        #: per run, where the scan counts users: each edge's cost by its user
        #: count m (`CompiledGame.costs_by_count`), at m and shifted to m + 1,
        #: with a zero table for the edges on none of the run's paths
        self.tables: Optional[list[tuple[list, list]]] = None
        self.sums = g.repeated_sums
        if self.sums is not None and all(s is None for s in g.search):
            zero = [0.0] * (len(self.sums) + 1)
            self.tables = []
            for lo, _ in self.spans:
                on = [zero if t is None else t for t in g.costs_by_count(lo)]
                self.tables.append((on, [t[1:] for t in on]))

    def social_cost(self, state: State, f: list[float]) -> float:
        """`CompiledGame.social_cost` of the state's profiles, by `_Multiples`."""
        terms: list[float] = []
        for multiples, (used, counts) in zip(self.multiples, state):
            for d, c in zip(used, counts):
                terms += multiples[d][c]
        return self.g.social_cost(f, terms)

    def loads(self, level: list) -> list[float]:
        """A state's loads from its `states` level: the loads themselves, or,
        where the scan counts users, the loads of its user counts."""
        return level if self.tables is None else list(map(self.sums.__getitem__, level))

    def stable(self, state: State, level: list, eps: float) -> bool:
        """Whether the state's profiles are equilibria, asked of one player per
        (run, used path), whose players share their rows: `CompiledGame.stable`
        at the state's loads or, where the scan counts users, the same rule
        read from `tables` at its user counts (see the module docstring)."""
        if self.tables is None:
            pairs = ((lo, d) for (lo, _), (used, _) in zip(self.spans, state) for d in used)
            return self.g.stable(pairs, level, eps)
        for (on, moved), paths, (used, _) in zip(self.tables, self.paths, state):
            row = list(map(getitem, moved, level))  # one row per run and state
            for d in used:
                cost = row.copy()
                for k in paths[d]:
                    cost[k] = on[k][level[k]]
                costs = []
                for path in paths:
                    total = 0.0
                    for k in path:
                        total += cost[k]
                    costs.append(total)
                if costs[d] - min(costs) > eps:
                    return False
        return True

    def states(self) -> Iterator[tuple[State, list]]:
        """Every state in canonical-profile index order, the state's lists
        changed in place, with its per-edge user counts where the scan counts
        users and its loads otherwise. levels[j] holds those of runs 0..j-1,
        so advancing run j rebuilds levels j+1.. only."""
        demand, paths_of = self.demand, self.paths
        sizes = [hi - lo for lo, hi in self.spans]
        k, n_edges = len(sizes), len(self.g.c1)
        counting = self.tables is not None
        sums = list(accumulate(repeat(demand[0], sizes[0]), initial=0.0)) if k else []
        state = [([0], [m]) for m in sizes]
        levels = [[0] * n_edges if counting else [0.0] * n_edges] + [[]] * k
        i = 0
        while True:
            for j in range(i, k):
                paths = paths_of[j]
                if counting:  # users, by edge
                    f = levels[j].copy()
                    for d, c in zip(*state[j]):
                        for e in paths[d]:
                            f[e] += c
                elif j:  # r once per user
                    f, r = levels[j].copy(), demand[j]
                    for d, c in zip(*state[j]):
                        for _ in range(c):
                            for e in paths[d]:
                                f[e] += r
                else:  # by user count
                    f, users = [0.0] * n_edges, [0] * n_edges
                    for d, c in zip(*state[0]):
                        for e in paths[d]:
                            users[e] += c
                            f[e] = sums[users[e]]
                levels[j + 1] = f
            yield state, levels[k]
            i = k - 1
            while i >= 0 and not _advance(*state[i], len(paths_of[i]) - 1):
                state[i] = ([0], [sizes[i]])
                i -= 1
            if i < 0:
                return


@dataclass(frozen=True)
class _Scan:
    equilibria: list[tuple[StrategyProfile, float]]  # each with its social cost
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
    equilibrium, and on request the optimum and the list of equilibria with
    their social costs. Ties go to the lowest profile index. Social costs are
    computed for every state only when the optimum is wanted, otherwise for
    equilibria only."""
    check_cap(profile_count(instance), cap)
    idx = _Indexed(instance)
    stable, social_cost, loads, spans = idx.stable, idx.social_cost, idx.loads, idx.spans
    equilibrium_states: list[tuple[tuple[int, ...], float]] = []
    best = worst = None
    best_sc, worst_sc, count = math.inf, -math.inf, 0
    for state, level in idx.states():
        sc = None
        if optimum:
            sc = social_cost(state, loads(level))
            if sc < best_sc or best is None:
                best, best_sc = _canonical(state), sc
        if stable(state, level, eps_improve):
            count += _ways(state)
            if sc is None:
                sc = social_cost(state, loads(level))
            if keep:
                equilibrium_states.append((_canonical(state), sc))
            if sc > worst_sc or worst is None:
                worst, worst_sc = _canonical(state), sc
    found = sorted(
        (tuple([d for part in parts for d in part]), sc)
        for canonical, sc in equilibrium_states
        for parts in product(*(_arrangements(canonical[lo:hi]) for lo, hi in spans))
    )
    best, worst = (None if p is None else StrategyProfile(p) for p in (best, worst))
    equilibria = [(StrategyProfile(p), sc) for p, sc in found]
    return _Scan(equilibria, count, worst, worst_sc, best, best_sc)


def worst_equilibrium(
    instance: GameInstance,
    cap: int = DEFAULT_PROFILE_CAP,
    eps_improve: float = DEFAULT_EPS_IMPROVE,
) -> tuple[StrategyProfile, float, int]:
    """The equilibrium with the highest social cost (lowest index on ties)
    plus the total equilibrium count."""
    scan = _scan(instance, cap, eps_improve).checked()
    return scan.worst, scan.worst_cost, scan.count


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
) -> tuple[list[tuple[StrategyProfile, float]], PoAReport]:
    """Every pure equilibrium with its social cost, in profile-index order,
    and price_of_anarchy, from the same single pass."""
    scan = _scan(instance, cap, eps_improve, optimum=True, keep=True)
    return scan.equilibria, scan.report()
