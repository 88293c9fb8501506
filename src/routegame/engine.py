"""Cost evaluation, the routing potential, and best-response dynamics.

Per-unit edge cost for player i: c1 * (a * f_e + b) + c2 * u(r_i), where f_e is
the total load on the edge and r_i the player's own demand. A unilateral switch
changes the potential by exactly 2 * r_i * (cost change of the switching player),
which makes every strict best-response move a strict potential descent.

Every function here is a view over the instance's compiled table
(`GameInstance.compiled`): edge indices per (commodity, path), and the
load-free unit price c2 * u(r) and potential term per (commodity, edge), each
evaluated once per class of identical commodities. `profile_costs` reports
every player's unit cost and the social cost from one set of loads, costing
each (class, path) once by `CompiledGame.path_cost`. With E edges and a
player's P paths of at most L edges, one best response by the scan costs
O(E + P * L) and evaluates no price; a strategy set that `prepare` counts
(more than `model.SEARCH_CROSSOVER` edge slots per edge of its acyclic graph)
is searched instead, in time that grows with its graph, not with P
(`CompiledGame.best_move`). Between two moves the dynamics compute a best
response once per (class, current path), since a player's move costs read
only its class's rows and the loads; at the move cap, `CompiledGame.stable`
checks each (class, current path) once. A move updates the loads of only the
edges the mover leaves or joins: in O(1) each from
`CompiledGame.repeated_sums` when every player has the same demand, otherwise
by re-summing each edge's users in player order (O(N) each, in C, for N
players). The dynamics sum the potential once, for the final profile, in
O(E + N).

Loads are summed from 0.0 in player order, as in the original dict-based
engine. Every deviation is decided by `CompiledGame.best_move`, which the
oracle's equilibrium test `CompiledGame.stable` reads too: a player moving
from path d sees each edge of d at its load f and every other edge at f + r,
and path costs are summed from 0.0 in path order. So with eps_improve >= 0
the dynamics stop, short of max_moves, only on a profile the oracle lists.
The potential and the social cost are exact sums of their terms, correctly
rounded (`math.fsum`), so they depend neither on the order of the terms nor
on the Python version; the social cost is the compiled table's one
social-cost expression, which the oracle's scan evaluates too.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add, getitem
from typing import Iterable, NamedTuple, Optional, Sequence

from .model import (
    DEFAULT_EPS_IMPROVE,
    DEFAULT_MAX_MOVES,
    CompiledGame,
    GameInstance,
    exact_sum,
)


@dataclass(frozen=True)
class StrategyProfile:
    """One chosen path index per commodity, in commodity order."""

    choice: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.choice):
            raise ValueError("negative path index")


@dataclass(frozen=True)
class ProfileCosts:
    """The costs a report prints for one profile, from one set of loads."""

    unit_costs: tuple[float, ...]   # each player's per-unit cost on its chosen path
    social_cost: float


def _check_profile(instance: GameInstance, profile: StrategyProfile) -> CompiledGame:
    g = instance.compiled  # raises ValueError on an unprepared instance
    if len(profile.choice) != len(instance.commodities):
        raise ValueError("profile length does not match number of commodities")
    for i, c in enumerate(profile.choice):
        if c >= len(g.paths[i]):
            raise ValueError(f"path index {c} out of range for commodity {i}")
    return g


class _Flow:
    """The number of users of each edge under a profile, and their loads.

    Loads are summed from 0.0 in player order, so each float equals that of a
    rebuild from scratch. When every player has the same demand, an edge's load
    depends only on its number of users and is read from
    `CompiledGame.repeated_sums`. Otherwise the flow keeps each edge's users in
    player order, and a move re-sums the loads of the edges the mover leaves or
    joins.
    """

    def __init__(self, g: CompiledGame, choice: Sequence[int]):
        n = len(g.c1)
        self.g = g
        self.sums = g.repeated_sums
        self.users: list[list[int]] = [[] for _ in range(n)]
        self.demands: list[list[float]] = [[] for _ in range(n)]
        rows = list(map(getitem, g.paths, choice))
        self.count = list(map(Counter(chain.from_iterable(rows)).__getitem__, range(n)))
        if self.sums is not None:
            self.loads = [self.sums[m] for m in self.count]
        else:
            for i, row in enumerate(rows):
                for k in row:
                    self.users[k].append(i)
                    self.demands[k].append(g.demand[i])
            self.loads = _loads(g, choice)

    def _edit(self, k: int, player: int, step: int) -> None:
        """Take the player off edge k (step -1) or put it on (step 1)."""
        self.count[k] += step
        if self.sums is not None:
            self.loads[k] = self.sums[self.count[k]]
            return
        users, demands = self.users[k], self.demands[k]
        pos = bisect_left(users, player)
        if step < 0:
            del users[pos], demands[pos]
        else:
            users.insert(pos, player)
            demands.insert(pos, self.g.demand[player])
        self.loads[k] = reduce(add, demands, 0.0)

    def move(self, player: int, old: int, new: int) -> None:
        old_path, new_path = self.g.paths[player][old], self.g.paths[player][new]
        for k in old_path:
            if k not in new_path:
                self._edit(k, player, -1)
        for k in new_path:
            if k not in old_path:
                self._edit(k, player, 1)


def _own_terms(g: CompiledGame, choice: Sequence[int]) -> list[float]:
    """Each player's own term of the potential: `potential_term`s summed
    exactly, once per (class, path), since a class's players share its rows."""
    terms: dict[tuple[int, int], float] = {}
    for i, key in enumerate(zip(g.class_of, choice)):
        if key not in terms:
            terms[key] = exact_sum([g.potential_term[i][k] for k in g.paths[i][key[1]]])
    return list(map(terms.__getitem__, zip(g.class_of, choice)))


def _potential(g: CompiledGame, f: Sequence[float], own: Iterable[float]) -> float:
    """The exact sum of c1 * (a * x + b) * x over the edges at their loads f
    and of the players' `own` terms, correctly rounded."""
    c1, a, b = g.c1, g.a, g.b
    edge_terms = [c1[k] * (a[k] * x + b[k]) * x for k, x in enumerate(f)]
    return exact_sum(chain(edge_terms, own))


def _loads(g: CompiledGame, choice: Sequence[int]) -> list[float]:
    """Each edge's load under a profile, by edge number: its users' demands
    summed from 0.0 in player order."""
    f = [0.0] * len(g.c1)
    for i, c in enumerate(choice):
        r = g.demand[i]
        for k in g.paths[i][c]:
            f[k] += r
    return f


def profile_costs(instance: GameInstance, profile: StrategyProfile) -> ProfileCosts:
    """Each player's per-unit cost on its chosen path (`CompiledGame.path_cost`)
    and the social cost, from one set of loads. Each (class, path) of
    `CompiledGame` is costed once: its players pay the same unit cost and have
    the same load-free cost."""
    g = _check_profile(instance, profile)
    f = _loads(g, profile.choice)
    per_path: dict[tuple[int, int], tuple[float, float]] = {}
    unit, load_free = [], []
    for i, d in enumerate(profile.choice):
        costs = per_path.get((g.class_of[i], d))
        if costs is None:
            costs = per_path[g.class_of[i], d] = (
                g.path_cost(i, g.paths[i][d], f), g.load_free_cost(i, d)
            )
        unit.append(costs[0])
        load_free.append(costs[1])
    return ProfileCosts(tuple(unit), g.social_cost(f, load_free))


@dataclass(frozen=True)
class DynamicsConfig:
    max_moves: int = DEFAULT_MAX_MOVES
    eps_improve: float = DEFAULT_EPS_IMPROVE

    def __post_init__(self) -> None:
        if self.max_moves < 0:
            raise ValueError("max_moves must be nonnegative")


class Move(NamedTuple):
    player: int
    old_path: int
    new_path: int
    improvement: float


@dataclass(frozen=True)
class DynamicsResult:
    final: StrategyProfile
    moves: tuple[Move, ...]
    potential: float   # the final profile's, summed once when the run ends
    converged: bool


def run_best_response_dynamics(
    instance: GameInstance,
    initial: StrategyProfile,
    config: DynamicsConfig = DynamicsConfig(),
) -> DynamicsResult:
    """Round-robin best responses until no player can improve by more than
    eps_improve. Once max_moves moves are made, no further move is taken and
    convergence is decided by an equilibrium check of the final profile. At a
    negative eps_improve staying put counts as an improvement, so no profile
    with a player is an equilibrium and the dynamics never converge."""
    g = _check_profile(instance, initial)
    eps = config.eps_improve
    choice = list(initial.choice)
    moves: list[Move] = []
    flow = _Flow(g, choice)
    # best moves by (class, current path) since the last move: a player's
    # move costs read only its class's rows and the loads
    memo: dict[tuple[int, int], tuple[float, float, Optional[int]]] = {}
    while True:
        moved = False
        for i in range(len(choice)):
            if len(moves) >= config.max_moves:
                break
            d = choice[i]
            move = memo.get((g.class_of[i], d))
            if move is None:
                move = memo[g.class_of[i], d] = g.best_move(i, d, flow.loads, eps)
            current, best, j = move
            if j is None or j == d:
                continue
            memo.clear()
            moves.append(Move(i, d, j, current - best))
            flow.move(i, d, j)
            choice[i] = j
            moved = True
        if len(moves) >= config.max_moves:
            pairs = {(g.class_of[i], d): (i, d) for i, d in enumerate(choice)}
            converged = g.stable(pairs.values(), flow.loads, eps)
            break
        if not moved:
            converged = eps >= 0 or not choice
            break
    phi = _potential(g, flow.loads, _own_terms(g, choice))
    return DynamicsResult(StrategyProfile(tuple(choice)), tuple(moves), phi, converged)
