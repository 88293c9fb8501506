"""Cost evaluation, the routing potential, and best-response dynamics.

Per-unit edge cost for player i: c1 * (a * f_e + b) + c2 * u(r_i), where f_e is
the total load on the edge and r_i the player's own demand. A unilateral switch
changes the potential by exactly 2 * r_i * (cost change of the switching player),
which makes every strict best-response move a strict potential descent.

Every function here is a view over the instance's compiled table
(`GameInstance.compiled`): edge indices per (commodity, path), and the
load-free unit price c2 * u(r) and potential term per (commodity, edge), each
evaluated once per class of identical commodities. With E edges and a
player's P paths of at most L edges, one best response by the scan costs
O(E + P * L) and evaluates no price; a strategy set that `prepare` counts
(more than `model.SEARCH_CROSSOVER` edge slots per edge of its acyclic graph)
is searched instead, in time that grows with its graph, not with P
(`CompiledGame.best_move`). Between two moves the dynamics compute a best
response once per (class, current path), since a player's move costs read
only its class's rows and the loads; at the move cap, `CompiledGame.stable`
checks each (class, current path) once. When every player has the same
demand, a move updates the loads of only the edges the mover leaves or joins,
in O(1) each from `CompiledGame.repeated_sums`; otherwise it sums every load
again with `_loads`, in O(N * L) for N players. When the run ends it reports
the final profile's costs from its own loads, which equal a rebuild bit for
bit, so it neither checks the profile again nor re-sums a load: each player's
unit cost (`CompiledGame.path_cost`) and the social cost are costed once per
(class, path) group, and the potential is summed once, in O(E + N), with each
group's own term summed once.

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

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import ge, getitem
from typing import NamedTuple, Optional, Sequence

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
        if min(self.choice, default=0) < 0:
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
    beyond = list(map(ge, profile.choice, map(len, g.paths)))
    if any(beyond):
        i = beyond.index(True)
        c = profile.choice[i]
        raise ValueError(f"path index {c} out of range for commodity {i}")
    return g


def _loads(g: CompiledGame, choice: Sequence[int]) -> list[float]:
    """Each edge's load under a profile, by edge number: its users' demands
    summed from 0.0 in player order."""
    f = [0.0] * len(g.c1)
    for i, c in enumerate(choice):
        r = g.demand[i]
        for k in g.paths[i][c]:
            f[k] += r
    return f


class _Flow:
    """A profile and the loads of the edges under it, kept as players move.

    Loads are summed from 0.0 in player order, so each float equals that of a
    rebuild from scratch. When every player has the same demand, an edge's load
    depends only on its number of users: the flow counts them and reads the
    load from `CompiledGame.repeated_sums`, so a move touches only the edges
    the mover leaves or joins. Otherwise a move sums every load again with
    `_loads`.
    """

    def __init__(self, g: CompiledGame, choice: Sequence[int]):
        self.g = g
        self.sums = g.repeated_sums
        self.choice = list(choice)
        if self.sums is None:
            self.loads = _loads(g, choice)
        else:
            rows = chain.from_iterable(map(getitem, g.paths, choice))
            self.count = list(map(Counter(rows).__getitem__, range(len(g.c1))))
            self.loads = [self.sums[m] for m in self.count]

    def move(self, player: int, old: int, new: int) -> None:
        self.choice[player] = new
        if self.sums is None:
            self.loads = _loads(self.g, self.choice)
            return
        old_path, new_path = self.g.paths[player][old], self.g.paths[player][new]
        for k in old_path:
            if k not in new_path:
                self.count[k] -= 1
                self.loads[k] = self.sums[self.count[k]]
        for k in new_path:
            if k not in old_path:
                self.count[k] += 1
                self.loads[k] = self.sums[self.count[k]]


def _groups(
    g: CompiledGame, choice: Sequence[int]
) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    """Each player's (class, path) in player order, and the last player of
    each (class, path): a class's players share its rows, so that player
    costs the group for all of them."""
    keys = list(zip(g.class_of, choice))
    return keys, dict(zip(keys, range(len(keys))))


def _costs(
    g: CompiledGame,
    keys: Sequence[tuple[int, int]],
    last: dict[tuple[int, int], int],
    f: Sequence[float],
) -> ProfileCosts:
    """Each player's per-unit cost on its chosen path (`CompiledGame.path_cost`)
    and the social cost at the profile's loads f, costing each (class, path)
    group of `_groups` once."""
    unit, load_free = {}, {}
    for key, i in last.items():
        unit[key] = g.path_cost(i, g.paths[i][key[1]], f)
        load_free[key] = g.load_free_cost(i, key[1])
    return ProfileCosts(
        tuple(map(unit.__getitem__, keys)),
        g.social_cost(f, map(load_free.__getitem__, keys)),
    )


def _potential(
    g: CompiledGame,
    keys: Sequence[tuple[int, int]],
    last: dict[tuple[int, int], int],
    f: Sequence[float],
) -> float:
    """The exact sum of c1 * (a * x + b) * x over the edges at their loads f
    and of each player's own term, correctly rounded. A player's own term is
    its path's `potential_term`s summed exactly, once per (class, path) group
    of `_groups`."""
    c1, a, b = g.c1, g.a, g.b
    edge_terms = [c1[k] * (a[k] * x + b[k]) * x for k, x in enumerate(f)]
    own = {
        key: exact_sum([g.potential_term[i][k] for k in g.paths[i][key[1]]])
        for key, i in last.items()
    }
    return exact_sum(chain(edge_terms, map(own.__getitem__, keys)))


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
    # the final profile's, from the run's own loads: a rebuild's bits
    costs: ProfileCosts


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
    moves: list[Move] = []
    flow = _Flow(g, initial.choice)
    choice = flow.choice  # the profile, which flow.move updates
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
            moved = True
        if len(moves) >= config.max_moves or not moved:
            break
    keys, last = _groups(g, choice)
    if len(moves) >= config.max_moves:
        converged = g.stable([(i, d) for (_, d), i in last.items()], flow.loads, eps)
    else:
        converged = eps >= 0 or not choice
    return DynamicsResult(
        StrategyProfile(tuple(choice)),
        tuple(moves),
        _potential(g, keys, last, flow.loads),
        converged,
        _costs(g, keys, last, flow.loads),
    )
