"""Frozen copy of the original dict-based engine, for bit-for-bit comparison.

Test-only: the package's engine must reproduce every float these functions
return. The only change from the original is that the linear edge lookup,
once `GameInstance.edge()`, is the local helper `_edge`.
"""

from __future__ import annotations

from typing import Sequence

from routegame.engine import (
    DEFAULT_EPS_IMPROVE,
    DeviationWitness,
    DynamicsConfig,
    DynamicsResult,
    EdgeLoads,
    EquilibriumReport,
    Move,
    StrategyProfile,
)
from routegame.model import EdgeSpec, GameInstance, Path
from routegame.pricing import eval_u


def _edge(instance: GameInstance, edge_id: str) -> EdgeSpec:
    for e in instance.edges:
        if e.id == edge_id:
            return e
    raise KeyError(edge_id)


def _check_profile(instance: GameInstance, profile: StrategyProfile) -> None:
    if not instance.prepared:
        raise ValueError("instance has no enumerated paths; call prepare() first")
    if len(profile.choice) != len(instance.commodities):
        raise ValueError("profile length does not match number of commodities")
    for i, c in enumerate(profile.choice):
        if c >= len(instance.paths[i]):
            raise ValueError(f"path index {c} out of range for commodity {i}")


def edge_loads(instance: GameInstance, profile: StrategyProfile) -> EdgeLoads:
    """Aggregate each player's demand over its chosen path."""
    _check_profile(instance, profile)
    load = {e.id: 0.0 for e in instance.edges}
    for i, c in enumerate(profile.choice):
        r = instance.commodities[i].demand
        for eid in instance.paths[i][c]:
            load[eid] += r
    return EdgeLoads(load)


def unit_path_cost(
    instance: GameInstance,
    loads: EdgeLoads,
    player: int,
    path: Sequence[str],
) -> float:
    """Per-unit-flow cost player `player` pays to traverse `path` at the given loads."""
    r = instance.commodities[player].demand
    total = 0.0
    for eid in path:
        e = _edge(instance, eid)
        total += e.c1 * (e.a * loads[eid] + e.b) + e.c2 * eval_u(e.price, r)
    return total


def social_cost(instance: GameInstance, profile: StrategyProfile) -> float:
    """Total cost over all players: weighted congestion term plus weighted price term."""
    loads = edge_loads(instance, profile)
    total = 0.0
    for e in instance.edges:
        f = loads[e.id]
        total += e.c1 * (e.a * f + e.b) * f
    for i, c in enumerate(profile.choice):
        r = instance.commodities[i].demand
        for eid in instance.paths[i][c]:
            e = _edge(instance, eid)
            total += e.c2 * eval_u(e.price, r) * r
    return total


def potential(instance: GameInstance, profile: StrategyProfile) -> float:
    """Scalar whose change under any unilateral switch is twice the mover's
    demand times the mover's cost change; its minima are equilibria."""
    _check_profile(instance, profile)
    loads = edge_loads(instance, profile)
    users: dict[str, list[float]] = {e.id: [] for e in instance.edges}
    for i, c in enumerate(profile.choice):
        r = instance.commodities[i].demand
        for eid in instance.paths[i][c]:
            users[eid].append(r)
    total = 0.0
    for e in instance.edges:
        f = loads[e.id]
        congestion = (e.a * f + e.b) * f + sum((e.a * r + e.b) * r for r in users[e.id])
        price = sum(eval_u(e.price, r) * r for r in users[e.id])
        total += e.c1 * congestion + 2.0 * e.c2 * price
    return total


def _deviated_loads(
    instance: GameInstance,
    loads: EdgeLoads,
    player: int,
    current: Path,
    alternative: Path,
) -> EdgeLoads:
    r = instance.commodities[player].demand
    new = dict(loads.load)
    for eid in current:
        new[eid] = new.get(eid, 0.0) - r
    for eid in alternative:
        new[eid] = new.get(eid, 0.0) + r
    return EdgeLoads(new)


def is_equilibrium(
    instance: GameInstance,
    profile: StrategyProfile,
    eps_improve: float = DEFAULT_EPS_IMPROVE,
) -> EquilibriumReport:
    """Check every player against every alternative path; the witness is the first
    strictly improving deviation in (player order, path order).

    Alternative costs are evaluated at the deviated loads (the player's demand
    moved onto the alternative path)."""
    _check_profile(instance, profile)
    loads = edge_loads(instance, profile)
    costs = tuple(
        unit_path_cost(instance, loads, i, instance.paths[i][c])
        for i, c in enumerate(profile.choice)
    )
    phi = potential(instance, profile)
    for i, c in enumerate(profile.choice):
        current = instance.paths[i][c]
        for j, alt in enumerate(instance.paths[i]):
            if j == c:
                continue
            shifted = _deviated_loads(instance, loads, i, current, alt)
            alt_cost = unit_path_cost(instance, shifted, i, alt)
            improvement = costs[i] - alt_cost
            if improvement > eps_improve:
                return EquilibriumReport(
                    False, costs, phi, DeviationWitness(i, j, improvement)
                )
    return EquilibriumReport(True, costs, phi)


def best_response(
    instance: GameInstance,
    profile: StrategyProfile,
    player: int,
    eps_improve: float = 0.0,
) -> tuple[int, float]:
    """Cheapest path for `player` at the deviated loads. Ties go to the lowest
    path index, except that the current path wins ties (no churn)."""
    _check_profile(instance, profile)
    loads = edge_loads(instance, profile)
    c = profile.choice[player]
    current = instance.paths[player][c]
    best_idx, best_cost = None, None
    for j, path in enumerate(instance.paths[player]):
        shifted = _deviated_loads(instance, loads, player, current, path)
        cost = unit_path_cost(instance, shifted, player, path)
        if best_cost is None or cost < best_cost:
            best_idx, best_cost = j, cost
    current_cost = unit_path_cost(instance, loads, player, current)
    if current_cost - best_cost <= eps_improve:
        return c, current_cost
    return best_idx, best_cost


def run_best_response_dynamics(
    instance: GameInstance,
    initial: StrategyProfile,
    config: DynamicsConfig = DynamicsConfig(),
) -> DynamicsResult:
    """Round-robin best responses until no player can improve by more than
    eps_improve, or until max_moves is exceeded (converged=False)."""
    _check_profile(instance, initial)
    choice = list(initial.choice)
    moves: list[Move] = []
    trace = [potential(instance, initial)]
    converged = True
    while True:
        moved = False
        for i in range(len(instance.commodities)):
            profile = StrategyProfile(tuple(choice))
            loads = edge_loads(instance, profile)
            current = instance.paths[i][choice[i]]
            current_cost = unit_path_cost(instance, loads, i, current)
            j, cost = best_response(instance, profile, i, config.eps_improve)
            if j == choice[i]:
                continue
            moves.append(Move(i, choice[i], j, current_cost - cost))
            choice[i] = j
            trace.append(potential(instance, StrategyProfile(tuple(choice))))
            moved = True
            if len(moves) >= config.max_moves:
                break
        if len(moves) >= config.max_moves and moved:
            # one final sweep decides convergence below
            final = StrategyProfile(tuple(choice))
            converged = is_equilibrium(
                instance, final, config.eps_improve
            ).is_equilibrium
            break
        if not moved:
            break
    return DynamicsResult(
        StrategyProfile(tuple(choice)), tuple(moves), tuple(trace), converged
    )
