import itertools
import math
import random
from dataclasses import replace
from functools import reduce
from itertools import chain
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_oracle import stable
from tie_rich import one_demand_instances, seeded_instances, tie_rich_instances
from routegame import engine
from routegame.braess import build_priced_braess
from routegame.engine import DynamicsConfig, StrategyProfile, run_best_response_dynamics
from routegame import model
from routegame.model import Commodity, EdgeSpec, GameInstance, exact_sum, prepare
from routegame.pricing import PriceDomainError, PriceSpec, eval_u
from routegame.random_instances import random_affine_instance

TOP, ZIG, BOT = 0, 1, 2  # path indices in the diamond with the shortcut


def half_split(n, with_shortcut):
    bottom = BOT if with_shortcut else 1
    return StrategyProfile((TOP,) * (n // 2) + (bottom,) * (n // 2))


def all_zigzag(n):
    return StrategyProfile((ZIG,) * n)


def random_profile(rng, inst):
    return StrategyProfile(
        tuple(rng.randrange(len(p)) for p in inst.paths)
    )


def loads_by_id(inst, prof):
    """Each edge's load under the profile, by edge id."""
    f = engine._loads(inst.compiled, prof.choice)
    return {e.id: f[k] for k, e in enumerate(inst.edges)}


def profile_costs(inst, prof):
    """Each player's unit cost on its chosen path and the social cost, costed
    by the engine from loads summed afresh; the profile is checked first."""
    g = engine._check_profile(inst, prof)
    return engine._costs(g, *engine._groups(g, prof.choice), engine._loads(g, prof.choice))


def unit_cost(inst, prof, i):
    """Player i's unit cost on its chosen path."""
    return profile_costs(inst, prof).unit_costs[i]


def social_cost(inst, prof):
    return profile_costs(inst, prof).social_cost


def potential(inst, prof):
    """The potential the dynamics report for a profile, summed once."""
    g = inst.compiled
    return engine._potential(
        g, *engine._groups(g, prof.choice), engine._loads(g, prof.choice)
    )


def best_move(inst, prof, i):
    """`CompiledGame.best_move` of player i at the profile's loads, eps 0."""
    g = inst.compiled
    return g.best_move(i, prof.choice[i], engine._loads(g, prof.choice), 0.0)


# ---------------------------------------------------------------------------
# loads


def test_half_split_loads(classic_pair_10):
    before, _ = classic_pair_10
    loads = loads_by_id(before, half_split(10, False))
    assert loads["sv"] == pytest.approx(0.5, abs=1e-12)
    assert loads["wt"] == pytest.approx(0.5, abs=1e-12)


def test_all_zigzag_loads(classic_pair_10):
    _, after = classic_pair_10
    loads = loads_by_id(after, all_zigzag(10))
    assert loads["sv"] == pytest.approx(1.0, abs=1e-12)
    assert loads["wt"] == pytest.approx(1.0, abs=1e-12)
    assert loads["vt"] == 0.0


def test_empty_instance_has_zero_loads():
    inst = GameInstance(("a", "b"), (EdgeSpec("ab", "a", "b", 1.0, 0.0),), ())
    loads = loads_by_id(inst, StrategyProfile(()))
    assert loads["ab"] == 0.0


# ---------------------------------------------------------------------------
# costs


def test_priced_top_path_costs_175(priced_identity_pair_10):
    before, _ = priced_identity_pair_10
    cost = unit_cost(before, half_split(10, False), 0)
    assert cost == pytest.approx(1.0 + (0.5 + 1.0) / 2.0, abs=1e-12)


def test_constant_edge_costs_one_at_any_load():
    inst = prepare(
        GameInstance(
            ("a", "b"),
            (EdgeSpec("ab", "a", "b", 0.0, 1.0, c1=1.0, c2=0.0),),
            (Commodity("x", "a", "b", 7.0),),
        )
    )
    assert inst.paths[0] == ((0,),)  # edge 0, "ab"
    assert unit_cost(inst, StrategyProfile((0,)), 0) == 1.0


def test_path_cost_is_sum_of_edge_costs():
    rng = random.Random(7)
    price = PriceSpec("log1p")
    edges = tuple(
        EdgeSpec(
            f"e{i}", f"n{i}", f"n{i+1}",
            a=rng.uniform(0, 2), b=rng.uniform(0, 2),
            c1=0.3, c2=0.7, price=price,
        )
        for i in range(3)
    )
    inst = prepare(
        GameInstance(
            ("n0", "n1", "n2", "n3"), edges, (Commodity("x", "n0", "n3", 0.4),)
        )
    )
    manual = sum(
        e.c1 * (e.a * 0.4 + e.b) + e.c2 * eval_u(price, 0.4) for e in edges
    )
    assert unit_cost(inst, StrategyProfile((0,)), 0) == pytest.approx(manual, rel=1e-12)


def test_social_cost_reproduces_braess_narrative(classic_pair_10):
    before, after = classic_pair_10
    assert social_cost(before, half_split(10, False)) == pytest.approx(1.5, abs=1e-12)
    assert social_cost(after, all_zigzag(10)) == pytest.approx(2.0, abs=1e-12)


def test_social_cost_single_player_single_edge():
    r, a, b = 0.6, 1.3, 0.2
    price = PriceSpec("saturating", {"beta": 2.0})
    inst = prepare(
        GameInstance(
            ("x", "y"),
            (EdgeSpec("xy", "x", "y", a, b, c1=0.5, c2=0.5, price=price),),
            (Commodity("p", "x", "y", r),),
        )
    )
    expected = r * (0.5 * (a * r + b) + 0.5 * eval_u(price, r))
    assert social_cost(inst, StrategyProfile((0,))) == pytest.approx(
        expected, rel=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_social_cost_equals_demand_weighted_path_costs(seed):
    rng = random.Random(seed)
    inst = random_affine_instance(rng)
    prof = random_profile(rng, inst)
    total = sum(
        c.demand * unit_cost(inst, prof, i) for i, c in enumerate(inst.commodities)
    )
    assert social_cost(inst, prof) == pytest.approx(total, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# potential


def test_potential_closed_form_single_player():
    # unit mixing coefficients on both terms, matching the unnormalized convention
    r, a, b = 0.7, 1.1, 0.4
    price = PriceSpec("log1p")
    inst = prepare(
        GameInstance(
            ("x", "y"),
            (EdgeSpec("xy", "x", "y", a, b, c1=1.0, c2=1.0, price=price),),
            (Commodity("p", "x", "y", r),),
        )
    )
    expected = 2 * r * (a * r + b) + 2 * eval_u(price, r) * r
    assert potential(inst, StrategyProfile((0,))) == pytest.approx(expected, rel=1e-12)


def test_unused_edge_contributes_nothing():
    inst = prepare(
        GameInstance(
            ("x", "y"),
            (
                EdgeSpec("e0", "x", "y", 1.0, 0.0),
                EdgeSpec("e1", "x", "y", 2.0, 3.0),
            ),
            (Commodity("p", "x", "y", 1.0),),
        )
    )
    # player uses e0 only; the e1 terms must vanish
    assert potential(inst, StrategyProfile((0,))) == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_deviation_identity(seed):
    rng = random.Random(seed)
    inst = random_affine_instance(rng)
    prof = random_profile(rng, inst)
    phi = potential(inst, prof)
    for i, cur in enumerate(prof.choice):
        r = inst.commodities[i].demand
        cur_cost = unit_cost(inst, prof, i)
        for j in range(len(inst.paths[i])):
            if j == cur:
                continue
            moved = StrategyProfile(prof.choice[:i] + (j,) + prof.choice[i + 1:])
            new_cost = unit_cost(inst, moved, i)
            delta_phi = potential(inst, moved) - phi
            assert delta_phi == pytest.approx(
                2.0 * r * (new_cost - cur_cost), abs=1e-9
            )


# ---------------------------------------------------------------------------
# equilibrium checks


def test_all_zigzag_is_a_weak_equilibrium(classic_pair_10):
    _, after = classic_pair_10
    assert stable(after, all_zigzag(10))
    costs = profile_costs(after, all_zigzag(10)).unit_costs
    assert costs == pytest.approx([2.0] * 10, abs=1e-12)


def test_half_split_with_shortcut_is_no_equilibrium(classic_pair_10):
    _, after = classic_pair_10
    assert not stable(after, half_split(10, True))
    # player 0 rides the top path at cost 1.5; the zigzag at deviated loads
    # costs 0.5 + 0 + 0.6 = 1.1
    current, best, j = best_move(after, half_split(10, True), 0)
    assert (current, best) == pytest.approx((1.5, 1.1), abs=1e-12)
    assert j == ZIG


def test_single_path_commodities_are_always_at_equilibrium():
    inst = prepare(
        GameInstance(
            ("a", "b"),
            (EdgeSpec("ab", "a", "b", 1.0, 0.0),),
            tuple(Commodity(f"c{i}", "a", "b", 0.5) for i in range(3)),
        )
    )
    assert stable(inst, StrategyProfile((0, 0, 0)))


def test_best_response_migrates_to_zigzag(classic_pair_10):
    _, after = classic_pair_10
    for player in (0, 9):
        assert best_move(after, half_split(10, True), player)[2] == ZIG


def test_best_response_keeps_only_path():
    inst = prepare(
        GameInstance(
            ("a", "b"),
            (EdgeSpec("ab", "a", "b", 1.0, 0.0),),
            (Commodity("c", "a", "b", 1.0),),
        )
    )
    assert best_move(inst, StrategyProfile((0,)), 0) == (1.0, 1.0, None)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_best_response_matches_exhaustive_minimum(seed):
    rng = random.Random(seed)
    inst = random_affine_instance(rng, max_players=2)
    prof = random_profile(rng, inst)
    player = rng.randrange(len(inst.commodities))
    _, cost, _ = best_move(inst, prof, player)
    # brute force over the player's strategies
    options = []
    for j in range(len(inst.paths[player])):
        moved = StrategyProfile(
            prof.choice[:player] + (j,) + prof.choice[player + 1:]
        )
        options.append(unit_cost(inst, moved, player))
    assert cost == pytest.approx(min(options), abs=1e-12)


# ---------------------------------------------------------------------------
# dynamics


def _replayed_choices(start, moves):
    """The start's choice and the choice after each move."""
    choice = list(start.choice)
    yield tuple(choice)
    for move in moves:
        choice[move.player] = move.new_path
        yield tuple(choice)


def _replayed_potentials(inst, start, moves):
    """`potential` of the start and of the profile after each move."""
    return [
        potential(inst, StrategyProfile(c)) for c in _replayed_choices(start, moves)
    ]


def test_dynamics_migrates_onto_the_shortcut(classic_pair_10):
    # Strict-improvement moves drain the side paths onto the zigzag until only
    # tied stragglers remain; the result is a (weak) equilibrium.
    _, after = classic_pair_10
    result = run_best_response_dynamics(after, half_split(10, True))
    assert result.converged
    assert stable(after, result.final)
    assert sum(1 for c in result.final.choice if c == ZIG) >= 8
    trace = _replayed_potentials(after, half_split(10, True), result.moves)
    for k, move in enumerate(result.moves):
        assert trace[k + 1] < trace[k]
        expected = 2.0 * after.commodities[move.player].demand * move.improvement
        assert trace[k] - trace[k + 1] == pytest.approx(expected, abs=1e-9)


def test_starting_at_equilibrium_makes_no_moves(classic_pair_10):
    _, after = classic_pair_10
    result = run_best_response_dynamics(after, all_zigzag(10))
    assert result.converged
    assert result.moves == ()


def test_move_cap_is_reported_not_fatal(classic_pair_10):
    _, after = classic_pair_10
    result = run_best_response_dynamics(
        after, half_split(10, True), DynamicsConfig(max_moves=1)
    )
    assert not result.converged
    assert len(result.moves) == 1


def test_zero_move_cap_makes_no_move(classic_pair_10):
    _, after = classic_pair_10
    start = half_split(10, True)
    result = run_best_response_dynamics(after, start, DynamicsConfig(max_moves=0))
    assert result.moves == ()
    assert result.final == start
    assert _same_float(result.potential, potential(after, start))
    assert not result.converged


def test_zero_move_cap_at_equilibrium_is_converged(classic_pair_10):
    _, after = classic_pair_10
    result = run_best_response_dynamics(
        after, all_zigzag(10), DynamicsConfig(max_moves=0)
    )
    assert result.moves == ()
    assert result.converged


def test_negative_move_cap_is_rejected():
    with pytest.raises(ValueError, match="max_moves"):
        DynamicsConfig(max_moves=-1)


def test_a_profile_is_checked_against_a_prepared_instance():
    inst = GameInstance(
        ("a", "b"),
        (EdgeSpec("ab", "a", "b", 1.0, 0.0),),
        (Commodity("x", "a", "b", 1.0),),
    )
    with pytest.raises(ValueError, match=r"no enumerated paths; call prepare\(\) first"):
        run_best_response_dynamics(inst, StrategyProfile((0,)))
    inst = prepare(inst)
    with pytest.raises(ValueError, match="profile length"):
        run_best_response_dynamics(inst, StrategyProfile((0, 0)))
    with pytest.raises(ValueError, match="path index 1 out of range"):
        run_best_response_dynamics(inst, StrategyProfile((1,)))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dynamics_on_random_instances(seed):
    rng = random.Random(seed)
    inst = random_affine_instance(rng)
    start = random_profile(rng, inst)
    result = run_best_response_dynamics(inst, start)
    assert result.converged
    assert stable(inst, result.final)
    # every move is a strict potential descent of twice the weighted improvement
    trace = _replayed_potentials(inst, start, result.moves)
    for k, move in enumerate(result.moves):
        assert trace[k + 1] < trace[k]
        drop = trace[k] - trace[k + 1]
        expected = 2.0 * inst.commodities[move.player].demand * move.improvement
        assert drop == pytest.approx(expected, abs=1e-9)
    # termination within the profile space
    n_profiles = 1
    for p in inst.paths:
        n_profiles *= len(p)
    assert len(result.moves) < n_profiles


def test_loads_recomputable_after_move_sequence(classic_pair_10):
    _, after = classic_pair_10
    result = run_best_response_dynamics(after, half_split(10, True))
    loads = loads_by_id(after, result.final)
    manual = {e.id: 0.0 for e in after.edges}
    for i, c in enumerate(result.final.choice):
        for k in after.paths[i][c]:
            manual[after.edges[k].id] += after.commodities[i].demand
    for eid, v in manual.items():
        assert loads[eid] == pytest.approx(v, abs=1e-12)


# ---------------------------------------------------------------------------
# the potential along a run


def _full_potential(inst, choice):
    """The potential summed from scratch: the exact sum of every edge's
    c1 * (a * f + b) * f and every player's own term over its path."""
    g = inst.compiled
    f = [0.0] * len(inst.edges)
    for i, j in enumerate(choice):
        for k in g.paths[i][j]:
            f[k] += g.demand[i]
    edge_terms = [g.c1[k] * (g.a[k] * x + g.b[k]) * x for k, x in enumerate(f)]
    own = [
        exact_sum([g.potential_term[i][k] for k in g.paths[i][j]])
        for i, j in enumerate(choice)
    ]
    return exact_sum(chain(edge_terms, own))


def _same_float(x, y):
    """x and y are the same float: equal with the same sign, or both NaN."""
    return (math.isnan(x) and math.isnan(y)) or (
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
    )


def _assert_trace_is_full_sums(inst, start, config=DynamicsConfig()):
    """Run the dynamics and replay their moves from the start: `potential` of
    each profile on the way, and the run's final potential, have the bits of
    the sum from scratch. Returns the result and the replayed potentials."""
    result = run_best_response_dynamics(inst, start, config)
    trace = _replayed_potentials(inst, start, result.moves)
    full = [_full_potential(inst, c) for c in _replayed_choices(start, result.moves)]
    for got, want in zip(trace, full):
        assert _same_float(got, want), (got, want)
    assert _same_float(result.potential, full[-1]), (result.potential, full[-1])
    return result, trace


def _parallel(lines, demands, c1=1.0):
    """Players of the given demands on parallel s-t edges with congestion
    a * x + b for each (a, b) of `lines`, unpriced."""
    return prepare(
        GameInstance(
            ("s", "t"),
            tuple(
                EdgeSpec(f"e{k}", "s", "t", a, b, c1=c1, c2=0.0)
                for k, (a, b) in enumerate(lines)
            ),
            tuple(Commodity(f"p{i}", "s", "t", r) for i, r in enumerate(demands)),
        )
    )


def test_running_potential_with_infinite_own_terms():
    # on e0 each player's own term (1e308 * 2) * 2 is inf
    inst = _parallel([(1e308, 0.0), (1.0, 0.0)], [2.0, 2.0, 2.0])
    result, trace = _assert_trace_is_full_sums(inst, StrategyProfile((0, 0, 0)))
    assert trace[0] == math.inf
    assert math.isfinite(result.potential)
    assert len(result.moves) == 3


def test_running_potential_past_the_float_limit():
    # each own term on e0 is 8e307 and three of them overflow a running sum
    inst = _parallel([(0.0, 8e307), (0.0, 1e307), (0.0, 1e307)], [1.0] * 3)
    result, trace = _assert_trace_is_full_sums(inst, StrategyProfile((0, 0, 0)))
    assert trace[0] == math.inf
    assert math.isfinite(result.potential)
    # the own terms' sum (1e308) is finite, the edge term (1e308 * 2) * 2 not
    inst = _parallel([(1e308, 0.0), (1.0, 0.0)], [0.5] * 4)
    result, trace = _assert_trace_is_full_sums(inst, StrategyProfile((0, 0, 0, 0)))
    assert trace[0] == math.inf
    assert math.isfinite(result.potential)
    # every term is finite, and the whole sum passes the limit after a move
    inst = _parallel([(0.0, 5e307), (0.0, 4e307)], [1.0, 1.0])
    result, trace = _assert_trace_is_full_sums(inst, StrategyProfile((0, 0)))
    assert trace == [math.inf, math.inf, 1.6e308]
    assert result.potential == 1.6e308


@pytest.mark.parametrize("c1", [0.0, -0.0, 1.0])
def test_running_potential_of_an_all_zero_cost_instance(c1):
    # every term is a zero, signed with c1; at eps -1 each player moves once,
    # from e1 to e0
    inst = _parallel([(0.0, 0.0), (0.0, 0.0)], [1.0, 0.5, 1.0], c1=c1)
    config = DynamicsConfig(eps_improve=-1.0, max_moves=3)
    result, trace = _assert_trace_is_full_sums(inst, StrategyProfile((1, 1, 1)), config)
    assert len(trace) == 4
    assert not any(trace)


def _assert_one_shot_potential_is_the_full_sum(inst):
    """`potential` sums the potential once; on every profile it gives the
    bits of the sum from scratch."""
    for choice in itertools.product(*(range(len(p)) for p in inst.paths)):
        want = _full_potential(inst, choice)
        assert _same_float(potential(inst, StrategyProfile(choice)), want)


@pytest.mark.parametrize(
    "lines, demands, c1",
    [
        ([(0.0, 0.0), (0.0, 0.0)], [1.0, 0.5, 1.0], 0.0),  # all zero
        ([(0.0, 0.0), (0.0, 0.0)], [1.0, 0.5, 1.0], -0.0),
        ([(0.0, 0.0), (0.0, 0.0)], [1.0, 0.5, 1.0], 1.0),
        ([(-1.0, 2.0), (1.0, -3.0)], [1.0, 0.5], 1.0),  # negative
        ([(1.0, 1.0), (2.0, 0.0)], [-1.0, 0.5], 1.0),
        ([(0.0, 5e307), (0.0, 4e307)], [1.0, 1.0], 1.0),  # past the limit
        ([(0.0, 8e307), (0.0, 1e307), (0.0, 1e307)], [1.0] * 3, 1.0),
        ([(1e308, 0.0), (1.0, 0.0)], [2.0, 2.0, 2.0], 1.0),  # infinite own terms
    ],
)
def test_one_shot_potential_is_the_full_sum(lines, demands, c1):
    _assert_one_shot_potential_is_the_full_sum(_parallel(lines, demands, c1))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_one_shot_potential_is_the_full_sum_on_random_instances(seed):
    rng = random.Random(seed)
    inst = random_affine_instance(rng, max_profiles=200)
    scale = rng.choice([1.0, 1e300, 1e308, -1.0])
    edges = tuple(replace(e, a=e.a * scale, b=e.b * scale) for e in inst.edges)
    inst = prepare(replace(inst, edges=edges, paths=()))
    _assert_one_shot_potential_is_the_full_sum(inst)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_flow_loads_are_the_rebuilt_loads_after_any_moves(seed):
    # random moves, not best responses, on instances whose costs are scaled up
    # to and past the float range, or negated
    rng = random.Random(seed)
    inst = random_affine_instance(rng)
    scale = rng.choice([1.0, 1e150, 1e300, 1e306, 1e307, 1e308, -1.0])
    edges = tuple(replace(e, a=e.a * scale, b=e.b * scale) for e in inst.edges)
    inst = prepare(replace(inst, edges=edges, paths=()))
    choice = list(random_profile(rng, inst).choice)
    flow = engine._Flow(inst.compiled, choice)
    for _ in range(30):
        want = engine._loads(inst.compiled, choice)
        assert len(flow.loads) == len(want)
        assert all(map(_same_float, flow.loads, want)), (flow.loads, want)
        i = rng.randrange(len(choice))
        j = rng.randrange(len(inst.paths[i]))
        if j != choice[i]:
            flow.move(i, choice[i], j)
            choice[i] = j


def test_dynamics_cost_one_best_response_per_class_and_path(monkeypatch):
    calls = []
    real = model.CompiledGame.edge_costs  # once per best response
    monkeypatch.setattr(
        model.CompiledGame,
        "edge_costs",
        lambda self, i, d, f: calls.append(i) or real(self, i, d, f),
    )
    _, after = build_priced_braess(200, PriceSpec("log1p"))
    # one class of 200 players: at all-zigzag, an equilibrium, one best
    # response serves the whole converged sweep
    result = run_best_response_dynamics(after, all_zigzag(200))
    assert result.moves == () and result.converged
    assert len(calls) == 1
    # between two moves, at most one per (class, path): 3 pairs here
    calls.clear()
    result = run_best_response_dynamics(after, random_profile(random.Random(7), after))
    assert result.converged and result.moves
    assert len(calls) <= (len(result.moves) + 1) * 3


def test_dynamics_sum_the_potential_once_per_run(monkeypatch):
    calls = []
    real = engine._potential
    monkeypatch.setattr(
        engine, "_potential", lambda *args: calls.append(1) or real(*args)
    )
    _, after = build_priced_braess(200, PriceSpec("log1p"))
    start = random_profile(random.Random(7), after)
    result = run_best_response_dynamics(after, start)
    assert result.converged and len(result.moves) > 1
    assert len(calls) == 1
    assert _same_float(result.potential, potential(after, result.final))


def test_a_profile_off_the_strategy_sets_is_refused():
    inst = _parallel([(1.0, 0.0), (2.0, 0.0)], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="negative path index"):
        StrategyProfile((0, -1, 0))
    for choice, first in [((0, 2, 5), "path index 2 out of range for commodity 1"),
                          ((0, 1, 2), "path index 2 out of range for commodity 2")]:
        with pytest.raises(ValueError, match=first):
            run_best_response_dynamics(inst, StrategyProfile(choice))
    with pytest.raises(ValueError, match="does not match"):
        run_best_response_dynamics(inst, StrategyProfile((0, 1)))


def _hexes(costs):
    return [float.hex(x) for x in costs.unit_costs], float.hex(costs.social_cost)


def _assert_run_costs_are_profile_costs(inst, start, config):
    """The run's final costs, read from its own loads, have the bits of
    `profile_costs` of its final profile, which sums the loads afresh."""
    result = run_best_response_dynamics(inst, start, config)
    assert _hexes(result.costs) == _hexes(profile_costs(inst, result.final))
    return result


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        # distinct demands, one demand for all, and ties with c1 of +0.0 or -0.0
        st.tuples(seeded_instances() | one_demand_instances(), st.just(None)),
        st.tuples(tie_rich_instances(), st.sampled_from([None, 0.0, -0.0])),
    ),
    st.sampled_from([1.0, -1.0, 1e150, 1e300, 1e307, 1e308]),  # toward overflow
    st.sampled_from([0.0, 1e-9, 0.25, -1.0]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_run_costs_are_the_profile_costs_of_its_final_profile(drawn, scale, eps, seed):
    inst, c1 = drawn
    edges = tuple(
        replace(e, a=e.a * scale, b=e.b * scale, c1=e.c1 if c1 is None else c1)
        for e in inst.edges
    )
    inst = prepare(replace(inst, edges=edges, paths=()))
    start = random_profile(random.Random(seed), inst)
    config = DynamicsConfig(max_moves=1000, eps_improve=eps)
    free = _assert_run_costs_are_profile_costs(inst, start, config)
    # no move at all, and runs stopped by the cap: at the number of moves the
    # first run made, and one short of it
    for cap in {0, len(free.moves), max(0, len(free.moves) - 1)}:
        config = DynamicsConfig(max_moves=cap, eps_improve=eps)
        result = _assert_run_costs_are_profile_costs(inst, start, config)
        assert len(result.moves) == cap


def test_equilibrium_checks_cost_one_best_move_per_class_and_path(monkeypatch):
    calls = []
    real = model.CompiledGame.best_move
    monkeypatch.setattr(
        model.CompiledGame,
        "best_move",
        lambda self, i, d, f, eps: calls.append(eps) or real(self, i, d, f, eps),
    )
    _, after = build_priced_braess(2000, PriceSpec("log1p"))
    prof = random_profile(random.Random(3), after)
    g = after.compiled
    f = engine._loads(g, prof.choice)
    pairs = {(g.class_of[i], d): (i, d) for i, d in enumerate(prof.choice)}
    # at eps 1 no player saves enough: one best move per (class, path); at
    # the default eps the first pair's player, on the top path, saves 0.16
    assert g.stable(pairs.values(), f, 1.0)
    assert not g.stable(pairs.values(), f, model.DEFAULT_EPS_IMPROVE)
    assert len(pairs) == 3 and calls == [math.inf] * 4
    # the check at the dynamics' move cap: once per (class, path) as well
    calls.clear()
    config = DynamicsConfig(max_moves=100)
    result = run_best_response_dynamics(after, StrategyProfile((0,) * 2000), config)
    assert len(result.moves) == 100 and not result.converged
    assert len(calls) <= (100 + 1) * 3 + 3
    assert 1 <= calls.count(math.inf) <= 3


# ---------------------------------------------------------------------------
# compiled tables


def _sin_instance(c1, c2):
    # demand 2 lies outside the sin family's domain (0, pi/2]
    price = PriceSpec("sin")
    return prepare(
        GameInstance(
            ("s", "t"),
            (
                EdgeSpec("e0", "s", "t", 1.0, 0.0, c1=c1, c2=c2, price=price),
                EdgeSpec("e1", "s", "t", 2.0, 0.5, c1=c1, c2=c2, price=price),
            ),
            (Commodity("p", "s", "t", 2.0), Commodity("q", "s", "t", 0.5)),
        )
    )


def test_unweighted_price_outside_its_domain_is_never_evaluated():
    inst = _sin_instance(1.0, 0.0)
    assert 2.0 > math.pi / 2
    result = run_best_response_dynamics(inst, StrategyProfile((0, 0)))
    assert result.converged
    assert social_cost(inst, result.final) > 0.0
    assert stable(inst, result.final)


def test_weighted_price_outside_its_domain_still_raises():
    inst = _sin_instance(0.5, 0.5)
    with pytest.raises(PriceDomainError, match="commodity 'p'"):
        potential(inst, StrategyProfile((0, 0)))
    # the first offending commodity is named, not its class's later members
    q, p = inst.commodities[1], inst.commodities[0]
    inst = prepare(replace(inst, commodities=(q, p, replace(p, id="p2")), paths=()))
    with pytest.raises(PriceDomainError, match="commodity 'p'"):
        potential(inst, StrategyProfile((0, 0, 0)))


def test_prices_are_evaluated_once_per_price_and_demand(monkeypatch):
    calls = []
    real = model.eval_u
    monkeypatch.setattr(model, "eval_u", lambda spec, x: calls.append(x) or real(spec, x))
    _, after = build_priced_braess(10, PriceSpec("log1p"))
    inst = replace(after)  # a fresh instance: nothing compiled yet
    result = run_best_response_dynamics(inst, half_split(10, True))
    social_cost(inst, result.final)
    stable(inst, result.final)
    # 10 players of one class; of the diamond's 5 edges only sv and wt carry
    # a price weight, and they share one PriceSpec
    assert len(calls) == 1
    assert len(set(map(id, inst.compiled.unit_price))) == 1
    # a 7x7 grid: 84 priced edges whose equal price objects share one spec,
    # and 4 commodities of distinct demand, so 4 classes
    text = (Path(__file__).parent / "data" / "grid7.json").read_text(encoding="utf-8")
    grid = prepare(model.parse_scenario(text))
    calls.clear()
    grid.compiled
    assert sorted(calls) == sorted(c.demand for c in grid.commodities)
    assert len(set(calls)) == 4


def test_repeated_sums_only_where_every_demand_is_one(classic_pair_10):
    # the loads of k players of demand 0.1, summed from 0.0 left to right
    _, after = classic_pair_10
    assert after.compiled.repeated_sums == tuple(
        reduce(add, [0.1] * k, 0.0) for k in range(11)
    )
    assert _sin_instance(1.0, 0.0).compiled.repeated_sums is None  # demands 2, 0.5


def test_compiled_table_is_cached_and_not_part_of_the_value(classic_pair_10):
    _, after = classic_pair_10
    table = after.compiled
    assert after.compiled is table
    copy = replace(after)
    assert copy == after
    assert copy.compiled is not table
    assert "compiled" not in repr(after)


def test_edge_costs_charge_the_demand_off_the_current_path():
    inst = prepare(
        GameInstance(
            ("a", "b", "c"),
            (
                EdgeSpec("ab", "a", "b", 1.0, 0.0),
                EdgeSpec("ac", "a", "c", 2.0, 0.5),
                EdgeSpec("cb", "c", "b", 1.0, 0.0),
                EdgeSpec("ba", "b", "a", 1.0, 0.0),
            ),
            (Commodity("x", "a", "b", 0.5), Commodity("y", "a", "c", 0.25)),
        )
    )
    g = inst.compiled
    d = inst.paths[0].index((0,))  # "ab"
    f = engine._loads(g, (d, 0))
    index = {e.id: k for k, e in enumerate(inst.edges)}
    cost = dict(zip(index, g.edge_costs(0, d, f)))
    # "ab" at its load, "ac" and "cb" at load + 0.5, "ba" off x's strategy set
    assert cost == {"ab": 0.5, "ac": 2.0, "cb": 0.5, "ba": 0.0}
    assert g.path_cost(0, g.paths[0][d], f) == 0.5
    assert g.best_move(0, d, f, 0.0) == (0.5, 0.5, None)
