"""The compiled engine against the exact model (`exact_costs`).

Every comparison is exact (==). Loads, unit path costs and the players'
current costs must equal the model's dict-based ones: loads summed from 0.0 in
player order, path costs summed from 0.0 in path order. Best moves
(`CompiledGame.best_move`), equilibrium tests (`CompiledGame.stable`) and
dynamics must follow the documented deviation rule over the model's move costs
(`ExactCosts.move_costs`), ties included. Social costs and potentials must equal the correctly rounded exact
sums of their terms, which depend on no summation order.
"""

import ast
import json
import random
from functools import reduce
from operator import add
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_costs import ExactCosts
from test_engine import potential
from test_oracle import stable
from tie_rich import one_demand_instances, tie_rich_instances
from routegame import engine
from routegame.braess import build_classic_braess, build_priced_braess
from routegame.cli import main
from routegame.engine import DynamicsConfig, StrategyProfile
from routegame.model import Commodity, EdgeSpec, GameInstance, prepare, serialize_scenario
from routegame.pricing import PriceSpec, eval_u
from routegame.random_instances import random_affine_instance

DATA = Path(__file__).parent / "data"


def test_the_exact_model_shares_no_code_with_the_engine_or_oracle():
    # the model checks the engine and the oracle only while it reads neither
    # them, nor the search, nor the compiled tables they share
    tree = ast.parse((Path(__file__).parent / "exact_costs.py").read_text())
    banned = {"routegame.engine", "routegame.oracle", "routegame.search"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not {a.name for a in node.names} & banned
        elif isinstance(node, ast.ImportFrom):
            assert node.module not in banned
            assert not {f"{node.module}.{a.name}" for a in node.names} & banned
        assert not (isinstance(node, ast.Attribute) and node.attr == "compiled")


def _random_profile(rng, inst):
    return StrategyProfile(tuple(rng.randrange(len(p)) for p in inst.paths))


def move_costs(g, i, d, f):
    """Player i's unit cost on each of its paths if it moved there from path d
    at loads f (by edge number): the deviation rule `CompiledGame.best_move`
    decides, each path's `edge_costs` summed from 0.0 in path order."""
    cost = g.edge_costs(i, d, f)
    return [reduce(add, map(cost.__getitem__, path), 0.0) for path in g.paths[i]]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(4619)  # a best response the original engine cost at 3.421049362381544, not ...443
def test_engine_views_match_exact_model_bit_for_bit(seed):
    rng = random.Random(seed)
    inst = random_affine_instance(rng)
    prof = _random_profile(rng, inst)
    eps = rng.choice([0.0, 1e-9, 0.05])

    exact, g = ExactCosts(inst), inst.compiled
    loads = engine._loads(g, prof.choice)
    exact_loads = exact.loads(prof.choice)
    index = {e.id: k for k, e in enumerate(inst.edges)}
    assert [(e, loads[k]) for e, k in index.items()] == list(exact_loads.items())
    for i, plist in enumerate(exact.paths):
        for j, path in enumerate(plist):
            assert g.path_cost(i, g.paths[i][j], loads) == exact.unit_path_cost(
                i, path, exact_loads
            )
    social_cost = engine.profile_costs(inst, prof).social_cost
    assert social_cost == exact.social_cost(prof.choice)
    assert potential(inst, prof) == exact.potential(prof.choice)
    _assert_moves_follow_move_costs(inst, prof, eps)  # and the players' costs


@settings(max_examples=100, deadline=None)
@given(tie_rich_instances(), st.integers(min_value=0, max_value=2**32 - 1))
def test_class_rows_and_one_flow_report_match_per_commodity_evaluation(inst, seed):
    # Commodities of a class share their compiled rows, and profile_costs
    # costs each (class, path) once; every entry must equal what evaluating
    # each commodity, and each player through the string-keyed views, gives.
    g = inst.compiled
    for i, (c, plist) in enumerate(zip(inst.commodities, inst.paths)):
        r = c.demand
        assert g.paths[i] is plist
        assert g.edges_of[i] == tuple(sorted({k for p in g.paths[i] for k in p}))
        for k, e in enumerate(inst.edges):
            price = own = None
            if k in g.edges_of[i]:
                u = eval_u(e.price, r) if e.c2 != 0.0 else 0.0
                price = e.c2 * u
                own = e.c1 * (e.a * r + e.b) * r + 2.0 * e.c2 * u * r
            assert g.unit_price[i][k] == price
            assert g.potential_term[i][k] == own
    first = {}  # (strategy-set tuple, demand) -> first commodity of that class
    for i, (c, plist) in enumerate(zip(inst.commodities, inst.paths)):
        j = first.setdefault((id(plist), c.demand), i)
        assert g.class_of[i] == g.class_of[j]
        assert g.unit_price[i] is g.unit_price[j]
    assert len(set(g.class_of)) == len(first)
    rng = random.Random(seed)
    for _ in range(5):
        prof = _random_profile(rng, inst)
        costs = engine.profile_costs(inst, prof)
        loads = engine._loads(g, prof.choice)
        exact = ExactCosts(inst)
        exact_loads = exact.loads(prof.choice)
        assert len(costs.unit_costs) == len(prof.choice)
        for i, d in enumerate(prof.choice):
            path = exact.paths[i][d]
            assert costs.unit_costs[i] == g.path_cost(i, g.paths[i][d], loads)
            assert costs.unit_costs[i] == exact.unit_path_cost(i, path, exact_loads)
        assert costs.social_cost == exact.social_cost(prof.choice)


def _assert_moves_follow_move_costs(inst, prof, eps):
    # a player can improve when its current cost exceeds one of its move costs
    # by more than eps; it then moves to the lowest-index cheapest path
    exact = ExactCosts(inst)
    moves = [exact.move_costs(i, prof.choice) for i in range(len(prof.choice))]
    costs = tuple(m[c] for m, c in zip(moves, prof.choice))
    assert engine.profile_costs(inst, prof).unit_costs == costs
    assert stable(inst, prof, eps) == all(c - min(m) <= eps for m, c in zip(moves, costs))
    g = inst.compiled
    f = engine._loads(g, prof.choice)
    for i, (m, c) in enumerate(zip(moves, prof.choice)):
        assert move_costs(g, i, c, f) == m
        best = min(range(len(m)), key=m.__getitem__)
        j = None if costs[i] - m[best] <= eps else best
        assert g.best_move(i, c, f, eps) == (m[c], m[best], j)


def _rule_dynamics(inst, start, config):
    """Round-robin best responses by the documented rule over the independent
    move costs, as (moves, final choice, converged)."""
    exact, eps = ExactCosts(inst), config.eps_improve
    choice, moves = list(start.choice), []
    while True:
        moved = False
        for i, d in enumerate(choice):
            if len(moves) >= config.max_moves:
                break
            m = exact.move_costs(i, choice)
            best = min(range(len(m)), key=m.__getitem__)
            if m[d] - m[best] > eps and best != d:
                moves.append(engine.Move(i, d, best, m[d] - m[best]))
                choice[i] = best
                moved = True
        if len(moves) >= config.max_moves:
            costs = [exact.move_costs(i, choice) for i in range(len(choice))]
            stable = all(m[d] - min(m) <= eps for m, d in zip(costs, choice))
            return moves, choice, stable
        if not moved:
            return moves, choice, True


def _assert_dynamics_match(inst, start, config=DynamicsConfig()):
    got = engine.run_best_response_dynamics(inst, start, config)
    moves, final, converged = _rule_dynamics(inst, start, config)
    assert got.moves == tuple(moves)
    assert got.final.choice == tuple(final)
    assert got.converged == converged
    exact = ExactCosts(inst)
    choice = list(start.choice)
    trace = [exact.potential(choice)]
    for move in got.moves:
        choice[move.player] = move.new_path
        trace.append(exact.potential(choice))
    assert got.potential == exact.potential(final)
    # Exactly, a move lowers the potential by 2 * r * improvement. Every input
    # is >= 0, so a float after k roundings is within a relative k * u of its
    # exact value (u = 2**-53, first order). With N players and E edges: a load
    # takes N - 1 roundings, so each term of the potential (its load counting
    # twice) and the potential itself at most 2N + 7; a path cost N + E + 3, the
    # improvement N + E + 4. The mover's old and new paths' costs times 2 * r
    # are at most 2 * (phi_before + phi_after), whose terms hold r times each
    # edge cost. So dphi + 2 * r * improvement is within (4N + 2E + 15) * u *
    # (phi_before + phi_after), under `bound`: a move whose 2 * r * improvement
    # exceeds it must lower the potential; a smaller fall may round to none.
    n, e = len(start.choice), len(inst.edges)
    for move, a, b in zip(got.moves, trace, trace[1:]):
        bound = 4 * (n + e + 4) * 2.0**-53 * (a + b)
        drop = 2 * inst.commodities[move.player].demand * move.improvement
        assert abs((a - b) - drop) <= bound, (move, a, b)
        if drop > bound:
            assert b < a, (move, a, b)


def _random_config(rng):
    return DynamicsConfig(
        max_moves=rng.choice([1, 2, 5, engine.DEFAULT_MAX_MOVES]),
        eps_improve=rng.choice([0.0, engine.DEFAULT_EPS_IMPROVE, 0.05]),
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_dynamics_result_matches_move_cost_rule_bit_for_bit(seed):
    rng = random.Random(seed)
    inst = random_affine_instance(rng)
    start = _random_profile(rng, inst)
    _assert_dynamics_match(inst, start, _random_config(rng))


@settings(max_examples=150, deadline=None)
@given(one_demand_instances(), st.integers(min_value=0, max_value=2**32 - 1))
def test_one_demand_dynamics_match_bit_for_bit(inst, seed):
    # every commodity has the same demand, so the engine reads each load from
    # the table of repeated sums instead of summing the edge's users
    assert inst.compiled.repeated_sums is not None
    rng = random.Random(seed)
    _assert_dynamics_match(inst, _random_profile(rng, inst), _random_config(rng))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [None]
        + [PriceSpec(fn) for fn in ("identity", "sin", "log1p")]
        + [PriceSpec("saturating", {"beta": 1.0})]
    ),
    st.integers(min_value=1, max_value=32),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(PriceSpec("log1p"), 32, True, 901)
@example(None, 32, True, 902)
@example(None, 13, True, 33183)  # a move whose fall of the potential rounds to 0
def test_diamond_dynamics_match_bit_for_bit(price, half, shortcut, seed):
    # the classic (price None) and priced diamonds, n = 2 to 64 players of
    # demand 1/n, from a seeded random start
    n = 2 * half
    pair = build_classic_braess(n) if price is None else build_priced_braess(n, price)
    inst = pair[shortcut]
    assert inst.compiled.repeated_sums is not None
    rng = random.Random(seed)
    _assert_dynamics_match(inst, _random_profile(rng, inst), _random_config(rng))


def test_a_move_sees_a_kept_edge_at_its_load():
    # With demands 0.1, 0.2, 0.4 on edge sv, the load f is 0.7000000000000001
    # but (f - 0.2) + 0.2 is 0.7: the player of demand 0.2, moving from
    # (sv, vt1) to (sv, vt2), keeps sv and sees it at f.
    inst = prepare(
        GameInstance(
            ("s", "v", "t"),
            (
                EdgeSpec("sv", "s", "v", 1.0, 0.0),
                EdgeSpec("vt1", "v", "t", 1.0, 0.0),
                EdgeSpec("vt2", "v", "t", 1.0, 0.0),
            ),
            tuple(
                Commodity(f"p{i}", "s", "t", r) for i, r in enumerate((0.1, 0.2, 0.4))
            ),
        )
    )
    prof = StrategyProfile((0, 0, 0))
    index = {e.id: k for k, e in enumerate(inst.edges)}
    f = engine._loads(inst.compiled, prof.choice)[index["sv"]]
    assert (f - 0.2) + 0.2 != f
    costs = move_costs(inst.compiled, 1, 0, [f, f, 0.0])
    assert costs == [f + f, f + 0.2] == ExactCosts(inst).move_costs(1, prof.choice)
    assert costs[1] != ((f - 0.2) + 0.2) + 0.2
    for eps in (0.0, 1e-9, 0.05):
        _assert_moves_follow_move_costs(inst, prof, eps)
    assert inst.compiled.best_move(0, 0, [f, f, 0.0], 0.0) == (f + f, f + 0.1, 1)
    assert not stable(inst, prof)
    _assert_dynamics_match(inst, prof)


def test_a_tie_is_no_improvement():
    # one player on the second of two equal parallel edges: the first costs
    # exactly as much after the move, so at eps 0 the player stays
    inst = prepare(
        GameInstance(
            ("s", "t"),
            (EdgeSpec("e0", "s", "t", 1.0, 0.0), EdgeSpec("e1", "s", "t", 1.0, 0.0)),
            (Commodity("p", "s", "t", 1.0),),
        )
    )
    prof = StrategyProfile((1,))
    assert ExactCosts(inst).move_costs(0, prof.choice) == [1.0, 1.0]
    assert inst.compiled.best_move(0, 1, [0.0, 1.0], 0.0) == (1.0, 1.0, None)
    assert stable(inst, prof, 0.0)
    for eps in (0.0, 1e-9, 0.05):
        _assert_moves_follow_move_costs(inst, prof, eps)
        _assert_dynamics_match(inst, prof, DynamicsConfig(eps_improve=eps))


def _equilibrate_stdout(capsys, scenario):
    code = main(["equilibrate", str(scenario), "--seed", "7", "--format", "json"])
    assert code == 0
    return capsys.readouterr().out


def test_equilibrate_log1p_diamond_n200_matches_golden(capsys, tmp_path):
    _, after = build_priced_braess(200, PriceSpec("log1p"))
    scenario = tmp_path / "diamond200.json"
    scenario.write_text(serialize_scenario(after))
    out = _equilibrate_stdout(capsys, scenario)
    assert out == (DATA / "diamond200-log1p-seed7.json").read_text()
    assert json.loads(out)["moves"] > 100


def test_equilibrate_grid_matches_golden(capsys):
    out = _equilibrate_stdout(capsys, DATA / "grid6.json")
    assert out == (DATA / "grid6-seed7.json").read_text()


def test_equilibrate_7x7_grid_matches_golden(capsys):
    # 924 paths per commodity, so best responses come from the path search;
    # the golden was printed when every best response came from the scan
    out = _equilibrate_stdout(capsys, DATA / "grid7.json")
    assert out == (DATA / "grid7-seed7.json").read_text()
    assert json.loads(out)["moves"] > 0
