"""The shortest-path search against the scan it replaces on large strategy sets.

`_scan` applies the deviation rule to every path's cost by `move_costs`, a
test-side restatement of the cost `CompiledGame.best_move` scans;
`search.PathSearch` finds the same (current cost, least cost, path index) on
the strategy set's graph. Both are called directly here, and compared
with ==; `_tables` prepares with `model.SEARCH_CROSSOVER` at 0, so the size
rule that picks one per strategy set hides neither on an acyclic graph.
"""

import gc
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_equivalence import (
    _assert_dynamics_match,
    _assert_moves_follow_move_costs,
    move_costs,
)
from test_model import _ids
from test_oracle import stable
from tie_rich import one_demand_instances, seeded_instances, tie_rich_instances
from routegame import engine, model, oracle, search
from routegame.braess import build_priced_braess
from routegame.model import (
    Commodity,
    EdgeSpec,
    GameInstance,
    parse_scenario,
    prepare,
)
from routegame.pricing import PRICE_FAMILIES, PriceSpec

DATA = Path(__file__).parent / "data"
EPS = (-1.0, 0.0, 1e-9, 0.05)


def _scan(g, i, d, f, eps):
    """`CompiledGame.best_move` by the documented rule over `move_costs`."""
    costs = move_costs(g, i, d, f)
    current, best = costs[d], min(costs)
    return current, best, None if current - best <= eps else costs.index(best)


def _tables(inst, i):
    """Player i's search from a `prepare` that counts every acyclic set."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "SEARCH_CROSSOVER", 0)
        return prepare(replace(inst, paths=())).compiled.search[i]


def _assert_search_matches_scan(inst, rng, profiles=3):
    """The search against the scan on every set of `inst` on an acyclic graph;
    the others have no search."""
    g = inst.compiled
    tables = [_tables(inst, i) for i in range(len(inst.commodities))]
    for c, table in zip(inst.commodities, tables):
        graph = model._graph(inst, c, model.DEFAULT_PATH_CAP)
        assert (table is not None) == graph.acyclic
    for _ in range(profiles):
        choice = [rng.randrange(len(p)) for p in inst.paths]
        f = engine._loads(g, choice)
        for i, d in enumerate(choice):
            if tables[i] is None:
                continue
            cost = g.edge_costs(i, d, f)
            for eps in EPS:
                found = tables[i].best_move(cost, g.paths[i][d], eps)
                assert found == _scan(g, i, d, f, eps)


def _grid(rng, k, snap, cyclic, players=2):
    """A k x k grid, edges right and down and, when `cyclic`, some left and up
    too; corner-to-corner commodities. Numbers are multiples of 1/4 when
    `snap`, which makes exact ties between paths common."""

    def num(lo, hi):
        x = rng.uniform(lo, hi)
        return round(x * 4) / 4 if snap else x

    def node(i, j):
        return f"g{i}_{j}"

    steps = [(0, 1, "r"), (1, 0, "d")]
    if cyclic:
        steps += [(0, -1, "l"), (-1, 0, "u")]
    edges = []
    for i in range(k):
        for j in range(k):
            for di, dj, tag in steps:
                if not (0 <= i + di < k and 0 <= j + dj < k):
                    continue
                if tag in "lu" and rng.random() < 0.6:
                    continue
                c1 = num(0.0, 1.0)
                fn = rng.choice(PRICE_FAMILIES)
                price = PriceSpec(fn, {"beta": 2.0} if fn == "saturating" else {})
                edges.append(
                    EdgeSpec(
                        f"{tag}{i}_{j}", node(i, j), node(i + di, j + dj),
                        a=num(0.0, 2.0), b=num(0.0, 1.0), c1=c1, c2=1.0 - c1,
                        price=price,
                    )
                )
    commodities = tuple(
        Commodity(f"p{q}", node(0, 0), node(k - 1, k - 1), max(0.25, num(0.0, 1.0)))
        for q in range(players)
    )
    nodes = tuple(node(i, j) for i in range(k) for j in range(k))
    return prepare(GameInstance(nodes, tuple(edges), commodities))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(seeded_instances(), tie_rich_instances(), one_demand_instances()),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_search_matches_scan_on_random_instances(inst, seed):
    _assert_search_matches_scan(inst, random.Random(seed))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=4),
    st.booleans(),
)
def test_search_matches_scan_on_grids(seed, k, snap):
    # grid edge ids do not sort in the order the instance lists the edges
    rng = random.Random(seed)
    inst = _grid(rng, k, snap, False)
    _assert_search_matches_scan(inst, rng)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_engine_on_searched_grids_follows_the_deviation_rule(seed, snap):
    # 5 x 5 grids have 70 paths of 8 edges on 40 edges: searched, through the
    # engine's best responses, equilibrium checks and dynamics
    rng = random.Random(seed)
    inst = _grid(rng, 5, snap, False)
    assert None not in inst.compiled.search
    prof = engine.StrategyProfile(tuple(rng.randrange(len(p)) for p in inst.paths))
    for eps in (0.0, 1e-9, 0.05):
        _assert_moves_follow_move_costs(inst, prof, eps)
        _assert_dynamics_match(inst, prof, engine.DynamicsConfig(eps_improve=eps))
    _assert_dynamics_match(inst, prof, engine.DynamicsConfig(max_moves=1))


def _trap(edges):
    """One player from s to t over `edges` (id, tail, head, cost): each edge
    costs its b exactly (c1 = 1, a = 0, no price). The player's current path
    is the direct edge e0, and the instance lists the edges out of id order."""
    specs = tuple(EdgeSpec(eid, u, v, a=0.0, b=b) for eid, u, v, b in edges)
    nodes = tuple(dict.fromkeys(n for e in specs for n in (e.tail, e.head)))
    inst = prepare(GameInstance(nodes, specs, (Commodity("p", "s", "t", 1.0),)))
    assert [e.id for e in inst.edges] != sorted(e.id for e in inst.edges)
    d = _ids(inst, inst.paths[0]).index(("e0",))
    f = [0.0] * len(inst.edges)
    g = inst.compiled
    cost = g.edge_costs(0, d, f)
    assert cost == [b + 0.0 for *_, b in edges]
    table = _tables(inst, 0)
    assert table is not None
    for eps in (0.0, 1e-9):
        assert table.best_move(cost, g.paths[0][d], eps) == _scan(g, 0, d, f, eps)
    return inst, table, cost, d


def test_a_prefix_not_least_at_its_node_can_still_tie_at_the_sink():
    # (e1, e3) and (e2, e3) both cost 2.0: 1 + 2**-52 + 1 rounds to even.
    # At node v the prefix e1 (1 + 2**-52) is not the least (e2's 1.0), so a
    # search that keeps only least prefixes answers (e2, e3), index 2.
    edges = [
        ("e2", "s", "v", 1.0),
        ("e3", "v", "t", 1.0),
        ("e1", "s", "v", 1.0 + 2.0**-52),
        ("e0", "s", "t", 5.0),
    ]
    inst, table, cost, d = _trap(edges)
    assert _ids(inst, inst.paths[0]) == [("e0",), ("e1", "e3"), ("e2", "e3")]
    assert move_costs(inst.compiled, 0, d, [0.0] * 4) == [5.0, 2.0, 2.0]
    assert table.best_move(cost, inst.compiled.paths[0][d], 0.0) == (5.0, 2.0, 1)


def test_the_pruning_bound_is_deflated_for_rounding():
    # (e1, e3, e4) folds to 1.0: 1 + 2**-53 rounds to even, twice. Its
    # remaining edges sum to 2**-52 from the sink back, and 1 + 2**-52 is
    # above the least cost 1.0, so an undeflated bound skips e1 and answers
    # (e2, e5), index 2.
    tiny = 2.0**-53
    edges = [
        ("e5", "u", "t", 0.0),
        ("e2", "s", "u", 1.0),
        ("e4", "w", "t", tiny),
        ("e3", "v", "w", tiny),
        ("e1", "s", "v", 1.0),
        ("e0", "s", "t", 5.0),
    ]
    inst, table, cost, d = _trap(edges)
    assert _ids(inst, inst.paths[0]) == [("e0",), ("e1", "e3", "e4"), ("e2", "e5")]
    assert move_costs(inst.compiled, 0, d, [0.0] * 6) == [5.0, 1.0, 1.0]
    assert table.best_move(cost, inst.compiled.paths[0][d], 0.0) == (5.0, 1.0, 1)


def _grid7():
    return prepare(parse_scenario((DATA / "grid7.json").read_text(encoding="utf-8")))


def test_large_strategy_sets_are_searched_and_small_ones_scanned():
    inst = _grid7()
    g = inst.compiled
    assert len(inst.paths[0]) == 924
    # one set of tables for the four commodities that share the strategy set
    assert g.search[0] is not None and all(s is g.search[0] for s in g.search)
    for n in (2, 200):
        for diamond in build_priced_braess(n, PriceSpec("log1p")):
            assert set(diamond.compiled.search) == {None}


def _search_answers(monkeypatch):
    """The answers the search gives from now on; None where it declined."""
    answers = []
    real = search.PathSearch.best_move

    def best_move(self, *args):
        answers.append(real(self, *args))
        return answers[-1]

    monkeypatch.setattr(search.PathSearch, "best_move", best_move)
    return answers


def test_grid_moves_go_through_the_search(monkeypatch):
    answers = _search_answers(monkeypatch)
    inst = _grid7()
    start = engine.StrategyProfile((0, 1, 2, 3))
    result = engine.run_best_response_dynamics(inst, start)
    assert result.converged and result.moves
    assert stable(inst, result.final)
    assert answers and None not in answers


def _assert_scanned(inst, monkeypatch, loads=None):
    answers = _search_answers(monkeypatch)
    g = inst.compiled
    rng = random.Random(5)
    for _ in range(5):
        choice = [rng.randrange(len(p)) for p in inst.paths]
        f = engine._loads(g, choice) if loads is None else loads
        for i, d in enumerate(choice):
            for eps in EPS:
                assert g.best_move(i, d, f, eps) == _scan(g, i, d, f, eps)
    assert set(answers) <= {None}
    return answers


def test_a_negative_edge_cost_keeps_the_scan(monkeypatch):
    inst = _grid7()
    edges = list(inst.edges)
    edges[3] = replace(edges[3], b=-50.0)
    inst = prepare(replace(inst, edges=tuple(edges), paths=()))
    assert inst.compiled.search[0] is not None
    assert _assert_scanned(inst, monkeypatch)  # declined on every call


@pytest.mark.parametrize("load", [math.inf, 1e308])
def test_non_finite_or_huge_edge_costs_keep_the_scan(monkeypatch, load):
    inst = _grid7()
    assert _assert_scanned(inst, monkeypatch, loads=[load] * len(inst.edges))


def test_cyclic_and_listed_sets_are_scanned(monkeypatch):
    from test_counted import _listed  # which imports this module

    cyclic = _grid(random.Random(3), 4, True, True)
    graph = model._graph(cyclic, cyclic.commodities[0], model.DEFAULT_PATH_CAP)
    assert not graph.acyclic
    assert _tables(cyclic, 0) is None  # not counted, whatever the crossover
    listed = _listed(_grid7())  # the walk's list of a set `prepare` counts
    for inst in (cyclic, listed):
        assert set(inst.compiled.search) == {None}
        _assert_scanned(inst, monkeypatch)


def test_search_tables_form_no_reference_cycle():
    inst = _grid7()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        compiled = inst.compiled
        assert compiled.search[0] is not None
        engine.run_best_response_dynamics(inst, engine.StrategyProfile((0, 1, 2, 3)))
        del inst, compiled
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_the_oracle_runs_no_path_search_it_discards(monkeypatch):
    # the oracle reads only a player's saving, so on a searched strategy set it
    # takes the least cost from the search and never looks for its path
    inst = _grid7()
    inst = prepare(replace(inst, commodities=inst.commodities[:1], paths=()))
    scanned = prepare(replace(inst, paths=()))
    scanned.compiled.search[0] = None
    want = oracle.price_of_anarchy(scanned)
    runs = []
    real = search._simple_paths

    def simple_paths(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(search, "_simple_paths", simple_paths)
    answers = _search_answers(monkeypatch)
    assert oracle.price_of_anarchy(inst) == want
    assert len(answers) == len(inst.paths[0]) and None not in answers
    assert runs == []
