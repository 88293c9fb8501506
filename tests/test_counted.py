"""Counted strategy sets against the listing walk they stand in for.

`prepare` keeps a strategy set that `CompiledGame` will search as a
`model.CountedSet`: per-node path counts that give its length, its paths by
index and the index of a path without listing the set. These tests compare
it with the walk, `model.enumerate_paths`, and with instances whose strategy
sets that walk lists, bit for bit.
"""

import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_model import _grid as _unit_grid
from test_engine import potential
from test_oracle import stable
from test_search import EPS, _grid
from routegame import cli, engine, model, oracle
from routegame.model import (
    Commodity,
    CountedSet,
    EdgeSpec,
    GameInstance,
    PathEnumerationError,
    StrategySet,
    parse_scenario,
    prepare,
    serialize_scenario,
    validate_instance,
)

DATA = Path(__file__).parent / "data"
WALK = model.enumerate_paths


def _listed(inst):
    """`inst` with every strategy set listed by the walk, one set per
    endpoint pair as `prepare` shares them."""
    sets = {}
    for c in inst.commodities:
        if (c.source, c.sink) not in sets:
            plist = sets[c.source, c.sink] = StrategySet(
                WALK(inst, c, model.DEFAULT_PATH_CAP)
            )
            plist.edges = inst.edges
    return replace(inst, paths=tuple(sets[c.source, c.sink] for c in inst.commodities))


def _listings(monkeypatch):
    """The commodities whose paths the walk lists from now on."""
    calls = []

    def walk(instance, commodity, *args):
        calls.append(commodity.id)
        return WALK(instance, commodity, *args)

    monkeypatch.setattr(model, "enumerate_paths", walk)
    return calls


def _random_dag(rng):
    """Up to 8 nodes in topological order, each pair joined forward by up to
    three parallel edges; unique ids such as e2 and e10, numbered in another
    order than the instance lists the edges. The sink may be unreachable."""
    n = rng.randint(2, 8)
    nodes = tuple(f"n{i}" for i in range(n))
    pairs = [
        (u, w)
        for u in range(n)
        for w in range(u + 1, n)
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3)))
    ]
    ids = rng.sample(range(200), len(pairs))
    edges = [
        EdgeSpec(f"e{j}", nodes[u], nodes[w], 1.0, 0.0) for j, (u, w) in zip(ids, pairs)
    ]
    rng.shuffle(edges)
    source = rng.randrange(n - 1)
    sink = rng.randrange(source + 1, n)
    commodity = Commodity("x", nodes[source], nodes[sink], 1.0)
    return GameInstance(nodes, tuple(edges), (commodity,))


def _assert_counted_matches_walk(inst, rng):
    c = inst.commodities[0]
    try:
        paths = WALK(inst, c, model.DEFAULT_PATH_CAP)
    except PathEnumerationError as exc:
        with pytest.raises(PathEnumerationError) as counted:
            prepare(inst)
        assert str(counted.value) == str(exc)
        return
    plist = prepare(inst).paths[0]
    assert isinstance(plist, CountedSet) and plist.edges is inst.edges
    assert len(plist) == len(paths)
    order = list(range(len(paths)))
    rng.shuffle(order)  # each path built alone, not after its predecessor
    for j in order:
        assert plist[j] == paths[j] and plist.rank(paths[j]) == j
    assert plist[-1] == paths[-1] and plist[-len(paths)] == paths[0]
    assert plist.listed is None  # none of the reads above listed it
    assert plist == tuple(paths) and list(plist) == paths
    # the cap, at exactly the count and one below it, with the walk's message
    assert len(prepare(inst, cap=len(paths)).paths[0]) == len(paths)
    with pytest.raises(PathEnumerationError) as counted:
        prepare(inst, cap=len(paths) - 1)
    with pytest.raises(PathEnumerationError) as walked:
        WALK(inst, c, len(paths) - 1)
    assert str(counted.value) == str(walked.value)
    assert "more than" in str(counted.value)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_counted_set_matches_the_walk_on_random_dags(seed):
    rng = random.Random(seed)
    inst = _random_dag(rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "SEARCH_CROSSOVER", 0)  # every acyclic set is counted
        _assert_counted_matches_walk(inst, rng)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1, 2, 3, 5, model.SEARCH_CROSSOVER]),
)
def test_prepare_counts_exactly_the_sets_compile_would_search(seed, crossover):
    # few random DAGs have 10 slots per edge: lower crossovers reach both sides
    inst = _random_dag(random.Random(seed))
    try:
        paths = WALK(inst, inst.commodities[0], model.DEFAULT_PATH_CAP)
    except PathEnumerationError:
        return
    searched = sum(map(len, paths)) > crossover * len(set().union(*paths))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "SEARCH_CROSSOVER", crossover)
        prepared = prepare(inst)
        assert isinstance(prepared.paths[0], CountedSet) == searched
        assert (prepared.compiled.search[0] is not None) == searched
        assert _listed(inst).compiled.search[0] is None


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_a_counted_set_matches_the_walk_on_grids(k):
    _assert_counted_matches_walk(_unit_grid(k), random.Random(k))


def test_sets_with_a_cycle_are_listed():
    inst = _grid(random.Random(3), 4, True, True)
    assert all(type(p) is StrategySet for p in inst.paths)
    assert type(prepare(_unit_grid(6)).paths[0]) is CountedSet


# ---------------------------------------------------------------------------
# the counted set and the listed one give the same bits


def _engine_answers(inst, seed):
    """Dynamics from seeded starts, and equilibrium checks, potentials and
    costs of their start and final profiles."""
    rng = random.Random(seed)
    answers = []
    configs = [engine.DynamicsConfig(eps_improve=eps) for eps in (0.0, 1e-9, 0.05)]
    for config in configs + [engine.DynamicsConfig(max_moves=1)]:
        start = engine.StrategyProfile(tuple(rng.randrange(len(p)) for p in inst.paths))
        result = engine.run_best_response_dynamics(inst, start, config)
        answers.append(result)
        for profile in (start, result.final):
            answers.append(stable(inst, profile, config.eps_improve))
            answers.append(potential(inst, profile))
            answers.append(engine.profile_costs(inst, profile))
    return answers


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=5, max_value=7),
    st.booleans(),
    st.booleans(),
)
def test_dynamics_and_equilibrium_checks_match_the_listed_set(seed, k, snap, cyclic):
    # a grid with edges left or up has cycles, and its sets stay listed
    inst = _grid(random.Random(seed), 4 if cyclic else k, snap, cyclic)
    backward = any(e.id[0] in "lu" for e in inst.edges)
    assert all(type(p) is (StrategySet if backward else CountedSet) for p in inst.paths)
    listed = _listed(inst)
    assert _engine_answers(inst, seed) == _engine_answers(listed, seed)
    assert backward or all(not p.listed for p in inst.paths)


def _stdout(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "k, players, snap, cyclic, commands",
    [
        (7, 4, False, False, ["equilibrate"]),
        (6, 2, True, False, ["equilibrate"]),
        (5, 1, True, False, ["equilibrate", "enumerate", "poa"]),
        (6, 1, False, False, ["enumerate", "poa"]),
        (4, 2, True, True, ["equilibrate", "enumerate", "poa"]),
    ],
)
def test_cli_stdout_matches_the_listed_set(
    capsys, monkeypatch, tmp_path, k, players, snap, cyclic, commands
):
    inst = _grid(random.Random(k * 10 + players), k, snap, cyclic, players)
    scenario = tmp_path / "grid.json"
    scenario.write_text(serialize_scenario(inst))
    runs = [
        [command, str(scenario), "--format", fmt]
        for command in commands
        for fmt in ("json", "table")
    ]
    if "equilibrate" in commands:
        runs += [["equilibrate", str(scenario), "--seed", str(s)] for s in range(3)]
    counted = [_stdout(capsys, argv) for argv in runs]
    monkeypatch.setattr(cli, "prepare", _listed)
    assert [_stdout(capsys, argv) for argv in runs] == counted
    assert all(code in (0, 1) and out for code, out, _ in counted)


def test_a_grid_job_lists_no_path(capsys, monkeypatch):
    def walk(*args):
        raise AssertionError("a path was listed")

    monkeypatch.setattr(model, "enumerate_paths", walk)
    argv = ["equilibrate", str(DATA / "grid7.json"), "--seed", "7", "--format", "json"]
    assert _stdout(capsys, argv) == (0, (DATA / "grid7-seed7.json").read_text(), "")


# ---------------------------------------------------------------------------
# readers of every path list a counted set once


def _grid7(players=None):
    inst = parse_scenario((DATA / "grid7.json").read_text(encoding="utf-8"))
    if players is not None:
        inst = replace(inst, commodities=inst.commodities[:players])
    return prepare(inst)


@pytest.mark.parametrize("case", ["negative edge cost", "inf", "1e308"])
def test_the_scan_lists_a_counted_set_once(monkeypatch, case):
    inst = _grid7()
    loads = None
    if case == "negative edge cost":
        edges = list(inst.edges)
        edges[3] = replace(edges[3], b=-50.0)
        inst = prepare(replace(inst, edges=tuple(edges), paths=()))
    else:
        loads = [float(case)] * len(inst.edges)
    g, want = inst.compiled, _listed(inst).compiled
    assert g.search[0] is not None and isinstance(g.paths[0], CountedSet)
    calls = _listings(monkeypatch)
    rng = random.Random(5)
    for _ in range(3):
        choice = [rng.randrange(len(p)) for p in inst.paths]
        f = engine._loads(g, choice) if loads is None else loads
        for i, d in enumerate(choice):
            for eps in EPS:
                assert g.best_move(i, d, f, eps) == want.best_move(i, d, f, eps)
    assert calls == ["p0"]  # all four commodities share the set


def test_the_oracle_lists_a_counted_set_once(monkeypatch):
    inst = _grid7(players=1)
    listed = _listed(inst)
    assert math.prod(map(len, inst.paths)) == 924
    calls = _listings(monkeypatch)
    for _ in range(2):
        assert oracle.price_of_anarchy(inst) == oracle.price_of_anarchy(listed)
        assert oracle.equilibria_and_poa(inst) == oracle.equilibria_and_poa(listed)
        assert validate_instance(inst).ok
    assert calls == ["p0"]
