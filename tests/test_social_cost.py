"""One social cost: every cost the package reports for a profile comes from
`CompiledGame.social_cost`, so the engine's view and the oracle's optimum and
worst equilibrium agree exactly (==), not just to rounding."""

import json
import random
import struct
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_engine import profile_costs
from routegame import engine, oracle
from routegame.braess import build_classic_braess
from routegame.cli import main
from routegame.model import Commodity, EdgeSpec, GameInstance, exact_sum, prepare
from routegame.random_instances import random_affine_instance


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_engine_cost_of_oracle_profiles_is_the_reported_cost(seed):
    rng = random.Random(seed)
    inst = random_affine_instance(rng)
    eps = rng.choice([0.0, 1e-9, 0.05])
    equilibria, report = oracle.equilibria_and_poa(inst, eps_improve=eps)

    def cost(p):
        return profile_costs(inst, p).social_cost

    assert cost(report.optimal_profile) == report.optimal_cost
    worst = cost(report.worst_equilibrium_profile)
    assert worst == report.worst_equilibrium_cost
    # the cost listed with each equilibrium is the engine's, bit for bit
    assert [_bits(c) for _, c in equilibria] == [_bits(cost(p)) for p, _ in equilibria]
    assert max(c for _, c in equilibria) == worst


def test_enumerate_lists_the_reported_worst_cost(capsys, tmp_path):
    # the saturating n=6 diamond without the shortcut printed a listed maximum
    # of 1.6785714285714284 next to a worst cost of 1.6785714285714286
    prefix = str(tmp_path / "sat6")
    argv = ["braess", "priced", "--n", "6", "--price", "saturating"]
    assert main([*argv, "--emit-scenario", prefix]) == 0
    capsys.readouterr()
    assert main(["enumerate", f"{prefix}-before.json", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["equilibrium_social_costs"]) == doc["equilibrium_count"] > 1
    assert max(doc["equilibrium_social_costs"]) == doc["worst_equilibrium_social_cost"]


def _bits(x):
    return struct.pack("<d", x)


def _every_edge(g, loads, load_free):
    """The social cost as the sum over every edge, zero slopes included."""
    return exact_sum([*map(mul, map(mul, g.slope, loads), loads), *load_free])


def _assert_sloped_sum_is_every_edge_sum(inst):
    g = inst.compiled
    for choice in product(*(range(len(p)) for p in inst.paths)):
        loads = engine._loads(g, choice)
        load_free = [g.load_free_cost(i, d) for i, d in enumerate(choice)]
        assert _bits(g.social_cost(loads, load_free)) == _bits(
            _every_edge(g, loads, load_free)
        )


def _parallel(edges, demands):
    """s -> t over parallel edges given as (a, b, c1), one commodity per demand."""
    return prepare(GameInstance(
        ("s", "t"),
        tuple(EdgeSpec(f"e{k}", "s", "t", a, b, c1) for k, (a, b, c1) in enumerate(edges)),
        tuple(Commodity(f"p{i}", "s", "t", r) for i, r in enumerate(demands)),
    ))


def test_zero_slope_edges_are_left_out():
    # 3 of the diamond's 5 edges have a = 0
    _, after = build_classic_braess(4)
    assert len(after.compiled.sloped) == 2
    _assert_sloped_sum_is_every_edge_sum(after)


@pytest.mark.parametrize(
    "edges, demands, sloped",
    [
        ([(1.0, 0.5, 0.0), (0.0, 1.0, 1.0), (2.0, 0.0, 1.0)], [1.0, 2.0], (2,)),  # c1 = 0
        ([(-0.0, 0.0, 1.0), (0.0, 0.0, 1.0)], [1.0], (0,)),  # slope -0.0 is kept
        ([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)], [1.0, 3.0], ()),  # social cost 0.0
        ([(0.0, 1.0, 1.0), (1.0, 0.0, 1.0)], [1e308, 1e308], (0, 1)),  # 0.0 * inf
    ],
)
def test_sloped_sum_named_cases(edges, demands, sloped):
    inst = _parallel(edges, demands)
    assert inst.compiled.sloped == sloped
    _assert_sloped_sum_is_every_edge_sum(inst)


_a = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1e300)
_c1 = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
_demand = st.sampled_from([1.0, 1e308]) | st.floats(1e-300, 1e300)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_a, st.sampled_from([0.0, -0.0, 1.0]), _c1), min_size=1, max_size=4),
    st.lists(_demand, min_size=1, max_size=3),
)
def test_sloped_sum_is_every_edge_sum(edges, demands):
    _assert_sloped_sum_is_every_edge_sum(_parallel(edges, demands))
