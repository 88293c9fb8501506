"""The compiled engine against a frozen copy of the original dict-based engine.

Every comparison is exact (==). Loads, path costs, best responses, moves,
witnesses and final profiles must reproduce each float of the original,
because tie-breaks depend on them. Social costs and potentials must instead
equal the correctly rounded exact sums of their terms (`exact_costs`), which
depend on no summation order.
"""

import dataclasses
import json
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine as ref
from exact_costs import ExactCosts
from routegame import engine
from routegame.braess import build_priced_braess
from routegame.cli import main
from routegame.engine import DynamicsConfig, StrategyProfile
from routegame.model import Commodity, EdgeSpec, GameInstance, prepare, serialize_scenario
from routegame.pricing import PriceSpec
from routegame.random_instances import random_affine_instance

DATA = Path(__file__).parent / "data"


def _random_profile(rng, inst):
    return StrategyProfile(tuple(rng.randrange(len(p)) for p in inst.paths))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_engine_views_match_reference_bit_for_bit(seed):
    rng = random.Random(seed)
    inst = random_affine_instance(rng)
    prof = _random_profile(rng, inst)
    eps = rng.choice([0.0, 1e-9, 0.05])

    loads = engine.edge_loads(inst, prof)
    ref_loads = ref.edge_loads(inst, prof)
    assert list(loads.load.items()) == list(ref_loads.load.items())
    for i, plist in enumerate(inst.paths):
        for path in plist:
            assert engine.unit_path_cost(inst, loads, i, path) == ref.unit_path_cost(
                inst, ref_loads, i, path
            )
        assert engine.best_response(inst, prof, i, eps) == ref.best_response(
            inst, prof, i, eps
        )
    exact = ExactCosts(inst)
    assert engine.social_cost(inst, prof) == exact.social_cost(prof.choice)
    assert engine.potential(inst, prof) == exact.potential(prof.choice)
    _assert_equilibrium_report_matches(inst, prof, eps)


def _assert_equilibrium_report_matches(inst, prof, eps):
    got = engine.is_equilibrium(inst, prof, eps)
    want = ref.is_equilibrium(inst, prof, eps)
    assert got.potential == ExactCosts(inst).potential(prof.choice)
    assert dataclasses.replace(got, potential=want.potential) == want


def _assert_dynamics_match(inst, start, config=DynamicsConfig()):
    got = engine.run_best_response_dynamics(inst, start, config)
    want = ref.run_best_response_dynamics(inst, start, config)
    assert got.moves == want.moves
    assert got.final == want.final
    assert got.converged == want.converged
    exact = ExactCosts(inst)
    choice = list(start.choice)
    trace = [exact.potential(choice)]
    for move in got.moves:
        choice[move.player] = move.new_path
        trace.append(exact.potential(choice))
    assert got.potential_trace == tuple(trace)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_dynamics_result_matches_reference_bit_for_bit(seed):
    rng = random.Random(seed)
    inst = random_affine_instance(rng)
    start = _random_profile(rng, inst)
    config = DynamicsConfig(
        max_moves=rng.choice([1, 2, 5, engine.DEFAULT_MAX_MOVES]),
        eps_improve=rng.choice([0.0, engine.DEFAULT_EPS_IMPROVE, 0.05]),
    )
    _assert_dynamics_match(inst, start, config)


def test_deviated_loads_keep_the_original_rounding():
    # With demands 0.1, 0.2, 0.4 on edge sv, the load is 0.7000000000000001 but
    # (load - 0.2) + 0.2 is 0.7: a deviation that keeps sv must see the latter.
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
    f = engine.edge_loads(inst, prof)["sv"]
    assert (f - 0.2) + 0.2 != f
    _assert_equilibrium_report_matches(inst, prof, -1.0)
    report = engine.is_equilibrium(inst, prof, eps_improve=-1.0)
    assert report.witness.improvement == report.player_costs[0] - ((f - 0.1) + 0.1 + 0.1)
    for i in range(3):
        assert engine.best_response(inst, prof, i, -1.0) == ref.best_response(
            inst, prof, i, -1.0
        )
    _assert_dynamics_match(inst, prof)


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
