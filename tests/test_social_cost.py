"""One social cost: every cost the package reports for a profile comes from
`CompiledGame.social_cost`, so the engine's view and the oracle's optimum and
worst equilibrium agree exactly (==), not just to rounding."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from routegame import engine, oracle
from routegame.cli import main
from routegame.random_instances import random_affine_instance


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_engine_cost_of_oracle_profiles_is_the_reported_cost(seed):
    rng = random.Random(seed)
    inst = random_affine_instance(rng)
    eps = rng.choice([0.0, 1e-9, 0.05])
    equilibria, report = oracle.equilibria_and_poa(inst, eps_improve=eps)
    assert engine.social_cost(inst, report.optimal_profile) == report.optimal_cost
    worst = engine.social_cost(inst, report.worst_equilibrium_profile)
    assert worst == report.worst_equilibrium_cost
    assert max(engine.social_cost(inst, p) for p in equilibria) == worst


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
