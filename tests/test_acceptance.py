"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (or `-s` to see the lines).
"""

import itertools
import json
import math
import random
import time

import pytest

from test_engine import potential
from test_oracle import scan_equilibria, stable
from routegame import engine, oracle
from routegame.braess import (
    build_classic_braess,
    build_priced_braess,
    edge_addition_experiment,
    rho_formula,
)
from routegame.cli import main
from routegame.engine import StrategyProfile, profile_costs
from routegame.pricing import PRICE_FAMILIES, PriceSpec, eval_F, eval_u
from routegame.random_instances import random_affine_instance

BOUND = (3.0 + math.sqrt(5.0)) / 2.0


def _cli_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def _report(name, elapsed, budget):
    print(f"criterion {name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


@pytest.fixture(scope="module")
def random_suite():
    """500 random affine instances (<= 2000 profiles) with their equilibria."""
    rng = random.Random(20_240_817)
    suite = []
    for _ in range(500):
        inst = random_affine_instance(rng)
        equilibria = scan_equilibria(inst)
        suite.append((inst, equilibria))
    return suite


def test_criterion_01_classic_braess(capsys):
    t0 = time.perf_counter()
    doc = _cli_json(capsys, "braess", "classic", "--n", "10")
    assert abs(doc["before_cost"] - 1.5) <= 1e-12
    assert abs(doc["after_cost"] - 2.0) <= 1e-12
    assert abs(doc["rho"] - 4.0 / 3.0) <= 1e-12
    _report("1 classic 4/3", time.perf_counter() - t0, 1.0)


def test_criterion_02_reduced_severity(capsys):
    t0 = time.perf_counter()
    doc = _cli_json(capsys, "braess", "priced", "--n", "10", "--price", "identity")
    assert abs(doc["before_cost"] - 1.75) <= 1e-12
    assert abs(doc["after_cost"] - 2.0) <= 1e-12
    assert abs(doc["rho"] - 8.0 / 7.0) <= 1e-12
    _report("2 priced 8/7", time.perf_counter() - t0, 1.0)


def test_criterion_03_generalized_rho_endpoints(capsys):
    t0 = time.perf_counter()
    doc = _cli_json(
        capsys, "braess", "priced", "--n", "10", "--price", "identity",
        "--c1", "0", "--c2", "1",
    )
    assert abs(doc["rho"] - 1.0) <= 1e-12
    doc = _cli_json(
        capsys, "braess", "priced", "--n", "10", "--price", "identity",
        "--c1", "1", "--c2", "0",
    )
    assert abs(doc["rho"] - 4.0 / 3.0) <= 1e-12
    _report("3 rho endpoints", time.perf_counter() - t0, 1.0)


def test_criterion_04_formula_simulation_agreement():
    t0 = time.perf_counter()
    specs = [
        PriceSpec("identity"),
        PriceSpec("sin"),
        PriceSpec("log1p"),
        PriceSpec("saturating", {"beta": 1.0}),
    ]
    for spec, n in itertools.product(specs, (2, 4, 10)):
        report = edge_addition_experiment(*build_priced_braess(n, spec))
        expected = rho_formula(eval_u(spec, 1.0 / n), 0.5, 0.5)
        assert abs(report.rho - expected) <= 1e-9, (spec.fn, n)
    _report("4 formula agreement", time.perf_counter() - t0, 10.0)


def test_criterion_05_potential_deviation_identity():
    t0 = time.perf_counter()
    rng = random.Random(5)
    for _ in range(200):
        inst = random_affine_instance(rng)
        k = len(inst.commodities)
        for _ in range(10):
            prof = StrategyProfile(
                tuple(rng.randrange(len(inst.paths[i])) for i in range(k))
            )
            phi = potential(inst, prof)
            costs = engine.profile_costs(inst, prof).unit_costs
            for i, cur in enumerate(prof.choice):
                r = inst.commodities[i].demand
                cur_cost = costs[i]
                for j in range(len(inst.paths[i])):
                    if j == cur:
                        continue
                    moved = StrategyProfile(
                        prof.choice[:i] + (j,) + prof.choice[i + 1:]
                    )
                    new_cost = engine.profile_costs(inst, moved).unit_costs[i]
                    delta_phi = potential(inst, moved) - phi
                    assert abs(delta_phi - 2.0 * r * (new_cost - cur_cost)) <= 1e-9
    _report("5 deviation identity", time.perf_counter() - t0, 30.0)


def test_criterion_06_equilibrium_existence(random_suite):
    t0 = time.perf_counter()
    assert len(random_suite) >= 500
    assert all(len(equilibria) >= 1 for _, equilibria in random_suite)
    _report("6 equilibrium existence", time.perf_counter() - t0, 60.0)


def test_criterion_07_dynamics_soundness(random_suite):
    t0 = time.perf_counter()
    rng = random.Random(7)
    for inst, equilibria in random_suite:
        eq_set = set(equilibria)
        for _ in range(3):
            start = StrategyProfile(
                tuple(rng.randrange(len(p)) for p in inst.paths)
            )
            result = engine.run_best_response_dynamics(inst, start)
            assert result.converged
            assert result.final in eq_set
    _report("7 dynamics soundness", time.perf_counter() - t0, 60.0)


def test_criterion_08_poa_bound(random_suite):
    t0 = time.perf_counter()
    for inst, _ in random_suite:
        report = oracle.price_of_anarchy(inst)
        assert report.poa >= 1.0 - 1e-12
        assert report.poa <= BOUND + 1e-6
    # classic diamond with the shortcut, two players: brute force over 9 profiles
    _, after = build_classic_braess(2)
    best, worst_eq = math.inf, -math.inf
    for choice in itertools.product(range(3), range(3)):
        prof = StrategyProfile(choice)
        sc = profile_costs(after, prof).social_cost
        best = min(best, sc)
        if stable(after, prof):
            worst_eq = max(worst_eq, sc)
    assert abs(worst_eq / best - 4.0 / 3.0) <= 1e-12
    _report("8 PoA bound", time.perf_counter() - t0, 60.0)


def test_criterion_09_price_function_properties():
    t0 = time.perf_counter()
    grid = [(i + 1) / 10_000 for i in range(10_000)]
    for fam in PRICE_FAMILIES:
        spec = PriceSpec(fam, {"beta": 1.0} if fam == "saturating" else {})
        values = [eval_F(spec, x) for x in grid]
        unit = [f / x for f, x in zip(values, grid)]
        assert all(f <= x + 1e-12 for f, x in zip(values, grid)), fam
        assert all(b <= a + 1e-12 for a, b in zip(unit, unit[1:])), fam
        if fam != "zero":
            assert abs(eval_u(spec, 1e-9) - 1.0) <= 1e-6, fam
    _report("9 price properties", time.perf_counter() - t0, 5.0)


def test_criterion_10_determinism(capsys):
    t0 = time.perf_counter()
    commands = [
        ["braess", "classic", "--n", "10"],
        ["braess", "priced", "--n", "10", "--price", "identity"],
        ["braess", "priced", "--n", "10", "--price", "identity", "--c1", "0", "--c2", "1"],
        ["braess", "priced", "--n", "4", "--price", "log1p"],
        ["braess", "priced", "--n", "4", "--price", "sin"],
        ["braess", "priced", "--n", "4", "--price", "saturating"],
    ]
    for argv in commands:
        outputs = set()
        for _ in range(2):
            code = main([*argv, "--format", "json"])
            assert code == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1, argv
    _report("10 determinism", time.perf_counter() - t0, 60.0)
