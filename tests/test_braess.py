import importlib.util
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from routegame import engine, oracle
from routegame.braess import (
    build_classic_braess,
    build_priced_braess,
    edge_addition_experiment,
    rho_formula,
)
from routegame.model import (
    GameInstance,
    exact_sum,
    mixing_violations,
    prepare,
    serialize_scenario,
    validate_instance,
)
from routegame.pricing import PriceSpec, eval_u

FAMILIES = [
    PriceSpec("identity"),
    PriceSpec("sin"),
    PriceSpec("log1p"),
    PriceSpec("saturating", {"beta": 1.0}),
]


def test_builders_reject_odd_or_nonpositive_n():
    for n in (3, 0, -2):
        with pytest.raises(ValueError):
            build_classic_braess(n)
        with pytest.raises(ValueError):
            build_priced_braess(n, PriceSpec("identity"))


def test_priced_builder_rejects_unnormalized_mixing():
    with pytest.raises(ValueError):
        build_priced_braess(2, PriceSpec("identity"), c1=0.6, c2=0.5)


def test_classic_experiment(classic_pair_10):
    before, after = classic_pair_10
    report = edge_addition_experiment(before, after)
    assert report.before_cost == pytest.approx(1.5, abs=1e-12)
    assert report.after_cost == pytest.approx(2.0, abs=1e-12)
    assert report.rho == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert report.rho == pytest.approx(rho_formula(0.0, 1.0, 0.0), abs=1e-12)
    assert report.n_players == 10


def test_priced_identity_experiment(priced_identity_pair_10):
    before, after = priced_identity_pair_10
    report = edge_addition_experiment(before, after)
    assert report.before_cost == pytest.approx(1.75, abs=1e-12)
    assert report.after_cost == pytest.approx(2.0, abs=1e-12)
    assert report.rho == pytest.approx(8.0 / 7.0, abs=1e-12)
    u = eval_u(PriceSpec("identity"), 1.0 / 10)
    assert report.rho == pytest.approx(rho_formula(u, 0.5, 0.5), abs=1e-12)


@pytest.mark.parametrize(
    "build", [build_classic_braess, lambda n: build_priced_braess(n, PriceSpec("sin"))]
)
def test_both_diamonds_hold_one_commodities_tuple(build):
    before, after = build(6)
    assert before.commodities is after.commodities
    assert [c.id for c in before.commodities] == [f"u{i}" for i in range(1, 7)]
    ends = {(c.source, c.sink, c.demand) for c in before.commodities}
    assert ends == {("s", "t", 1 / 6)}
    assert len(before.edges) + 1 == len(after.edges) == 5


def test_zero_price_weight_reduces_to_classic():
    cb, ca = build_classic_braess(4)
    pb, pa = build_priced_braess(4, PriceSpec("identity"), c1=1.0, c2=0.0)
    assert serialize_scenario(pb) == serialize_scenario(cb)
    assert serialize_scenario(pa) == serialize_scenario(ca)


def test_rho_formula_endpoints():
    assert rho_formula(1.0, 0.5, 0.5) == pytest.approx(8.0 / 7.0, abs=1e-15)
    assert rho_formula(0.3, 1.0, 0.0) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert rho_formula(1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_rho_formula_matches_symmetric_special_case():
    for u in [i / 50 for i in range(51)]:
        assert rho_formula(u, 0.5, 0.5) == pytest.approx(
            (4 + 4 * u) / (5 + 2 * u), rel=1e-14
        )


def test_rho_formula_monotone_in_unit_price():
    values = [rho_formula(i / 200, 0.5, 0.5) for i in range(201)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_rho_formula_rejects_out_of_range():
    with pytest.raises(ValueError):
        rho_formula(1.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        rho_formula(0.5, 0.7, 0.5)
    with pytest.raises(ValueError):
        rho_formula(0.5, 1.2, -0.2)


@pytest.mark.parametrize(
    "c1, c2", [(0.6, 0.5), (2.0, 0.5), (-1.0, 2.0), (math.nan, 0.5), (0.5, 0.5)]
)
def test_one_mixing_rule_for_flags_and_scenarios(c1, c2):
    # rho_formula and the priced builder raise the first violation that
    # validate lists for an edge with the same weights
    violations = mixing_violations(c1, c2)
    _, after = build_priced_braess(2, PriceSpec("sin"))
    sv = replace(after.edges[0], c1=c1, c2=c2)
    report = validate_instance(replace(after, edges=(sv, *after.edges[1:])))
    mixing = [v for v in report.violations if "mixing" in v]
    assert mixing == [f"edge 'sv': {v}" for v in violations]
    if not violations:
        rho_formula(0.5, c1, c2)
        build_priced_braess(2, PriceSpec("sin"), c1, c2)
        return
    with pytest.raises(ValueError, match=re.escape(violations[0])):
        rho_formula(0.5, c1, c2)
    with pytest.raises(ValueError, match=re.escape(violations[0])):
        build_priced_braess(2, PriceSpec("sin"), c1, c2)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.fn)
@pytest.mark.parametrize("n", [2, 4, 10])
def test_simulation_matches_formula(spec, n):
    before, after = build_priced_braess(n, spec)
    report = edge_addition_experiment(before, after)
    expected = rho_formula(eval_u(spec, 1.0 / n), 0.5, 0.5)
    assert report.rho == pytest.approx(expected, abs=1e-9)


def test_log1p_n4_value():
    # brute-force value cross-checked against the closed form at u = ln(1.25)/0.25
    before, after = build_priced_braess(4, PriceSpec("log1p"))
    report = edge_addition_experiment(before, after)
    u = math.log(1.25) / 0.25
    assert report.rho == pytest.approx((4 + 4 * u) / (5 + 2 * u), abs=1e-9)


def test_classic_rho_independent_of_n():
    for n in (2, 4, 10):
        report = edge_addition_experiment(*build_classic_braess(n))
        assert report.rho == pytest.approx(4.0 / 3.0, abs=1e-12)
        priced = edge_addition_experiment(
            *build_priced_braess(n, PriceSpec("identity"))
        )
        assert priced.rho == pytest.approx(8.0 / 7.0, abs=1e-12)


def test_dynamics_method_on_classic(classic_pair_10):
    before, after = classic_pair_10
    report = edge_addition_experiment(before, after, method="dynamics")
    # dynamics samples one equilibrium per instance; before is the half-split
    assert report.before_cost == pytest.approx(1.5, abs=1e-12)
    assert report.rho >= 1.0
    # after is the social cost where the run from the all-zero profile stops,
    # over the total demand: an equilibrium, not the worst one, where nine
    # players pay 1.9 and one, held by ties, pays 2.0
    result = engine.run_best_response_dynamics(
        after, engine.StrategyProfile((0,) * 10), engine.DynamicsConfig()
    )
    total = exact_sum(c.demand for c in after.commodities)
    assert result.converged
    assert report.after_cost.hex() == (result.costs.social_cost / total).hex()
    assert sorted(result.costs.unit_costs) == pytest.approx([1.9] * 9 + [2.0])


def test_costs_are_worst_social_cost_per_unit_of_demand():
    # two players of demand 1/4 and 3/4 on the priced log1p diamond pay
    # different unit costs at the worst equilibrium, so its largest unit cost
    # (rho 1.0826605449488922) is not its social cost per unit of demand
    pair = []
    for instance in build_priced_braess(2, PriceSpec("log1p")):
        players = tuple(
            replace(c, demand=r) for c, r in zip(instance.commodities, (0.25, 0.75))
        )
        pair.append(prepare(GameInstance(instance.nodes, instance.edges, players)))
    before, after = pair
    report = edge_addition_experiment(before, after)
    total = exact_sum(c.demand for c in before.commodities)
    for cost, instance in ((report.before_cost, before), (report.after_cost, after)):
        _, worst, _ = oracle.worst_equilibrium(instance)
        assert cost.hex() == (worst / total).hex()
    assert report.rho == 1.0462941550574314


def test_mismatched_commodities_rejected(classic_pair_10, classic_pair_2):
    with pytest.raises(ValueError, match="commodities"):
        edge_addition_experiment(classic_pair_10[0], classic_pair_2[1])


def test_braess_sweep_exits_1_on_a_gap(monkeypatch, capsys):
    script = Path(__file__).parent.parent / "scripts" / "braess_sweep.py"
    spec = importlib.util.spec_from_file_location("braess_sweep", script)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(sys, "argv", [str(script), "--n", "2", "4"])
    assert sweep.main() == 0
    monkeypatch.setattr(
        sweep, "rho_formula", lambda u, c1, c2: rho_formula(u, c1, c2) + 2e-9
    )
    assert sweep.main() == 1
    assert capsys.readouterr().out.rstrip().endswith("VIOLATED")
