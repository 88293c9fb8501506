"""The oracle against a brute force over the exact model (`exact_costs`), and
against the engine.

Every comparison is exact (==). Equilibrium lists, counts and errors equal
those of a scan of every profile in index order by the documented deviation
rule over the model's move costs (`ExactCosts.equilibria`), ties included, and
the list is the profiles that `CompiledGame.stable` accepts. Social costs, the
listed equilibria's included, are the correctly rounded exact sums of their
terms, and the optimum and the worst equilibrium are the lowest-index argmin and argmax of that exact cost, as a
scan of every profile in index order with a strict `<` or `>` finds them.
"""

import math
import random
import sys
from itertools import groupby, islice, permutations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact_costs
from exact_costs import ExactCosts
from test_engine import profile_costs
from test_oracle import scan_equilibria, scan_optimum, stable
from tie_rich import one_demand_instances, repeated, seeded_instances, tie_rich_instances
from routegame import engine, oracle
from routegame.braess import build_classic_braess, build_priced_braess
from routegame.cli import main
from routegame.engine import StrategyProfile
from routegame.model import (
    Commodity,
    CostOverflowError,
    EdgeSpec,
    GameInstance,
    prepare,
    serialize_scenario,
)
from routegame.pricing import PRICE_FAMILIES, PriceSpec
from routegame.random_instances import random_affine_instance

DATA = Path(__file__).parent / "data"


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the name of the oracle error it raised."""
    try:
        return fn(*args, **kwargs)
    except (oracle.ProfileCapError, oracle.NoEquilibriumError, CostOverflowError,
            exact_costs.ProfileCapError) as exc:
        return type(exc).__name__


EPSILONS = (0.0, 1e-9, 0.05)


def _assert_entry_points_match(inst, cap, epsilons=EPSILONS):
    """Every oracle entry point at each eps against the exact model's brute
    force: the same equilibria, count, optimum, worst equilibrium and PoA, or
    the same error."""
    exact = ExactCosts(inst)
    scans = (oracle.worst_equilibrium, oracle.price_of_anarchy, oracle.equilibria_and_poa)
    cost = optimum = None
    for eps in epsilons:
        found = _outcome(exact.equilibria, eps, cap)
        if found == "ProfileCapError":
            for fn in (scan_equilibria,) + scans:
                assert _outcome(fn, inst, cap, eps) == found, fn.__name__
            assert _outcome(scan_optimum, inst, cap) == found
            continue
        equilibria = list(map(StrategyProfile, found))
        assert scan_equilibria(inst, cap, eps) == equilibria
        if cost is None:
            profiles = list(exact.profiles())
            cost = {p: exact.social_cost(p) for p in profiles}
            optimum = min(profiles, key=cost.__getitem__)  # the lowest-index minimum
            assert scan_optimum(inst, cap) == (
                StrategyProfile(optimum), cost[optimum]
            )
        if not equilibria:
            for fn in scans:
                assert _outcome(fn, inst, cap, eps) == "NoEquilibriumError", fn.__name__
            continue

        worst = max(found, key=cost.__getitem__)
        count = len(equilibria)
        assert oracle.worst_equilibrium(inst, cap, eps) == (
            StrategyProfile(worst), cost[worst], count
        )
        poa = _outcome(oracle.cost_ratio, cost[worst], cost[optimum])
        if poa == "CostOverflowError":
            for fn in (oracle.price_of_anarchy, oracle.equilibria_and_poa):
                assert _outcome(fn, inst, cap, eps) == poa, fn.__name__
            continue
        want = oracle.PoAReport(
            StrategyProfile(optimum),
            cost[optimum],
            StrategyProfile(worst),
            cost[worst],
            count,
            poa,
        )
        listed = [(p, cost[p.choice]) for p in equilibria]
        assert oracle.equilibria_and_poa(inst, cap, eps) == (listed, want)
        assert oracle.price_of_anarchy(inst, cap, eps) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_entry_points_match_brute_force_bit_for_bit(seed):
    rng = random.Random(seed)
    inst = random_affine_instance(rng)
    eps = rng.choice([0.0, 1e-9, 0.05])
    total = oracle.profile_count(inst)
    cap = rng.choice([total, max(total - 1, 1), oracle.DEFAULT_PROFILE_CAP])
    _assert_entry_points_match(inst, cap, (eps,))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_every_ordering_of_a_state_has_one_social_cost(seed):
    # Permuting the choices within a run of equal consecutive commodities keeps
    # the loads and the multiset of load-free terms, so the cost is unchanged.
    rng = random.Random(seed)
    inst = repeated(random_affine_instance(rng), rng)
    choice = [rng.randrange(len(p)) for p in inst.paths]
    runs, start = [], 0
    for _, group in groupby(zip(inst.paths, (c.demand for c in inst.commodities))):
        size = len(list(group))
        runs.append(set(permutations(choice[start:start + size])))
        start += size
    cost = profile_costs(inst, StrategyProfile(tuple(choice))).social_cost
    assert cost == ExactCosts(inst).social_cost(choice)
    for parts in islice(product(*runs), 200):
        ordering = StrategyProfile(tuple(d for part in parts for d in part))
        assert profile_costs(inst, ordering).social_cost == cost


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(317)
def test_repeated_commodities_match_brute_force_bit_for_bit(seed):
    # Runs of equal commodities are scanned as path-count states.
    rng = random.Random(seed)
    inst = repeated(random_affine_instance(rng), rng)
    eps = rng.choice([0.0, 1e-9, 0.05])
    total = oracle.profile_count(inst)
    cap = rng.choice([total, max(total - 1, 1), total + 1])
    _assert_entry_points_match(inst, cap, (eps,))


def _parallel_edges(b0, b1):
    # two players of demand 1 on two parallel unit-slope edges
    return prepare(
        GameInstance(
            ("s", "t"),
            (EdgeSpec("e0", "s", "t", 1.0, b0), EdgeSpec("e1", "s", "t", 1.0, b1)),
            (Commodity("p", "s", "t", 1.0), Commodity("q", "s", "t", 1.0)),
        )
    )


def test_exact_ties_go_to_the_lowest_index():
    # (0, 1) and (1, 0) share loads and the load-free terms 0.7 and 0.1, so
    # both cost exactly 2.8; the lower index, (0, 1), wins
    cheap = _parallel_edges(0.7, 0.1)
    costs = [
        profile_costs(cheap, StrategyProfile(p)).social_cost for p in ((0, 1), (1, 0))
    ]
    assert costs == [2.8, 2.8]
    report = oracle.price_of_anarchy(cheap)
    assert (report.optimal_profile.choice, report.optimal_cost) == ((0, 1), 2.8)
    dear = _parallel_edges(0.1, 0.7)
    worst, cost, count = oracle.worst_equilibrium(dear)
    assert (worst.choice, cost, count) == ((0, 1), 2.8, 2)
    # ties between states: on three equal edges, the states of (0, 1), (0, 2)
    # and (1, 2) tie for the optimum and, at eps 2, those of (0, 0), (1, 1)
    # and (2, 2) for the worst equilibrium
    even = prepare(
        GameInstance(
            ("s", "t"),
            tuple(EdgeSpec(f"e{k}", "s", "t", 1.0, 0.5) for k in range(3)),
            (Commodity("p", "s", "t", 1.0), Commodity("q", "s", "t", 1.0)),
        )
    )
    report = oracle.price_of_anarchy(even, eps_improve=2.0)
    assert (report.optimal_profile.choice, report.optimal_cost) == ((0, 1), 3.0)
    assert report.worst_equilibrium_profile.choice == (0, 0)
    assert (report.worst_equilibrium_cost, report.equilibrium_count) == (5.0, 9)
    for inst in (cheap, dear, even):
        _assert_entry_points_match(inst, oracle.DEFAULT_PROFILE_CAP)


def test_overflowing_social_costs_are_inf():
    # With 2·A = max - 2**971, the profiles (0, 1) and (1, 0) sum A, A, 2**971
    # and 2**970 to max + 2**970, which rounds to inf, though a plain sum in one
    # order stays at max; (0, 0) and (1, 1) overflow in their slope terms. So
    # every profile costs inf, and the optimum is the lowest index, (0, 0).
    top = sys.float_info.max
    slope = (top - 2.0**971) / 2
    inst = prepare(
        GameInstance(
            ("s", "t"),
            (
                EdgeSpec("e0", "s", "t", slope, 2.0**971),
                EdgeSpec("e1", "s", "t", slope, 2.0**970),
            ),
            (Commodity("p", "s", "t", 1.0), Commodity("q", "s", "t", 1.0)),
        )
    )
    for choice in product((0, 1), repeat=2):
        assert profile_costs(inst, StrategyProfile(choice)).social_cost == math.inf
    assert scan_optimum(inst) == (StrategyProfile((0, 0)), math.inf)
    with pytest.raises(CostOverflowError):  # inf / inf is no PoA
        oracle.price_of_anarchy(inst)
    _assert_entry_points_match(inst, oracle.DEFAULT_PROFILE_CAP)


def test_no_equilibrium_raises_like_brute_force():
    # with a negative tolerance every profile has an "improving" deviation
    _, after = build_classic_braess(2)
    assert scan_equilibria(after, eps_improve=-1.0) == []
    cap = oracle.DEFAULT_PROFILE_CAP
    _assert_entry_points_match(after, cap, (-1.0,))
    assert _outcome(oracle.price_of_anarchy, after, cap, -1.0) == "NoEquilibriumError"


def test_loads_sum_demands_in_player_order():
    # Three players with demands 0.1, 0.2, 0.3 share edge sv, where the sum
    # depends on the grouping; the scan must add them in player order. In
    # (0, 0, 1) and (1, 0, 1) player 0's two paths cost exactly the same, and
    # at eps 0 that tie is no improvement, though a test by load differences
    # rounds it into one.
    r0, r1, r2 = demands = (0.1, 0.2, 0.3)
    assert (r0 + r1) + r2 != r0 + (r1 + r2)
    inst = prepare(
        GameInstance(
            ("s", "v", "t"),
            (
                EdgeSpec("sv", "s", "v", 1.0, 0.0),
                EdgeSpec("vt1", "v", "t", 1.0, 0.5),
                EdgeSpec("vt2", "v", "t", 2.0, 0.0),
            ),
            tuple(Commodity(f"p{i}", "s", "t", r) for i, r in enumerate(demands)),
        )
    )
    exact = ExactCosts(inst)
    for tie in ((0, 0, 1), (1, 0, 1)):
        costs = exact.move_costs(0, tie)
        assert costs[0] == costs[1]
    cap = oracle.DEFAULT_PROFILE_CAP
    for eps in EPSILONS:
        found = scan_equilibria(inst, cap, eps)
        assert [p.choice for p in found] == [(0, 0, 1), (1, 0, 1), (1, 1, 0)]
    _assert_entry_points_match(inst, cap)


def _assert_oracle_lists_the_engine_equilibria(inst):
    profiles = [StrategyProfile(p) for p in product(*map(range, map(len, inst.paths)))]
    for eps in EPSILONS:
        accepted = [p for p in profiles if stable(inst, p, eps)]
        assert scan_equilibria(inst, len(profiles), eps) == accepted, eps


def test_a_deviation_compares_whole_path_costs():
    # At (1, 0) player p (demand 0.5) pays 0.7 + 0.8 = 1.5 on (sv, vt2) and
    # would pay exactly 1.5 on (sv, vt1), though vt1's cost after the move,
    # (0.2 + 0.5) + 0.1, is one ulp below vt2's 0.5 + 0.3: a rule that
    # differences only the edges the two paths do not share sees a saving.
    inst = prepare(
        GameInstance(
            ("s", "v", "t"),
            (
                EdgeSpec("sv", "s", "v", 1.0, 0.0),
                EdgeSpec("vt1", "v", "t", 1.0, 0.1),
                EdgeSpec("vt2", "v", "t", 1.0, 0.3),
            ),
            (Commodity("p", "s", "t", 0.5), Commodity("q", "s", "t", 0.2)),
        )
    )
    assert (0.2 + 0.5) + 0.1 < 0.5 + 0.3
    assert ExactCosts(inst).move_costs(0, (1, 0)) == [1.5, 1.5]
    found = scan_equilibria(inst, eps_improve=0.0)
    assert [p.choice for p in found] == [(0, 1), (1, 0)]
    _assert_entry_points_match(inst, oracle.DEFAULT_PROFILE_CAP)
    _assert_oracle_lists_the_engine_equilibria(inst)


@settings(max_examples=100, deadline=None)
@given(st.one_of(tie_rich_instances(), seeded_instances()))
def test_oracle_lists_exactly_the_engine_equilibria(inst):
    _assert_oracle_lists_the_engine_equilibria(inst)
    _assert_entry_points_match(inst, oracle.profile_count(inst))


@settings(max_examples=300, deadline=None)
@given(one_demand_instances())
def test_equal_demand_instances_match_brute_force_bit_for_bit(inst):
    # one demand for every commodity, over several endpoint pairs and runs,
    # equal ones not adjacent included: the scan counts users
    assert oracle._Indexed(inst).tables is not None
    _assert_entry_points_match(inst, oracle.profile_count(inst))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(one_demand_instances(), one_demand_instances(snap=False)),
    st.sampled_from([-1.0, 0.0, 1e-9, 0.25]),
)
def test_the_count_verdict_is_the_engine_rule_on_every_state(inst, eps):
    # On every state the loads of its user counts are a rebuild's, and the
    # verdict from the cost-by-count tables is `CompiledGame.stable` asked of
    # every player of the state's canonical profile at those loads.
    g = inst.compiled
    idx = oracle._Indexed(inst)
    assert idx.tables is not None
    for state, users in idx.states():
        choice = oracle._canonical(state)
        loads = [g.repeated_sums[u] for u in users]
        assert idx.loads(users) == loads == engine._loads(g, choice)
        assert idx.stable(state, users, eps) == g.stable(enumerate(choice), loads, eps)


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("price", PRICE_FAMILIES)
def test_oracle_lists_exactly_the_engine_equilibria_on_diamonds(n, price):
    # Braess diamonds have exact ties between paths, which random instances
    # almost never have; the priced-identity n=6 "after" diamond has 42 profiles
    # that a load-difference test and summed path costs decided differently.
    params = {"beta": 2.5} if price == "saturating" else {}
    for inst in build_priced_braess(n, PriceSpec(price, params)):
        _assert_oracle_lists_the_engine_equilibria(inst)


def test_an_edge_whose_slope_underflows_keeps_its_load():
    # On e0, c1 * a = 1e-400 rounds to 0, yet c1 * (a * f) at the load
    # f = 2e100 is 2e-300, more than e1's 1.5e-300: the scan must add the
    # demands of such an edge too, or (0, 0) passes as an equilibrium.
    inst = prepare(
        GameInstance(
            ("s", "t"),
            (
                EdgeSpec("e0", "s", "t", 1e-200, 0.0, c1=1e-200, c2=1.0),
                EdgeSpec("e1", "s", "t", 0.0, 1.5e-300),
            ),
            (Commodity("p", "s", "t", 1e100), Commodity("q", "s", "t", 1e100)),
        )
    )
    assert inst.compiled.slope[0] == 0.0
    found = scan_equilibria(inst, eps_improve=0.0)
    assert [p.choice for p in found] == [(0, 1), (1, 0)]
    _assert_oracle_lists_the_engine_equilibria(inst)


def test_load_free_deviations_match_brute_force():
    # Paths that differ only in zero-slope edges are compared without loads;
    # random instances almost never have such edges.
    inst = prepare(
        GameInstance(
            ("s", "v", "t"),
            (
                EdgeSpec("sv", "s", "v", 1.0, 0.0),
                EdgeSpec("vt1", "v", "t", 0.0, 1.0),
                EdgeSpec("vt2", "v", "t", 0.0, 2.0),
                EdgeSpec("vt3", "v", "t", 0.0, 1.0),
            ),
            (Commodity("p0", "s", "t", 0.5), Commodity("p1", "s", "t", 1.0)),
        )
    )
    _assert_entry_points_match(inst, oracle.DEFAULT_PROFILE_CAP)
    assert [p.choice for p in scan_equilibria(inst)] == [
        (0, 0), (0, 2), (2, 0), (2, 2)
    ]


def _stdout(capsys, argv):
    assert main(argv + ["--format", "json"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", ["poa", "enumerate"])
def test_log1p_diamond_n10_matches_golden(capsys, tmp_path, command):
    _, after = build_priced_braess(10, PriceSpec("log1p"))
    scenario = tmp_path / "diamond10.json"
    scenario.write_text(serialize_scenario(after))
    out = _stdout(capsys, [command, str(scenario)])
    assert out == (DATA / f"diamond10-log1p-{command}.json").read_text()


def test_classic_n4_enumerate_matches_golden(capsys, tmp_path):
    # 21 equilibria in 4 states, whose costs 1.625, 1.8125 and 2.0 the report
    # prints from the oracle's one pass
    _, after = build_classic_braess(4)
    scenario = tmp_path / "classic4.json"
    scenario.write_text(serialize_scenario(after))
    out = _stdout(capsys, ["enumerate", str(scenario)])
    assert out == (DATA / "classic4-after-enumerate.json").read_text()


def test_two_endpoint_pairs_enumerate_matches_golden(capsys):
    # three players s->t and two s->u of demand 0.5 share the edges sv, sw
    # and vw, in the runs (p1, p2), (q1, q2) and (p3): the scan counts users
    # over several runs, and the report is the golden's bytes
    out = _stdout(capsys, ["enumerate", str(DATA / "two-pairs5.json")])
    assert out == (DATA / "two-pairs5-enumerate.json").read_text()


def test_braess_priced_sin_n10_matches_golden(capsys):
    out = _stdout(capsys, ["braess", "priced", "--n", "10", "--price", "sin"])
    assert out == (DATA / "braess-priced-sin-n10.json").read_text()
