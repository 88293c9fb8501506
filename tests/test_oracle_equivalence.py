"""The single-pass oracle against a frozen copy of the original multi-pass one.

Every comparison is exact (==): worst-equilibrium and optimum tie-breaks and
the printed reports depend on every bit of every social cost.
"""

import dataclasses
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_oracle as ref
from routegame import oracle
from routegame.braess import build_classic_braess, build_priced_braess
from routegame.cli import main
from routegame.engine import StrategyProfile
from routegame.model import Commodity, EdgeSpec, GameInstance, prepare, serialize_scenario
from routegame.pricing import PriceSpec
from routegame.random_instances import random_affine_instance

DATA = Path(__file__).parent / "data"


def _plain(value):
    # each module has its own PoAReport class; compare the fields
    if isinstance(value, (oracle.PoAReport, ref.PoAReport)):
        return dataclasses.asdict(value)
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the name of the oracle error it raised."""
    try:
        return _plain(fn(*args, **kwargs))
    except (oracle.ProfileCapError, oracle.NoEquilibriumError,
            ref.ProfileCapError, ref.NoEquilibriumError) as exc:
        return type(exc).__name__


def _ref_equilibria_and_poa(inst, cap, eps):
    # the two scans the enumerate command made before the single pass
    return ref.find_all_equilibria(inst, cap, eps), ref.price_of_anarchy(inst, cap, eps)


def _assert_entry_points_match(inst, cap, eps):
    for name in ("find_all_equilibria", "worst_equilibrium", "price_of_anarchy"):
        got = _outcome(getattr(oracle, name), inst, cap, eps)
        assert got == _outcome(getattr(ref, name), inst, cap, eps), name
    assert _outcome(oracle.optimal_profile, inst, cap) == _outcome(
        ref.optimal_profile, inst, cap
    )
    assert _outcome(oracle.equilibria_and_poa, inst, cap, eps) == _outcome(
        _ref_equilibria_and_poa, inst, cap, eps
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_entry_points_match_reference_bit_for_bit(seed):
    rng = random.Random(seed)
    inst = random_affine_instance(rng)
    eps = rng.choice([0.0, 1e-9, 0.05])
    total = oracle.profile_count(inst)
    cap = rng.choice([total, max(total - 1, 1), oracle.DEFAULT_PROFILE_CAP])
    _assert_entry_points_match(inst, cap, eps)


def _repeated(inst, rng, max_profiles=2000):
    """`inst` with commodity i repeated reps[i] (1-4) times in place and, when
    there are two or more commodities, commodity 0 once more at the end: equal
    to the first run but not adjacent to it (A, B, A). Repeats are cut down,
    largest first, until the profile count is at most `max_profiles`."""
    commodities = inst.commodities
    sizes = [len(p) for p in inst.paths]
    reps = [rng.randint(1, 4) for _ in commodities]
    extra = [0] if len(commodities) > 1 else []

    def count():
        return math.prod(s**r for s, r in zip(sizes, reps)) * math.prod(
            sizes[i] for i in extra
        )

    while count() > max_profiles and max(reps) > 1:
        reps[reps.index(max(reps))] -= 1
    if count() > max_profiles:
        extra = []
    repeated = [
        dataclasses.replace(c, id=f"{c.id}.{k}")
        for c, r in zip(commodities, reps)
        for k in range(r)
    ]
    repeated += [dataclasses.replace(commodities[i], id="again") for i in extra]
    return prepare(dataclasses.replace(inst, commodities=tuple(repeated), paths=()))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(317)  # the winner's state does not have the least canonical cost
def test_repeated_commodities_match_reference_bit_for_bit(seed):
    # Runs of equal commodities are scanned as path-count states; the full
    # scan's winner need not be a state's canonical (sorted) profile.
    rng = random.Random(seed)
    inst = _repeated(random_affine_instance(rng), rng)
    eps = rng.choice([0.0, 1e-9, 0.05])
    total = oracle.profile_count(inst)
    cap = rng.choice([total, max(total - 1, 1), total + 1])
    _assert_entry_points_match(inst, cap, eps)


def _parallel_edges(b0, b1):
    # two players of demand 1 on two parallel unit-slope edges
    return prepare(
        GameInstance(
            ("s", "t"),
            (EdgeSpec("e0", "s", "t", 1.0, b0), EdgeSpec("e1", "s", "t", 1.0, b1)),
            (Commodity("p", "s", "t", 1.0), Commodity("q", "s", "t", 1.0)),
        )
    )


def test_winner_need_not_be_the_canonical_profile():
    # (0, 1) and (1, 0) share loads but add the load-free terms 0.7 and 0.1 in
    # different orders: (2 + 0.7) + 0.1 != (2 + 0.1) + 0.7
    cheap = _parallel_edges(0.7, 0.1)
    g = cheap.compiled
    terms = [g.load_free_cost(0, 0), g.load_free_cost(1, 1)]
    assert g.social_cost([1.0, 1.0], terms) == 2.8000000000000003
    report = oracle.price_of_anarchy(cheap)
    assert report.optimal_profile.choice == (1, 0)
    assert report.optimal_cost == 2.8
    dear = _parallel_edges(0.1, 0.7)
    worst, cost, count = oracle.worst_equilibrium(dear)
    assert (worst.choice, cost, count) == ((1, 0), 2.8000000000000003, 2)
    for inst in (cheap, dear):
        for eps in (0.0, 1e-9, 0.05):
            _assert_entry_points_match(inst, oracle.DEFAULT_PROFILE_CAP, eps)


def test_state_with_an_overflowing_canonical_cost_is_kept():
    # At loads (1, 1) the two orders of the load-free terms 2**971 and 2**970
    # after A = max - 2**971 give inf for the canonical (0, 1) and max for
    # (1, 0), the optimum; (0, 0) and (1, 1) cost inf. The state of (0, 1) has
    # no finite cost or bound, and only keeping it finds the optimum.
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
    assert oracle.optimal_profile(inst) == (StrategyProfile((1, 0)), top)
    for eps in (0.0, 1e-9, 0.05):
        _assert_entry_points_match(inst, oracle.DEFAULT_PROFILE_CAP, eps)


def test_no_equilibrium_raises_like_reference():
    # with a negative tolerance every profile has an "improving" deviation
    _, after = build_classic_braess(2)
    assert oracle.find_all_equilibria(after, eps_improve=-1.0) == []
    cap = oracle.DEFAULT_PROFILE_CAP
    _assert_entry_points_match(after, cap, -1.0)
    assert _outcome(oracle.price_of_anarchy, after, cap, -1.0) == "NoEquilibriumError"


def test_loads_sum_demands_in_player_order():
    # Three players with demands 0.1, 0.2, 0.3 share edge sv, where the sum
    # depends on the grouping; the scan must add them in player order.
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
    for eps in (0.0, 1e-9, 0.05):
        _assert_entry_points_match(inst, oracle.DEFAULT_PROFILE_CAP, eps)


def test_load_free_deviations_match_reference():
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
    for eps in (0.0, 1e-9, 0.05):
        _assert_entry_points_match(inst, oracle.DEFAULT_PROFILE_CAP, eps)
    assert [p.choice for p in oracle.find_all_equilibria(inst)] == [
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


def test_braess_priced_sin_n10_matches_golden(capsys):
    out = _stdout(capsys, ["braess", "priced", "--n", "10", "--price", "sin"])
    assert out == (DATA / "braess-priced-sin-n10.json").read_text()
