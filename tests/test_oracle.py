import importlib.util
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routegame import engine, oracle
from routegame.braess import build_classic_braess, build_priced_braess
from routegame.engine import StrategyProfile
from routegame.model import Commodity, EdgeSpec, GameInstance, prepare
from routegame.pricing import PriceSpec
from routegame.random_instances import random_affine_instance


def single_path_instance(k=5):
    return prepare(
        GameInstance(
            ("a", "b"),
            (EdgeSpec("ab", "a", "b", 1.0, 0.0),),
            tuple(Commodity(f"c{i}", "a", "b", 0.2) for i in range(k)),
        )
    )


def scan_equilibria(
    inst, cap=oracle.DEFAULT_PROFILE_CAP, eps_improve=oracle.DEFAULT_EPS_IMPROVE
):
    """Every equilibrium the oracle's scan lists, in profile-index order,
    without its cost."""
    return [p for p, _ in oracle._scan(inst, cap, eps_improve, keep=True).equilibria]


def stable(inst, prof, eps=oracle.DEFAULT_EPS_IMPROVE):
    """`CompiledGame.stable` of the profile, asked once per player, at its
    loads summed from scratch."""
    g = inst.compiled
    return g.stable(enumerate(prof.choice), engine._loads(g, prof.choice), eps)


def scan_optimum(inst, cap=oracle.DEFAULT_PROFILE_CAP):
    """The oracle scan's optimal profile and its social cost."""
    scan = oracle._scan(inst, cap, oracle.DEFAULT_EPS_IMPROVE, optimum=True)
    return scan.optimum, scan.optimal_cost


def test_profile_count_product_rule(classic_pair_2):
    _, after = classic_pair_2
    assert oracle.profile_count(after) == 9
    assert oracle.profile_count(single_path_instance(5)) == 1


def test_profile_count_mixed_radices():
    nodes = ("a", "b", "c", "d", "e", "f")
    edges = []
    for hop, (s, t, m) in enumerate([("a", "b", 2), ("c", "d", 3), ("e", "f", 4)]):
        for j in range(m):
            edges.append(EdgeSpec(f"e{hop}{j}", s, t, 1.0, 0.0))
    commodities = (
        Commodity("x", "a", "b", 1.0),
        Commodity("y", "c", "d", 1.0),
        Commodity("z", "e", "f", 1.0),
    )
    inst = prepare(GameInstance(nodes, tuple(edges), commodities))
    assert oracle.profile_count(inst) == 24


def parallel_hops(sizes):
    """One commodity per entry of `sizes`, routed over its own hop of that
    many parallel edges; equal sizes share one hop, so one strategy set."""
    hops = sorted(set(sizes))
    nodes = tuple(f"{end}{m}" for m in hops for end in "st")
    edges = tuple(
        EdgeSpec(f"e{m}.{j}", f"s{m}", f"t{m}", 1.0, 0.0) for m in hops for j in range(m)
    )
    commodities = tuple(
        Commodity(f"c{i}", f"s{m}", f"t{m}", 1.0) for i, m in enumerate(sizes)
    )
    return prepare(GameInstance(nodes, edges, commodities))


def test_profile_count_is_the_exact_product_of_set_sizes():
    rng = random.Random(26)
    for _ in range(50):
        sizes = [rng.randint(1, 7) for _ in range(rng.randint(1, 60))]
        assert oracle.profile_count(parallel_hops(sizes)) == math.prod(sizes)
    for n in (2, 10, 1000):
        for inst in build_classic_braess(n):
            assert oracle.profile_count(inst) == math.prod(map(len, inst.paths))


def test_classic_without_shortcut_has_exactly_the_splits(classic_pair_2):
    before, _ = classic_pair_2
    found = scan_equilibria(before)
    assert found == [StrategyProfile((0, 1)), StrategyProfile((1, 0))]


def test_all_zigzag_is_found_with_shortcut(classic_pair_2):
    _, after = classic_pair_2
    found = scan_equilibria(after)
    assert StrategyProfile((1, 1)) in found


def test_single_path_instance_unique_profile():
    inst = single_path_instance()
    assert scan_equilibria(inst) == [StrategyProfile((0,) * 5)]
    prof, sc = scan_optimum(inst)
    assert prof == StrategyProfile((0,) * 5)
    report = oracle.price_of_anarchy(inst)
    assert report.poa == 1.0


def test_optimal_profile_classic_split(classic_pair_2):
    _, after = classic_pair_2
    prof, sc = scan_optimum(after)
    assert sc == pytest.approx(1.5, abs=1e-12)
    # one player per side path, lowest profile index wins the tie
    assert sorted(prof.choice) == [0, 2]


def test_optimal_profile_of_a_large_run_is_its_canonical_digits():
    # 2**40 profiles in 41 states: the optimum's lowest-index profile is built
    # from its state's digits, not found among its C(40, 20) orderings
    before, _ = build_classic_braess(40)
    prof, _ = scan_optimum(before, cap=2**63)
    assert prof.choice == (0,) * 20 + (1,) * 20


def test_optimal_profile_priced_identity():
    _, after = build_priced_braess(2, PriceSpec("identity"))
    prof, sc = scan_optimum(after)
    assert sc == pytest.approx((5 + 2 * 1.0) / 4.0, abs=1e-12)


def test_poa_classic_is_four_thirds(classic_pair_2):
    _, after = classic_pair_2
    report = oracle.price_of_anarchy(after)
    assert report.poa == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert report.within_bound
    assert report.equilibrium_count >= 1
    assert report.worst_equilibrium_cost == pytest.approx(2.0, abs=1e-12)


def test_cap_exceeded_raises(classic_pair_2):
    _, after = classic_pair_2
    with pytest.raises(oracle.ProfileCapError):
        scan_equilibria(after, cap=8)
    with pytest.raises(oracle.ProfileCapError):
        scan_optimum(after, cap=8)


def test_requires_prepared_instance():
    inst = GameInstance(
        ("a", "b"),
        (EdgeSpec("ab", "a", "b", 1.0, 0.0),),
        (Commodity("c", "a", "b", 1.0),),
    )
    with pytest.raises(ValueError, match="prepare"):
        oracle.profile_count(inst)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dynamics_finals_appear_in_oracle_list(seed):
    rng = random.Random(seed)
    inst = random_affine_instance(rng, max_profiles=500)
    equilibria = scan_equilibria(inst)
    start = StrategyProfile(tuple(rng.randrange(len(p)) for p in inst.paths))
    result = engine.run_best_response_dynamics(inst, start)
    assert result.converged
    assert result.final in equilibria


def test_worst_equilibrium_tie_break_is_lowest_index(classic_pair_2):
    before, _ = classic_pair_2
    report = oracle.price_of_anarchy(before)
    # the two split equilibria tie on social cost; index order decides
    assert report.worst_equilibrium_profile == StrategyProfile((0, 1))


def _perfbench_checks():
    """perfbench/checks.py, which shares no code with routegame, read-only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


@pytest.mark.parametrize("n", [20, 60, 100])
def test_large_diamonds_match_an_independent_path_count_scan(n):
    # the benchmark's own enumeration over path counts, with its own cost
    # arithmetic, on every priced family and the classic diamond
    checks = _perfbench_checks()
    families = [("zero", {}), ("identity", {}), ("sin", {}), ("log1p", {}),
                ("saturating", {"beta": 1.0})]
    for fn, params in families:
        if fn == "zero":
            (_, after), c1, c2 = build_classic_braess(n), 1.0, 0.0
        else:
            (_, after), c1, c2 = build_priced_braess(n, PriceSpec(fn, params)), 0.5, 0.5
        report = oracle.price_of_anarchy(after, cap=3**n)
        want = checks.diamond_poa(n, c1, c2, checks.unit_price(fn, params, 1.0 / n))
        assert report.equilibrium_count == want["count"], fn
        assert checks.close(report.optimal_cost, want["optimal"]), fn
        assert checks.close(report.worst_equilibrium_cost, want["worst"]), fn


# terms with all 53 bits in use: m * 2^e, from subnormal to near the float max
_TERMS = st.builds(
    math.ldexp,
    st.integers(min_value=2**52, max_value=2**53 - 1),
    st.integers(min_value=-60, max_value=-40)
    | st.integers(min_value=-1126, max_value=-1070)
    | st.integers(min_value=940, max_value=970),
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_TERMS, min_size=3, max_size=3),
    st.lists(st.integers(min_value=1, max_value=10**6), min_size=3, max_size=3),
    st.sets(st.integers(min_value=0, max_value=2), min_size=1),
    st.lists(st.just(0.0) | st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5),
)
def test_state_social_cost_has_the_bits_of_the_repeated_terms(terms, counts, used, loads):
    # a run of the diamond's 3 paths with drawn load-free terms and counts:
    # the state's cost is the exact sum with each used path's term repeated
    _, after = build_priced_braess(2, PriceSpec("log1p"))
    idx = oracle._Indexed(after)
    idx.multiples = [[oracle._Multiples({1: [t]}) for t in terms]]
    used = sorted(used)
    counts = [counts[d] for d in used]
    repeated = itertools.chain.from_iterable(
        itertools.repeat(terms[d], c) for d, c in zip(used, counts)
    )
    want = idx.g.social_cost(loads, repeated)
    got = idx.social_cost([(used, counts)], loads)
    assert got.hex() == want.hex()
