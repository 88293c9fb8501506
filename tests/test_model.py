import dataclasses
import gc
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routegame.braess import build_classic_braess
from routegame.model import (
    Commodity,
    EdgeSpec,
    GameInstance,
    PathEnumerationError,
    ScenarioError,
    enumerate_paths,
    parse_scenario,
    prepare,
    serialize_scenario,
    validate_instance,
)
from routegame.pricing import PriceSpec

MINIMAL_DOC = json.dumps(
    {
        "nodes": ["a", "b"],
        "edges": [
            {
                "id": "ab",
                "from": "a",
                "to": "b",
                "a": 1.0,
                "b": 0.0,
                "c1": 1.0,
                "c2": 0.0,
                "price": {"fn": "zero", "params": {}},
            }
        ],
        "commodities": [{"id": "c1", "source": "a", "sink": "b", "demand": 1.0}],
    }
)


def test_parse_minimal_document():
    inst = parse_scenario(MINIMAL_DOC)
    assert len(inst.nodes) == 2
    assert len(inst.edges) == 1
    assert len(inst.commodities) == 1
    assert inst.commodities[0].demand == 1.0


def test_classic_braess_round_trips_through_the_builder():
    before, after = build_classic_braess(4)
    for built in (before, after):
        parsed = parse_scenario(serialize_scenario(built))
        assert parsed == dataclasses.replace(built, paths=())


def test_round_trip_stability():
    text = serialize_scenario(parse_scenario(MINIMAL_DOC))
    assert parse_scenario(text) == parse_scenario(serialize_scenario(parse_scenario(text)))
    assert serialize_scenario(parse_scenario(text)) == text


def _doc_with_edge(**overrides):
    doc = json.loads(MINIMAL_DOC)
    doc["edges"][0].update(overrides)
    return json.dumps(doc)


def test_parse_rejects_schema_violations():
    with pytest.raises(ScenarioError, match="unknown fields"):
        parse_scenario(json.dumps({**json.loads(MINIMAL_DOC), "extra": 1}))
    with pytest.raises(ScenarioError, match="missing fields"):
        parse_scenario(json.dumps({"nodes": [], "edges": []}))
    with pytest.raises(ScenarioError, match="unknown node"):
        parse_scenario(_doc_with_edge(to="zzz"))
    with pytest.raises(ScenarioError, match="must be a number"):
        parse_scenario(_doc_with_edge(a="one"))
    with pytest.raises(ScenarioError, match="invalid JSON"):
        parse_scenario("{nope")


def test_parse_rejects_duplicates_and_bad_demand():
    doc = json.loads(MINIMAL_DOC)
    doc["commodities"].append(dict(doc["commodities"][0]))
    with pytest.raises(ScenarioError, match="duplicate commodity"):
        parse_scenario(json.dumps(doc))
    doc = json.loads(MINIMAL_DOC)
    doc["commodities"][0]["demand"] = "1"
    with pytest.raises(ScenarioError, match="'demand' must be a number"):
        parse_scenario(json.dumps(doc))
    # a number out of range is an instance; validation rejects it
    doc["commodities"][0]["demand"] = 0
    assert validate_instance(parse_scenario(json.dumps(doc))).violations == (
        "commodity 'c1': demand must be positive",
    )


def test_lenient_parse_defers_value_checks_to_validation():
    inst = parse_scenario(_doc_with_edge(c1=0.6, c2=0.5))
    report = validate_instance(inst)
    assert any("not normalized" in v for v in report.violations)


# ---------------------------------------------------------------------------
# path enumeration


def test_classic_braess_path_sets():
    before, after = build_classic_braess(2)
    assert before.paths[0] == (("sv", "vt"), ("sw", "wt"))
    assert after.paths[0] == (("sv", "vt"), ("sv", "vw", "wt"), ("sw", "wt"))


def test_single_edge_graph_has_one_path():
    inst = parse_scenario(MINIMAL_DOC)
    assert enumerate_paths(inst, inst.commodities[0]) == [("ab",)]


def test_no_path_is_an_error():
    inst = GameInstance(
        ("a", "b", "c"),
        (EdgeSpec("ab", "a", "b", 1.0, 0.0),),
        (Commodity("x", "a", "c", 1.0),),
    )
    with pytest.raises(PathEnumerationError, match="no path"):
        enumerate_paths(inst, inst.commodities[0])


def test_path_cap_is_enforced():
    # two parallel edges per hop over 4 hops: 16 simple paths
    nodes = tuple(f"n{i}" for i in range(5))
    edges = []
    for i in range(4):
        for j in range(2):
            edges.append(EdgeSpec(f"e{i}{j}", f"n{i}", f"n{i+1}", 1.0, 0.0))
    inst = GameInstance(nodes, tuple(edges), (Commodity("x", "n0", "n4", 1.0),))
    assert len(enumerate_paths(inst, inst.commodities[0], cap=16)) == 16
    with pytest.raises(PathEnumerationError, match="more than 15"):
        enumerate_paths(inst, inst.commodities[0], cap=15)


def _count_simple_paths_oracle(inst, source, sink):
    # independent node-based recursion over successor nodes
    succ = {}
    for e in inst.edges:
        succ.setdefault(e.tail, []).append(e.head)

    def count(node, seen):
        if node == sink:
            return 1
        total = 0
        for nxt in succ.get(node, []):
            if nxt not in seen:
                total += count(nxt, seen | {nxt})
        return total

    return count(source, {source})


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_enumeration_matches_recursive_count_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    nodes = tuple(f"n{i}" for i in range(n))
    edges = []
    for j in range(rng.randint(1, 12)):
        tail, head = rng.sample(nodes, 2)
        edges.append(EdgeSpec(f"e{j}", tail, head, 1.0, 0.0))
    inst = GameInstance(nodes, tuple(edges), (Commodity("x", nodes[0], nodes[-1], 1.0),))
    expected = _count_simple_paths_oracle(inst, nodes[0], nodes[-1])
    if expected == 0:
        with pytest.raises(PathEnumerationError):
            enumerate_paths(inst, inst.commodities[0])
    else:
        paths = enumerate_paths(inst, inst.commodities[0])
        # no parallel edges generated above, so edge paths == node paths
        assert len(paths) == expected
        assert paths == sorted(paths)
        assert paths == enumerate_paths(inst, inst.commodities[0])  # deterministic


def test_parallel_edges_yield_distinct_paths():
    inst = GameInstance(
        ("a", "b"),
        (EdgeSpec("e1", "a", "b", 1.0, 0.0), EdgeSpec("e0", "a", "b", 0.0, 1.0)),
        (Commodity("x", "a", "b", 1.0),),
    )
    assert enumerate_paths(inst, inst.commodities[0]) == [("e0",), ("e1",)]


def test_prepare_leaves_no_cyclic_garbage():
    # A reference cycle per call (such as a closure that calls itself) is
    # freed only by the cycle collector; DEBUG_SAVEALL keeps what it finds.
    inst = parse_scenario(
        (Path(__file__).parent / "data" / "grid6.json").read_text(encoding="utf-8")
    )
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        prepare(inst)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_prepare_shares_strategy_sets_of_equal_endpoints():
    inst = prepare(
        GameInstance(
            ("a", "b", "c"),
            (
                EdgeSpec("ab", "a", "b", 1.0, 0.0),
                EdgeSpec("bc", "b", "c", 1.0, 0.0),
                EdgeSpec("ac", "a", "c", 1.0, 0.0),
            ),
            (
                Commodity("x", "a", "c", 1.0),
                Commodity("y", "b", "c", 1.0),
                Commodity("z", "a", "c", 0.5),
            ),
        )
    )
    assert inst.paths[0] is inst.paths[2]
    for c, plist in zip(inst.commodities, inst.paths):
        assert list(plist) == enumerate_paths(inst, c)


# ---------------------------------------------------------------------------
# validation


def test_valid_classic_instance_has_no_violations():
    before, after = build_classic_braess(2)
    assert validate_instance(before).ok
    assert validate_instance(after).ok


def test_negative_slope_is_reported():
    inst = GameInstance(
        ("a", "b"),
        (EdgeSpec("ab", "a", "b", -1.0, 0.0),),
        (Commodity("x", "a", "b", 1.0),),
    )
    assert any(
        "negative congestion slope" in v for v in validate_instance(inst).violations
    )


def test_unreachable_sink_is_reported():
    inst = GameInstance(
        ("a", "b", "c"),
        (EdgeSpec("ab", "a", "b", 1.0, 0.0),),
        (Commodity("x", "a", "c", 1.0),),
    )
    assert any("no s-t path" in v for v in validate_instance(inst).violations)


def test_non_finite_numbers_are_reported():
    nan, inf = float("nan"), float("inf")
    inst = GameInstance(
        ("a", "b"),
        (
            EdgeSpec("e1", "a", "b", nan, 0.0),
            EdgeSpec("e2", "a", "b", 1.0, inf),
        ),
        (Commodity("x", "a", "b", inf),),
    )
    violations = validate_instance(inst).violations
    for eid in ("e1", "e2"):
        assert f"edge {eid!r}: non-finite number" in violations
    assert "commodity 'x': demand must be finite" in violations
    # a non-finite price parameter cannot reach an instance
    with pytest.raises(ValueError, match="finite"):
        PriceSpec("saturating", {"beta": inf})


def test_parse_rejects_non_finite_numbers():
    # the last two overflow the float range
    for number in ("NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400):
        text = MINIMAL_DOC.replace('"a": 1.0', f'"a": {number}')
        with pytest.raises(ScenarioError, match="non-finite number"):
            parse_scenario(text)
    doc = json.loads(MINIMAL_DOC)
    doc["edges"][0]["price"] = {"fn": "saturating", "params": {"beta": 2.5}}
    with pytest.raises(ScenarioError, match="non-finite number"):
        parse_scenario(json.dumps(doc).replace("2.5", "1e999"))


def test_price_domain_violation_is_reported():
    sin = PriceSpec("sin")
    edges = (
        EdgeSpec("ab", "a", "b", 1.0, 0.0, 0.5, 0.5, sin),
        EdgeSpec("cb", "c", "b", 1.0, 0.0, 0.5, 0.5, sin),  # c is not reachable from a
        EdgeSpec("ab0", "a", "b", 1.0, 0.0, 1.0, 0.0, sin),  # price weight zero
    )
    inst = GameInstance(("a", "b", "c"), edges, (Commodity("x", "a", "b", 2.0),))
    assert validate_instance(inst).violations == (
        "commodity 'x': demand 2.0 outside the price domain of edge 'ab' ('sin')",
    )
    small = dataclasses.replace(inst, commodities=(Commodity("x", "a", "b", 1.5),))
    assert validate_instance(small).ok
    prepare(small).compiled  # and it compiles


def test_validation_never_mutates(classic_pair_2):
    before, _ = classic_pair_2
    snapshot = dataclasses.replace(before)
    validate_instance(before)
    assert before == snapshot


def test_prepare_populates_sorted_nonempty_paths():
    inst = prepare(parse_scenario(MINIMAL_DOC))
    assert inst.prepared
    assert validate_instance(inst).ok
