import contextlib
import dataclasses
import gc
import json
import math
import random
import signal
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routegame import model
from routegame.braess import build_classic_braess
from routegame.model import (
    Commodity,
    EdgeSpec,
    GameInstance,
    PathEnumerationError,
    ScenarioError,
    enumerate_paths,
    json_text,
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


_SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-308, 1e308]
_SPECIAL_TEXT = ["", "\x00\x1f\x7f", "\ud800 \udfff", "é ☃ 😀", '"\\/\n\t']
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(_SPECIAL_FLOATS),
    st.text(),
    st.sampled_from(_SPECIAL_TEXT),
)
_JSON_KEYS = st.text() | st.sampled_from(_SPECIAL_TEXT)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids)
    | st.lists(kids).map(tuple)
    | st.dictionaries(_JSON_KEYS, kids),
    max_leaves=40,
)
# containers of one scalar type, which the writer hands to C functions whole
_JSON_FLAT = st.one_of(
    st.lists(st.floats(allow_subnormal=True) | st.sampled_from(_SPECIAL_FLOATS)),
    st.dictionaries(_JSON_KEYS, st.floats() | st.sampled_from(_SPECIAL_FLOATS)),
    st.lists(st.text() | st.sampled_from(_SPECIAL_TEXT)).map(tuple),
    st.dictionaries(_JSON_KEYS, st.text()),
    st.dictionaries(_JSON_KEYS, st.lists(st.text()) | st.lists(st.floats())),
)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES | _JSON_FLAT)
def test_json_text_writes_the_bytes_of_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


def test_json_text_writes_each_occurrence_of_a_shared_object():
    path, costs = ("sv", "vw"), [0.5, math.inf]
    inner = {"p": path, "q": [path, costs]}
    obj = {"u1": path, "u2": path, "u3": [inner, inner, path], "u4": costs, "u5": inner}
    assert json_text(obj) == json.dumps(obj, indent=2)


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


def _mutated(change):
    doc = json.loads(MINIMAL_DOC)
    change(doc)
    return json.dumps(doc)


def _edge(**fields):
    return lambda doc: doc["edges"][0].update(fields)


def _commodity(**fields):
    return lambda doc: doc["commodities"][0].update(fields)


def _price(price):
    return _edge(price=price)


def _second(kind, **fields):
    """Append a copy of the first edge or commodity with `fields` changed."""
    return lambda doc: doc[kind].append({**doc[kind][0], **fields})


def _drop(kind, key):
    return lambda doc: doc[kind][0].pop(key)


# Every message parse_scenario raises, and which one wins where an item is
# wrong in two ways: keys before types, the id before the nodes, the nodes
# before the numbers, the numbers before the price.
PARSE_ERRORS = [
    ("{nope", "invalid JSON: Expecting property name enclosed in double quotes:"
     " line 1 column 2 (char 1)"),
    (MINIMAL_DOC.replace("1.0", "NaN", 1), "invalid JSON: non-finite number NaN"),
    (MINIMAL_DOC.replace("1.0", "1e999", 1), "invalid JSON: non-finite number 1e999"),
    ("[]", "scenario document must be a JSON object"),
    (_mutated(lambda d: d.update(extra=1)), "scenario: unknown fields ['extra']"),
    (_mutated(lambda d: d.pop("commodities")), "scenario: missing fields ['commodities']"),
    (_mutated(lambda d: d.update(nodes="ab")),
     "'nodes' must be an array of nonempty strings"),
    (_mutated(lambda d: d.update(nodes=["a", ""])),
     "'nodes' must be an array of nonempty strings"),
    (_mutated(lambda d: d.update(nodes=["a", 1])),
     "'nodes' must be an array of nonempty strings"),
    (_mutated(lambda d: d.update(nodes=["a", "b", "a"])), "duplicate node label"),
    (_mutated(lambda d: d.update(edges={})), "'edges' must be an array"),
    (_mutated(lambda d: d["edges"].append(["ab"])), "edge entries must be objects"),
    (_mutated(_edge(x=1, a="bad")), "edge 'ab': unknown fields ['x']"),
    (_mutated(_drop("edges", "c2")), "edge 'ab': missing fields ['c2']"),
    (_mutated(_drop("edges", "id")), "edge '?': missing fields ['id']"),
    (_mutated(_edge(id="")), "edge '': field 'id' must be a nonempty string"),
    (_mutated(_edge(id=7)), "edge 7.0: field 'id' must be a nonempty string"),
    (_mutated(_edge(id=True, to="zzz")), "edge True: field 'id' must be a nonempty string"),
    (_mutated(_second("edges", a="bad")), "duplicate edge id 'ab'"),
    (_mutated(_edge(**{"from": ""})), "edge 'ab': field 'from' must be a nonempty string"),
    (_mutated(_edge(to=1)), "edge 'ab': field 'to' must be a nonempty string"),
    (_mutated(_edge(to=["b"])), "edge 'ab': field 'to' must be a nonempty string"),
    (_mutated(_edge(to="zzz", a="bad")), "edge 'ab': unknown node reference"),
    (_mutated(_edge(**{"from": "zzz"})), "edge 'ab': unknown node reference"),
    (_mutated(_edge(a=True)), "edge 'ab': field 'a' must be a number"),
    (_mutated(_edge(b="1", price=1)), "edge 'ab': field 'b' must be a number"),
    (_mutated(_edge(c1=None)), "edge 'ab': field 'c1' must be a number"),
    (_mutated(_edge(c2=[])), "edge 'ab': field 'c2' must be a number"),
    (_mutated(_second("edges", id="ba", c2=False)), "edge 'ba': field 'c2' must be a number"),
    (_mutated(_price("zero")), "edge 'ab': 'price' must be an object"),
    (_mutated(_price({})), "edge 'ab' price: missing fields ['fn']"),
    (_mutated(_price({"fn": "zero", "x": 1})), "edge 'ab' price: unknown fields ['x']"),
    (_mutated(_price({"fn": ""})), "edge 'ab' price: field 'fn' must be a nonempty string"),
    (_mutated(_price({"fn": 1})), "edge 'ab' price: field 'fn' must be a nonempty string"),
    (_mutated(_price({"fn": "zero", "params": []})),
     "edge 'ab': price 'params' must be an object"),
    (_mutated(_price({"fn": "saturating", "params": {"beta": True}})),
     "edge 'ab': price parameter 'beta' must be a number"),
    (_mutated(_price({"fn": "cubic"})), "edge 'ab': unknown price family 'cubic'"),
    (_mutated(_price({"fn": "saturating"})),
     "edge 'ab': saturating price requires parameter 'beta'"),
    (_mutated(_price({"fn": "saturating", "params": {"beta": 0}})),
     "edge 'ab': saturating 'beta' must be a positive finite number"),
    (_mutated(_price({"fn": "zero", "params": {"k": 1}})),
     "edge 'ab': unexpected parameters for 'zero': ['k']"),
    (_mutated(lambda d: [
        d["edges"][0].update(price={"fn": "saturating", "params": {"beta": 1}}),
        d["edges"].append({**d["edges"][0], "id": "ba",
                           "price": {"fn": "saturating", "params": {"beta": True}}}),
    ]), "edge 'ba': price parameter 'beta' must be a number"),
    (_mutated(lambda d: d.update(commodities=None)), "'commodities' must be an array"),
    (_mutated(lambda d: d["commodities"].append("c2")),
     "commodity entries must be objects"),
    (_mutated(_commodity(weight=1)), "commodity 'c1': unknown fields ['weight']"),
    (_mutated(_drop("commodities", "sink")), "commodity 'c1': missing fields ['sink']"),
    (_mutated(_drop("commodities", "id")), "commodity '?': missing fields ['id']"),
    (_mutated(_commodity(id="")), "commodity '': field 'id' must be a nonempty string"),
    (_mutated(_commodity(id=["c1"], sink="zzz")),
     "commodity ['c1']: field 'id' must be a nonempty string"),
    (_mutated(_second("commodities", demand="x")), "duplicate commodity id 'c1'"),
    (_mutated(_commodity(source=1)),
     "commodity 'c1': field 'source' must be a nonempty string"),
    (_mutated(_commodity(sink="")), "commodity 'c1': field 'sink' must be a nonempty string"),
    (_mutated(_commodity(sink="zzz", demand="x")), "commodity 'c1': unknown node reference"),
    (_mutated(_commodity(demand=True)), "commodity 'c1': field 'demand' must be a number"),
    (_mutated(_second("commodities", id="c2", demand={})),
     "commodity 'c2': field 'demand' must be a number"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_every_parse_error_message(text, message):
    with pytest.raises(ScenarioError) as raised:
        parse_scenario(text)
    assert str(raised.value) == message


def test_edges_with_equal_prices_share_one_price_spec():
    doc = json.loads(MINIMAL_DOC)
    doc["nodes"].append("c")
    price = {"fn": "saturating", "params": {"beta": 2}}
    doc["edges"] = [
        {**doc["edges"][0], "id": eid, "from": tail, "to": head, "price": dict(price)}
        for eid, tail, head in (("ab", "a", "b"), ("bc", "b", "c"), ("ac", "a", "c"))
    ]
    doc["edges"][2]["price"]["params"] = {"beta": 3}
    specs = [e.price for e in parse_scenario(json.dumps(doc)).edges]
    assert specs[0] is specs[1] and specs[0] == PriceSpec("saturating", {"beta": 2.0})
    assert specs[2] == PriceSpec("saturating", {"beta": 3.0})


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
    # a back edge makes the graph cyclic and adds no simple path
    back = EdgeSpec("b", "n3", "n1", 1.0, 0.0)
    inst = dataclasses.replace(inst, edges=inst.edges + (back,))
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


def test_prepare_shares_strategy_sets_of_equal_endpoints(monkeypatch):
    # one call per endpoint pair, through the module attribute: perfbench's
    # tracer counts the paths listed by wrapping model.enumerate_paths
    listed, real = [], model.enumerate_paths

    def counted(*args, **kwargs):
        listed.append(args[1].id)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "enumerate_paths", counted)
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
    assert listed == ["x", "y"] and inst.paths[0] is inst.paths[2]
    for c, plist in zip(inst.commodities, inst.paths):
        assert list(plist) == enumerate_paths(inst, c)


def _all_simple_paths(inst, source, sink):
    """Every simple source-sink path as edge ids, by breadth-first extension
    of walks over the edges in instance order, then sorted: no ordered walk,
    no counting and no pruning."""
    walks = [((), (source,))]
    found = []
    while walks:
        ids, nodes = walks.pop(0)
        if nodes[-1] == sink:
            found.append(ids)
            continue
        for e in inst.edges:
            if e.tail == nodes[-1] and e.head not in nodes:
                walks.append((ids + (e.id,), nodes + (e.head,)))
    return sorted(found)


def _random_graph(rng):
    """Up to 7 nodes and 14 edges: cycles, parallel edges and ids such as e2
    and e10 (which sort as strings), a sink that may be unreachable or equal
    to the source, and rarely an id used twice."""
    n = rng.randint(1, 7)
    nodes = tuple(f"n{i}" for i in range(n))
    edges = []
    for j in rng.sample(range(20), rng.randint(0, 14)):
        tail, head = rng.choice(nodes), rng.choice(nodes)
        if tail != head:
            eid = f"e{rng.randrange(20)}" if rng.random() < 0.05 else f"e{j}"
            edges.append(EdgeSpec(eid, tail, head, 1.0, 0.0))
    source, sink = rng.choice(nodes), rng.choice(nodes)
    return GameInstance(nodes, tuple(edges), (Commodity("x", source, sink, 1.0),))


def _assert_rows_match(inst, c, paths):
    assert len(paths.rows) == len(paths)
    for path, row in zip(paths, paths.rows):
        assert tuple(inst.edges[k].id for k in row) == path
        assert _is_walk(inst, row, c.source, c.sink)
    for j in range(len(paths) - 1):  # equal id tuples: in edge-number order
        if paths[j] == paths[j + 1]:
            assert paths.rows[j] < paths.rows[j + 1]


def _is_walk(inst, row, source, sink):
    node = source
    for k in row:
        if inst.edges[k].tail != node:
            return False
        node = inst.edges[k].head
    return node == sink


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_enumeration_matches_an_independent_enumerator(seed):
    rng = random.Random(seed)
    inst = _random_graph(rng)
    c = inst.commodities[0]
    expected = _all_simple_paths(inst, c.source, c.sink)
    if not expected:
        with pytest.raises(PathEnumerationError, match="no path"):
            enumerate_paths(inst, c)
        return
    paths = enumerate_paths(inst, c)
    assert type(paths) is list and paths == expected
    # the cap, at exactly the count and one below it
    assert enumerate_paths(inst, c, cap=len(expected)) == expected
    with pytest.raises(PathEnumerationError, match=f"more than {len(expected) - 1} "):
        enumerate_paths(inst, c, cap=len(expected) - 1)
    plist = prepare(inst).paths[0]
    assert plist == tuple(expected) and plist.edges is inst.edges
    _assert_rows_match(inst, c, plist)


def _grid(k):
    node = "g{}_{}".format
    edges = [
        EdgeSpec(f"{tag}{i}_{j}", node(i, j), node(i + di, j + dj), 1.0, 0.0)
        for i in range(k) for j in range(k)
        for di, dj, tag in ((0, 1, "r"), (1, 0, "d")) if i + di < k and j + dj < k
    ]
    nodes = tuple(node(i, j) for i in range(k) for j in range(k))
    return GameInstance(
        nodes, tuple(edges), (Commodity("x", node(0, 0), node(k - 1, k - 1), 1.0),)
    )


@contextlib.contextmanager
def _seconds_at_most(limit):
    """Fail when the block takes `limit` seconds or more; where the platform
    has an interval timer, stop the block at ten times that instead of letting
    an exponential walk run on."""
    timer = getattr(signal, "setitimer", None)
    if timer is not None:
        def expire(signum, frame):
            raise TimeoutError(f"still running after {10 * limit} s")

        old = signal.signal(signal.SIGALRM, expire)
        timer(signal.ITIMER_REAL, 10 * limit)
    start = time.perf_counter()
    try:
        yield
    finally:
        if timer is not None:
            timer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
    assert time.perf_counter() - start < limit


def test_a_30x30_grid_hits_the_cap_before_building_a_path():
    # C(58, 29), about 3e16 paths: counted per node, none built
    inst = _grid(30)
    too_many = pytest.raises(PathEnumerationError, match="more than 10000 simple paths")
    with _seconds_at_most(1.0), too_many:
        prepare(inst)


def _dead_end_chain(diamonds, back_edge):
    """One s-t edge, and a chain of diamonds off s that never reaches t: 2**n
    walks into the dead branch, with a back edge inside it if asked."""
    edges = [EdgeSpec("st", "s", "t", 1.0, 0.0)]
    for i in range(diamonds):
        for mid in "ab":
            edges.append(EdgeSpec(f"{mid}{i}in", f"c{i}", f"{mid}{i}", 1.0, 0.0))
            edges.append(EdgeSpec(f"{mid}{i}out", f"{mid}{i}", f"c{i + 1}", 1.0, 0.0))
    edges.append(EdgeSpec("sc", "s", "c0", 1.0, 0.0))
    if back_edge:
        edges.append(EdgeSpec("back", f"c{diamonds}", "c1", 1.0, 0.0))
    nodes = ("s", "t") + tuple(
        f"{x}{i}" for i in range(diamonds + 1) for x in ("c", "a", "b")
    )
    return GameInstance(nodes, tuple(edges), (Commodity("x", "s", "t", 1.0),))


@pytest.mark.parametrize("back_edge", [False, True])
def test_dead_ends_cost_nothing(back_edge):
    inst = _dead_end_chain(40, back_edge)
    assert validate_instance(inst).ok
    with _seconds_at_most(1.0):
        prepared = prepare(inst)
    assert prepared.paths == ((("st",),),)


def test_memory_grows_with_the_paths_listed_not_with_their_suffixes():
    # A 300-edge chain, then 8 diamonds: 256 paths of 316 edges. Their ids
    # and rows hold about 160k tuple slots (1.3 MB); keeping every node's
    # paths to the sink as well would hold about 26M (over 200 MB). `prepare`
    # only counts them, as they are searched; reading every row lists them.
    edges = [EdgeSpec(f"c{i}", f"n{i}", f"n{i + 1}", 1.0, 0.0) for i in range(300)]
    for i in range(300, 308):
        for mid in "ab":
            edges.append(EdgeSpec(f"{mid}{i}in", f"n{i}", f"{mid}{i}", 1.0, 0.0))
            edges.append(EdgeSpec(f"{mid}{i}out", f"{mid}{i}", f"n{i + 1}", 1.0, 0.0))
    nodes = tuple({n: None for e in edges for n in (e.tail, e.head)})
    inst = GameInstance(nodes, tuple(edges), (Commodity("x", "n0", "n308", 1.0),))
    tracemalloc.start()
    try:
        plist = prepare(inst).paths[0]
        rows = list(plist.rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plist) == 256 and len(plist[0]) == len(rows[-1]) == 316
    assert peak < 4_000_000


def test_a_path_longer_than_the_recursion_limit_is_listed():
    n = sys.getrecursionlimit() + 100
    edges = tuple(EdgeSpec(f"c{i}", f"n{i}", f"n{i + 1}", 1.0, 0.0) for i in range(n))
    nodes = tuple(f"n{i}" for i in range(n + 1))
    inst = GameInstance(nodes, edges, (Commodity("x", "n0", f"n{n}", 1.0),))
    assert enumerate_paths(inst, inst.commodities[0]) == [tuple(e.id for e in edges)]


def test_compile_reads_the_rows_of_its_own_edges_only():
    inst = build_classic_braess(2)[1]
    g = inst.compiled
    assert all(rows is plist.rows for rows, plist in zip(g.paths, inst.paths))
    # the same strategy sets over the edges in another order: mapped by id
    flipped = dataclasses.replace(inst, edges=inst.edges[::-1])
    assert flipped.paths[0].edges is not flipped.edges
    index = {e.id: k for k, e in enumerate(flipped.edges)}
    assert flipped.compiled.paths[0] == tuple(
        tuple(index[eid] for eid in p) for p in flipped.paths[0]
    )
    assert flipped.compiled.paths[0] != inst.compiled.paths[0]


def test_compile_maps_a_duplicate_id_to_its_first_edge():
    inst = prepare(
        GameInstance(
            ("s", "t"),
            (EdgeSpec("e", "s", "t", 1.0, 0.0), EdgeSpec("e", "s", "t", 2.0, 0.0)),
            (Commodity("x", "s", "t", 1.0),),
        )
    )
    assert inst.paths[0] == (("e",), ("e",)) and inst.paths[0].rows == ((0,), (1,))
    assert inst.compiled.paths[0] == ((0,), (0,))


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
