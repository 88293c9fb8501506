"""Fuzz the command line in-process: mutated scenario JSON and random argv.

The property: every call of `main` ends in exit 0, 1 or 2 (an argparse
SystemExit(2) counts), no other exception escapes, every scenario that
`validate` accepts runs under `poa`, `enumerate` and `equilibrate` to exit 0
or 1, and every scenario that `validate` rejects with exit 1 makes all three
exit 1. Base scenarios and flag values stay small, so the whole test takes a
few seconds.
"""

import contextlib
import copy
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routegame.braess import build_classic_braess, build_priced_braess
from routegame.cli import main
from routegame.model import serialize_scenario
from routegame.pricing import PriceSpec
from routegame.random_instances import random_affine_instance


def _bases():
    classic_before, classic_after = build_classic_braess(2)
    _, sin_after = build_priced_braess(2, PriceSpec("sin"))
    _, saturating_after = build_priced_braess(
        4, PriceSpec("saturating", {"beta": 2.0}), 0.25, 0.75
    )
    instances = [classic_before, classic_after, sin_after, saturating_after]
    instances += [random_affine_instance(random.Random(seed)) for seed in range(4)]
    docs = [json.loads(serialize_scenario(inst)) for inst in instances]
    # degenerate but valid: no players at all, and a game where nothing costs
    free = copy.deepcopy(docs[0])
    for edge in free["edges"]:
        edge["a"] = edge["b"] = 0.0
    return docs + [{"nodes": [], "edges": [], "commodities": []}, free]


BASES = _bases()

VALUES = st.one_of(
    st.sampled_from(
        [0, 0.0, -0.0, -1.0, 0.5, 1.0, 2.0, 3.0, 1e-300, 5e-324, 1e308, 10**400,
         True, None, "", "s", "t", "v", "w", "n0", "n1", "sv", "u1", [], {},
         "zero", "identity", "sin", "log1p", "saturating", "cubic", {"beta": 0.5},
         {"beta": -1.0}, {"beta": "x"}, {"fn": "sin"}, {"fn": "saturating"}]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.text(max_size=3),
)

COMMON_FLAGS = [
    ["--format", "json"], ["--format", "csv"], ["--format", "table"],
    ["--format", "xml"], ["--epsilon", "0"], ["--epsilon", "0.05"],
    ["--epsilon=-1"], ["--epsilon=nan"], ["--epsilon", "x"], ["--cap", "1"],
    ["--cap", "50"], ["--cap", "0"], ["--max-moves", "0"], ["--max-moves", "3"],
    ["--max-moves=-1"], ["--workers", "2"], ["--workers", "0"], ["--seed", "7"],
    ["--bogus"], ["extra"],
]

BRAESS_FLAGS = [
    ["--price", "sin"], ["--price", "saturating"], ["--price", "identity"],
    ["--price", "cubic"], ["--beta", "2"], ["--beta", "0"], ["--beta=inf"],
    ["--beta=nan"], ["--beta", "1e308"], ["--c1", "0"], ["--c2", "1"],
    ["--c1", "1"], ["--c2", "0"], ["--c1=nan"], ["--c2", "2"],
    ["--method", "dynamics"], ["--method", "oracle"], ["--method", "walk"],
] + COMMON_FLAGS

CURVE_FLAGS = [
    ["--functions", "sin"], ["--functions", "sin,log1p"], ["--functions", ","],
    ["--functions", "saturating"], ["--functions", "cubic"], ["--samples", "2"],
    ["--samples", "13"], ["--samples", "1"], ["--samples=-5"], ["--x-max", "1"],
    ["--x-max", "0"], ["--x-max=-1"], ["--x-max=nan"], ["--x-max=inf"],
    ["--x-max", "3"], ["--x-max", "1.5707963267948966"], ["--x-max", "1e308"],
    ["--x-max", "5e-324"], ["--beta", "0.5"], ["--beta", "0"], ["--beta=inf"],
    ["--beta=-1"],
]


def _slots(node):
    """Every (container, key) pair in a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _mutated_scenario(data) -> str:
    doc = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    for _ in range(data.draw(st.integers(0, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = data.draw(st.sampled_from(slots))
        op = data.draw(st.sampled_from(["set", "set", "delete", "copy", "add"]))
        if op == "set":
            container[key] = copy.deepcopy(data.draw(VALUES))
        elif op == "delete":
            del container[key]
        elif op == "copy":
            if isinstance(container, list):
                container.insert(key, copy.deepcopy(container[key]))
        elif isinstance(container[key], dict):  # add a field
            container[key][data.draw(st.text(max_size=3))] = copy.deepcopy(
                data.draw(VALUES)
            )
    text = json.dumps(doc)
    if data.draw(st.integers(0, 9)) == 0:
        text = text[: data.draw(st.integers(0, len(text)))]
    return text


def _flags(data, pool):
    return [f for flags in data.draw(st.lists(st.sampled_from(pool), max_size=4))
            for f in flags]


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2), argv
    return code


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "scenario.json")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_input_ends_in_a_documented_exit_code(scenario_path, data):
    with open(scenario_path, "w", encoding="utf-8") as fh:
        fh.write(_mutated_scenario(data))
    kind = data.draw(st.sampled_from(["scenario", "braess", "pair", "curves"]))
    if kind == "scenario":
        command = data.draw(st.sampled_from(["validate", "poa", "enumerate", "equilibrate"]))
        _exit_code([command, scenario_path, *_flags(data, COMMON_FLAGS)])
    elif kind == "braess":
        variant = data.draw(st.sampled_from(["classic", "priced"]))
        n = data.draw(st.sampled_from(["2", "4", "0", "3", "-2"]))
        _exit_code(["braess", variant, f"--n={n}", *_flags(data, BRAESS_FLAGS)])
    elif kind == "pair":
        _exit_code(["braess", "pair", scenario_path, scenario_path,
                    *_flags(data, COMMON_FLAGS)])
    else:
        _exit_code(["price-curves", *_flags(data, CURVE_FLAGS)])

    verdict = _exit_code(["validate", scenario_path])
    if verdict != 2:
        for command in ("poa", "enumerate", "equilibrate"):
            code = _exit_code([command, scenario_path])
            assert code in ((0, 1) if verdict == 0 else (1,)), command
