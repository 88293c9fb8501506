"""What a command imports, the lazy package namespace, and the exit codes of
errors whose classes live in `model`, each read in a fresh process where
nothing but what the command ran is imported."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import routegame
from routegame import braess, engine, model, oracle
from routegame.model import serialize_scenario

SRC = str(Path(routegame.__file__).parent.parent)
DATA = Path(__file__).parent / "data"
BASE = ["routegame", "routegame.cli", "routegame.model", "routegame.pricing"]

# Imports routegame.cli, runs main(argv) with stdout discarded, and prints the
# routegame modules loaded before and after as one JSON line.
LOADED = """
import contextlib, io, json, sys
import routegame.cli
loaded = lambda: sorted(n for n in sys.modules if n.split(".")[0] == "routegame")
before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = routegame.cli.main(sys.argv[1:]) if sys.argv[1:] else None
print(json.dumps([before, loaded(), code]))
"""


def _python(*args):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


def _loaded(*argv):
    done = _python("-c", LOADED, *argv)
    assert done.returncode == 0, done.stderr
    before, after, code = json.loads(done.stdout)
    assert before == BASE
    return sorted(set(after) - set(before)), code


@pytest.fixture(scope="module")
def diamond(tmp_path_factory):
    """The classic Braess network with its shortcut, two players: a scanned set."""
    path = tmp_path_factory.mktemp("imports") / "after.json"
    path.write_text(serialize_scenario(braess.build_classic_braess(2)[1]))
    return str(path)


def test_importing_the_cli_loads_model_and_pricing_only():
    assert _loaded() == ([], None)


@pytest.mark.parametrize(
    "argv, added",
    [
        (["validate", str(DATA / "grid6.json")], []),
        (["equilibrate", "{diamond}"], ["routegame.engine"]),
        (["equilibrate", str(DATA / "grid7.json")], ["routegame.engine", "routegame.search"]),
        (["poa", "{diamond}"], ["routegame.engine", "routegame.oracle"]),
        (["enumerate", "{diamond}"], ["routegame.engine", "routegame.oracle"]),
        (
            ["braess", "classic", "--n", "2"],
            ["routegame.braess", "routegame.engine", "routegame.oracle"],
        ),
    ],
)
def test_each_command_imports_only_the_modules_it_runs(diamond, argv, added):
    argv = [a.format(diamond=diamond) for a in argv]
    assert _loaded(*argv, "--format", "json") == (added, 0)


def test_price_curves_imports_nothing_more():
    assert _loaded("price-curves", "--samples", "2") == ([], 0)


def test_a_submodule_resolves_after_a_bare_package_import():
    script = (
        "import sys, routegame\n"
        "assert [n for n in sys.modules if n.startswith('routegame')] == ['routegame']\n"
        "assert routegame.oracle is sys.modules['routegame.oracle']\n"
        "assert routegame.price_of_anarchy is routegame.oracle.price_of_anarchy\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr


def test_every_exported_name_is_its_defining_modules_object():
    modules = [
        importlib.import_module(f"routegame.{m}")
        for m in ("braess", "engine", "model", "oracle", "pricing")
    ]
    for name in routegame.__all__:
        value = getattr(routegame, name)
        homes = [m for m in modules if hasattr(m, name)]
        assert homes, name
        assert all(getattr(m, name) is value for m in homes), name
    assert set(routegame.__all__) <= set(dir(routegame))
    assert {"engine", "oracle", "braess"} <= set(dir(routegame))


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        routegame.no_such_name
    assert not hasattr(routegame, "no_such_name")


def test_names_moved_into_model_are_the_same_objects():
    for module, names in (
        (engine, ["DEFAULT_EPS_IMPROVE", "DEFAULT_MAX_MOVES"]),
        (oracle, ["DEFAULT_PROFILE_CAP", "ProfileCapError", "NoEquilibriumError",
                  "profile_count"]),
        (braess, ["NotConvergedError"]),
    ):
        for name in names:
            assert getattr(module, name) is getattr(model, name), name


@pytest.fixture(scope="module")
def bad_files(diamond, tmp_path_factory):
    root = tmp_path_factory.mktemp("bad")
    doc = json.loads(Path(diamond).read_text())
    unnormalized = json.loads(json.dumps(doc))
    unnormalized["edges"][0]["c1"] = 0.7
    (root / "unnormalized.json").write_text(json.dumps(unnormalized))
    no_path = json.loads(json.dumps(doc))
    no_path["nodes"].append("z")
    no_path["commodities"][0]["sink"] = "z"
    (root / "no-path.json").write_text(json.dumps(no_path))
    (root / "junk.json").write_text("{not json")
    return root


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["poa", "{diamond}", "--cap", "1"], 1, "error: 9 profiles exceed cap 1\n"),
        (["braess", "classic", "--n", "4", "--epsilon", "-1"], 1,
         "error: exhaustive search found no pure equilibrium\n"),
        (["braess", "classic", "--n", "4", "--method", "dynamics", "--max-moves", "0"], 1,
         "error: dynamics did not converge within 0 moves\n"),
        (["poa", "{root}/unnormalized.json"], 1,
         "error: edge 'sv': mixing coefficients not normalized\n"),
        (["equilibrate", "{root}/no-path.json"], 1, "error: commodity 'u1': no s-t path\n"),
        (["poa", "{root}/junk.json"], 2,
         "error: invalid JSON: Expecting property name enclosed in double quotes:"
         " line 1 column 2 (char 1)\n"),
        (["enumerate", "{root}"], 2, "error: [Errno 21] Is a directory: '{root}'\n"),
        (["poa", "{root}/missing.json"], 2,
         "error: [Errno 2] No such file or directory: '{root}/missing.json'\n"),
    ],
)
def test_errors_keep_their_exit_codes_in_a_fresh_process(
    diamond, bad_files, argv, code, err
):
    fill = dict(diamond=diamond, root=bad_files)
    done = _python("-m", "routegame", *(a.format(**fill) for a in argv))
    assert (done.returncode, done.stdout, done.stderr) == (
        code, b"", err.format(**fill).encode()
    )
