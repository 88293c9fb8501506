import argparse
import csv
import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import routegame
from routegame import braess, cli
from routegame.braess import build_classic_braess, build_priced_braess, rho_formula
from routegame.cli import build_parser, main
from routegame.model import parse_scenario, serialize_scenario, validate_instance
from routegame.pricing import PriceSpec, eval_u


@pytest.fixture()
def classic_after_file(tmp_path):
    _, after = build_classic_braess(2)
    path = tmp_path / "after.json"
    path.write_text(serialize_scenario(after))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(capsys, classic_after_file):
    code, doc, _ = run_json(capsys, "validate", classic_after_file)
    assert code == 0
    assert doc["valid"] is True
    assert doc["violations"] == []


def test_validate_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line" in err  # parse failure carries position info


def test_deeply_nested_json_is_a_usage_error_without_traceback(tmp_path):
    # json.loads raises RecursionError here; a separate process shows the
    # exit code and the stderr a user would see
    deep = tmp_path / "deep.json"
    nodes = "[" * 5000 + "]" * 5000
    deep.write_text('{"nodes": ' + nodes + ', "edges": [], "commodities": []}')
    env = {**os.environ, "PYTHONPATH": str(Path(routegame.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-m", "routegame", "validate", str(deep)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: invalid JSON: nesting too deep\n"


def test_validate_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2


def test_validate_unnormalized_mixing_lists_edge(capsys, tmp_path, classic_after_file):
    doc = json.loads(open(classic_after_file).read())
    doc["edges"][0]["c1"] = 0.6
    doc["edges"][0]["c2"] = 0.5
    path = tmp_path / "unnorm.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_json(capsys, "validate", str(path))
    assert code == 1
    assert any("sv" in v and "not normalized" in v for v in out["violations"])


# ---------------------------------------------------------------------------
# equilibrate / enumerate / poa


def test_equilibrate_classic_after(capsys, classic_after_file):
    code, doc, _ = run_json(capsys, "equilibrate", classic_after_file)
    assert code == 0
    assert doc["converged"] is True
    # dynamics samples one of the weak equilibria of the 2-player diamond
    assert doc["social_cost"] in (
        pytest.approx(1.5, abs=1e-9),
        pytest.approx(1.75, abs=1e-9),
        pytest.approx(2.0, abs=1e-9),
    )


def test_equilibrate_single_path_converges_immediately(capsys, tmp_path):
    doc = {
        "nodes": ["a", "b"],
        "edges": [
            {
                "id": "ab", "from": "a", "to": "b", "a": 1.0, "b": 0.0,
                "c1": 1.0, "c2": 0.0, "price": {"fn": "zero", "params": {}},
            }
        ],
        "commodities": [{"id": "c", "source": "a", "sink": "b", "demand": 1.0}],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_json(capsys, "equilibrate", str(path))
    assert code == 0
    assert out["moves"] == 0


def test_equilibrate_negative_move_cap_is_usage_error(capsys, classic_after_file):
    code, out, err = run(capsys, "equilibrate", classic_after_file, "--max-moves", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--max-moves" in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--epsilon", "nan"),
        ("--epsilon", "inf"),
        ("--epsilon", "-inf"),
        ("--cap", "0"),
        ("--cap", "-5"),
    ],
)
def test_out_of_range_flag_is_usage_error(capsys, classic_after_file, flag, value):
    code, out, err = run(capsys, "poa", classic_after_file, f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and flag in err


def test_finite_negative_epsilon_is_accepted(capsys, classic_after_file):
    # every profile then has an "improving" deviation: a domain failure, exit 1
    code, out, err = run(capsys, "poa", classic_after_file, "--epsilon=-1")
    assert code == 1
    assert "no pure equilibrium" in err


def test_negative_epsilon_dynamics_never_converge(capsys, classic_after_file):
    # staying put saves 0 > -1, so no profile passes the deviation rule, and
    # the dynamics must not report convergence once nobody moves
    code, doc, _ = run_json(capsys, "equilibrate", classic_after_file, "--epsilon=-1")
    assert code == 1
    assert doc["converged"] is False


@pytest.mark.parametrize("command", ["validate", "poa"])
@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_scenario_number_is_rejected(
    capsys, tmp_path, classic_after_file, command, constant
):
    path = tmp_path / "nonfinite.json"
    text = open(classic_after_file).read()
    path.write_text(text.replace('"a": 1.0', f'"a": {constant}', 1))
    assert path.read_text() != text
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err


def test_price_domain_violation_fails_validation(capsys, tmp_path, classic_after_file):
    doc = json.loads(open(classic_after_file).read())
    doc["edges"][0].update(c1=0.5, c2=0.5, price={"fn": "sin", "params": {}})
    doc["commodities"][0]["demand"] = 2.0
    path = tmp_path / "sin-demand-2.json"
    path.write_text(json.dumps(doc))
    code, doc, _ = run_json(capsys, "validate", str(path))
    assert code == 1
    assert doc["valid"] is False
    assert any("price domain" in v for v in doc["violations"])


@pytest.mark.parametrize("command", ["poa", "enumerate", "equilibrate"])
def test_price_domain_violation_is_a_domain_failure(
    capsys, tmp_path, classic_after_file, command
):
    doc = json.loads(open(classic_after_file).read())
    doc["edges"][0].update(c1=0.5, c2=0.5, price={"fn": "sin", "params": {}})
    doc["commodities"][0]["demand"] = 2.0
    path = tmp_path / "sin-demand-2.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err == (
        "error: commodity 'u1': demand 2.0 outside the price domain"
        " of edge 'sv' ('sin')\n"
    )


@pytest.fixture()
def overflow_files(tmp_path):
    # the classic n=2 diamond with a = 1e308 on its variable edges and two
    # demands of 1e10: every number is finite, its costs are not
    paths = []
    for role, inst in zip(("before", "after"), build_classic_braess(2)):
        text = serialize_scenario(inst)
        text = text.replace('"a": 1.0', '"a": 1e308').replace(
            '"demand": 0.5', '"demand": 10000000000.0'
        )
        path = tmp_path / f"overflow-{role}.json"
        path.write_text(text)
        paths.append(str(path))
    return paths


OVERFLOW = "costs overflow the float range at the total demand 20000000000.0"


def test_cost_overflow_fails_validation(capsys, overflow_files):
    code, doc, _ = run_json(capsys, "validate", overflow_files[1])
    assert code == 1
    assert doc["violations"] == [OVERFLOW]


@pytest.mark.parametrize(
    "argv",
    [["poa"], ["enumerate"], ["equilibrate"], ["braess", "pair", "BEFORE"]],
)
def test_cost_overflow_is_a_domain_failure(capsys, overflow_files, argv):
    before, after = overflow_files
    argv = [before if a == "BEFORE" else a for a in argv] + [after]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert out == ""
    assert err == f"error: {OVERFLOW}\n"


def _invalid(doc, case):
    """The classic n=2 "after" diamond `doc`, broken in one way."""
    sv, vt, _, wt, vw = doc["edges"]
    u1 = doc["commodities"][0]
    if case == "negative-a":
        sv["a"] = -1.0
    elif case == "negative-b":
        vt["b"] = -1.0
    elif case == "unnormalized":
        sv.update(c1=0.6, c2=0.5)
    elif case == "self-loop":
        vw["to"] = "v"
    elif case == "source-is-sink":
        u1["sink"] = "s"
    elif case == "zero-demand":
        u1["demand"] = 0.0
    elif case == "no-path":
        doc["nodes"].append("x")
        u1["sink"] = "x"
    elif case == "walk-only-sin":
        # v -> s lies on the walk s, v, s, w, t but on no simple s-t path
        doc["edges"].append(dict(vw, id="vs", to="s", c1=0.5, c2=0.5,
                                 price={"fn": "sin", "params": {}}))
        u1["demand"] = 2.0
    else:  # overflow
        sv["a"] = wt["a"] = 1e308
        for c in doc["commodities"]:
            c["demand"] = 1e10
    return doc


@pytest.mark.parametrize(
    "case, violation",
    [
        ("negative-a", "edge 'sv': negative congestion slope"),
        ("negative-b", "edge 'vt': negative congestion intercept"),
        ("unnormalized", "edge 'sv': mixing coefficients not normalized"),
        ("self-loop", "edge 'vw': self-loop forbidden"),
        ("source-is-sink", "commodity 'u1': source equals sink"),
        ("zero-demand", "commodity 'u1': demand must be positive"),
        ("no-path", "commodity 'u1': no s-t path"),
        ("walk-only-sin",
         "commodity 'u1': demand 2.0 outside the price domain of edge 'vs' ('sin')"),
        ("overflow", OVERFLOW),
    ],
)
def test_every_command_rejects_what_validate_rejects(
    capsys, tmp_path, classic_after_file, case, violation
):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(_invalid(json.loads(open(classic_after_file).read()), case)))
    code, doc, _ = run_json(capsys, "validate", str(path))
    assert code == 1
    assert doc["violations"][0] == violation
    before = tmp_path / "before.json"
    before.write_text(serialize_scenario(build_classic_braess(2)[0]))
    for argv in (["poa"], ["enumerate"], ["equilibrate"], ["braess", "pair", str(before)]):
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out, err) == (1, "", f"error: {violation}\n"), argv


def test_equilibrate_seeds_agree_on_social_cost(capsys, tmp_path):
    # the log1p-priced diamond has a unique equilibrium, so every seed must
    # land on the same social cost
    from routegame.braess import build_priced_braess
    from routegame.pricing import PriceSpec

    _, after = build_priced_braess(2, PriceSpec("log1p"))
    path = tmp_path / "priced.json"
    path.write_text(serialize_scenario(after))
    costs = set()
    for seed in ("0", "1", "2"):
        code, doc, _ = run_json(capsys, "equilibrate", str(path), "--seed", seed)
        assert code == 0
        costs.add(round(doc["social_cost"], 9))
    assert len(costs) == 1


def test_equilibrate_ends_on_an_enumerated_equilibrium_at_epsilon_0(capsys, tmp_path):
    # The priced-identity n=6 "after" diamond has exact ties between paths. At
    # --epsilon 0 a tie is no improvement, for the scan and the dynamics alike.
    from routegame.braess import build_priced_braess
    from routegame.pricing import PriceSpec

    _, after = build_priced_braess(6, PriceSpec("identity"))
    path = tmp_path / "identity6.json"
    path.write_text(serialize_scenario(after))
    code, doc, _ = run_json(capsys, "enumerate", str(path), "--epsilon", "0")
    assert code == 0
    assert doc["equilibrium_count"] == len(doc["equilibria"]) == 43
    listed = [
        [[after.edges[k].id for k in after.paths[i][j]] for i, j in enumerate(choice)]
        for choice in doc["equilibria"]
    ]
    for seed in range(200):
        code, doc, _ = run_json(
            capsys, "equilibrate", str(path), "--epsilon", "0", "--seed", str(seed)
        )
        assert code == 0
        assert list(doc["final_profile"].values()) in listed, seed


def test_a_profile_report_holds_one_tuple_per_path():
    # equilibrate prints `_profile_report`, and `json_text` writes a tuple
    # that players share once: 3 paths for 200 players, not 200 tuples
    from routegame.cli import _profile_report
    from routegame.engine import StrategyProfile

    _, after = build_priced_braess(200, PriceSpec("log1p"))
    choice = tuple(j % 3 for j in range(200))
    report = _profile_report(after, StrategyProfile(choice))
    assert len(report) == 200 and len({id(path) for path in report.values()}) <= 3
    assert list(report.values()) == [
        tuple(after.edges[k].id for k in after.paths[i][j]) for i, j in enumerate(choice)
    ]


def test_poa_classic(capsys, classic_after_file):
    code, doc, _ = run_json(capsys, "poa", classic_after_file)
    assert code == 0
    assert doc["poa"] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert doc["within_bound"] is True
    assert doc["bound"] == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)


def test_enumerate_classic(capsys, classic_after_file):
    code, doc, _ = run_json(capsys, "enumerate", classic_after_file)
    assert code == 0
    assert doc["equilibrium_count"] == len(doc["equilibria"])
    assert [1, 1] in doc["equilibria"]


def test_poa_cap_exceeded(capsys, classic_after_file):
    code, out, err = run(capsys, "poa", classic_after_file, "--cap", "4")
    assert code == 1
    assert "cap" in err


@pytest.mark.parametrize("command", ["poa", "enumerate"])
@pytest.mark.parametrize(
    "n, count",
    [
        (40, str(3**40)),  # above 2**63: counted exactly, then rejected by the cap
        (10_000, "at least 10^4771"),  # 4,772 digits, more than Python prints
    ],
)
def test_more_profiles_than_a_machine_word_exceed_the_cap(
    capsys, tmp_path, command, n, count
):
    _, after = build_priced_braess(n, PriceSpec("log1p"))
    path = tmp_path / "after.json"
    path.write_text(serialize_scenario(after))
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (1, "", f"error: {count} profiles exceed cap 200000\n")


# ---------------------------------------------------------------------------
# braess


@pytest.mark.parametrize("n, count", [(16, 3**16), (18, 2**18), (40, 2**40), (64, 2**64)])
@pytest.mark.parametrize("variant", [["classic"], ["priced", "--price", "sin"]])
def test_braess_beyond_the_cap_is_a_domain_failure(capsys, variant, n, count):
    # the diamond without the shortcut, scanned first, has 2**n profiles, the
    # one with it 3**n: at n = 16 only the second exceeds the cap
    code, out, err = run(capsys, "braess", *variant, "--n", str(n))
    assert (code, out, err) == (1, "", f"error: {count} profiles exceed cap 200000\n")


class DiamondBuilt(Exception):
    pass


@pytest.fixture()
def no_diamond(monkeypatch):
    """braess's diamond builder, made to raise DiamondBuilt if it is called."""

    def build(*args):
        raise DiamondBuilt

    monkeypatch.setattr(braess, "_diamonds", build)


@pytest.mark.parametrize(
    "n, count", [(18, "262144"), (1_000_000, "at least 10^301029")]
)
@pytest.mark.parametrize("variant", [["classic"], ["priced", "--price", "sin"]])
def test_an_oracle_braess_over_the_cap_is_refused_unbuilt(
    capsys, no_diamond, variant, n, count
):
    code, out, err = run(capsys, "braess", *variant, "--n", str(n))
    assert (code, out, err) == (1, "", f"error: {count} profiles exceed cap 200000\n")


@pytest.mark.parametrize(
    "argv, err",
    [(["classic", "--n", "1000001"],
      "error: number of players must be even and positive, got 1000001\n"),
     (["priced", "--n", "1000000", "--price", "sin", "--c1", "0.7"],
      "error: mixing coefficients not normalized\n"),
     (["priced", "--n", "1000001", "--price", "saturating", "--beta", "inf"],
      "error: --beta inf: saturating 'beta' must be a positive finite number\n")],
)
def test_a_braess_usage_error_comes_before_the_cap(capsys, no_diamond, argv, err):
    assert run(capsys, "braess", *argv) == (2, "", err)


@pytest.mark.parametrize(
    "argv",
    [["classic", "--n", "16"],  # 2^16 profiles before, within the cap
     ["classic", "--n", "18", "--method", "dynamics"],
     ["priced", "--n", "18", "--price", "sin", "--emit-scenario", "d"]],
)
def test_a_diamond_within_the_cap_or_not_scanned_first_is_built(
    monkeypatch, tmp_path, no_diamond, argv
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DiamondBuilt):
        main(["braess", *argv])


def test_braess_classic_cli(capsys):
    code, doc, _ = run_json(capsys, "braess", "classic", "--n", "10")
    assert code == 0
    assert doc["rho"] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert doc["formula_rho"] == rho_formula(0.0, 1.0, 0.0)
    assert "price_family" not in doc


def test_braess_priced_cli(capsys):
    code, doc, _ = run_json(
        capsys, "braess", "priced", "--n", "10", "--price", "identity"
    )
    assert code == 0
    assert doc["rho"] == pytest.approx(8.0 / 7.0, abs=1e-12)
    assert doc["formula_rho"] == rho_formula(eval_u(PriceSpec("identity"), 0.1), 0.5, 0.5)
    assert doc["price_family"] == "identity"


@pytest.mark.parametrize("variant", [["classic"], ["priced", "--price", "identity"]])
def test_only_an_oracle_braess_report_prints_the_closed_form(capsys, variant):
    # the closed form is the worst equilibrium's, which the dynamics from the
    # all-zero profile miss on the c2 = 0 diamond: 1.2733 against 4/3
    argv = ["braess", *variant, "--n", "10"]
    _, oracle, _ = run_json(capsys, *argv)
    code, dynamics, _ = run_json(capsys, *argv, "--method", "dynamics")
    assert code == 0
    assert "formula_rho" in oracle and "formula_rho" not in dynamics
    del oracle["formula_rho"]
    assert list(dynamics) == list(oracle)
    if variant == ["classic"]:
        assert dynamics["rho"] < oracle["rho"] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_braess_priced_c1_zero(capsys):
    code, doc, _ = run_json(
        capsys, "braess", "priced", "--n", "10", "--price", "identity",
        "--c1", "0", "--c2", "1",
    )
    assert code == 0
    assert doc["rho"] == pytest.approx(1.0, abs=1e-12)


def test_braess_odd_n_is_usage_error(capsys):
    code, out, err = run(capsys, "braess", "classic", "--n", "3")
    assert code == 2


def test_braess_dynamics_short_of_equilibrium_is_a_domain_failure(capsys):
    code, out, err = run(
        capsys, "braess", "classic", "--n", "2", "--method", "dynamics",
        "--max-moves", "0",
    )
    assert code == 1
    assert out == ""
    assert err == "error: dynamics did not converge within 0 moves\n"


def test_braess_dynamics_at_a_negative_epsilon_names_the_moves_made(capsys):
    # no profile is an equilibrium at a negative epsilon, and the run stops
    # after 2 moves on the diamond without the shortcut, far short of the cap
    code, out, err = run(
        capsys, "braess", "classic", "--n", "4", "--method", "dynamics",
        "--epsilon", "-1",
    )
    assert code == 1
    assert out == ""
    assert err == (
        "error: dynamics stopped after 2 moves: no profile is an equilibrium"
        " at a negative epsilon (-1.0)\n"
    )


def test_braess_pair_without_commodities_is_usage_error(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"nodes": [], "edges": [], "commodities": []}')
    code, out, err = run(capsys, "braess", "pair", str(path), str(path))
    assert code == 2
    assert out == ""
    assert err == "error: instances have no commodities\n"


@pytest.fixture()
def free_file(tmp_path):
    # every profile of this game costs 0
    path = tmp_path / "free.json"
    path.write_text(json.dumps({
        "nodes": ["s", "t"],
        "edges": [{"id": e, "from": "s", "to": "t", "a": 0.0, "b": 0.0,
                   "c1": 1.0, "c2": 0.0, "price": {"fn": "zero"}} for e in "xy"],
        "commodities": [{"id": "p", "source": "s", "sink": "t", "demand": 1.0}],
    }))
    return str(path)


@pytest.mark.parametrize("command", ["poa", "enumerate"])
def test_zero_cost_game_has_poa_one(capsys, free_file, command):
    # the ratio 0/0 is reported as 1, not a traceback
    code, doc, _ = run_json(capsys, command, free_file)
    assert code == 0
    assert doc["optimal_social_cost"] == doc["worst_equilibrium_social_cost"] == 0.0
    assert doc["poa"] == 1.0


def test_zero_cost_pair_has_rho_one(capsys, free_file):
    code, doc, _ = run_json(capsys, "braess", "pair", free_file, free_file)
    assert code == 0
    assert doc["before_cost"] == doc["after_cost"] == 0.0
    assert doc["rho"] == 1.0


def test_braess_emit_scenario_and_pair(capsys, tmp_path):
    prefix = str(tmp_path / "exp")
    code, doc, _ = run_json(
        capsys, "braess", "classic", "--n", "4", "--emit-scenario", prefix
    )
    assert code == 0
    before = parse_scenario((tmp_path / "exp-before.json").read_text())
    after = parse_scenario((tmp_path / "exp-after.json").read_text())
    assert validate_instance(before).ok and validate_instance(after).ok
    code, pair_doc, _ = run_json(
        capsys, "braess", "pair", f"{prefix}-before.json", f"{prefix}-after.json"
    )
    assert code == 0
    assert pair_doc["rho"] == pytest.approx(doc["rho"], abs=1e-12)
    # the closed form is printed for the diamonds the command builds only
    assert "formula_rho" not in pair_doc and "price_family" not in pair_doc


# ---------------------------------------------------------------------------
# price-curves


def test_price_curves_shape(capsys):
    code, out, _ = run(
        capsys, "price-curves", "--functions", "sin,log1p",
        "--samples", "3", "--x-max", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,sin_F,sin_u,log1p_F,log1p_u,y_eq_x"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        x = cells[0]
        assert cells[-1] == x
        assert cells[1] <= x + 1e-12 and cells[3] <= x + 1e-12  # F <= x
    last = lines[-1].split(",")
    assert last[3] == format(math.log(2), ".9g")  # log1p F at x = 1


def test_price_curves_unknown_family(capsys):
    code, out, err = run(capsys, "price-curves", "--functions", "cubic")
    assert code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--x-max=nan"], "--x-max"),
        (["--x-max=inf"], "--x-max"),
        (["--x-max=-1"], "--x-max"),
        (["--x-max=0"], "--x-max"),
        (["--x-max=1e308", "--samples", "100"], "--x-max"),
        (["--functions", "sin", "--x-max", "3"], "'sin'"),
        # pi/2 * 13 / 13 rounds above pi/2: the last sample leaves the domain
        (["--functions", "sin", "--x-max", "1.5707963267948966", "--samples", "13"],
         "'sin'"),
        (["--beta=inf"], "--beta"),
        (["--beta=nan"], "beta"),
        (["--functions", "saturating", "--beta=-1"], "beta"),
    ],
)
def test_price_curves_bad_flag_writes_nothing(capsys, argv, flag):
    code, out, err = run(capsys, "price-curves", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and flag in err


def test_price_curves_sin_up_to_its_domain(capsys):
    code, out, _ = run(
        capsys, "price-curves", "--functions", "sin", "--x-max", "1.5707963267948966",
    )
    assert code == 0
    assert len(out.splitlines()) == 101


@pytest.mark.parametrize("beta", ["inf", "nan", "0"])
def test_braess_non_finite_beta_is_usage_error(capsys, beta):
    code, out, err = run(
        capsys, "braess", "priced", "--n", "2", "--price", "saturating", f"--beta={beta}"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "beta" in err


# ---------------------------------------------------------------------------
# determinism and formats


def test_reports_are_byte_identical(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run(
            capsys, "braess", "priced", "--n", "10", "--price", "sin",
            "--format", "json",
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_table_and_csv_formats(capsys):
    code, out, _ = run(capsys, "braess", "classic", "--n", "2", "--format", "csv")
    assert code == 0
    header, values = out.splitlines()
    assert header.split(",")[0] == "n_players"
    code, out, _ = run(capsys, "braess", "classic", "--n", "2", "--format", "table")
    assert code == 0
    assert any(line.startswith("rho") for line in out.splitlines())


def _csv_rows(out):
    header, values = csv.reader(io.StringIO(out, newline=""))
    assert len(header) == len(values)
    return dict(zip(header, values))


def test_csv_of_an_enumerate_report_reads_back_field_for_field(capsys, classic_after_file):
    _, report, _ = run_json(capsys, "enumerate", classic_after_file)
    code, out, _ = run(capsys, "enumerate", classic_after_file, "--format", "csv")
    assert code == 0
    row = _csv_rows(out)
    assert len(report["equilibria"]) > 1  # the field holds a comma
    assert row["equilibria"] == " ".join(map(str, report["equilibria"]))
    assert row["poa"] == format(report["poa"], ".9g")


def test_csv_quotes_a_commodity_id_with_a_comma_or_a_quote(capsys, tmp_path):
    _, after = build_classic_braess(2)
    doc = json.loads(serialize_scenario(after))
    doc["commodities"][0]["id"] = 'a,b'
    doc["commodities"][1]["id"] = 'say "hi"'
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "equilibrate", str(path), "--format", "csv")
    assert code == 0
    row = _csv_rows(out)
    assert {"final_profile.a,b", 'final_profile.say "hi"'} <= set(row)
    assert row["player_unit_costs.a,b"] == format(
        run_json(capsys, "equilibrate", str(path))[1]["player_unit_costs"]["a,b"], ".9g"
    )


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_keys_keep_the_trailing_dots_of_an_id(capsys, tmp_path, fmt):
    _, after = build_classic_braess(2)
    doc = json.loads(serialize_scenario(after))
    doc["commodities"][0]["id"] = "p"
    doc["commodities"][1]["id"] = "p.."
    path = tmp_path / "dots.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "equilibrate", str(path), "--format", fmt)
    assert code == 0
    if fmt == "csv":
        keys = list(_csv_rows(out))
    else:
        keys = [line.split()[0] for line in out.splitlines()]
    assert keys == [
        "converged", "moves", "final_profile.p", "final_profile.p..",
        "player_unit_costs.p", "player_unit_costs.p..", "social_cost", "potential",
    ]


def test_csv_without_special_characters_is_a_plain_join(capsys):
    code, out, _ = run(capsys, "braess", "classic", "--n", "2", "--format", "csv")
    row = _csv_rows(out)
    assert out == ",".join(row) + "\n" + ",".join(row.values()) + "\n"


# ---------------------------------------------------------------------------
# flag sets

SCENARIO_FLAGS = {"--format", "--epsilon", "--max-moves", "--cap"}
FLAG_SETS = {
    "validate": {"--format"},
    "equilibrate": {"--seed", "--format", "--epsilon", "--max-moves"},
    "enumerate": {"--format", "--epsilon", "--cap"},
    "poa": {"--format", "--epsilon", "--cap"},
    "braess classic": {"--n", "--method", "--emit-scenario"} | SCENARIO_FLAGS,
    "braess priced": {"--n", "--price", "--beta", "--c1", "--c2", "--method",
                      "--emit-scenario"} | SCENARIO_FLAGS,
    "braess pair": {"--method"} | SCENARIO_FLAGS,
    "price-curves": {"--functions", "--samples", "--x-max", "--beta"},
}


def _commands(parser, prefix=""):
    """(command name, its parser) for every leaf subcommand of `parser`."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, f"{prefix}{name} ")
            return
    yield prefix.strip(), parser


def _tree(parser, name=""):
    """(name, parser) for `parser` and, depth first, every parser below it."""
    yield name, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub_name, sub in action.choices.items():
                yield from _tree(sub, f"{name} {sub_name}".lstrip())


def _whole_tree():
    """The reference the CLI's text is held to, made with argparse's own calls
    and not with the code under test: every command's and every variant's
    parser, each filled from the CLI's tables, stock formatters, no metavar."""

    def add(parser, dest, table):
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, (help_line, fill) in table.items():
            kwargs = {} if help_line is None else {"help": help_line}
            p = sub.add_parser(name, **kwargs)
            if fill is cli._fill_braess:
                add(p, "variant", cli._VARIANTS)
            else:
                fill(p)

    parser = argparse.ArgumentParser(
        prog="routegame",
        description="Atomic selfish routing with bulk-discount edge pricing.",
    )
    add(parser, "command", cli._COMMANDS)
    return parser


@pytest.mark.parametrize("columns", [None, "45", "100"])
def test_help_usage_and_errors_keep_every_byte(monkeypatch, capsys, columns):
    # build_parser reads the terminal width once; a stock formatter reads it
    # each time it is made, and must give the same text
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    texts = [
        [(name, p.format_help(), p.format_usage()) for name, p in _tree(parser)]
        for parser in (build_parser(), _whole_tree())
    ]
    assert len(texts[0]) == 10
    assert texts[0] == texts[1]
    argv = ["braess", "priced", "--n", "4", "--method", "exact"]
    errors = []
    for parse in (main, _whole_tree().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr())
    assert errors[0] == errors[1]
    assert "invalid choice: 'exact'" in errors[0].err


def test_build_parser_reads_the_terminal_size_once(monkeypatch):
    calls = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or size(*a))
    build_parser()
    assert len(calls) == 1


def test_each_command_accepts_only_the_flags_it_reads():
    flags = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in _commands(build_parser())
    }
    assert flags == FLAG_SETS
    assert sum(map(len, flags.values())) == 38


COMMANDS = ["validate", "equilibrate", "enumerate", "poa", "braess", "braess classic",
            "braess priced", "braess pair", "price-curves"]
# per command: help, no arguments, an unknown flag, a bad choice, a bad type,
# an extra positional (a flag the command does not read is unknown there), a
# word that names no variant, "--" before, after and twice before a word,
# "=" and abbreviated flags, an abbreviated help, a negative number, a flag
# missing its value and two flags joined to their values
TAILS = [["-h"], [], ["--bogus"], ["--format", "xml"], ["--method", "exact"],
         ["--epsilon", "x"], ["--n", "x"], ["--samples", "x"], ["x.json", "y", "z"],
         ["bogus"], ["--", "x.json"], ["x.json", "--"], ["--format=json", "x.json"],
         ["x.json", "--form", "json"], ["x.json", "-h"], ["--he"], ["-1"],
         ["x.json", "--format"], ["a", "b"], ["--n=4", "--method=dyn"],
         ["--", "--", "x"]]
CORPUS = [cmd.split() + tail for cmd in COMMANDS for tail in TAILS] + [
    [], ["-h"], ["bogus"], ["--", "poa"], ["--x", "validate", "f"],
    ["braess", "--x", "priced", "--n", "2"],
]


def _outcome(capsys, call):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("columns", [None, "45", "100"])
def test_main_answers_as_the_whole_parser_would(monkeypatch, capsys, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    made = [_outcome(capsys, lambda: main(argv)) for argv in CORPUS]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: _whole_tree().parse_args(argv))
    assert [_outcome(capsys, lambda: main(argv)) for argv in CORPUS] == made
    assert sum(code == 2 for code, _, _ in made) > len(CORPUS) // 2


def test_main_reads_argv_from_sys_argv(monkeypatch, capsys):
    argv = ["braess", "priced", "--n", "2", "--price", "sin", "--format", "json"]
    expected = _outcome(capsys, lambda: main(argv))
    monkeypatch.setattr(sys, "argv", ["routegame"] + argv)
    assert _outcome(capsys, main) == expected
    assert expected[0] == 0 and json.loads(expected[1])["n_players"] == 2


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(capsys, classic_after_file, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["validate", classic_after_file]) == 0
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["validate", "--bogus"])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_a_parser_dies_young(capsys, classic_after_file):
    # With a young collection at every allocation, a parser built while the
    # collector runs reaches the oldest generation and stays there, dead,
    # until a full collection; main runs with the collector paused.
    def old_parsers():
        return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects(2))

    thresholds = gc.get_threshold()
    gc.collect()
    before = old_parsers()
    gc.set_threshold(1, 1, 10**9)
    try:
        assert main(["validate", classic_after_file]) == 0
        gc.collect(1)
    finally:
        gc.set_threshold(*thresholds)
    assert old_parsers() == before


def test_a_call_runs_no_collection(capsys, classic_after_file):
    # Even with a collection due at every allocation, none runs inside main.
    # The count is read before anything else is allocated, since the
    # collector is back on once main returns.
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    argv = ["equilibrate", classic_after_file, "--seed", "3"]
    thresholds = gc.get_threshold()
    gc.callbacks.append(record)
    try:
        gc.set_threshold(1, 1, 1)
        collections.clear()
        code = main(argv)
        during = len(collections)
    finally:
        gc.set_threshold(*thresholds)
        gc.callbacks.remove(record)
    assert code == 0
    assert during == 0


def test_a_call_leaves_as_much_cyclic_garbage_at_any_size(capsys, tmp_path):
    # The collector is paused for the whole call, so the command itself must
    # make no reference cycles: what a call leaves is its parser's, whatever
    # the size of the instance it solves.
    def garbage(n):
        path = tmp_path / f"after{n}.json"
        path.write_text(serialize_scenario(build_classic_braess(n)[1]))
        argv = ["equilibrate", str(path), "--seed", "3", "--format", "json"]
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == 0
            gc.collect()
            return len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    assert garbage(2) == garbage(200)


@pytest.mark.parametrize(
    "argv, made",
    [(["equilibrate", "x"], 1),
     (["braess", "priced", "--n", "2", "--price", "sin"], 1),
     ([], 10), (["bogus"], 10), (["braess", "bogus"], 10),
     (["validate", "x.json", "y"], 1 + 10)],  # the leaf leaves "y", then the tree
)
def test_a_call_makes_one_parser_when_argv_names_it(monkeypatch, capsys, argv, made):
    init = argparse.ArgumentParser.__init__
    count = []

    def counted(self, *args, **kwargs):
        count.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    outcome = _outcome(capsys, lambda: cli._parse_args(argv))
    assert len(count) == made
    monkeypatch.undo()
    assert outcome == _outcome(capsys, lambda: _whole_tree().parse_args(argv))


@pytest.mark.parametrize(
    "command, flag, value",
    [("poa", "--workers", "1"), ("validate", "--epsilon", "0"),
     ("equilibrate", "--cap", "5")],
)
def test_flag_a_command_does_not_read_is_usage_error(
    capsys, classic_after_file, command, flag, value
):
    with pytest.raises(SystemExit) as exc:
        main([command, classic_after_file, flag, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err
