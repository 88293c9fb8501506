"""Tests of the benchmark itself: tiny runs of every workload pass their checks,
report exactly the metrics BENCHMARK.json names, and the checks reject
perturbed answers."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        provenance = json.loads(proc.stdout.splitlines()[-2])["provenance"]
        assert provenance["error_rate"] == 0.0
    else:
        provenance = json.loads(proc.stdout.splitlines()[-2])["provenance"]
        assert provenance["counts_repeat"] is True
        assert os.path.isfile(os.path.join(ROOT, provenance["spans_file"]))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "random-mix", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_diamond_reference_matches_known_classic_values():
    ref = checks.diamond_poa(10, 1.0, 0.0, 0.0)
    assert ref["count"] == 111
    assert checks.close(ref["optimal"], 1.5) and checks.close(ref["worst"], 2.0)
    assert checks.close(ref["poa"], 4.0 / 3.0)


def test_perturbed_rho_is_flagged():
    n, u = 10, checks.unit_price("log1p", {}, 0.1)
    rho = checks.rho_formula(u, 0.5, 0.5)
    good = {"n_players": n, "rho": rho, "formula_rho": rho}
    assert checks.check_braess_report(good, n, "log1p", 0.5, 0.5) == []
    bad = dict(good, rho=rho + 1e-6)
    assert checks.check_braess_report(bad, n, "log1p", 0.5, 0.5)


def test_perturbed_poa_is_flagged():
    ref = checks.diamond_poa(10, 1.0, 0.0, 0.0)
    good = {"within_bound": True, "equilibrium_count": ref["count"],
            "optimal_social_cost": ref["optimal"],
            "worst_equilibrium_social_cost": ref["worst"], "poa": ref["poa"]}
    assert checks.check_poa_report(good, 10, 1.0, 0.0, 0.0) == []
    assert checks.check_poa_report(dict(good, poa=ref["poa"] + 1e-6), 10, 1.0, 0.0, 0.0)
    assert checks.check_poa_report(dict(good, equilibrium_count=110), 10, 1.0, 0.0, 0.0)


def test_non_equilibrium_profile_is_flagged():
    sc = checks.Scenario(checks.diamond_scenario(4, "zero", 1.0, 0.0))
    zigzag = [checks.ZIGZAG] * 4
    assert checks.check_equilibrium(sc, zigzag) == []
    all_upper = [checks.UPPER] * 4  # a player gains 0.75 by taking the lower path
    assert checks.check_equilibrium(sc, all_upper)
    costs = sc.unit_costs(all_upper)
    report = {"converged": True,
              "final_profile": {f"u{i + 1}": list(checks.UPPER) for i in range(4)},
              "player_unit_costs": {f"u{i + 1}": c for i, c in enumerate(costs)},
              "social_cost": sum(costs) / 4}
    assert checks.check_equilibrate_report(sc, report)
    assert checks.check_all_zigzag(report, 4, "zero", 1.0, 0.0)


def test_equilibrate_outside_enumerate_list_is_flagged():
    sc = checks.Scenario(checks.diamond_scenario(2, "zero", 1.0, 0.0))
    paths = sc.paths("s", "t")
    final = {"final_profile": {"u1": list(checks.ZIGZAG), "u2": list(checks.ZIGZAG)}}
    zig = paths.index(checks.ZIGZAG)
    assert checks.check_in_equilibrium_list(sc, final, {"equilibria": [[zig, zig]]}) == []
    assert checks.check_in_equilibrium_list(sc, final, {"equilibria": [[0, 2]]})
