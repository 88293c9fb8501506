"""The four benchmark workloads: scenario files, job streams and answer checks.

A workload's make function, `make(seed, workdir, tiny)`, writes the scenario files the program
will read and returns a Plan. Inputs depend only on the seed. `tiny` shrinks
every size so that the benchmark's own tests run in seconds.

Every job runs one CLI command with `--format json` and the default
`--workers 1`, and must exit 0 with an answer that passes its check.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import checks

PRICED_FAMILIES = ("identity", "sin", "log1p", "saturating")


@dataclass
class Job:
    argv: list[str]
    #: report (parsed stdout) -> problems; empty means the answer is right
    check: Callable[[dict], list[str]]


@dataclass
class Plan:
    warmup: list[str]                   # argv of one untimed call made during set-up
    stream: Callable[[], Iterator[Job]]  # endless; a new iterator restarts it
    cycle: int                          # a timed run ends on a multiple of this many jobs
    trace_jobs: int                     # jobs from the start of the stream in a traced pass
    describe: Callable[[], dict]        # problem size and job mix, for the provenance line


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


def _seed_stream(rng: random.Random) -> Iterator[str]:
    while True:
        yield str(rng.randrange(2**31))


# ---------------------------------------------------------------------------
# oracle-diamond: exhaustive scans over 3^n profiles of identical players


def make_oracle_diamond(seed: int, workdir: str, tiny: bool) -> Plan:
    n = 4 if tiny else 10
    classic = _write(workdir, "classic.json", checks.diamond_scenario(n, "zero", 1.0, 0.0))
    priced = _write(workdir, "priced-log1p.json", checks.diamond_scenario(n, "log1p", 0.5, 0.5))
    u = checks.unit_price("log1p", {}, 1.0 / n)
    jobs = [
        Job(["poa", classic, "--format", "json"],
            lambda rep: checks.check_poa_report(rep, n, 1.0, 0.0, 0.0)),
        Job(["poa", priced, "--format", "json"],
            lambda rep: checks.check_poa_report(rep, n, 0.5, 0.5, u)),
        Job(["braess", "classic", "--n", str(n), "--format", "json"],
            lambda rep: checks.check_braess_report(rep, n, "zero", 1.0, 0.0)),
    ]
    for fn in PRICED_FAMILIES:
        jobs.append(Job(
            ["braess", "priced", "--n", str(n), "--price", fn, "--format", "json"],
            lambda rep, fn=fn: checks.check_braess_report(rep, n, fn, 0.5, 0.5),
        ))

    def stream() -> Iterator[Job]:
        rng = random.Random(seed)
        while True:  # every cycle runs each job once, in a seeded order
            yield from rng.sample(jobs, len(jobs))

    return Plan(
        warmup=["validate", classic, "--format", "json"],
        stream=stream,
        cycle=len(jobs),
        trace_jobs=len(jobs),
        describe=lambda: {
            "players": n, "edges": 5, "paths_per_commodity": 3, "profiles": 3**n,
            "job_mix": "one cycle in seeded order: poa classic, poa priced log1p, "
                       "braess classic, braess priced x4 families",
        },
    )


# ---------------------------------------------------------------------------
# dynamics-diamond: best-response dynamics with many players and 3 paths each


def make_dynamics_diamond(seed: int, workdir: str, tiny: bool) -> Plan:
    n = 10 if tiny else 200
    path = _write(workdir, "priced-log1p.json", checks.diamond_scenario(n, "log1p", 0.5, 0.5))

    def stream() -> Iterator[Job]:
        for start in _seed_stream(random.Random(seed)):
            yield Job(["equilibrate", path, "--seed", start, "--format", "json"],
                      lambda rep: checks.check_all_zigzag(rep, n, "log1p", 0.5, 0.5))

    return Plan(
        warmup=["validate", path, "--format", "json"],
        stream=stream,
        cycle=1,
        trace_jobs=2 if tiny else 6,
        describe=lambda: {
            "players": n, "edges": 5, "paths_per_commodity": 3, "profiles": f"3^{n}",
            "job_mix": "equilibrate from a seeded random start, one start per job",
        },
    )


# ---------------------------------------------------------------------------
# grid-paths: few players, ~a thousand paths each


def grid_scenario(k: int, players: int, rng: random.Random) -> dict:
    """k x k grid DAG (edges right and down), random affine costs and mixing,
    log1p prices, `players` commodities corner to corner with distinct demands."""
    def node(i, j):
        return f"g{i}_{j}"

    edges = []
    for i in range(k):
        for j in range(k):
            for di, dj, tag in ((0, 1, "r"), (1, 0, "d")):
                if i + di < k and j + dj < k:
                    c1 = rng.uniform(0.2, 0.8)
                    edges.append({
                        "id": f"{tag}{i}_{j}", "from": node(i, j), "to": node(i + di, j + dj),
                        "a": rng.uniform(0.5, 2.0), "b": rng.uniform(0.0, 1.0),
                        "c1": c1, "c2": 1.0 - c1, "price": {"fn": "log1p", "params": {}},
                    })
    commodities = [
        {"id": f"p{q}", "source": node(0, 0), "sink": node(k - 1, k - 1),
         "demand": rng.uniform(0.2, 1.0)}
        for q in range(players)
    ]
    return {"nodes": [node(i, j) for i in range(k) for j in range(k)],
            "edges": edges, "commodities": commodities}


def make_grid_paths(seed: int, workdir: str, tiny: bool) -> Plan:
    # Jobs cycle over many grids so that a run's mean does not hang on a few
    # grids whose dynamics happen to need an extra sweep.
    k, grids, players = (3, 2, 4) if tiny else (7, 24, 4)
    rng = random.Random(seed)
    files, scenarios = [], []
    for g in range(grids):
        doc = grid_scenario(k, players, rng)
        files.append(_write(workdir, f"grid{g}.json", doc))
        scenarios.append(checks.Scenario(doc))

    def stream() -> Iterator[Job]:
        starts = _seed_stream(random.Random(seed + 1))
        for g in itertools.cycle(range(grids)):
            yield Job(["equilibrate", files[g], "--seed", next(starts), "--format", "json"],
                      lambda rep, sc=scenarios[g]: checks.check_equilibrate_report(sc, rep))

    return Plan(
        warmup=["validate", files[0], "--format", "json"],
        stream=stream,
        cycle=1,
        trace_jobs=2 if tiny else 3,
        describe=lambda: {
            "players": players, "edges": 2 * k * (k - 1), "grids": grids,
            "paths_per_commodity": math.comb(2 * (k - 1), k - 1),
            "profiles": math.comb(2 * (k - 1), k - 1) ** players,
            "job_mix": f"equilibrate from a seeded random start, cycling over {grids} "
                       f"seeded {k}x{k} grids",
        },
    )


# ---------------------------------------------------------------------------
# random-mix: many small heterogeneous instances, short jobs


def make_random_mix(seed: int, workdir: str, tiny: bool) -> Plan:
    from routegame.model import serialize_scenario
    from routegame.random_instances import random_affine_instance

    pool = 10 if tiny else 500
    rng = random.Random(seed)
    files, scenarios = [], []
    for k in range(pool):
        text = serialize_scenario(random_affine_instance(rng, max_players=3, max_profiles=2000))
        path = os.path.join(workdir, f"mix{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        files.append(path)
        scenarios.append(json.loads(text))

    def stream() -> Iterator[Job]:
        starts = _seed_stream(random.Random(seed + 1))
        checkers: dict[int, checks.Scenario] = {}
        for k in itertools.cycle(range(pool)):
            if k not in checkers:
                checkers[k] = checks.Scenario(scenarios[k])
            sc, listed = checkers[k], {}

            def check_enumerate(rep, sc=sc, listed=listed):
                listed["report"] = rep
                return checks.check_enumerate_report(sc, rep)

            def check_equilibrate(rep, sc=sc, listed=listed):
                if "report" not in listed:
                    return ["enumerate of the same instance did not pass"]
                return (checks.check_equilibrate_report(sc, rep)
                        + checks.check_in_equilibrium_list(sc, rep, listed["report"]))

            yield Job(["validate", files[k], "--format", "json"], checks.check_validate_report)
            yield Job(["enumerate", files[k], "--format", "json"], check_enumerate)
            yield Job(["equilibrate", files[k], "--seed", next(starts), "--format", "json"],
                      check_equilibrate)

    def describe() -> dict:
        sizes = []
        for doc in scenarios:
            sc = checks.Scenario(doc)
            paths = [len(sc.paths(c["source"], c["sink"])) for c in sc.commodities]
            sizes.append((len(paths), len(doc["edges"]), max(paths), math.prod(paths)))
        players, edges, paths, profiles = zip(*sizes)
        return {
            "instances": pool,
            "players": [min(players), max(players)],
            "edges": [min(edges), max(edges)],
            "paths_per_commodity": [min(paths), max(paths)],
            "profiles": [min(profiles), max(profiles)],
            "profiles_mean": sum(profiles) / pool,
            "job_mix": "per instance: validate, enumerate, equilibrate from a seeded start",
        }

    return Plan(
        warmup=["validate", files[0], "--format", "json"],
        stream=stream,
        cycle=3,
        trace_jobs=30 if tiny else 300,
        describe=describe,
    )


WORKLOADS = {
    "oracle-diamond": make_oracle_diamond,
    "dynamics-diamond": make_dynamics_diamond,
    "grid-paths": make_grid_paths,
    "random-mix": make_random_mix,
}
