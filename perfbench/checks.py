"""Answer checks that do not come from the code under test.

This module must not import routegame. It reads the scenario documents the
benchmark wrote and recomputes what a job's answer must satisfy:

- closed forms on the four-node diamond: the severity ratio
  rho(u) = 4(c1 + c2 u) / (2 + c1 + 2 c2 u), the classic Price of Anarchy 4/3,
  and the all-zigzag unit cost 2(c1 + c2 u);
- an exhaustive Price of Anarchy of the diamond over path counts (players are
  identical, so a state is how many players use each of the three paths);
- an epsilon-Nash check of a profile against every simple path.

Each check returns a list of problems; an empty list means the answer passed.
"""

from __future__ import annotations

import math

EPS_IMPROVE = 1e-9
# Slack on top of EPS_IMPROVE for summing the same costs in another order.
SUM_SLACK = 1e-12
REL_TOL = 1e-9
POA_BOUND = (3.0 + math.sqrt(5.0)) / 2.0

# Path order of the diamond s -> {v, w} -> t with shortcut v -> w, as the
# lexicographic order of edge-id sequences gives it.
UPPER, ZIGZAG, LOWER = ("sv", "vt"), ("sv", "vw", "wt"), ("sw", "wt")


def close(x: float, y: float, tol: float = REL_TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def unit_price(fn: str, params: dict, x: float) -> float:
    """u(x) = F(x)/x of a catalog price family."""
    if fn == "zero":
        return 0.0
    if x == 0 or fn == "identity":
        return 1.0
    if fn == "sin":
        return math.sin(x) / x
    if fn == "log1p":
        return math.log1p(x) / x
    if fn == "saturating":
        return 1.0 / (1.0 + params["beta"] * x)
    raise ValueError(f"unknown price family {fn!r}")


def rho_formula(u: float, c1: float, c2: float) -> float:
    return 4.0 * (c1 + c2 * u) / (2.0 + c1 + 2.0 * c2 * u)


# ---------------------------------------------------------------------------
# the diamond


def diamond_scenario(n: int, fn: str, c1: float, c2: float, shortcut: bool = True) -> dict:
    """Scenario document of the n-player diamond; its variable edges s->v and
    w->t have unit slope and weights c1 (congestion) and c2 (price fn)."""
    def edge(eid, tail, head, a, b, w1=1.0, w2=0.0, price="zero"):
        return {"id": eid, "from": tail, "to": head, "a": a, "b": b,
                "c1": w1, "c2": w2, "price": {"fn": price, "params": {}}}

    edges = [
        edge("sv", "s", "v", 1.0, 0.0, c1, c2, fn),
        edge("vt", "v", "t", 0.0, 1.0),
        edge("sw", "s", "w", 0.0, 1.0),
        edge("wt", "w", "t", 1.0, 0.0, c1, c2, fn),
    ]
    if shortcut:
        edges.append(edge("vw", "v", "w", 0.0, 0.0))
    commodities = [
        {"id": f"u{i + 1}", "source": "s", "sink": "t", "demand": 1.0 / n}
        for i in range(n)
    ]
    return {"nodes": ["s", "v", "w", "t"], "edges": edges, "commodities": commodities}


def diamond_poa(n: int, c1: float, c2: float, u: float, eps: float = EPS_IMPROVE) -> dict:
    """Exhaustive optimum, worst equilibrium and equilibrium count of the
    n-player diamond with shortcut, enumerated over path counts."""
    r = 1.0 / n

    def path_costs(k, m, l):  # players on upper, zigzag, lower
        sv = c1 * (k + m) * r + c2 * u
        wt = c1 * (m + l) * r + c2 * u
        return (sv + 1.0, sv + wt, 1.0 + wt)

    optimum, worst, count = math.inf, -math.inf, 0
    for k in range(n + 1):
        for m in range(n + 1 - k):
            counts = (k, m, n - k - m)
            costs = path_costs(*counts)
            social = r * sum(c * x for c, x in zip(counts, costs))
            optimum = min(optimum, social)
            stable = True
            for p in range(3):
                if counts[p] == 0:
                    continue
                for q in range(3):
                    if q == p:
                        continue
                    moved = list(counts)
                    moved[p] -= 1
                    moved[q] += 1
                    if costs[p] - path_costs(*moved)[q] > eps:
                        stable = False
            if stable:
                count += math.factorial(n) // (
                    math.factorial(counts[0]) * math.factorial(counts[1]) * math.factorial(counts[2])
                )
                worst = max(worst, social)
    return {"optimal": optimum, "worst": worst, "count": count, "poa": worst / optimum}


def check_poa_report(report: dict, n: int, c1: float, c2: float, u: float) -> list[str]:
    """A `poa --format json` report on the diamond, against `diamond_poa`."""
    ref = diamond_poa(n, c1, c2, u)
    problems = []
    if report.get("within_bound") is not True:
        problems.append("within_bound is not true")
    if report.get("equilibrium_count") != ref["count"]:
        problems.append(f"equilibrium_count {report.get('equilibrium_count')} != {ref['count']}")
    for key, want in (
        ("optimal_social_cost", ref["optimal"]),
        ("worst_equilibrium_social_cost", ref["worst"]),
        ("poa", ref["poa"]),
    ):
        got = report.get(key)
        if not isinstance(got, float) or not close(got, want):
            problems.append(f"{key} {got!r} != {want!r}")
    if c2 == 0.0 and not close(report.get("poa", 0.0), 4.0 / 3.0):
        problems.append(f"classic poa {report.get('poa')!r} != 4/3")
    return problems


def check_braess_report(report: dict, n: int, fn: str, c1: float, c2: float) -> list[str]:
    """A `braess --format json` report: rho and formula_rho against rho(u(1/n))."""
    want = rho_formula(unit_price(fn, {"beta": 1.0}, 1.0 / n), c1, c2)
    problems = []
    for key in ("rho", "formula_rho"):
        got = report.get(key)
        if not isinstance(got, float) or not close(got, want):
            problems.append(f"{key} {got!r} != {want!r}")
    if report.get("n_players") != n:
        problems.append(f"n_players {report.get('n_players')!r} != {n}")
    return problems


def check_all_zigzag(report: dict, n: int, fn: str, c1: float, c2: float) -> list[str]:
    """An `equilibrate` report on the priced diamond with u(1/n) < 1, whose
    unique equilibrium puts every player on the zigzag path."""
    want = 2.0 * (c1 + c2 * unit_price(fn, {}, 1.0 / n))
    problems = []
    if report.get("converged") is not True:
        problems.append("converged is not true")
    paths = report.get("final_profile", {})
    off = [cid for cid, p in paths.items() if tuple(p) != ZIGZAG]
    if len(paths) != n or off:
        problems.append(f"{len(off)} of {len(paths)} players are off the zigzag path")
    costs = list(report.get("player_unit_costs", {}).values())
    if len(costs) != n or not close(max(costs, default=0.0), want):
        problems.append(f"max unit cost {max(costs, default=None)!r} != {want!r}")
    return problems


# ---------------------------------------------------------------------------
# epsilon-Nash check on any scenario


class Scenario:
    """A scenario document with its simple paths per (source, sink), sorted
    lexicographically by edge ids, which is also the program's path order."""

    def __init__(self, doc: dict):
        self.edges = {e["id"]: e for e in doc["edges"]}
        self.commodities = doc["commodities"]
        self.out: dict[str, list[dict]] = {}
        for e in doc["edges"]:
            self.out.setdefault(e["from"], []).append(e)
        self._paths: dict[tuple[str, str], list[tuple[str, ...]]] = {}
        self._price: dict[tuple[str, float], float] = {}

    def paths(self, source: str, sink: str) -> list[tuple[str, ...]]:
        key = (source, sink)
        if key not in self._paths:
            found: list[tuple[str, ...]] = []
            trail: list[str] = []
            seen = {source}

            def walk(node):
                if node == sink:
                    found.append(tuple(trail))
                    return
                for e in self.out.get(node, ()):
                    if e["to"] not in seen:
                        seen.add(e["to"])
                        trail.append(e["id"])
                        walk(e["to"])
                        trail.pop()
                        seen.remove(e["to"])

            walk(source)
            self._paths[key] = sorted(found)
        return self._paths[key]

    def edge_cost(self, eid: str, load: float, demand: float) -> float:
        e = self.edges[eid]
        key = (eid, demand)
        if key not in self._price:
            self._price[key] = e["c2"] * unit_price(e["price"]["fn"], e["price"]["params"], demand)
        return e["c1"] * (e["a"] * load + e["b"]) + self._price[key]

    def loads(self, profile: list[tuple[str, ...]]) -> dict[str, float]:
        f = dict.fromkeys(self.edges, 0.0)
        for c, path in zip(self.commodities, profile):
            for eid in path:
                f[eid] += c["demand"]
        return f

    def unit_costs(self, profile: list[tuple[str, ...]]) -> list[float]:
        f = self.loads(profile)
        return [
            sum(self.edge_cost(eid, f[eid], c["demand"]) for eid in path)
            for c, path in zip(self.commodities, profile)
        ]

    def best_improvement(self, profile: list[tuple[str, ...]]) -> tuple[float, int]:
        """Largest cost saving any single player gets by switching paths, and that player."""
        f = self.loads(profile)
        best, who = -math.inf, -1
        for i, (c, path) in enumerate(zip(self.commodities, profile)):
            r = c["demand"]
            mine = set(path)
            current = sum(self.edge_cost(eid, f[eid], r) for eid in path)
            for alt in self.paths(c["source"], c["sink"]):
                if alt == path:
                    continue
                cost = sum(
                    self.edge_cost(eid, f[eid] if eid in mine else f[eid] + r, r)
                    for eid in alt
                )
                if current - cost > best:
                    best, who = current - cost, i
        return best, who

    def profile_from_indices(self, choice: list[int]) -> list[tuple[str, ...]]:
        return [
            self.paths(c["source"], c["sink"])[j]
            for c, j in zip(self.commodities, choice)
        ]


def check_equilibrium(sc: Scenario, profile: list[tuple[str, ...]], eps: float = EPS_IMPROVE) -> list[str]:
    """No player may gain more than eps by switching to another simple path."""
    for c, path in zip(sc.commodities, profile):
        if path not in sc.paths(c["source"], c["sink"]):
            return [f"{c['id']}: {path} is not a simple path of its commodity"]
    gain, who = sc.best_improvement(profile)
    if gain > eps + SUM_SLACK:
        return [f"not an equilibrium: {sc.commodities[who]['id']} gains {gain!r}"]
    return []


def check_equilibrate_report(sc: Scenario, report: dict) -> list[str]:
    """An `equilibrate --format json` report: converged, an epsilon-equilibrium,
    and unit and social costs that match the profile."""
    problems = []
    if report.get("converged") is not True:
        problems.append("converged is not true")
    paths = report.get("final_profile", {})
    if list(paths) != [c["id"] for c in sc.commodities]:
        return problems + ["final_profile does not list every commodity in order"]
    profile = [tuple(p) for p in paths.values()]
    problems += check_equilibrium(sc, profile)
    if problems:
        return problems
    costs = sc.unit_costs(profile)
    reported = list(report.get("player_unit_costs", {}).values())
    if len(reported) != len(costs) or not all(map(close, reported, costs)):
        problems.append("player_unit_costs do not match the final profile")
    social = sum(c["demand"] * x for c, x in zip(sc.commodities, costs))
    if not close(report.get("social_cost", math.nan), social):
        problems.append(f"social_cost {report.get('social_cost')!r} != {social!r}")
    return problems


def check_validate_report(report: dict) -> list[str]:
    if report.get("valid") is not True or report.get("violations") != []:
        return [f"scenario reported invalid: {report.get('violations')}"]
    return []


def check_enumerate_report(sc: Scenario, report: dict) -> list[str]:
    """An `enumerate --format json` report: within the bound, and every listed
    profile an epsilon-equilibrium."""
    problems = []
    if report.get("within_bound") is not True or not report.get("poa", math.inf) <= POA_BOUND + 1e-6:
        problems.append(f"poa {report.get('poa')!r} not within bound")
    equilibria = report.get("equilibria", [])
    if not equilibria or report.get("equilibrium_count") != len(equilibria):
        problems.append("equilibrium list empty or count mismatch")
    for choice in equilibria:
        problems += check_equilibrium(sc, sc.profile_from_indices(choice))
    return problems


def check_in_equilibrium_list(sc: Scenario, equilibrate: dict, enumerate_: dict) -> list[str]:
    """Cross-check engine against oracle: the final profile of best-response
    dynamics is one of the equilibria the exhaustive scan listed."""
    final = [tuple(p) for p in equilibrate.get("final_profile", {}).values()]
    listed = [sc.profile_from_indices(choice) for choice in enumerate_.get("equilibria", [])]
    if final not in listed:
        return ["final profile of equilibrate is not in the equilibrium list of enumerate"]
    return []
