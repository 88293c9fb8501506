"""Game instances: directed graph, priced edges, commodities, and strategy sets.

A strategy set holds the simple source-to-sink paths of a commodity as
edge-id sequences in lexicographic order, so that path indices are stable
across runs and platforms. A set with few paths per edge is a list, built in
that order by one walk; a set that will be searched (below) is a
`CountedSet`, which keeps its graph's per-node path counts and builds a path
only when it is read by index. A prepared instance compiles, once, into the
integer-indexed cost tables of `CompiledGame` that the engine and the oracle
read: the one definition of social cost and the one test of a deviation,
`CompiledGame.best_move`. That test has two evaluators with the same bits:
the scan (`move_costs`), which costs every path, and for sets with many paths
per edge the shortest-path search of `search.PathSearch` on the set's graph,
its tables built once per set.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from copy import copy
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from itertools import accumulate, chain, repeat
from operator import itemgetter, mul
from typing import TYPE_CHECKING, Optional

from .pricing import PriceDomainError, PriceSpec, ZERO_PRICE, eval_u

if TYPE_CHECKING:
    from .search import PathSearch

NORMALIZATION_TOL = 1e-9
DEFAULT_PATH_CAP = 10_000
_TOO_MANY = "commodity {!r} has more than {} simple paths"
#: `CompiledGame.best_move` searches a strategy set whose paths have more than
#: this many edge slots (the sum of the path lengths) per edge of its graph,
#: and scans the others. Measured per call on a 2-vCPU VM (Python 3.11),
#: search time over scan time: 2.6-3.0 on the Braess diamonds (1.0-1.4 slots
#: per edge), 1.1-1.7 at 8.3-8.6, 0.6-0.9 at 9-10, 0.7 on a 5x5 grid (14),
#: 0.3 on a 6x6 grid (42) and 0.09 on a 7x7 grid (132, 924 paths). On an
#: acyclic graph `prepare` counts the slots without listing the paths, and
#: keeps a set to be searched as a `CountedSet`.
SEARCH_CROSSOVER = 10

Path = tuple[str, ...]  # ordered edge-id sequence


class ScenarioError(ValueError):
    """A scenario document cannot be turned into a game instance."""


class PathEnumerationError(RuntimeError):
    """Path enumeration cannot produce a usable strategy set."""


class CostOverflowError(ValueError):
    """Some cost of an instance can exceed the float range."""


class InvalidInstanceError(ValueError):
    """An instance violates an invariant that validate_instance reports."""


@dataclass(frozen=True)
class EdgeSpec:
    """Directed edge with affine congestion a*x + b, a price function, and
    mixing weights c1 (congestion) and c2 (price), c1 + c2 = 1."""

    id: str
    tail: str
    head: str
    a: float
    b: float
    c1: float = 1.0
    c2: float = 0.0
    price: PriceSpec = ZERO_PRICE


@dataclass(frozen=True)
class Commodity:
    """One player: a source/sink pair and an unsplittable demand."""

    id: str
    source: str
    sink: str
    demand: float


@dataclass(frozen=True)
class GameInstance:
    nodes: tuple[str, ...]
    edges: tuple[EdgeSpec, ...]
    commodities: tuple[Commodity, ...]
    #: Per-commodity strategy sets; empty until populated via prepare().
    paths: tuple[tuple[Path, ...], ...] = ()
    #: Builder provenance (not serialized, ignored by equality).
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)

    @property
    def prepared(self) -> bool:
        return len(self.paths) == len(self.commodities) > 0 or (
            len(self.commodities) == 0
        )

    @cached_property
    def compiled(self) -> "CompiledGame":
        """Integer-indexed cost tables, built on first use and kept with the
        instance. Not a field: equality and repr ignore it, and `replace()`
        starts without it."""
        if not self.prepared:
            raise ValueError("instance has no enumerated paths; call prepare() first")
        return CompiledGame(self)


class CompiledGame:
    """A prepared instance as integer-indexed tables; read-only by convention.

    Edges are numbered in instance order; per-edge lists are indexed by that
    number. Commodities fall into classes: those that share one strategy-set
    tuple (`prepare()` gives every commodity of an endpoint pair the same one)
    and one demand. Every commodity of a class reads the same row objects, and
    every term that depends on a player's own demand but not on loads is
    evaluated exactly once per (class, edge on one of its paths); entries for
    edges on none of a class's paths are None. Price terms of edges with
    c2 = 0 are 0.0 without evaluating u; a demand outside the domain of a
    c2 != 0 price on one of the commodity's paths raises PriceDomainError
    naming the first such commodity and the edge.

    The engine and the oracle read two definitions from here and have none of
    their own: the social cost of a profile (`social_cost`) and the costs that
    decide whether a player can improve by switching paths (`move_costs`),
    which they read through `best_move`.
    """

    def __init__(self, instance: GameInstance):
        edges = instance.edges
        #: edge id -> index of its first occurrence
        self.edge_index: dict[str, int] = {}
        for k, e in enumerate(edges):
            self.edge_index.setdefault(e.id, k)
        self.c1 = tuple(e.c1 for e in edges)
        self.c2 = tuple(e.c2 for e in edges)
        self.a = tuple(e.a for e in edges)
        self.b = tuple(e.b for e in edges)
        self.demand = tuple(c.demand for c in instance.commodities)
        #: per edge: the slope c1 * a of its congestion cost
        self.slope = tuple(e.c1 * e.a for e in edges)
        #: per commodity: its class, numbered in order of first appearance
        self.class_of: list[int]
        #: per (commodity, path): edge indices in path order
        self.paths: list[tuple[tuple[int, ...], ...]]
        #: per commodity: edge indices on any of its paths, ascending
        self.edges_of: list[tuple[int, ...]]
        #: per (commodity, edge): c2 * u(r), the price part of the unit cost
        self.unit_price: list[list[Optional[float]]]
        #: per (commodity, edge): c1 * (a * r + b) * r + 2 * c2 * u(r) * r, the
        #: player's own term of the potential
        self.potential_term: list[list[Optional[float]]]
        #: per commodity: the search tables of its strategy set, or None where
        #: `best_move` scans it
        self.search: list[Optional[PathSearch]]

        # Keyed by the strategy-set tuple's identity, not its value: hashing a
        # large strategy set once per commodity costs more than the rows shared.
        strategies: dict[int, tuple] = {}
        classes: dict[tuple[int, float], tuple] = {}
        unique_ids = len(self.edge_index) == len(edges)
        per_commodity = []  # each commodity's class: its entries of the lists above
        for c, plist in zip(instance.commodities, instance.paths):
            row = classes.get((id(plist), c.demand))
            if row is None:
                if id(plist) not in strategies:
                    compiled = getattr(plist, "rows", None)
                    if not (unique_ids and getattr(plist, "edges", None) is edges):
                        to_index = self.edge_index.__getitem__
                        compiled = tuple(tuple(map(to_index, p)) for p in plist)
                    counted = isinstance(compiled, CountedSet)  # to search, unlisted
                    on_paths = tuple(
                        sorted(compiled.offset if counted else set().union(*compiled))
                    )
                    search = None
                    if unique_ids and (
                        counted
                        or sum(map(len, compiled)) > SEARCH_CROSSOVER * len(on_paths)
                    ):
                        # imported here: a process that never searches does
                        # not compile the module
                        from .search import path_search

                        search = path_search(
                            compiled,
                            on_paths,
                            [e.tail for e in edges],
                            [e.head for e in edges],
                            [e.id for e in edges],
                        )
                    strategies[id(plist)] = compiled, on_paths, search
                compiled, on_paths, search = strategies[id(plist)]
                price, own = self._own_rows(edges, c, on_paths)
                row = classes[id(plist), c.demand] = (
                    len(classes), compiled, on_paths, price, own, search
                )
            per_commodity.append(row)
        (self.class_of, self.paths, self.edges_of, self.unit_price, self.potential_term,
         self.search) = map(list, zip(*per_commodity) if per_commodity else [()] * 6)

    @staticmethod
    def _own_rows(
        edges: Sequence[EdgeSpec], c: Commodity, on_paths: Sequence[int]
    ) -> tuple[list[Optional[float]], list[Optional[float]]]:
        """Commodity c's `unit_price` and `potential_term` rows."""
        r = c.demand
        price: list[Optional[float]] = [None] * len(edges)
        own: list[Optional[float]] = [None] * len(edges)
        for k in on_paths:
            e = edges[k]
            try:
                u = eval_u(e.price, r) if e.c2 != 0.0 else 0.0
            except PriceDomainError:
                raise PriceDomainError(
                    f"commodity {c.id!r}: demand {r} outside the price domain"
                    f" of edge {e.id!r} ({e.price.fn!r})"
                ) from None
            price[k] = e.c2 * u
            own[k] = e.c1 * (e.a * r + e.b) * r + 2.0 * e.c2 * u * r
        return price, own

    @cached_property
    def repeated_sums(self) -> Optional[tuple[float, ...]]:
        """When every commodity has the same demand r, S[k] = 0.0 + r + ... + r
        with k terms, for k = 0 .. N: the load of an edge with k users,
        whichever players they are. None when two demands differ."""
        r = self.demand[0] if self.demand else 0.0
        if any(d != r for d in self.demand):
            return None
        return tuple(accumulate(repeat(r, len(self.demand)), initial=0.0))

    def path_constant(self, i: int, j: int) -> float:
        """Load-free unit cost of commodity i's path j: the exact sum of its
        edges' c2 * u(r) and c1 * b, correctly rounded."""
        path, price, c1, b = self.paths[i][j], self.unit_price[i], self.c1, self.b
        return exact_sum([price[k] for k in path] + [c1[k] * b[k] for k in path])

    def load_free_cost(self, i: int, j: int) -> float:
        """Player i's load-free cost on path j."""
        return self.demand[i] * self.path_constant(i, j)

    def social_cost(self, loads: Sequence[float], load_free: Iterable[float]) -> float:
        """The social cost of a profile, the only one the package computes: the
        exact sum of slope * f * f over the edges at their `loads` (by edge
        number) and of each player's `load_free_cost` on its chosen path,
        correctly rounded. It depends on the multiset of terms only, so every
        profile with the same loads and the same load-free terms costs the same."""
        return exact_sum(chain(map(mul, map(mul, self.slope, loads), loads), load_free))

    def path_cost(
        self, i: int, path: Sequence[int], loads: Mapping[int, float] | Sequence[float]
    ) -> float:
        """Player i's per-unit cost on `path` (edge numbers on its strategy set)
        at `loads` (by edge number): c1 * (a * f + b) + c2 * u(r) per edge,
        summed from 0.0 in path order."""
        c1, a, b, price = self.c1, self.a, self.b, self.unit_price[i]
        total = 0.0
        for k in path:
            total += c1[k] * (a[k] * loads[k] + b[k]) + price[k]
        return total

    def edge_costs(self, i: int, d: int, loads: Sequence[float]) -> list[float]:
        """Player i's per-unit cost of each edge (by edge number) if it moved
        from its current path d: c1 * (a * x + b) + c2 * u(r), where x is the
        edge's load on the edges of path d and its load plus the player's
        demand r on every other edge of its strategy set; 0.0 on the rest."""
        r, price = self.demand[i], self.unit_price[i]
        c1, a, b = self.c1, self.a, self.b
        cost = [0.0] * len(c1)
        for k in self.edges_of[i]:
            cost[k] = c1[k] * (a[k] * (loads[k] + r) + b[k]) + price[k]
        for k in self.paths[i][d]:
            cost[k] = c1[k] * (a[k] * loads[k] + b[k]) + price[k]
        return cost

    def move_costs(self, i: int, d: int, loads: Sequence[float]) -> list[float]:
        """Player i's per-unit cost on each of its paths j if it moved there
        from its current path d, at the profile's `loads` (by edge number);
        entry d is its current cost. Each path's cost is its `edge_costs`
        summed from 0.0 in path order. This defines a deviation: the player
        can improve by more than eps exactly when costs[d] - min(costs) > eps."""
        cost = self.edge_costs(i, d, loads)
        costs = []
        for path in self.paths[i]:
            total = 0.0
            for k in path:
                total += cost[k]
            costs.append(total)
        return costs

    def best_move(
        self, i: int, d: int, loads: Sequence[float], eps: float, witness: bool = False
    ) -> tuple[float, float, Optional[int], float]:
        """(current cost, least cost, j, cost of j) of player i on path d by
        `move_costs`, with its bits: the one test of a deviation, which the
        engine and the oracle read. j is None, and its cost the current cost,
        when no path is more than eps cheaper (current - least <= eps).
        Otherwise j is the first path at the least cost or, with `witness`,
        the first path more than eps cheaper.

        Strategy sets with many edge slots per edge (`SEARCH_CROSSOVER`) are
        searched on their graph (`search.PathSearch`) wherever every edge cost
        is >= 0 and their sum finite. All others, and instances with a
        duplicate edge id, are scanned: every path is costed by `move_costs`."""
        search = self.search[i]
        if search is not None:
            cost = self.edge_costs(i, d, loads)
            found = search.best_move(cost, self.paths[i][d], eps, witness)
            if found is not None:
                return found
        costs = self.move_costs(i, d, loads)
        current, best = costs[d], min(costs)
        if current - best <= eps:
            return current, best, None, current
        if not witness:
            return current, best, costs.index(best), best
        for j, cost in enumerate(costs):
            if current - cost > eps:
                return current, best, j, cost
        return current, best, None, current  # only where a cost is NaN


def exact_sum(terms: Iterable[float]) -> float:
    """`math.fsum` of nonnegative `terms`: the exact sum correctly rounded, so
    independent of the order of the terms and of the Python version; inf where
    that sum exceeds the float range, as a plain sum would give."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# path enumeration


class StrategySet(tuple):
    """The paths `prepare` lists, with `rows`: the same paths as numbers of `edges`."""


class CountedSet(Sequence):
    """A strategy set on an acyclic graph, kept as the graph's per-node path
    counts instead of a list, in the order of `enumerate_paths`. Its length
    and items by index come from the counts, each item built once, and `rank`
    maps a row back to its index; `rows`, the same paths as edge numbers,
    shares them. Any other read (iteration, slices, ==) lists the set once."""

    side = 0  # what the set holds of each path: 0 its ids, 1 its row

    def __init__(
        self, instance: GameInstance, commodity: Commodity, cap: int, arcs: dict
    ):
        self.instance, self.commodity, self.cap = instance, commodity, cap
        #: per node: its arcs on a path, in id order: (id, number, head, paths
        #: from the head)
        self.arcs = arcs
        self.total = sum(n for *_, n in arcs[commodity.source])
        self.offset: dict[int, int] = {}  # per edge: the paths leaving its tail before it
        for a in arcs.values():
            before = 0
            for _, k, _, n in a:
                self.offset[k], before = before, before + n
        self.paths: dict[int, tuple[Path, tuple[int, ...]]] = {}  # by index
        self.listed: dict[int, tuple] = {}  # per side: every path, once listed
        self.rows = copy(self)
        self.rows.side = 1

    def __len__(self) -> int:
        return self.total

    def __getitem__(self, j):
        n = self.total
        if self.listed or not (isinstance(j, int) and -n <= j < n):
            return self._listing()[j]
        j %= n
        if j not in self.paths:  # from the source, skip the arcs whose paths come first
            ids, row, v, rest = [], [], self.commodity.source, j
            while v != self.commodity.sink:
                for i, k, w, m in self.arcs[v]:
                    if rest < m:
                        break
                    rest -= m
                ids.append(i)
                row.append(k)
                v = w
            self.paths[j] = tuple(ids), tuple(row)
        return self.paths[j][self.side]

    def rank(self, row: Sequence[int]) -> int:
        """The index of the path with edge numbers `row`."""
        return sum(map(self.offset.__getitem__, row))

    def _listing(self) -> tuple:
        if not self.listed:
            listing = _paths_and_rows(self.instance, self.commodity, self.cap)
            self.listed.update(enumerate(map(tuple, listing)))
        return self.listed[self.side]

    def __iter__(self):
        return iter(self._listing())

    def __eq__(self, other: object) -> bool:
        return self._listing() == other

    def __hash__(self) -> int:
        return hash(self._listing())


def _counted(
    instance: GameInstance, commodity: Commodity, cap: int, counts: tuple
) -> Optional[CountedSet]:
    """The commodity's paths as a `CountedSet` where `CompiledGame` will
    search them: on an acyclic graph with unique edge ids, more than
    `SEARCH_CROSSOVER` edge slots per edge; else None. The slots are counted
    only where they can be that many: a path has at most nodes - 1 edges, and
    the graph of the paths at least nodes - 1 edges."""
    out, count, live, acyclic, post = counts
    total = count[commodity.source]
    if not acyclic or total <= SEARCH_CROSSOVER:
        return None
    arcs = {  # per node: its arcs on a path
        v: [(i, k, w, count[w]) for i, k, w in out.get(v, ()) if w in live] for v in live
    }
    edges = sum(map(len, arcs.values()))
    if total * (len(live) - 1) <= SEARCH_CROSSOVER * edges or len(
        {e.id for e in instance.edges}
    ) < len(instance.edges):
        return None
    slots: dict[str, int] = {}  # per node: the edges of its paths to the sink
    for v in post:
        slots[v] = sum(n + slots[w] for _, _, w, n in arcs.get(v, ()))
    if slots[commodity.source] <= SEARCH_CROSSOVER * edges:
        return None
    return CountedSet(instance, commodity, cap, arcs)


def enumerate_paths(
    instance: GameInstance,
    commodity: Commodity,
    cap: int = DEFAULT_PATH_CAP,
    rows: Optional[list[tuple[int, ...]]] = None,
    counts: Optional[tuple] = None,
) -> list[Path]:
    """All simple source->sink paths of a commodity, lexicographic by edge ids.
    Where `rows` is a list, each path's edge numbers are appended to it;
    `counts` is the commodity's `_path_counts`, where the caller has them.

    Raises PathEnumerationError when no path exists or more than `cap` paths do.
    """
    paths, found = _paths_and_rows(instance, commodity, cap, counts)
    if rows is not None:
        rows += found
    return paths


def _path_counts(instance: GameInstance, commodity: Commodity, cap: int) -> tuple:
    """Per tail its out-arcs (id, edge number, head) sorted, per node reached
    its paths to the sink, the nodes with a path, whether no cycle was met,
    and the nodes in postorder: see `_paths_and_rows`."""
    edges, source, sink = instance.edges, commodity.source, commodity.sink
    out: dict[str, list[tuple[str, int, str]]] = {}  # per tail: (id, number, head)
    for k, e in enumerate(edges):
        if e.tail != sink:
            out.setdefault(e.tail, []).append((e.id, k, e.head))
    for arcs in out.values():
        arcs.sort()
    # per node reached: its number of paths to the sink, False while on the stack
    count, acyclic, post = {source: False}, True, []
    stack = [(source, iter(out.get(source, ())))]
    while stack:
        v, arcs = stack[-1]
        for _, _, w in arcs:
            if w not in count:
                count[w] = False
                stack.append((w, iter(out.get(w, ()))))
                break
            acyclic = acyclic and count[w] is not False
        else:
            stack.pop()
            post.append(v)
            count[v] = 1 if v == sink else sum([count[w] for _, _, w in out.get(v, ())])
    if acyclic:  # then a node reaches the sink exactly when it counts a path
        live = {v for v, n in count.items() if n}
    else:
        into: dict[str, list[str]] = {}  # per node: the tails of its in-edges
        for e in edges:
            into.setdefault(e.head, []).append(e.tail)
        live = _reach(into, sink)
    if source not in live:
        raise PathEnumerationError(
            f"no path from {source!r} to {sink!r} for commodity {commodity.id!r}"
        )
    if acyclic and count[source] > cap:
        raise PathEnumerationError(_TOO_MANY.format(commodity.id, cap))
    return out, count, live, acyclic, post


def _paths_and_rows(
    instance: GameInstance, commodity: Commodity, cap: int, counts: Optional[tuple] = None
) -> tuple[list[Path], list[tuple[int, ...]]]:
    """`enumerate_paths`' paths, and the same paths as rows of edge numbers.

    Only nodes with a path to the sink are entered. A postorder pass counts
    each reached node's paths (`_path_counts`); where it meets no cycle, a
    node counting none has no path to the sink and the cap is checked before
    any path is built, and otherwise a reach over in-edges finds the nodes
    with a path. A depth-first walk in edge-id order then builds each path's
    ids and row together, in lexicographic order (sorted only where ids
    repeat), in time and memory that grow with the paths listed."""
    edges, source, sink = instance.edges, commodity.source, commodity.sink
    out, count, live, _, _ = counts or _path_counts(instance, commodity, cap)
    if source == sink:
        return [()], [()]
    multi = [v for v in count if v in live and v != sink]  # the source first
    number = {v: j for j, v in enumerate(multi)}  # the source is node 0
    arcs = [  # per node: its arcs to nodes with a path, the sink as None
        tuple([(i, k, number.get(w)) for i, k, w in out[v] if w in live]) for v in multi
    ]
    paths, rows, ids, trail = [], [], [], []
    on = [True] + [False] * (len(arcs) - 1)  # per node: on the walk's path
    nodes, walk = [0], [iter(arcs[0])]
    while walk:
        for i, k, w in walk[-1]:
            if w is None:
                paths.append((*ids, i))
                rows.append((*trail, k))
                if len(rows) > cap:
                    raise PathEnumerationError(_TOO_MANY.format(commodity.id, cap))
            elif not on[w]:
                on[w] = True
                nodes.append(w)
                ids.append(i)
                trail.append(k)
                walk.append(iter(arcs[w]))
                break
        else:
            walk.pop()
            on[nodes.pop()] = False
            if trail:
                ids.pop()
                trail.pop()
    if len({e.id for e in edges}) < len(edges):
        paths, rows = map(list, zip(*sorted(zip(paths, rows))))
    return paths, rows


def prepare(instance: GameInstance, cap: int = DEFAULT_PATH_CAP) -> GameInstance:
    """Return a copy of the instance with every commodity's strategy set populated.

    Commodities with the same source and sink share one strategy set: a
    `CountedSet` where `CompiledGame` will search it, else a `StrategySet`
    that `enumerate_paths` lists."""
    by_endpoints: dict[tuple[str, str], Sequence[Path]] = {}
    for c in instance.commodities:
        if (c.source, c.sink) not in by_endpoints:
            counts = _path_counts(instance, c, cap)
            plist = _counted(instance, c, cap, counts)
            if plist is None:
                rows: list[tuple[int, ...]] = []
                plist = StrategySet(enumerate_paths(instance, c, cap, rows, counts))
                plist.rows = tuple(rows)
            plist.edges = instance.edges
            by_endpoints[c.source, c.sink] = plist
    all_paths = tuple(by_endpoints[c.source, c.sink] for c in instance.commodities)
    return replace(instance, paths=all_paths)


# ---------------------------------------------------------------------------
# validation


def _reach(succ: Mapping[str, list[str]], source: str) -> set[str]:
    """Every node reachable from `source` by the successor lists `succ`."""
    seen = {source}
    stack = [source]
    while stack:
        for w in succ.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def validate_instance(instance: GameInstance) -> ValidationReport:
    """Collect every invariant violation; an empty report means the instance is
    valid. The one rule set of a valid instance: the CLI gates every scenario on it."""
    out: list[str] = []
    succ: dict[str, list[str]] = {}
    for e in instance.edges:
        succ.setdefault(e.tail, []).append(e.head)
    reach = cache(lambda node: _reach(succ, node))  # one reach set per source node
    nodes = set()
    for n in instance.nodes:
        if not n:
            out.append("empty node label")
        elif n in nodes:
            out.append(f"duplicate node {n!r}")
        nodes.add(n)

    edge_ids = set()
    for e in instance.edges:
        where = f"edge {e.id!r}"
        if not e.id:
            out.append("empty edge id")
        elif e.id in edge_ids:
            out.append(f"duplicate edge id {e.id!r}")
        edge_ids.add(e.id)
        if e.tail not in nodes:
            out.append(f"{where}: unknown tail node {e.tail!r}")
        if e.head not in nodes:
            out.append(f"{where}: unknown head node {e.head!r}")
        if e.tail == e.head:
            out.append(f"{where}: self-loop forbidden")
        if e.a < 0:
            out.append(f"{where}: negative congestion slope")
        if e.b < 0:
            out.append(f"{where}: negative congestion intercept")
        out.extend(f"{where}: {v}" for v in mixing_violations(e.c1, e.c2))
        if not all(map(math.isfinite, (e.a, e.b, e.c1, e.c2))):
            out.append(f"{where}: non-finite number")

    # priced edges whose price admits volumes up to x_max only
    bounded = [e for e in instance.edges if e.c2 != 0.0 and e.price.x_max < math.inf]
    commodity_ids = set()
    for c in instance.commodities:
        if not c.id:
            out.append("empty commodity id")
        elif c.id in commodity_ids:
            out.append(f"duplicate commodity id {c.id!r}")
        commodity_ids.add(c.id)
        bad = []  # this commodity's violations, named once there are any
        if c.source not in nodes:
            bad.append(f"unknown source node {c.source!r}")
        if c.sink not in nodes:
            bad.append(f"unknown sink node {c.sink!r}")
        if c.source == c.sink:
            bad.append("source equals sink")
        if not c.demand > 0:
            bad.append("demand must be positive")
        elif not math.isfinite(c.demand):
            bad.append("demand must be finite")
        elif c.source in nodes and c.sink in nodes:
            if c.sink not in reach(c.source):
                bad.append("no s-t path")
            # every edge on some source-sink walk, a superset of the path edges
            for e in bounded:
                if (
                    c.demand > e.price.x_max
                    and e.tail in reach(c.source)
                    and c.sink in reach(e.head)
                ):
                    bad.append(
                        f"demand {c.demand} outside the price domain"
                        f" of edge {e.id!r} ({e.price.fn!r})"
                    )
        if bad:
            out.extend(f"commodity {c.id!r}: {v}" for v in bad)

    overflow = cost_overflow(instance)
    if overflow is not None:
        out.append(overflow)

    if instance.paths:
        if len(instance.paths) != len(instance.commodities):
            out.append("paths populated for wrong number of commodities")
        else:
            known = {e.id: e for e in instance.edges}
            for c, plist in zip(instance.commodities, instance.paths):
                where = f"commodity {c.id!r}"
                if not plist:
                    out.append(f"{where}: empty strategy set")
                if list(plist) != sorted(plist):
                    out.append(f"{where}: paths not in lexicographic order")
                for p in plist:
                    if not _is_simple_path(p, known, c.source, c.sink):
                        out.append(f"{where}: invalid path {p}")
    return ValidationReport(tuple(out))


def mixing_violations(c1: float, c2: float) -> list[str]:
    """The one rule for the mixing weights of an edge: each lies in [0, 1] and
    they sum to 1 within NORMALIZATION_TOL. Lists what is wrong, in that order;
    empty for valid weights."""
    out = []
    if not (0.0 <= c1 <= 1.0 and 0.0 <= c2 <= 1.0):
        out.append("mixing coefficients outside [0, 1]")
    if abs(c1 + c2 - 1.0) > NORMALIZATION_TOL:
        out.append("mixing coefficients not normalized")
    return out


def cost_overflow(instance: GameInstance) -> Optional[str]:
    """A violation message when some cost of the instance may overflow the
    float range, else None. Edges and demands with non-finite or nonpositive
    numbers are left out; they are violations of their own.

    With D the total demand and W = Σ |c1|·(|a|·D + |b|) + |c2| over the
    edges, every per-unit path cost is at most W, since every catalog price
    has u <= 1; a social cost is at most D·W and the potential 2·D·W, and the
    oracle's deviation terms stay within a few max(1, D)·W. So the instance
    passes when 8·max(1, D)·W is finite."""
    demand = sum(c.demand for c in instance.commodities if 0 < c.demand < math.inf)
    unit = sum(
        abs(e.c1) * (abs(e.a) * demand + abs(e.b)) + abs(e.c2)
        for e in instance.edges
        if all(map(math.isfinite, (e.a, e.b, e.c1, e.c2)))
    )
    if math.isfinite(8.0 * max(1.0, demand) * unit):
        return None
    return f"costs overflow the float range at the total demand {demand}"


def _is_simple_path(
    path: Path, edges: Mapping[str, EdgeSpec], source: str, sink: str
) -> bool:
    node = source
    seen = {source}
    for eid in path:
        e = edges.get(eid)
        if e is None or e.tail != node:
            return False
        node = e.head
        if node in seen:
            return False
        seen.add(node)
    return node == sink


# ---------------------------------------------------------------------------
# scenario documents (JSON)


def _require_keys(obj: dict, allowed: set[str], required: set[str], what: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{what}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ScenarioError(f"{what}: missing fields {sorted(missing)}")


def _number(obj: dict, key: str, what: str) -> float:
    v = obj.get(key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{what}: field {key!r} must be a number")
    return float(v)


def _string(obj: dict, key: str, what: str) -> str:
    v = obj.get(key)
    if not isinstance(v, str) or not v:
        raise ScenarioError(f"{what}: field {key!r} must be a nonempty string")
    return v


def _parse_price(obj: object, what: str) -> PriceSpec:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{what}: 'price' must be an object")
    _require_keys(obj, {"fn", "params"}, {"fn"}, f"{what} price")
    fn = _string(obj, "fn", f"{what} price")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError(f"{what}: price 'params' must be an object")
    for k, v in params.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ScenarioError(f"{what}: price parameter {k!r} must be a number")
    try:
        return PriceSpec(fn, {k: float(v) for k, v in params.items()})
    except ValueError as exc:
        raise ScenarioError(f"{what}: {exc}") from exc


#: per kind of entry: its list and its keys, the id, two nodes and numbers
_ENTRIES = {
    "edge": ("edges", ("id", "from", "to", "a", "b", "c1", "c2", "price")),
    "commodity": ("commodities", ("id", "source", "sink", "demand")),
}


def _entries(doc: dict, kind: str, node_set: set[str]) -> list[tuple]:
    """The fields of each entry of one kind in a scenario, in `_ENTRIES` order,
    an edge's price as a `PriceSpec` that equal price objects share. An entry
    that fails one cheap test is checked field by field: ScenarioError names
    the first problem of the first bad entry."""
    plural, keys = _ENTRIES[kind]
    # each field's JSON type, as json.loads gives it here: every number a float
    types = (str,) * 3 + tuple(dict if k == "price" else float for k in keys[3:])
    if not isinstance(doc[plural], list):
        raise ScenarioError(f"'{plural}' must be an array")
    get, key_set, ids, specs, entries = itemgetter(*keys), set(keys), set(), {}, []
    for item in doc[plural]:
        fields = get(item) if type(item) is dict and item.keys() == key_set else ()
        if not (
            tuple(map(type, fields)) == types
            and fields[0]
            and fields[0] not in ids
            and fields[1] in node_set
            and fields[2] in node_set
        ):  # some check below fails: raise its message, in this order
            if not isinstance(item, dict):
                raise ScenarioError(f"{kind} entries must be objects")
            what = f"{kind} {item.get('id', '?')!r}"
            _require_keys(item, key_set, key_set, what)
            if _string(item, "id", what) in ids:
                raise ScenarioError(f"duplicate {kind} id {item['id']!r}")
            if not {_string(item, key, what) for key in keys[1:3]} <= node_set:
                raise ScenarioError(f"{what}: unknown node reference")
            for key in keys[3:]:
                if key != "price":
                    _number(item, key, what)
            fields = get(item)
        if kind == "edge":  # the price is checked last
            spec = specs.get(price := repr(fields[-1]))
            if spec is None:
                spec = specs[price] = _parse_price(fields[-1], f"edge {fields[0]!r}")
            fields = (*fields[:-1], spec)
        ids.add(fields[0])
        entries.append(fields)
    return entries


def _finite_number(text: str) -> float:
    # every JSON number, NaN and Infinity included, is read through here
    x = float(text)
    if not math.isfinite(x):
        raise ScenarioError(f"invalid JSON: non-finite number {text}")
    return x


def parse_scenario(text: str) -> GameInstance:
    """Parse a scenario JSON document into a (pathless) game instance.

    Raises ScenarioError for anything that cannot become an instance: JSON
    syntax, non-finite numbers, schema, types, duplicate ids or labels, unknown
    node references. Value ranges are left to validate_instance."""
    try:
        doc = json.loads(
            text,
            parse_constant=_finite_number,
            parse_float=_finite_number,
            parse_int=_finite_number,
        )
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    keys = {"nodes", "edges", "commodities"}
    _require_keys(doc, keys, keys, "scenario")

    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list) or not all(
        isinstance(n, str) and n for n in raw_nodes
    ):
        raise ScenarioError("'nodes' must be an array of nonempty strings")
    if len(set(raw_nodes)) != len(raw_nodes):
        raise ScenarioError("duplicate node label")
    nodes = tuple(raw_nodes)
    node_set = set(nodes)

    edges = tuple(EdgeSpec(*fields) for fields in _entries(doc, "edge", node_set))
    commodities = tuple(
        Commodity(*fields) for fields in _entries(doc, "commodity", node_set)
    )
    return GameInstance(nodes, edges, commodities)


_encode = json.encoder.encode_basestring_ascii
_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}  # and NaN
#: JSON text of each scalar type, as json.dumps writes it
_SCALAR_TEXT = {
    str: _encode,
    float: lambda x: float.__repr__(x) if x - x == 0.0 else _NON_FINITE.get(x, "NaN"),
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def json_text(obj: object, indent: str = "\n") -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, for a tree of dicts with str
    keys, lists and tuples whose leaves are of type str, int, float, bool or
    None: the package's one JSON writer. A container whose items are all
    strings, or all finite floats, is written by C functions; other items by a
    lookup on their type, and an object that recurs in one container once."""
    if isinstance(obj, dict):
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    else:  # a scalar, by its exact type
        return _SCALAR_TEXT[type(obj)](obj)
    if not obj:
        return brackets
    inner = indent + "  "
    kinds = set(map(type, values))
    if kinds == {str}:
        items = map(_encode, values)
    elif kinds == {float} and all(map(math.isfinite, values)):
        items = map(float.__repr__, values)
    else:  # each container object written once: a report repeats its paths
        texts: dict[int, str] = {}
        items = [
            text(v) if (text := _SCALAR_TEXT.get(type(v)))
            else texts.get(id(v)) or texts.setdefault(id(v), json_text(v, inner))
            for v in values
        ]
    if brackets == "{}":
        items = map("%s: %s".__mod__, zip(map(_encode, obj), items))
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def serialize_scenario(instance: GameInstance) -> str:
    """Render an instance back to scenario JSON (paths and meta are not serialized)."""
    doc = {
        "nodes": list(instance.nodes),
        "edges": [
            {
                "id": e.id,
                "from": e.tail,
                "to": e.head,
                "a": e.a,
                "b": e.b,
                "c1": e.c1,
                "c2": e.c2,
                "price": {"fn": e.price.fn, "params": dict(e.price.params)},
            }
            for e in instance.edges
        ],
        "commodities": [
            {"id": c.id, "source": c.source, "sink": c.sink, "demand": c.demand}
            for c in instance.commodities
        ],
    }
    return json_text(doc) + "\n"
