"""Best responses by exact shortest-path search over a strategy set's graph.

In a network congestion game a player's best response is a shortest-path
problem. `CompiledGame.move_costs`, the scan, costs every path of a strategy
set: O(E + P * L) for P paths of at most L edges. `PathSearch` answers the
same question on the set's graph, the union of its paths' edges, with nodes
numbered and each node's out-edges sorted by edge id, in time that grows with
the graph rather than with P. `CompiledGame.best_move` chooses between the
two per strategy set (`model.SEARCH_CROSSOVER`); both return the same floats
and the same path index.

Exactness. A path's cost is the left fold of its edges' costs, summed from 0.0
in path order with each addition rounded to nearest. Rounded addition is
monotone in each argument, and every edge cost is >= 0 (checked on every
call, as is a finite sum; otherwise the scan answers), so:

- appending an edge never lowers a fold, and removing a cycle from a walk
  never raises its fold: the least fold over the graph's source-sink walks is
  the least over its simple source-sink paths;
- label-correcting passes lab[w] = min(lab[w], lab[v] + cost[k]) reach that
  least fold: one pass in topological order on an acyclic graph, otherwise
  passes until no label changes (at most one more than the number of nodes);
- the strategy set lists exactly the simple source-sink paths of its graph
  (checked when the tables are built), so lab[sink] is the scan's min(costs).

The index. A strategy set is sorted by edge-id tuples, so the lowest index
whose cost qualifies (costs the minimum, or is more than eps below the current
cost) is the lexicographically first edge-id tuple that does. A depth-first
search over the out-edges in edge-id order meets the simple paths in that
order, folds each prefix exactly as the scan does, and tests each complete
path by the scan's own comparison. Whether a cost qualifies is monotone in the
cost, so the search may skip a prefix when a lower bound on the fold of every
completion does not qualify. It skips nothing else: a prefix that is not the
least at its node can still tie at the sink, where rounding absorbs the
difference.

The lower bound, deflated for rounding. Let x be a prefix's fold at node v and
h[v] the least backward fold (sums rounded from the sink back) over v's
completions, each of m < n edges in a graph of n nodes. With u = 2**-53, a
rounded sum of two nonnegative floats is within a factor 1 +- u of the exact
sum, and additions never underflow, so every completion's fold is at least
(x + h[v]) * (1 - u)**(2m), and z = fl(x + h[v]) is at most
(x + h[v]) * (1 + u). The bound is fl(z * deflate) - 2**-1000 with
deflate = 1 - (2n + 3) * u. A normal product has fl(z * deflate) <=
z * deflate * (1 + u) <= z * (1 - (2m + 1) * u), below every completion's
fold; for z below 2**-1021 the subtraction makes the bound negative. Every sum
stays finite, as the edge costs sum to less than 2**1000.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence

_U = 2.0**-53
_TINY = 2.0**-1000
#: edge costs summing to less than this keep every fold and bound finite
_LIMIT = 2.0**1000

Arcs = tuple[tuple[int, int], ...]  # (edge number, head node), in edge-id order


class PathSearch:
    """The graph of one strategy set, read-only once built; see the module
    docstring. It holds numbers, edge and node numbers and the compiled paths,
    and no reference to the instance it came from."""

    __slots__ = ("out", "sink", "forward", "backward", "acyclic", "deflate", "index")

    def __init__(
        self,
        paths: Sequence[tuple[int, ...]],
        out: list[Arcs],
        sink: int,
        order: list[int],
        acyclic: bool,
    ):
        #: per node (the source is node 0): its out-arcs
        self.out = out
        self.sink = sink
        #: (node, out-arcs) in topological order, and in reverse
        self.forward = [(v, out[v]) for v in order]
        self.backward = self.forward[::-1]
        self.acyclic = acyclic
        self.deflate = 1.0 - (2 * len(out) + 3) * _U
        #: path as edge numbers -> its index in the strategy set
        self.index = dict(zip(paths, range(len(paths))))

    def best_move(
        self,
        cost: Sequence[float],
        current_path: Sequence[int],
        eps: float,
        witness: bool,
    ) -> Optional[tuple[float, float, Optional[int], float]]:
        """`CompiledGame.best_move` for a player on `current_path` at the edge
        costs `cost` (by edge number), or None where the search's premises
        fail: an edge cost that is negative or NaN, or costs summing to
        2**1000 or more."""
        if not (min(cost) >= 0.0 and sum(cost) < _LIMIT):
            return None
        best = self._forward(cost)
        current = 0.0
        for k in current_path:
            current += cost[k]
        if current - best <= eps:
            return current, best, None, current
        qualifies: Callable[[float], bool]
        if witness:
            qualifies = lambda c: current - c > eps  # noqa: E731
        else:
            qualifies = best.__ge__
        found = _simple_paths(
            self.out, self.sink, cost, self._backward(cost), qualifies, self.deflate
        )
        path, c = next(found)
        return current, best, self.index[path], c

    def _forward(self, cost: Sequence[float]) -> float:
        """The least fold over the source-sink paths."""
        lab = [math.inf] * len(self.out)
        lab[0] = 0.0
        while True:
            changed = False
            for v, arcs in self.forward:
                x = lab[v]
                for k, w in arcs:
                    y = x + cost[k]
                    if y < lab[w]:
                        lab[w] = y
                        changed = True
            if self.acyclic or not changed:
                return lab[self.sink]

    def _backward(self, cost: Sequence[float]) -> list[float]:
        """Per node, the least fold of the edge costs summed from the sink back."""
        h = [math.inf] * len(self.out)
        h[self.sink] = 0.0
        while True:
            changed = False
            for v, arcs in self.backward:
                for k, w in arcs:
                    y = cost[k] + h[w]
                    if y < h[v]:
                        h[v] = y
                        changed = True
            if self.acyclic or not changed:
                return h


def path_search(
    paths: Sequence[tuple[int, ...]],
    on_paths: Sequence[int],
    tail: Sequence[str],
    head: Sequence[str],
    ids: Sequence[str],
) -> Optional[PathSearch]:
    """The search tables of a strategy set: `paths` as edge numbers, the edge
    numbers `on_paths` on any of them, and per edge number its tail and head
    node and its id. None where the search could not reproduce the scan: a
    path listed twice, or a graph with a simple source-sink path the set does
    not list. The listed paths are taken to be simple source-sink paths, as
    `validate_instance` requires."""
    if not paths or not all(paths):
        return None
    number = {tail[paths[0][0]]: 0}
    for k in on_paths:
        number.setdefault(tail[k], len(number))
        number.setdefault(head[k], len(number))
    n = len(number)
    sink = number[head[paths[0][-1]]]
    arcs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    indegree = [0] * n
    for k in sorted(on_paths, key=ids.__getitem__):
        w = number[head[k]]
        arcs[number[tail[k]]].append((k, w))
        indegree[w] += 1
    out = list(map(tuple, arcs))
    order = [v for v in range(n) if not indegree[v]]
    for v in order:  # Kahn's algorithm; `order` grows as it is read
        for _, w in out[v]:
            indegree[w] -= 1
            if not indegree[w]:
                order.append(w)
    acyclic = len(order) == n
    if acyclic:
        count = [0] * n
        count[sink] = 1
        for v in reversed(order):
            if v != sink:
                count[v] = sum(count[w] for _, w in out[v])
        simple = count[0]
    else:
        order += [v for v in range(n) if indegree[v]]
        every = _simple_paths(
            out, sink, [0.0] * len(tail), [0.0] * n, lambda c: True, 1.0
        )
        simple = sum(1 for _ in islice(every, len(paths) + 1))
    search = PathSearch(paths, out, sink, order, acyclic)
    if len(search.index) != len(paths) or simple != len(paths):
        return None
    return search


def _simple_paths(
    out: Sequence[Arcs],
    sink: int,
    cost: Sequence[float],
    h: Sequence[float],
    qualifies: Callable[[float], bool],
    deflate: float,
) -> Iterator[tuple[tuple[int, ...], float]]:
    """Each simple path from node 0 to `sink` whose fold qualifies, as (edge
    numbers, fold), in edge-id order. A prefix with fold x at node v is not
    extended when (x + h[v]) * deflate - 2**-1000 does not qualify."""
    on = [False] * len(out)
    on[0] = True
    nodes, trail, folds = [0], [], [0.0]
    stack = [iter(out[0])]
    while stack:
        x = folds[-1]
        for k, w in stack[-1]:
            y = x + cost[k]
            if w == sink:
                if qualifies(y):
                    yield (*trail, k), y
            elif not on[w] and qualifies((y + h[w]) * deflate - _TINY):
                on[w] = True
                nodes.append(w)
                trail.append(k)
                folds.append(y)
                stack.append(iter(out[w]))
                break
        else:
            stack.pop()
            on[nodes.pop()] = False
            if trail:
                trail.pop()
                folds.pop()
