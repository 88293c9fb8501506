"""Best responses by exact shortest-path search over a strategy set's graph.

In a network congestion game a player's best response is a shortest-path
problem. The scan of `CompiledGame.best_move` costs every path of a strategy
set: O(E + P * L) for P paths of at most L edges. `PathSearch` answers the
same question on the set's graph, the union of its paths' edges, in time that
grows with the graph rather than with P. It searches exactly the sets that
`prepare` counts (a `model.CountedSet`, chosen by `model.SEARCH_CROSSOVER`)
and reads their `model.Graph`: nodes numbered in a topological order, each
node's out-arcs (edge number, head, paths from the head) in edge-id order.
A path is its edge numbers, as everywhere in the package, and the set's
`rank` turns the path found into its index. `CompiledGame.best_move` scans
every other set; both return the same floats and the same path index.

Exactness. A path's cost is the left fold of its edges' costs, summed from 0.0
in path order with each addition rounded to nearest. Rounded addition is
monotone in each argument, and every edge cost is >= 0 (checked on every
call, as is a finite sum; otherwise the scan answers), so:

- appending an edge never lowers a fold;
- one label-correcting pass lab[w] = min(lab[w], lab[v] + cost[k]) in
  topological order reaches the least fold over the source-sink paths, as
  each node's label is final before its out-edges are read;
- a counted graph is acyclic, so each of its source-sink paths is simple, and
  the counted set is every such path by construction: lab[sink] is the
  scan's min(costs).

The index. A strategy set is sorted by edge-id tuples, so the lowest index
at the least cost is the lexicographically first edge-id tuple at that cost.
A depth-first search over the out-edges in edge-id order meets the paths in
that order, folds each prefix exactly as the scan does, and stops at the
first complete path whose fold is at most the least one, lab[sink]. So it may
skip a prefix when a lower bound on the fold of every completion exceeds
lab[sink]. It skips nothing else: a prefix that is not the least at its node
can still tie at the sink, where rounding absorbs the difference.

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
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

if TYPE_CHECKING:
    from .model import CountedSet

_U = 2.0**-53
_TINY = 2.0**-1000
#: edge costs summing to less than this keep every fold and bound finite
_LIMIT = 2.0**1000

Arcs = tuple[tuple[int, int, int], ...]  # a `model.Graph` node's out-arcs


class PathSearch:
    """The search on one counted strategy set's graph, read-only once built;
    see the module docstring. It holds numbers, edge and node numbers and the
    set's `rank`, which maps a path's edge numbers to its index in the set."""

    __slots__ = ("out", "sink", "backward", "deflate", "rank")

    def __init__(self, paths: CountedSet):
        #: per node, numbered in topological order from the source, node 0:
        #: its out-arcs
        self.out, self.sink, *_ = paths.graph
        #: (node, out-arcs) in reverse topological order
        self.backward = list(enumerate(self.out))[::-1]
        self.deflate = 1.0 - (2 * len(self.out) + 3) * _U
        self.rank = paths.rank

    def best_move(
        self, cost: Sequence[float], current_path: Sequence[int], eps: float
    ) -> Optional[tuple[float, float, Optional[int]]]:
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
            return current, best, None
        found = _simple_paths(
            self.out, self.sink, cost, self._backward(cost), best, self.deflate
        )
        path, _ = next(found)
        return current, best, self.rank(path)

    def _forward(self, cost: Sequence[float]) -> float:
        """The least fold over the source-sink paths."""
        lab = [math.inf] * len(self.out)
        lab[0] = 0.0
        for v, arcs in enumerate(self.out):
            x = lab[v]
            for k, w, _ in arcs:
                y = x + cost[k]
                if y < lab[w]:
                    lab[w] = y
        return lab[self.sink]

    def _backward(self, cost: Sequence[float]) -> list[float]:
        """Per node, the least fold of the edge costs summed from the sink back."""
        h = [math.inf] * len(self.out)
        h[self.sink] = 0.0
        for v, arcs in self.backward:
            for k, w, _ in arcs:
                y = cost[k] + h[w]
                if y < h[v]:
                    h[v] = y
        return h


def _simple_paths(
    out: Sequence[Arcs],
    sink: int,
    cost: Sequence[float],
    h: Sequence[float],
    best: float,
    deflate: float,
) -> Iterator[tuple[tuple[int, ...], float]]:
    """Each path from node 0 to `sink` of the acyclic graph `out` whose fold
    is at most `best`, as (edge numbers, fold), in edge-id order. A prefix
    with fold x at node v is not extended when (x + h[v]) * deflate - 2**-1000
    exceeds `best`."""
    trail, folds = [], [0.0]
    stack = [iter(out[0])]
    while stack:
        x = folds[-1]
        for k, w, _ in stack[-1]:
            y = x + cost[k]
            if w == sink:
                if y <= best:
                    yield (*trail, k), y
            elif (y + h[w]) * deflate - _TINY <= best:
                trail.append(k)
                folds.append(y)
                stack.append(iter(out[w]))
                break
        else:
            stack.pop()
            if trail:
                trail.pop()
                folds.pop()
