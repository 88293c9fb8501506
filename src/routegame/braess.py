"""The four-node edge-addition experiment: builders for the classic network and
its priced variant, the closed-form severity ratio, and before/after runs.

The diamond topology is s -> {v, w} -> t with variable edges s->v and w->t
(unit-slope congestion), constant edges v->t and s->w (cost 1), and an optional
zero-cost shortcut v->w whose addition raises the equilibrium cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import engine, oracle
from .model import (
    Commodity,
    EdgeSpec,
    GameInstance,
    NotConvergedError,
    exact_sum,
    mixing_violations,
    prepare,
)
from .pricing import PriceSpec, ZERO_PRICE


@dataclass(frozen=True)
class BraessReport:
    before_cost: float   # worst-equilibrium social cost per unit of demand, no shortcut
    after_cost: float    # the same with the shortcut
    rho: float           # after / before
    n_players: int


def rho_formula(u: float, c1: float, c2: float) -> float:
    """Closed-form severity ratio 4*(c1 + c2*u) / (2 + c1 + 2*c2*u).

    At c1 = c2 = 1/2 this is (4 + 4u)/(5 + 2u); at c2 = 0 it is 4/3; at c1 = 0
    and u = 1 the paradox vanishes (ratio 1)."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"unit price {u} outside [0, 1]")
    _check_mixing(c1, c2)
    return 4.0 * (c1 + c2 * u) / (2.0 + c1 + 2.0 * c2 * u)


def _check_mixing(c1: float, c2: float) -> None:
    """Raise ValueError with the first of `mixing_violations`, validate's rule."""
    violations = mixing_violations(c1, c2)
    if violations:
        raise ValueError(violations[0])


def _check_n(n: int) -> None:
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"number of players must be even and positive, got {n}")


def _diamonds(
    variable: tuple[PriceSpec, float, float], n: int
) -> tuple[GameInstance, GameInstance]:
    """The diamond without and with the shortcut, for n players u1..un from s
    to t of demand 1/n each; both hold the same commodities tuple."""
    price, c1, c2 = variable
    edges = (
        EdgeSpec("sv", "s", "v", a=1.0, b=0.0, c1=c1, c2=c2, price=price),
        EdgeSpec("vt", "v", "t", a=0.0, b=1.0),
        EdgeSpec("sw", "s", "w", a=0.0, b=1.0),
        EdgeSpec("wt", "w", "t", a=1.0, b=0.0, c1=c1, c2=c2, price=price),
    )
    shortcut = EdgeSpec("vw", "v", "w", a=0.0, b=0.0)
    nodes = ("s", "v", "w", "t")
    players = tuple(Commodity(f"u{i + 1}", "s", "t", 1.0 / n) for i in range(n))
    return (
        prepare(GameInstance(nodes, edges, players)),
        prepare(GameInstance(nodes, edges + (shortcut,), players)),
    )


def _check_cap(n: int, cap: Optional[int]) -> None:
    """With a cap, raise ProfileCapError as an oracle scan of the diamond
    without the shortcut would: it has 2^n profiles, and is scanned first."""
    if cap is not None:
        oracle.check_cap(2**n, cap)


def build_classic_braess(
    n: int, *, cap: Optional[int] = None
) -> tuple[GameInstance, GameInstance]:
    """Unpriced diamond (pure congestion) without and with the shortcut edge.

    n even players of demand 1/n each; the half-split equilibrium costs 3/2 per
    unit, the post-shortcut equilibrium costs 2. With a `cap`, a diamond the
    oracle would refuse is refused before it is built."""
    return build_priced_braess(n, ZERO_PRICE, 1.0, 0.0, cap=cap)


def build_priced_braess(
    n: int,
    price: PriceSpec,
    c1: float = 0.5,
    c2: float = 0.5,
    *,
    cap: Optional[int] = None,
) -> tuple[GameInstance, GameInstance]:
    """Diamond whose variable edges mix congestion and per-unit price with
    weights c1/c2. With c2 = 0 the output is structurally identical to the
    classic construction. `cap` is as for `build_classic_braess`."""
    _check_n(n)
    _check_mixing(c1, c2)
    _check_cap(n, cap)
    if c2 == 0.0:
        variable = (ZERO_PRICE, 1.0, 0.0)  # price weight zero: drop the price spec
    else:
        variable = (price, c1, c2)
    return _diamonds(variable, n)


def _worst_equilibrium_cost(
    instance: GameInstance,
    method: str,
    cap: int,
    eps_improve: float,
    max_moves: int,
) -> float:
    """Social cost of the worst equilibrium over the total demand."""
    if method == "oracle":
        _, cost, _ = oracle.worst_equilibrium(instance, cap, eps_improve)
    elif method == "dynamics":
        initial = engine.StrategyProfile((0,) * len(instance.commodities))
        result = engine.run_best_response_dynamics(
            instance,
            initial,
            engine.DynamicsConfig(max_moves=max_moves, eps_improve=eps_improve),
        )
        made = len(result.moves)
        if not result.converged and made < max_moves:
            # the run stopped short of the cap: staying put counts as an
            # improvement, so no profile passes the equilibrium check
            raise NotConvergedError(
                f"dynamics stopped after {made} move{'' if made == 1 else 's'}:"
                f" no profile is an equilibrium at a negative epsilon ({eps_improve})"
            )
        if not result.converged:
            raise NotConvergedError(
                f"dynamics did not converge within {max_moves} moves"
            )
        cost = result.costs.social_cost
    else:
        raise ValueError(f"unknown method {method!r}")
    return cost / exact_sum(c.demand for c in instance.commodities)


def edge_addition_experiment(
    before: GameInstance,
    after: GameInstance,
    method: str = "oracle",
    cap: int = oracle.DEFAULT_PROFILE_CAP,
    eps_improve: float = engine.DEFAULT_EPS_IMPROVE,
    max_moves: int = engine.DEFAULT_MAX_MOVES,
) -> BraessReport:
    """Compare worst-equilibrium social costs per unit of demand before and
    after an edge addition; `rho` is their ratio.

    method="oracle" uses exhaustive search (true worst equilibrium);
    method="dynamics" samples one equilibrium via best-response dynamics."""
    if before.commodities != after.commodities:
        raise ValueError("instances do not share commodities")
    if not before.commodities:
        raise ValueError("instances have no commodities")
    before_cost = _worst_equilibrium_cost(before, method, cap, eps_improve, max_moves)
    after_cost = _worst_equilibrium_cost(after, method, cap, eps_improve, max_moves)
    return BraessReport(
        before_cost=before_cost,
        after_cost=after_cost,
        rho=oracle.cost_ratio(after_cost, before_cost),
        n_players=len(before.commodities),
    )
