"""Random small affine instances for sweeps and property tests."""

from __future__ import annotations

import random

from .model import (
    Commodity,
    EdgeSpec,
    GameInstance,
    PathEnumerationError,
    prepare,
    profile_count,
    validate_instance,
)
from .pricing import PRICE_FAMILIES, PriceSpec


def random_price_spec(rng: random.Random) -> PriceSpec:
    fn = rng.choice(PRICE_FAMILIES)
    if fn == "saturating":
        return PriceSpec(fn, {"beta": rng.uniform(0.5, 3.0)})
    return PriceSpec(fn)


def random_affine_instance(
    rng: random.Random,
    max_nodes: int = 5,
    max_edges: int = 8,
    max_players: int = 3,
    max_profiles: int = 2000,
    path_cap: int = 256,
    max_attempts: int = 1000,
) -> GameInstance:
    """A valid prepared instance with affine congestion, catalog prices, and a
    bounded number of strategy profiles. Demands stay in (0, 1] so every price
    family is inside its admissible domain."""
    for _ in range(max_attempts):
        n_nodes = rng.randint(2, max_nodes)
        nodes = tuple(f"n{i}" for i in range(n_nodes))
        n_edges = rng.randint(1, max_edges)
        edges = []
        for j in range(n_edges):
            tail, head = rng.sample(nodes, 2)
            c1 = rng.random()
            edges.append(
                EdgeSpec(
                    f"e{j}",
                    tail,
                    head,
                    a=rng.uniform(0.0, 2.0),
                    b=rng.uniform(0.0, 2.0),
                    c1=c1,
                    c2=1.0 - c1,
                    price=random_price_spec(rng),
                )
            )
        n_players = rng.randint(1, max_players)
        commodities = []
        for i in range(n_players):
            source, sink = rng.sample(nodes, 2)
            commodities.append(
                Commodity(f"c{i}", source, sink, rng.uniform(0.1, 1.0))
            )
        instance = GameInstance(nodes, tuple(edges), tuple(commodities))
        if not validate_instance(instance).ok:
            continue
        try:
            instance = prepare(instance, cap=path_cap)
        except PathEnumerationError:
            continue
        if profile_count(instance) <= max_profiles:
            return instance
    raise RuntimeError("could not generate a valid instance within attempt budget")
