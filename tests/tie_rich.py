"""Random instances rich in exact ties, for hypothesis tests.

`random_affine_instance` draws every coefficient and demand uniformly, so two
paths (almost) never cost the same and two demands are never equal; rounding
faults that only show on a tie go unseen. `tie_rich_instances` snaps its
numbers to multiples of 1/4, and `repeated` adds equal commodities.
`one_demand_instances` gives every commodity the same demand, so the loads
come from `CompiledGame.repeated_sums`.
"""

import dataclasses
import math
import random

from hypothesis import strategies as st

from routegame.model import prepare
from routegame.random_instances import random_affine_instance

GRID = 4  # numbers are snapped to multiples of 1 / GRID


def _snap(x):
    return round(x * GRID) / GRID


def snapped(inst):
    """`inst` with a, b, c1 and c2 = 1 - c1 of every edge and every demand a
    multiple of 1/4; demands stay in (0, 1], inside every price domain."""
    edges = tuple(
        dataclasses.replace(
            e, a=_snap(e.a), b=_snap(e.b), c1=_snap(e.c1), c2=1.0 - _snap(e.c1)
        )
        for e in inst.edges
    )
    commodities = tuple(
        dataclasses.replace(c, demand=max(1.0 / GRID, _snap(c.demand)))
        for c in inst.commodities
    )
    return prepare(
        dataclasses.replace(inst, edges=edges, commodities=commodities, paths=())
    )


def repeated(inst, rng, max_profiles=2000):
    """`inst` with commodity i repeated reps[i] (1-4) times in place and, when
    there are two or more commodities, commodity 0 once more at the end: equal
    to the first run but not adjacent to it (A, B, A). Repeats are cut down,
    largest first, until the profile count is at most `max_profiles`."""
    commodities = inst.commodities
    sizes = [len(p) for p in inst.paths]
    reps = [rng.randint(1, 4) for _ in commodities]
    extra = [0] if len(commodities) > 1 else []

    def count():
        return math.prod(s**r for s, r in zip(sizes, reps)) * math.prod(
            sizes[i] for i in extra
        )

    while count() > max_profiles and max(reps) > 1:
        reps[reps.index(max(reps))] -= 1
    if count() > max_profiles:
        extra = []
    players = [
        dataclasses.replace(c, id=f"{c.id}.{k}")
        for c, r in zip(commodities, reps)
        for k in range(r)
    ]
    players += [dataclasses.replace(commodities[i], id="again") for i in extra]
    return prepare(dataclasses.replace(inst, commodities=tuple(players), paths=()))


def one_demand(inst, rng):
    """`inst` with every commodity's demand set to one of its demands, drawn
    by `rng`."""
    r = rng.choice([c.demand for c in inst.commodities])
    commodities = tuple(dataclasses.replace(c, demand=r) for c in inst.commodities)
    return prepare(dataclasses.replace(inst, commodities=commodities, paths=()))


@st.composite
def seeded_instances(draw, snap=False, same_demand=False):
    """A `random_affine_instance`, snapped on request, with one demand for
    every commodity on request (snapped, so inside every price domain), and
    with repeated commodities half the time."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    inst = random_affine_instance(rng)
    if snap or same_demand:
        inst = snapped(inst)
    if same_demand:
        inst = one_demand(inst, rng)
    if draw(st.booleans()):
        inst = repeated(inst, rng)
    return inst


def tie_rich_instances():
    """A snapped `random_affine_instance`, with repeated commodities half the
    time."""
    return seeded_instances(snap=True)


def one_demand_instances():
    """A snapped `random_affine_instance` whose commodities all have the same
    demand, with repeated commodities half the time."""
    return seeded_instances(same_demand=True)
